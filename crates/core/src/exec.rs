//! Parallel sweep execution.
//!
//! Every sweep point of an experiment — one (clone-mode × arrival-rate ×
//! replication) cell — is an independent [`Simulation`](cpsim_des::Simulation)
//! with its own seed substream, so sweeps are embarrassingly parallel. This
//! module provides the small job-runner the experiments submit points to: a
//! work-stealing pool built on `std::thread::scope` (no external
//! dependencies; the workspace builds offline).
//!
//! # Heavy-end-first claiming
//!
//! Workers claim points from the **last index down**. The experiments
//! follow one convention: *a sweep axis ascends in cost*. More shards,
//! more hosts, higher concurrency and higher offered rates all come later
//! in their point lists, so the heaviest point is the last one. Claimed
//! in ascending order, that point would start last and finish alone while
//! every other worker idles; claimed first, it overlaps with the cheap
//! points instead. Measured per-point costs at full scale, `--jobs 1`
//! (median of five runs on a 2-core x86-64 host):
//!
//! | sweep | points in order | seconds per point |
//! |-------|-----------------|-------------------|
//! | f10 | fed1, mult1, fed2, mult2, fed4, mult4, fed8, mult8 | 0.20, 0.34, 0.32, 0.35, 0.61, 0.35, 1.21, 0.31 |
//! | f11 | 64, 256, 1024, 2048 hosts | 0.0003, 0.0009, 0.0045, 0.0102 |
//! | f8 | 4–32 datastores × idle/loaded, 8–32 crowded VMs | ~0.005 each |
//! | t1, f1, f2, f6 | enterprise, cloud-b, cloud-a (72 h) | 0.037, 0.039, 0.120 |
//!
//! The characterization sweeps list their profiles in that cost order
//! and report them in table order (`experiments::loops::profile_sweep`).
//!
//! There is no per-point cost hint: when a new sweep breaks the
//! convention, reorder its points rather than teach the executor about
//! cost.
//!
//! # Determinism
//!
//! Parallelism must never change results, only wall-clock. Two properties
//! guarantee byte-identical output tables at any job count:
//!
//! 1. each sweep point derives all randomness from its own point inputs
//!    (seed, parameters) — nothing is shared between points; and
//! 2. results are written into a slot vector indexed by the point's
//!    position and returned **in submission order**, regardless of which
//!    worker finished first.
//!
//! The scheduling itself (an atomic claim counter, i.e. work stealing at
//! point granularity, walked from the heavy end) only decides *who* runs
//! a point and *when*, never *what* the point computes — so reversing the
//! claim order cannot change a single output byte. `jobs <= 1` bypasses
//! the pool entirely and runs the points in ascending order on the
//! calling thread. This is asserted end-to-end by the `jobs_determinism`
//! integration test.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use when the caller asks for "all cores".
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `points` on up to `jobs` worker threads, returning the
/// results in point order.
///
/// `jobs <= 1` (or fewer than two points) degenerates to a plain
/// sequential loop on the calling thread, in ascending point order, with
/// no threads spawned. Larger sweeps are distributed by work stealing:
/// each worker repeatedly claims the highest-indexed unclaimed point (see
/// the module docs on heavy-end-first claiming), so a slow point never
/// stalls the points behind it and the heaviest point never starts last.
///
/// # Panics
///
/// Panics propagate: if any point's closure panics, the panic is
/// re-raised on the calling thread once the scope joins.
pub fn parallel_map<P, R, F>(jobs: usize, points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let workers = jobs.min(points.len());
    if workers <= 1 {
        return points.iter().map(f).collect();
    }

    let claimed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = claimed.fetch_add(1, Ordering::Relaxed);
                let Some(i) = points.len().checked_sub(k + 1) else {
                    break;
                };
                let r = f(&points[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| unreachable!("point {i} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_point_order() {
        let points: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = parallel_map(jobs, &points, |&p| p * p);
            assert_eq!(out, points.iter().map(|p| p * p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_is_stolen_not_blocked() {
        // Front-loaded heavy points: a static split would serialize them
        // on one worker; stealing spreads them. Only correctness is
        // asserted here (timing is covered by the benches).
        let points: Vec<u64> = (0..40).map(|i| if i < 4 { 200_000 } else { 10 }).collect();
        let out = parallel_map(4, &points, |&n| (0..n).sum::<u64>());
        let expected: Vec<u64> = points.iter().map(|&n| (0..n).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn workers_claim_the_heavy_end_first() {
        // Every worker blocks after its first point until all workers have
        // claimed one, so the first `jobs` log entries are exactly the
        // first `jobs` claims.
        let points: Vec<usize> = (0..20).collect();
        for jobs in [2, 3, 4] {
            let log = Mutex::new(Vec::new());
            let started = AtomicUsize::new(0);
            let barrier = std::sync::Barrier::new(jobs);
            let out = parallel_map(jobs, &points, |&p| {
                log.lock().unwrap().push(p);
                if started.fetch_add(1, Ordering::Relaxed) < jobs {
                    barrier.wait();
                }
                p
            });
            assert_eq!(out, points);
            let log = log.into_inner().unwrap();
            let mut first = log[..jobs].to_vec();
            first.sort_unstable();
            assert_eq!(
                first,
                (points.len() - jobs..points.len()).collect::<Vec<_>>()
            );
            let mut all = log;
            all.sort_unstable();
            assert_eq!(all, points, "every point claimed exactly once");
        }
    }

    #[test]
    fn sequential_path_runs_points_in_ascending_order() {
        let points: Vec<usize> = (0..20).collect();
        let log = Mutex::new(Vec::new());
        parallel_map(1, &points, |&p| log.lock().unwrap().push(p));
        assert_eq!(log.into_inner().unwrap(), points);
    }

    #[test]
    fn heavy_tail_results_stay_in_point_order() {
        // The shape the experiments produce: cost ascends along the axis,
        // so the points claimed first are the slowest to finish.
        let points: Vec<u64> = (0..40)
            .map(|i| if i >= 36 { 200_000 } else { 10 })
            .collect();
        let expected: Vec<u64> = points.iter().map(|&n| (0..n).sum()).collect();
        for jobs in [2, 3, 4] {
            assert_eq!(
                parallel_map(jobs, &points, |&n| (0..n).sum::<u64>()),
                expected
            );
        }
    }

    #[test]
    fn empty_and_single_point_sweeps() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |&p| p).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |&p| p + 1), vec![8]);
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(2, &[1u32, 2, 3, 4], |&p| {
                assert!(p != 3, "boom");
                p
            })
        });
        assert!(result.is_err());
    }
}
