//! The conservative parallel runner: simulates federation shards
//! concurrently *within* one run, preserving the sequential oracle's
//! event order exactly.
//!
//! ## Why this is safe
//!
//! A shard's event loop is entirely private except for accesses to the
//! shared [`PlacementStore`](crate::store::PlacementStore): home
//! placements never touch it, mirror refreshes read it only at
//! staleness-windowed sync ticks, and shared-pool commits/settlements
//! write it. In threaded mode there are no cross-shard event sends
//! (migrations pin the run to the sequential loop), so a shard's next
//! queued event time is a *monotone lower bound* on the virtual time of
//! its next possible store access — the classic conservative-lookahead
//! argument, with the federation's staleness window playing the role of
//! lookahead.
//!
//! Each worker owns a contiguous chunk of shards and always steps its
//! owned shard with the lexicographically smallest `(next event time,
//! shard index)`. Store accesses block on the
//! [`StoreCell`](crate::turnstile::StoreCell) turnstile until every
//! other shard's published bound passes the access point, which
//! reproduces the sequential `(time, shard)` access order byte for byte.
//! Progress is guaranteed: the globally smallest `(time, shard)` always
//! passes the turnstile, and it is necessarily the shard its own worker
//! is currently stepping (a worker steps its owned minimum, so its other
//! shards can never be what the stepped shard waits on).

use cpsim_des::{SimTime, Simulation};

use crate::driver::ShardCore;
use crate::turnstile::{StoreCell, LB_DONE};

/// The `(next event time, shard index)` minimum over `sims`, considering
/// only events at or before `horizon` (matching the kernel's inclusive
/// [`run_until`](Simulation::run_until) semantics). Shared by the
/// sequential oracle loop and each worker's owned-shard scan.
pub(crate) fn next_shard(
    sims: &[Simulation<ShardCore>],
    horizon: SimTime,
) -> Option<(SimTime, usize)> {
    let mut best: Option<(SimTime, usize)> = None;
    for (s, sim) in sims.iter().enumerate() {
        if let Some(t) = sim.next_event_time() {
            if t <= horizon && best.is_none_or(|b| (t, s) < b) {
                best = Some((t, s));
            }
        }
    }
    best
}

/// Publishes shard `s`'s turnstile lower bound: its next event time, or
/// [`LB_DONE`] once nothing at or before `horizon` remains (a shard with
/// no runnable events cannot touch the store again this slice).
fn publish_lb(cell: &StoreCell, s: usize, sim: &Simulation<ShardCore>, horizon: SimTime) {
    match sim.next_event_time() {
        Some(t) if t <= horizon => cell.publish(s, t.as_micros()),
        _ => cell.publish(s, LB_DONE),
    }
}

/// Runs every shard up to `horizon` on `jobs` worker threads, producing
/// exactly the sequential oracle's results.
pub(crate) fn run_threaded(
    sims: &mut [Simulation<ShardCore>],
    cell: &StoreCell,
    horizon: SimTime,
    jobs: usize,
) {
    // Seed every shard's bound before any worker can block on it: a
    // stale bound from a previous slice could claim a shard is further
    // along than it is, which would break the conservative ordering.
    for (s, sim) in sims.iter().enumerate() {
        publish_lb(cell, s, sim, horizon);
    }
    cell.set_active(true);
    let chunk = sims.len().div_ceil(jobs);
    std::thread::scope(|scope| {
        for (w, slice) in sims.chunks_mut(chunk).enumerate() {
            let base = w * chunk;
            scope.spawn(move || {
                while let Some((t, i)) = next_shard(slice, horizon) {
                    // The shard's bound already equals this event's time
                    // (published after its previous step), so other
                    // shards order themselves against it while we run.
                    #[cfg(feature = "sanitize")]
                    cell.sanitize_assert_bound_covers(base + i, t.as_micros());
                    #[cfg(not(feature = "sanitize"))]
                    let _ = t;
                    slice[i].step();
                    publish_lb(cell, base + i, &slice[i], horizon);
                }
                for (i, sim) in slice.iter_mut().enumerate() {
                    // Advance the clock to the horizon and flush the
                    // per-shard contribution to the process-wide event
                    // counter; no events remain at or before it.
                    sim.run_until(horizon);
                    cell.publish(base + i, LB_DONE);
                }
            });
        }
    });
    cell.set_active(false);
    debug_assert!(
        sims.iter()
            .all(|s| s.model().stack.hook.mig_outbox.is_empty()),
        "migration reports in a threaded slice"
    );
}
