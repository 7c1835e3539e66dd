//! F13 — federated scale-out: conflict rate, goodput and queueing delay
//! vs shard count × staleness window.
//!
//! The paper's scale-out discussion assumes sharding the inventory across
//! management planes multiplies capacity. This figure models what the
//! paper could not measure: the coordination cost once shards share spare
//! capacity. Total physical inventory is held constant (eight home hosts
//! and datastores split evenly, plus one shared spillover pool); only the
//! number of control planes managing it varies. Home datastores are kept
//! nearly full, so essentially every placement competes for the shared
//! pool through a view refreshed only once per staleness window.
//!
//! Expected shape: one shard never conflicts (it has the pool to
//! itself), and conflicts then grow with both shard count and staleness
//! — stale mirrors keep nominating slots the store has already handed
//! to someone else, and each lost race burns backoff retries until a
//! sync refreshes the loser's view. Goodput (clean instantiates only)
//! shows the coordination-overhead crossover: a second shard still
//! pays, but by four shards the conflict/abort tax eats the extra
//! plane capacity and goodput falls back below the two-shard line,
//! while wider windows drag goodput down within a shard count.

use std::collections::BTreeMap;

use cpsim_cloud::ProvisioningPolicy;
use cpsim_des::SimDuration;
use cpsim_faults::RecoveryPolicy;
use cpsim_federation::FedTopology;
use cpsim_metrics::Table;
use cpsim_mgmt::ControlPlaneConfig;

use crate::experiments::loops::{fed_closed_loop, sweep, FedLoadResult};
use crate::experiments::{fmt, ExpOptions};

/// Clone delta size: coarse on purpose, so each shared-pool commit is a
/// visible bite out of the free space and a stale mirror overshoots by
/// whole slots, not crumbs.
const DELTA_GB: f64 = 4.0;

/// Constant-inventory contended topology: `8/shards` home hosts and
/// datastores per shard, home storage nearly exhausted by the template
/// base, and a shared pool whose *free* space (after each shard seeds
/// one 20 GiB base per shared datastore) is `pool_free_gb` regardless of
/// shard count.
pub(crate) fn contended_topology(shards: usize, pool_free_gb: f64) -> FedTopology {
    let per = (8 / shards).max(1) as u32;
    FedTopology {
        shards,
        home_hosts_per_shard: per,
        home_ds_per_shard: per,
        home_ds_capacity_gb: 24.0,
        shared_hosts: 4,
        shared_ds: 2,
        shared_ds_capacity_gb: pool_free_gb / 2.0 + 20.0 * shards as f64,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("fed-template".into(), 2, 2_048, 20.0)],
        initial_vms_per_shard: Vec::new(),
        initial_vm_disk_gb: 4.0,
    }
}

/// Runs one F13 point: a contended closed loop over `shards` planes that
/// refresh their pool view every `staleness_s` seconds.
fn simulate(opts: &ExpOptions, shards: usize, staleness_s: u64) -> FedLoadResult {
    let warmup = SimDuration::from_mins(opts.pick(5, 2));
    let measure = SimDuration::from_mins(opts.pick(20, 6));
    // Closed-loop population per shard: each plane serves its own
    // tenants, so aggregate demand on the fixed shared pool grows with
    // the shard count — that is precisely the spillover-contention
    // story this figure measures.
    let n_per_shard = opts.pick(48, 24);
    // Pool headroom sized for a single shard's demand (live clones of
    // DELTA_GB each plus the destroy pipeline's lag): one shard fits
    // comfortably, every extra shard oversubscribes the pool.
    let pool_free_gb = f64::from(n_per_shard) * DELTA_GB * 2.0;
    let config = ControlPlaneConfig {
        linked_delta_gb: DELTA_GB,
        ..Default::default()
    };
    // Dense bounded backoff: a loser keeps retrying against its stale
    // mirror (each retry that still sees a full pool is another
    // conflict) until a periodic sync rescues it, so wide windows pay
    // linearly more conflicts per lost race.
    let recovery = RecoveryPolicy {
        max_retries: 6,
        backoff_base: SimDuration::from_secs(3),
        backoff_factor: 1.5,
        backoff_max: SimDuration::from_secs(10),
        ..Default::default()
    };
    fed_closed_loop(
        opts.seed,
        contended_topology(shards, pool_free_gb),
        config,
        ProvisioningPolicy::default(),
        recovery,
        SimDuration::from_secs(staleness_s),
        n_per_shard * shards as u32,
        warmup,
        measure,
    )
}

/// Runs F13.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let shards: Vec<usize> = opts.pick(vec![1, 2, 4], vec![1, 2, 4]);
    let staleness: Vec<u64> = opts.pick(vec![5, 15, 45], vec![5, 20]);

    let mut table = Table::new(
        "F13 — Federated scale-out: conflicts and goodput vs shards × staleness window",
        &[
            "shards",
            "staleness s",
            "VMs/hour",
            "conflicts",
            "conflict rate",
            "p99 queue s",
            "mean latency s",
            "aborted",
            "failures",
            "syncs",
        ],
    );
    // A lone shard schedules no store syncs, so its staleness window
    // cannot change the run: simulate it once, under the first window,
    // and report that run on every staleness row.
    let simulated = |s: usize, w: u64| if s == 1 { staleness[0] } else { w };
    let grid: Vec<(usize, u64)> = shards
        .iter()
        .flat_map(|&s| staleness.iter().map(move |&w| (s, w)))
        .collect();
    let points: Vec<(usize, u64)> = grid
        .iter()
        .copied()
        .filter(|&(s, w)| simulated(s, w) == w)
        .collect();
    let results = sweep(opts, &points, |&(s, w)| simulate(opts, s, w));
    let by_point: BTreeMap<(usize, u64), FedLoadResult> = points.into_iter().zip(results).collect();
    for (s, w) in grid {
        let r = &by_point[&(s, simulated(s, w))];
        let attempts = r.commits + r.conflicts;
        let rate = if attempts == 0 {
            0.0
        } else {
            r.conflicts as f64 / attempts as f64
        };
        table.row([
            s.to_string(),
            w.to_string(),
            fmt(r.vms_per_hour),
            r.conflicts.to_string(),
            fmt(rate),
            fmt(r.p99_queue_s),
            fmt(r.mean_latency_s),
            r.aborted.to_string(),
            r.failures.to_string(),
            r.syncs.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_run_ignores_the_staleness_window() {
        // The premise behind simulating the one-shard row only once.
        let opts = ExpOptions::quick();
        assert_eq!(simulate(&opts, 1, 5), simulate(&opts, 1, 20));
    }

    #[test]
    fn f13_conflicts_grow_with_shards_and_staleness() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        // Quick grid: shards {1,2,4} × staleness {5,20}, row-major.
        let idx = |si: usize, wi: usize| si * 2 + wi;

        // A single shard owns the pool outright: no conflicts, ever.
        for wi in 0..2 {
            assert_eq!(cell(idx(0, wi), 3), 0.0, "1 shard must not conflict");
            assert_eq!(cell(idx(0, wi), 9), 0.0, "1 shard never syncs");
        }
        // Contention is real and worsens with staleness at max shards.
        let tight = cell(idx(2, 0), 3);
        let wide = cell(idx(2, 1), 3);
        assert!(wide > 0.0, "stale 4-shard runs must conflict");
        assert!(
            wide >= tight,
            "conflicts must not shrink with staleness: {tight} vs {wide}"
        );
        // More shards racing the same pool conflict at least as much.
        assert!(
            cell(idx(2, 1), 3) >= cell(idx(1, 1), 3),
            "conflicts must not shrink with shard count"
        );
        // Scale-out still pays: more planes move more VMs than one.
        assert!(
            cell(idx(2, 0), 2) > cell(idx(0, 0), 2),
            "4 shards must out-provision 1: {} vs {}",
            cell(idx(2, 0), 2),
            cell(idx(0, 0), 2)
        );
    }
}
