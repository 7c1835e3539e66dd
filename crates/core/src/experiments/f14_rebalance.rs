//! F14 — cross-shard rebalance cost vs inventory skew.
//!
//! When one control-plane shard accumulates far more inventory than its
//! peers (hot tenant, failed shard absorbed elsewhere), the federation
//! rebalances by migrating VMs: evacuate on the source shard, hand the
//! placement through the shared store, re-admit on the destination. Each
//! move costs real control-plane work on both shards — destroy on one,
//! clone on the other — plus the handoff latency, so the time to drain
//! the skew grows with how lopsided the federation started.
//!
//! Expected shape: zero cost at zero skew, then total rebalance time and
//! moves both rising monotonically with skew; per-migration latency stays
//! roughly flat (the protocol cost), while makespan grows with the number
//! of moves contending for the same source shard.

use cpsim_des::{SimDuration, SimTime};
use cpsim_federation::{FedScenario, FedTopology};
use cpsim_metrics::Table;

use crate::experiments::loops::sweep;
use crate::experiments::{fmt, ExpOptions};

const SHARDS: usize = 4;
/// Balanced share of the initial population per shard.
const BALANCED: u32 = 12;
/// Total pre-installed VMs across the federation.
const TOTAL: u32 = BALANCED * SHARDS as u32;

/// Roomy 4-shard topology: rebalance cost, not capacity contention, is
/// the object of study.
fn rebalance_topology(skew: f64) -> FedTopology {
    // Skew concentrates the population on shard 0: `skew = 0` is
    // balanced, `skew = 1` gives shard 0 everything beyond its peers'
    // empty racks.
    let extra = (skew * (TOTAL - BALANCED) as f64).round() as u32;
    let shard0 = BALANCED + extra.min(TOTAL - BALANCED);
    let rest = TOTAL - shard0;
    let mut initial = vec![shard0];
    for s in 1..SHARDS {
        let peers = (SHARDS - 1) as u32;
        let base = rest / peers;
        let bump = u32::from((s as u32 - 1) < rest % peers);
        initial.push(base + bump);
    }
    FedTopology {
        shards: SHARDS,
        home_hosts_per_shard: 4,
        home_ds_per_shard: 2,
        home_ds_capacity_gb: 512.0,
        shared_hosts: 2,
        shared_ds: 1,
        shared_ds_capacity_gb: 512.0,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("fed-template".into(), 2, 2_048, 20.0)],
        initial_vms_per_shard: initial,
        initial_vm_disk_gb: 4.0,
    }
}

/// Runs F14.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let skews: Vec<f64> = opts.pick(vec![0.0, 0.25, 0.5, 0.75, 1.0], vec![0.0, 0.5, 1.0]);

    let mut table = Table::new(
        "F14 — Cross-shard rebalance: drain time vs inventory skew (4 shards)",
        &[
            "skew",
            "shard-0 VMs",
            "moved",
            "rebalance s",
            "mean migration s",
            "p99 migration s",
            "failed",
        ],
    );
    let results = sweep(opts, &skews, |&skew| {
        let topo = rebalance_topology(skew);
        let shard0 = topo.initial_vms_per_shard[0];
        let moves = shard0 - BALANCED;
        let mut sim = FedScenario::new(topo)
            .seed(opts.seed)
            .staleness(SimDuration::from_secs(10))
            .build();
        let start = SimTime::from_secs(1);
        let victims: Vec<_> = sim.initial_vms(0)[..moves as usize].to_vec();
        for (i, vm) in victims.into_iter().enumerate() {
            // Round-robin the drained VMs over the under-full peers.
            let dst = 1 + i % (SHARDS - 1);
            sim.schedule_migration(start + SimDuration::from_micros(i as u64), 0, dst, vm);
        }
        let cap = SimTime::from_hours(4);
        while sim.migrations_in_flight() > 0 && sim.now() < cap {
            sim.run_for(SimDuration::from_secs(60));
        }
        sim.check_store_invariants().expect("ledger conserved");
        debug_assert_eq!(sim.check_ledger_reservations(), Ok(()));
        let reports = sim.migration_reports();
        let mut durations: Vec<f64> = reports
            .iter()
            .map(|r| r.completed.since(r.started).as_secs_f64())
            .collect();
        durations.sort_by(|a, b| a.total_cmp(b));
        let mean = if durations.is_empty() {
            0.0
        } else {
            durations.iter().sum::<f64>() / durations.len() as f64
        };
        let p99 = durations
            .last()
            .map(|_| durations[((durations.len() - 1) as f64 * 0.99).round() as usize])
            .unwrap_or(0.0);
        let makespan = reports
            .iter()
            .map(|r| r.completed)
            .max()
            .map(|t| t.since(start).as_secs_f64())
            .unwrap_or(0.0);
        let failed = reports.iter().filter(|r| !r.success).count();
        (shard0, moves, makespan, mean, p99, failed)
    });
    for (&skew, &(shard0, moves, makespan, mean, p99, failed)) in skews.iter().zip(&results) {
        table.row([
            fmt(skew),
            shard0.to_string(),
            moves.to_string(),
            fmt(makespan),
            fmt(mean),
            fmt(p99),
            failed.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f14_rebalance_cost_rises_with_skew() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        // Balanced federation: nothing to move, nothing paid.
        assert_eq!(cell(0, 2), 0.0);
        assert_eq!(cell(0, 3), 0.0);
        // Full skew drains every surplus VM off shard 0.
        let last = t.len() - 1;
        assert_eq!(cell(last, 2), (TOTAL - BALANCED) as f64);
        // Drain time grows monotonically with skew, and no move fails.
        for row in 1..t.len() {
            assert!(
                cell(row, 3) >= cell(row - 1, 3),
                "makespan must not shrink with skew: row {row}"
            );
            assert!(cell(row, 3) > 0.0, "skewed run must pay drain time");
            assert_eq!(cell(row, 6), 0.0, "no migration may fail: row {row}");
        }
    }
}
