//! F10 — design-implication ablation: what "scale the management plane
//! out" must actually mean.
//!
//! The paper concludes that provisioning-rate demands "may influence
//! virtualized datacenter design". This figure contrasts two readings of
//! scale-out on the saturated linked-clone workload:
//!
//! - **Capacity multiplier** (the naive reading): one control plane whose
//!   CPU, database and task-window capacity are multiplied by the shard
//!   count. Its database and CPU drain, yet throughput barely moves —
//!   operations hold admission slots for their whole lifetime, including
//!   host-agent queueing, so the single orchestration pipeline stays the
//!   bottleneck.
//! - **Federation** (the real mechanism): N full control planes, each
//!   owning a slice of the inventory and coordinating spillover through a
//!   shared placement store. Every shard brings its own admission window,
//!   host agents and database, so the whole pipeline widens and
//!   saturated throughput scales near-linearly — minus a small, now
//!   measurable, coordination tax (ledger conflicts; see F13).

use cpsim_des::SimDuration;
use cpsim_faults::RecoveryPolicy;
use cpsim_federation::FedTopology;
use cpsim_metrics::Table;
use cpsim_mgmt::{CloneMode, ControlPlaneConfig};

use crate::experiments::loops::{closed_loop, fed_closed_loop, load_policy, sweep};
use crate::experiments::{fmt, ExpOptions};

/// Per-shard rack slice — half the multiplier's 16-host rack in hosts
/// and datastores, plus a slice of the shared spillover pool. Total
/// inventory grows with the shard count: that is the scale-out story.
fn f10_topology(shards: usize) -> FedTopology {
    FedTopology {
        shards,
        home_hosts_per_shard: 8,
        home_ds_per_shard: 4,
        home_ds_capacity_gb: 16_384.0,
        shared_hosts: 2,
        shared_ds: 1,
        shared_ds_capacity_gb: 16_384.0,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("fed-template".into(), 2, 2_048, 20.0)],
        initial_vms_per_shard: Vec::new(),
        initial_vm_disk_gb: 4.0,
    }
}

/// Runs F10.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let shards: Vec<usize> = opts.pick(vec![1, 2, 4, 8], vec![1, 4]);
    let warmup = SimDuration::from_mins(opts.pick(5, 2));
    let measure = SimDuration::from_mins(opts.pick(20, 6));
    // Closed-loop pressure per federated shard, and in total for the
    // single-plane multiplier run (which keeps its fixed 16-host rack).
    // Equal aggregate closed-loop pressure at max shards: each shard
    // carries its slice of the same tenant population the multiplier
    // run serves through one plane.
    let n_per_shard = opts.pick(256, 128);
    let n_multiplier = opts.pick(1024, 512);

    let mut table = Table::new(
        "F10 — Saturated linked-clone throughput: federated shards vs capacity multiplier (VMs/hour)",
        &[
            "shards",
            "federated",
            "multiplier",
            "fed: conflicts",
            "fed: p99 queue s",
            "fed: peak pending",
            "mult: db util",
            "mult: peak pending",
        ],
    );
    // One sweep point per (shard count, model) cell: model 0 is the
    // federation, model 1 the capacity multiplier.
    let points: Vec<(usize, u8)> = shards.iter().flat_map(|&s| [(s, 0), (s, 1)]).collect();
    enum Outcome {
        Fed(crate::experiments::loops::FedLoadResult),
        Mult(crate::experiments::loops::LoadResult),
    }
    let results = sweep(opts, &points, |&(s, model)| {
        if model == 0 {
            // Same physical host-side window as the multiplier run: the
            // comparison varies only how management capacity is added.
            let mut config = ControlPlaneConfig::default();
            config.limits.per_host = 32;
            Outcome::Fed(fed_closed_loop(
                opts.seed,
                f10_topology(s),
                config,
                load_policy(),
                RecoveryPolicy::default(),
                SimDuration::from_secs(10),
                n_per_shard * s as u32,
                warmup,
                measure,
            ))
        } else {
            let mut config = ControlPlaneConfig {
                shards: s as u32,
                ..Default::default()
            };
            // The multiplier scales the management server's own
            // resources; host-side limits are physical and fixed.
            config.limits.global = 640u32.saturating_mul(s as u32);
            config.limits.per_host = 32;
            Outcome::Mult(closed_loop(
                opts.seed,
                config,
                CloneMode::Linked,
                n_multiplier,
                warmup,
                measure,
            ))
        }
    });
    for (&s, pair) in shards.iter().zip(results.chunks_exact(2)) {
        let (Outcome::Fed(fed), Outcome::Mult(mult)) = (&pair[0], &pair[1]) else {
            unreachable!("sweep preserves point order");
        };
        table.row([
            s.to_string(),
            fmt(fed.vms_per_hour),
            fmt(mult.vms_per_hour),
            fed.conflicts.to_string(),
            fmt(fed.p99_queue_s),
            fed.pending_peak.to_string(),
            fmt(mult.db_util),
            mult.pending_peak.to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f10_federation_scales_where_the_multiplier_stalls() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        let last = t.len() - 1;
        // The capacity multiplier barely moves saturated throughput:
        // the single admission/orchestration pipeline still pins it.
        assert!(
            cell(last, 2) < cell(0, 2) * 1.5,
            "multiplier must stay pinned: {} vs {}",
            cell(last, 2),
            cell(0, 2)
        );
        // Federation widens the whole pipeline: near-linear scaling
        // (quick mode compares 4 shards vs 1).
        assert!(
            cell(last, 1) > cell(0, 1) * 2.0,
            "federation must scale out: {} vs {}",
            cell(last, 1),
            cell(0, 1)
        );
        // At max shards the federation out-provisions the multiplier.
        assert!(
            cell(last, 1) > cell(last, 2),
            "federation must beat the multiplier: {} vs {}",
            cell(last, 1),
            cell(last, 2)
        );
        // The multiplier's queue of parked operations stays deep.
        assert!(cell(last, 7) > 100.0, "multiplier pending peak");
    }
}
