//! Experiment drivers: one module per table/figure of the reproduced
//! paper's evaluation (reconstructed — see `DESIGN.md`).
//!
//! Every experiment is a pure function from an [`ExpOptions`] to
//! [`Table`]s, so the `cpsim-bench` binary, the
//! examples, and the integration tests all share one implementation.
//!
//! | Id  | Module | Claim substantiated |
//! |-----|--------|---------------------|
//! | T1  | [`t1_environments`] | the two clouds' scale and activity |
//! | F1  | [`f1_opmix`] | cloud op mixes differ from enterprise |
//! | F2  | [`f2_arrivals`] | self-service arrivals are bursty |
//! | F3  | [`f3_latency_split`] | control- vs data-plane latency per op |
//! | F4  | [`f4_throughput`] | linked clones shift the bottleneck |
//! | F5  | [`f5_utilization`] | control plane saturates first |
//! | F6  | [`f6_lifetimes`] | cloud VMs are short-lived |
//! | F7  | [`f7_vapp_scaling`] | admission limits shape deploy latency |
//! | F8  | [`f8_reconfig`] | reconfiguration cost and interference |
//! | F9  | [`f9_queueing`] | queueing delays grow with load |
//! | T2  | [`t2_breakdown`] | per-phase control-plane cost |
//! | F10 | [`f10_scaleout`] | scale-out: federated shards vs capacity multiplier |
//! | F11 | [`f11_heartbeat`] | background load scales with hosts |
//! | F12 | [`f12_availability`] | goodput/availability under faults |
//! | T3  | [`t3_faults`] | retry/abort/rollback breakdown |
//! | F13 | [`f13_conflicts`] | federated conflict rate vs staleness |
//! | F14 | [`f14_rebalance`] | cross-shard rebalance cost vs skew |

pub mod f10_scaleout;
pub mod f11_heartbeat;
pub mod f12_availability;
pub mod f13_conflicts;
pub mod f14_rebalance;
pub mod f1_opmix;
pub mod f2_arrivals;
pub mod f3_latency_split;
pub mod f4_throughput;
pub mod f5_utilization;
pub mod f6_lifetimes;
pub mod f7_vapp_scaling;
pub mod f8_reconfig;
pub mod f9_queueing;
pub(crate) mod loops;
pub(crate) mod probe;
pub mod t1_environments;
pub mod t2_breakdown;
pub mod t3_faults;

use cpsim_metrics::Table;

/// Options shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Master seed.
    pub seed: u64,
    /// Quick mode: shorter horizons and smaller sweeps (used by tests);
    /// full mode reproduces the figures at publication scale.
    pub quick: bool,
    /// Worker threads for sweep points: `0` = one per available core,
    /// `1` = fully sequential. Output tables are byte-identical at every
    /// value — parallelism only changes wall-clock (see [`crate::exec`]).
    pub jobs: usize,
    /// Ignored: shards always step in `(time, shard, seq)` order; removed
    /// by the next benchmark change.
    pub intra_jobs: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 2013,
            quick: false,
            jobs: 0,
            intra_jobs: 1,
        }
    }
}

impl ExpOptions {
    /// Quick-mode options for tests.
    pub fn quick() -> Self {
        ExpOptions {
            quick: true,
            ..Default::default()
        }
    }

    /// Returns a copy with an explicit job count.
    pub fn with_jobs(self, jobs: usize) -> Self {
        ExpOptions { jobs, ..self }
    }

    /// The concrete worker count: `jobs`, with `0` resolved to the number
    /// of available cores.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            crate::exec::available_jobs()
        } else {
            self.jobs
        }
    }

    /// Picks `full` or `q` depending on the mode.
    pub fn pick<T>(&self, full: T, q: T) -> T {
        if self.quick {
            q
        } else {
            full
        }
    }
}

/// An experiment id paired with its runner, for the harness.
pub struct Experiment {
    /// Short id, e.g. `"t1"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Independent simulation runs in quick mode (the sweep size the
    /// parallel executor can spread over cores).
    pub sweep_quick: usize,
    /// Independent simulation runs at full (publication) scale.
    pub sweep_full: usize,
    /// Runner.
    pub run: fn(&ExpOptions) -> Vec<Table>,
    /// Whether the experiment drives the federated multi-shard model
    /// (`cpsim-federation`) rather than a single control plane.
    pub federated: bool,
}

impl Experiment {
    /// The sweep size for the given mode.
    pub fn sweep(&self, quick: bool) -> usize {
        if quick {
            self.sweep_quick
        } else {
            self.sweep_full
        }
    }
}

/// Every experiment, in paper order.
///
/// Sweep sizes count the independent simulation runs each experiment
/// performs per mode — the units the parallel executor distributes.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "t1",
            title: "Table I: characteristics of the two cloud environments",
            sweep_quick: 3,
            sweep_full: 3,
            federated: false,
            run: t1_environments::run,
        },
        Experiment {
            id: "f1",
            title: "Figure 1: management operation mix, clouds vs enterprise",
            sweep_quick: 3,
            sweep_full: 3,
            federated: false,
            run: f1_opmix::run,
        },
        Experiment {
            id: "f2",
            title: "Figure 2: request arrival rate over a day",
            sweep_quick: 3,
            sweep_full: 3,
            federated: false,
            run: f2_arrivals::run,
        },
        Experiment {
            id: "f3",
            title: "Figure 3: per-operation latency, control vs data plane",
            sweep_quick: 1,
            sweep_full: 1,
            federated: false,
            run: f3_latency_split::run,
        },
        Experiment {
            id: "f4",
            title: "Figure 4: provisioning throughput vs concurrency",
            sweep_quick: 9,
            sweep_full: 30,
            federated: false,
            run: f4_throughput::run,
        },
        Experiment {
            id: "f5",
            title: "Figure 5: control-plane utilization vs provisioning rate",
            sweep_quick: 3,
            sweep_full: 7,
            federated: false,
            run: f5_utilization::run,
        },
        Experiment {
            id: "f6",
            title: "Figure 6: VM lifetime distributions",
            sweep_quick: 3,
            sweep_full: 3,
            federated: false,
            run: f6_lifetimes::run,
        },
        Experiment {
            id: "f7",
            title: "Figure 7: vApp deployment latency vs size under limits",
            sweep_quick: 12,
            sweep_full: 28,
            federated: false,
            run: f7_vapp_scaling::run,
        },
        Experiment {
            id: "f8",
            title: "Figure 8: cloud reconfiguration cost and interference",
            sweep_quick: 6,
            sweep_full: 11,
            federated: false,
            run: f8_reconfig::run,
        },
        Experiment {
            id: "f9",
            title: "Figure 9: task queueing-delay distribution vs load",
            sweep_quick: 4,
            sweep_full: 4,
            federated: false,
            run: f9_queueing::run,
        },
        Experiment {
            id: "t2",
            title: "Table II: control-plane cost breakdown by phase",
            sweep_quick: 1,
            sweep_full: 1,
            federated: false,
            run: t2_breakdown::run,
        },
        Experiment {
            id: "f10",
            title: "Figure 10: scale-out, federated shards vs capacity multiplier",
            sweep_quick: 4,
            sweep_full: 8,
            federated: true,
            run: f10_scaleout::run,
        },
        Experiment {
            id: "f11",
            title: "Figure 11: heartbeat/background load vs inventory size",
            sweep_quick: 2,
            sweep_full: 4,
            federated: false,
            run: f11_heartbeat::run,
        },
        Experiment {
            id: "f12",
            title: "Figure 12: goodput and availability vs injected fault rate",
            sweep_quick: 4,
            sweep_full: 8,
            federated: false,
            run: f12_availability::run,
        },
        Experiment {
            id: "t3",
            title: "Table III: retry/abort/rollback breakdown under faults",
            sweep_quick: 1,
            sweep_full: 1,
            federated: false,
            run: t3_faults::run,
        },
        Experiment {
            id: "f13",
            title: "Figure 13: federated conflicts/goodput vs shards and staleness",
            sweep_quick: 5,
            sweep_full: 7,
            federated: true,
            run: f13_conflicts::run,
        },
        Experiment {
            id: "f14",
            title: "Figure 14: cross-shard rebalance cost vs inventory skew",
            sweep_quick: 3,
            sweep_full: 5,
            federated: true,
            run: f14_rebalance::run,
        },
    ]
}

/// Formats a float with scale-appropriate precision for table cells.
pub(crate) fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_ordered() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert_eq!(ids.len(), 17);
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.1234), "0.123");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1234.6), "1235");
    }
}
