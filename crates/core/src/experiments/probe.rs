//! Shared low-load probe run used by F3 (latency split) and T2 (phase
//! breakdown): executes every operation kind many times on an otherwise
//! idle cloud, widely spaced so queueing is negligible and the measured
//! latencies are pure service costs.

use cpsim_des::{SimDuration, SimTime};
use cpsim_mgmt::{CloneMode, OpKind};
use cpsim_workload::{Topology, TraceRecord};

use crate::experiments::ExpOptions;
use crate::{CloudSim, Scenario};

fn probe_topology() -> Topology {
    Topology {
        hosts: 4,
        host_cpu_mhz: 48_000,
        host_mem_mb: 262_144,
        datastores: 4,
        ds_capacity_gb: 4_096.0,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("probe-template".into(), 2, 4_096, 20.0)],
        seed_templates_everywhere: true,
        initial_vapps: 0,
        initial_vapp_size: 0,
    }
}

/// Runs the probe: `n` samples of each operation kind, widely spaced.
/// Returns the finished simulation; its trace holds every task.
pub fn run_probe(opts: &ExpOptions) -> CloudSim {
    let n = opts.pick(30u64, 5u64);
    let mut sim = Scenario::bare(probe_topology()).seed(opts.seed).build();
    let template = sim.templates()[0];
    let gap = SimDuration::from_secs(60);

    // Phase A: clones (the template is resident everywhere, so linked
    // clones are pure control-plane work).
    let mut t = SimTime::from_secs(1);
    for _ in 0..n {
        sim.schedule_op(
            t,
            OpKind::CloneVm {
                source: template,
                mode: CloneMode::Linked,
            },
        );
        t += gap;
    }
    // Full clones spaced widely enough that copies never overlap
    // (20 GiB at 200 MiB/s ≈ 102 s).
    let full_gap = SimDuration::from_secs(240);
    for _ in 0..n {
        sim.schedule_op(
            t,
            OpKind::CloneVm {
                source: template,
                mode: CloneMode::Full,
            },
        );
        t += full_gap;
    }
    let phase_a_end = t + SimDuration::from_secs(600);
    sim.run_until(phase_a_end);

    // Phase B: one sequence of lifecycle ops per produced VM, staggered.
    let vms: Vec<_> = sim
        .trace()
        .records()
        .iter()
        .filter(|r| r.success)
        .filter_map(|r| r.produced_vm)
        .collect();
    assert!(!vms.is_empty(), "probe produced no VMs");
    let mut base = phase_a_end + SimDuration::from_secs(60);
    for vm in vms {
        let seq = [
            OpKind::PowerOn { vm },
            OpKind::Reconfigure { vm },
            OpKind::Snapshot { vm },
            OpKind::RemoveSnapshot { vm },
            OpKind::MigrateVm { vm },
            OpKind::PowerOff { vm },
            OpKind::DestroyVm { vm },
        ];
        let mut t = base;
        for op in seq {
            sim.schedule_op(t, op);
            t += SimDuration::from_secs(90);
        }
        base += SimDuration::from_secs(45);
    }
    sim.run_until(base + SimDuration::from_hours(2));

    // Phase C: seed-template probes onto fresh datastores added one at a
    // time (each datastore/template pair can be seeded only once).
    let mut t = sim.now() + SimDuration::from_secs(60);
    let seeds = opts.pick(8u64, 3u64);
    for i in 0..seeds {
        sim.schedule_request(
            t,
            cpsim_cloud::CloudRequest::AddDatastore {
                spec: cpsim_inventory::DatastoreSpec::new(
                    format!("probe-extra-{i}"),
                    4_096.0,
                    200.0,
                ),
                seed_templates: true,
            },
        );
        t += SimDuration::from_secs(600);
    }
    sim.run_until(t + SimDuration::from_hours(1));
    assert_eq!(
        sim.plane().tasks_in_flight(),
        0,
        "probe must quiesce before measurement"
    );
    sim
}

/// Mean of `f` over successful traced tasks of `kind`; `None` if no
/// samples.
pub fn mean_of(sim: &CloudSim, kind: &str, f: impl Fn(&TraceRecord) -> f64) -> Option<f64> {
    let samples: Vec<f64> = sim
        .trace()
        .records()
        .iter()
        .filter(|r| r.kind == kind && r.success)
        .map(f)
        .collect();
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}
