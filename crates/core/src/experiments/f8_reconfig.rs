//! F8 — Figure 8: cloud reconfiguration — template redistribution time vs
//! cloud size, idle vs under provisioning load, and its impact on
//! foreground provisioning latency.
//!
//! The paper's closing argument: high provisioning rates make
//! previously-infrequent reconfiguration (seeding template copies onto
//! datastores) a recurring, expensive operation that must be planned for:
//! it takes minutes-to-hours of bulk copying, slows down while serving
//! load, and degrades foreground provisioning while it runs.

use cpsim_cloud::{CloudRequest, ProvisioningPolicy};
use cpsim_des::{SimDuration, SimTime};
use cpsim_metrics::Table;
use cpsim_mgmt::CloneMode;
use cpsim_workload::Topology;

use crate::experiments::loops::sweep;
use crate::experiments::{fmt, ExpOptions};
use crate::{CloudSim, Scenario};

fn reconfig_topology(datastores: u32) -> Topology {
    Topology {
        hosts: 8,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        datastores,
        ds_capacity_gb: 8_192.0,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("gold-template".into(), 2, 2_048, 20.0)],
        // The whole point: the template starts on its home datastore only.
        seed_templates_everywhere: false,
        initial_vapps: 0,
        initial_vapp_size: 0,
    }
}

fn build(seed: u64, topology: Topology) -> CloudSim {
    Scenario::bare(topology)
        .seed(seed)
        .policy(ProvisioningPolicy {
            mode: CloneMode::Linked,
            fencing: true,
            power_on: false,
            ..Default::default()
        })
        .build()
}

/// Runs F8.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let ds_counts: Vec<u32> = opts.pick(vec![4, 8, 16, 32], vec![4, 8]);
    let mut table = Table::new(
        "F8 — Template redistribution: cost and interference",
        &[
            "datastores",
            "idle redistribute s",
            "loaded redistribute s",
            "clone latency before s",
            "clone latency during s",
        ],
    );
    // One sweep point per (datastore count, idle/loaded) cell, so the
    // idle and loaded runs of a row overlap on the executor.
    let points: Vec<(u32, bool)> = ds_counts
        .iter()
        .flat_map(|&d| [(d, false), (d, true)])
        .collect();
    enum Outcome {
        Idle(f64),
        Loaded(f64, f64, f64),
    }
    let results = sweep(opts, &points, |&(d, loaded)| {
        if loaded {
            let (redistribute, before, during) = redistribute_loaded(opts.seed, d);
            Outcome::Loaded(redistribute, before, during)
        } else {
            Outcome::Idle(redistribute_idle(opts.seed, d))
        }
    });
    for (&d, pair) in ds_counts.iter().zip(results.chunks_exact(2)) {
        let (Outcome::Idle(idle), Outcome::Loaded(loaded, before, during)) = (&pair[0], &pair[1])
        else {
            unreachable!("sweep preserves point order");
        };
        table.row([
            d.to_string(),
            fmt(*idle),
            fmt(*loaded),
            fmt(*before),
            fmt(*during),
        ]);
    }
    vec![table, rebalance_table(opts)]
}

/// F8b: the storage-rebalance pass — relocations issued and wall time to
/// drain an overfilled datastore back under a utilization target, vs how
/// overfilled it was.
fn rebalance_table(opts: &ExpOptions) -> Table {
    let overfill_vms: Vec<u32> = opts.pick(vec![8, 16, 32], vec![8, 16]);
    let mut table = Table::new(
        "F8b — Storage rebalance: draining an overfilled datastore",
        &[
            "VMs crowded on one datastore",
            "relocations issued",
            "rebalance wall time s",
            "hot datastore util before",
            "hot datastore util after",
        ],
    );
    for row in sweep(opts, &overfill_vms, |&n| rebalance_row(opts.seed, n)) {
        table.row(row);
    }
    table
}

/// One F8b row: crowds `n` VMs onto the template's home datastore, then
/// drains it with a rebalance pass.
fn rebalance_row(seed: u64, n: u32) -> [String; 5] {
    let mut topo = reconfig_topology(4);
    topo.ds_capacity_gb = 4_096.0;
    let mut sim = build(seed, topo);
    // Crowd `n` full-clone VMs onto the template's home datastore by
    // installing them directly (setup), then ask for a rebalance.
    let template_ds = {
        let t = sim.templates()[0];
        sim.plane().inventory().vm(t).unwrap().datastore
    };
    let host = sim.hosts()[0];
    for i in 0..n {
        // 64 GiB each: enough to push utilization well past target.
        sim_install(&mut sim, &format!("crowd-{i}"), host, template_ds);
    }
    let before = sim
        .plane()
        .inventory()
        .datastore(template_ds)
        .unwrap()
        .utilization();
    sim.schedule_request(
        SimTime::from_secs(1),
        CloudRequest::RebalanceDatastores {
            target_utilization: 0.10,
        },
    );
    sim.run_until(SimTime::from_hours(12));
    let report = sim
        .cloud_reports()
        .iter()
        .find(|r| r.kind == "rebalance-datastores")
        .expect("rebalance completes");
    let after = sim
        .plane()
        .inventory()
        .datastore(template_ds)
        .unwrap()
        .utilization();
    [
        n.to_string(),
        report.ops_issued.to_string(),
        fmt(report.latency.as_secs_f64()),
        fmt(before),
        fmt(after),
    ]
}

/// Setup helper: install a powered-off 64 GiB VM on an exact location.
fn sim_install(
    sim: &mut CloudSim,
    name: &str,
    host: cpsim_inventory::HostId,
    ds: cpsim_inventory::DatastoreId,
) {
    use cpsim_inventory::VmSpec;
    sim.install_vm_for_experiments(name, VmSpec::new(1, 1_024, 64.0), host, ds)
        .expect("crowding VM fits");
}

/// Redistribution time on an otherwise idle cloud, seconds.
fn redistribute_idle(seed: u64, datastores: u32) -> f64 {
    let mut sim = build(seed, reconfig_topology(datastores));
    let template = sim.templates()[0];
    sim.schedule_request(
        SimTime::from_secs(1),
        CloudRequest::RedistributeTemplate { template },
    );
    sim.run_until(SimTime::from_hours(12));
    let r = sim
        .cloud_reports()
        .iter()
        .find(|r| r.kind == "redistribute-template")
        .expect("redistribution completes");
    assert!(r.is_clean());
    r.latency.as_secs_f64()
}

/// Redistribution under a steady provisioning load. Returns
/// `(redistribute_s, clone_latency_before_s, clone_latency_during_s)`.
fn redistribute_loaded(seed: u64, datastores: u32) -> (f64, f64, f64) {
    let mut sim = build(seed, reconfig_topology(datastores));
    let template = sim.templates()[0];
    let org = sim.org();
    // Foreground load: full clones every 120 s (~85 % of the source
    // array's copy ceiling). Full clones read from the template's home
    // datastore — the same array redistribution reads from — without the
    // residency-seeding side effect linked-clone shadows would have
    // (which would silently do the redistribution's work for it and make
    // idle/loaded incomparable).
    let kickoff = SimTime::from_secs(600);
    let horizon = SimTime::from_hours(12);
    let mut t = SimTime::from_secs(1);
    while t < kickoff + SimDuration::from_hours(2) {
        sim.schedule_request(
            t,
            CloudRequest::InstantiateVapp {
                org,
                template,
                count: 1,
                mode: Some(CloneMode::Full),
                lease: None,
            },
        );
        t += SimDuration::from_secs(120);
    }
    sim.schedule_request(kickoff, CloudRequest::RedistributeTemplate { template });
    sim.run_until(horizon);
    let r = sim
        .cloud_reports()
        .iter()
        .find(|r| r.kind == "redistribute-template")
        .expect("redistribution completes");
    let reconfig_end = r.completed_at;
    let clone_mean = |from: SimTime, to: SimTime| -> f64 {
        let samples: Vec<f64> = sim
            .trace()
            .records()
            .iter()
            .filter(|x| {
                x.kind == "clone-full"
                    && x.success
                    && x.submitted_at() >= from
                    && x.submitted_at() < to
            })
            .map(|x| x.latency_s)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        }
    };
    let before = clone_mean(SimTime::ZERO, kickoff);
    let during = clone_mean(kickoff, reconfig_end);
    (r.latency.as_secs_f64(), before, during)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f8_reconfiguration_costs_grow_and_interfere() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        // More datastores = more copies = longer redistribution.
        assert!(cell(1, 1) > cell(0, 1));
        // A 20 GiB copy at 200 MiB/s is ~102 s; even the small cloud takes
        // minutes (copies run in parallel across datastores but each pays
        // the cross-datastore read penalty).
        assert!(cell(0, 1) > 60.0, "idle redistribute {}s", cell(0, 1));
        // Under load, redistribution takes at least as long as idle.
        assert!(cell(1, 2) >= cell(1, 1) * 0.9);
    }
}
