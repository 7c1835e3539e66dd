//! F11 — design implication: background synchronization (heartbeat) load
//! vs inventory size.
//!
//! Every host imposes periodic CPU and DB work on the management server,
//! so a larger cloud spends a growing share of its control plane on
//! standing still — and per-operation costs that scan the inventory
//! (placement) grow too. This bounds how far a single management server
//! scales, motivating the scale-out designs of F10.

use cpsim_cloud::CloudRequest;
use cpsim_des::{SimDuration, SimTime};
use cpsim_metrics::Table;
use cpsim_mgmt::CloneMode;
use cpsim_workload::Topology;

use crate::experiments::loops::sweep;
use crate::experiments::{fmt, ExpOptions};
use crate::Scenario;

fn topology(hosts: u32) -> Topology {
    Topology {
        hosts,
        host_cpu_mhz: 48_000,
        host_mem_mb: 262_144,
        datastores: 4,
        ds_capacity_gb: 8_192.0,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("probe".into(), 2, 2_048, 20.0)],
        seed_templates_everywhere: true,
        initial_vapps: 0,
        initial_vapp_size: 0,
    }
}

/// Runs F11.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let host_counts: Vec<u32> = opts.pick(vec![64, 256, 1024, 2048], vec![64, 512]);
    let duration = SimDuration::from_mins(opts.pick(30, 10));

    let mut table = Table::new(
        "F11 — Idle-cloud background load vs inventory size",
        &[
            "hosts",
            "cpu % (idle)",
            "db % (idle)",
            "probe clone latency s",
        ],
    );
    let rows = sweep(opts, &host_counts, |&h| {
        let mut sim = Scenario::bare(topology(h)).seed(opts.seed).build();
        // One probe instantiate halfway through, to expose placement-cost
        // growth with inventory size.
        let org = sim.org();
        let template = sim.templates()[0];
        sim.schedule_request(
            SimTime::ZERO + SimDuration::from_secs(duration.as_micros() / 2_000_000),
            CloudRequest::InstantiateVapp {
                org,
                template,
                count: 1,
                mode: Some(CloneMode::Linked),
                lease: None,
            },
        );
        sim.run_until(SimTime::ZERO + duration);
        let now = sim.now();
        let probe = sim
            .cloud_reports()
            .iter()
            .find(|r| r.kind == "instantiate-vapp")
            .expect("probe completes");
        [
            h.to_string(),
            fmt(sim.plane().cpu_utilization(now) * 100.0),
            fmt(sim.plane().db_utilization(now) * 100.0),
            fmt(probe.latency.as_secs_f64()),
        ]
    });
    for row in rows {
        table.row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f11_background_load_scales_with_hosts() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        // 8x the hosts => roughly 8x the idle utilization.
        assert!(
            cell(1, 1) > 4.0 * cell(0, 1),
            "cpu idle % {} vs {}",
            cell(1, 1),
            cell(0, 1)
        );
        assert!(
            cell(1, 2) > 4.0 * cell(0, 2),
            "db idle % {} vs {}",
            cell(1, 2),
            cell(0, 2)
        );
        // The probe clone still completes in seconds at both scales.
        assert!(cell(0, 3) > 0.0 && cell(1, 3) < 120.0);
    }
}
