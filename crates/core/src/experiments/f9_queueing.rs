//! F9 — Figure 9: distribution of task queueing delay (resource queues +
//! admission waits) at increasing load levels.
//!
//! Queueing delay is the canary of control-plane saturation: at 30 % load
//! tasks barely wait; at 90 % the wait distribution develops a heavy tail
//! that dominates user-visible provisioning latency.

use cpsim_des::SimDuration;
use cpsim_metrics::{Summary, Table};
use cpsim_mgmt::ControlPlaneConfig;

use crate::experiments::loops::{open_loop, sweep};
use crate::experiments::{fmt, ExpOptions};

/// Runs F9.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    // Estimate capacity by overloading an open loop: the completed rate
    // under heavy overload is the plane's sustainable throughput with all
    // admission limits in force. (The load points below depend on this
    // number, so the probe runs before the sweep fans out.)
    let (cap, _) = open_loop(
        opts.seed,
        ControlPlaneConfig::default(),
        SimDuration::from_millis(50),
        SimDuration::from_mins(opts.pick(15, 6)),
    );
    let capacity_per_hour = cap.vms_per_hour.max(1.0);

    let loads = [0.3, 0.7, 0.9];
    let duration = SimDuration::from_mins(opts.pick(40, 10));
    let rows = sweep(opts, &loads, |&load| {
        let rate = capacity_per_hour * load;
        let interval = SimDuration::from_secs_f64(3_600.0 / rate);
        let (res, sim) = open_loop(opts.seed, ControlPlaneConfig::default(), interval, duration);
        let mut waits: Summary = sim
            .trace()
            .records()
            .iter()
            .filter(|r| r.success)
            .map(|r| r.queue_s + r.admission_s)
            .collect();
        [
            format!("{load:.1}"),
            fmt(rate),
            fmt(waits.percentile(50.0)),
            fmt(waits.percentile(90.0)),
            fmt(waits.percentile(99.0)),
            fmt(waits.max()),
            fmt(res.mean_latency_s),
        ]
    });

    let mut table = Table::new(
        "F9 — Queueing + admission delay of management operations (seconds)",
        &[
            "load (× capacity)",
            "offered VMs/h",
            "p50",
            "p90",
            "p99",
            "max",
            "mean e2e latency s",
        ],
    );
    for row in rows {
        table.row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f9_waits_grow_with_load() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        // p99 wait at 0.9 load exceeds p99 at 0.3 load.
        assert!(
            cell(2, 4) > cell(0, 4),
            "p99 at 0.9 ({}) should exceed p99 at 0.3 ({})",
            cell(2, 4),
            cell(0, 4)
        );
        // Light load: median wait is near zero.
        assert!(cell(0, 2) < 1.0, "median wait at 0.3 load: {}", cell(0, 2));
    }
}
