//! F6 — Figure 6: VM lifetime distributions, cloud vs enterprise.
//!
//! Cloud VMs live hours (training labs) to days (dev/test); enterprise
//! VMs effectively never die. Short lifetimes mean provisioning *and*
//! teardown dominate the management stream — half of why cloud management
//! load looks nothing like datacenter management load.

use cpsim_des::SimTime;
use cpsim_metrics::Table;

use crate::experiments::loops::{debug_assert_tasks_conserved, profile_sweep};
use crate::experiments::{fmt, ExpOptions};
use crate::Scenario;

const PERCENTILES: [f64; 6] = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0];

/// Runs F6.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let hours = opts.pick(96, 12);
    let mut table = Table::new(
        "F6 — VM lifetime distribution (hours)",
        &[
            "environment",
            "observed deaths",
            "p10",
            "p25",
            "p50",
            "p75",
            "p90",
            "p95",
        ],
    );
    let rows = profile_sweep(opts, |profile| {
        let mut sim = Scenario::from_profile(profile).seed(opts.seed).build();
        sim.run_until(SimTime::from_hours(hours));
        debug_assert_tasks_conserved(sim.plane(), sim.trace());
        let mut a = sim.analyze_trace();
        let mut row = vec![profile.name.clone(), a.lifetimes_hours.count().to_string()];
        if a.lifetimes_hours.is_empty() {
            row.extend(std::iter::repeat_n("n/a".to_string(), PERCENTILES.len()));
        } else {
            for p in PERCENTILES {
                row.push(fmt(a.lifetimes_hours.percentile(p)));
            }
        }
        row
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
    fn f6_cloud_vms_die_young() {
        // Quick mode is too short for cloud-b's multi-day lifetimes, so
        // only assert on cloud-a vs enterprise.
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let deaths = |row: usize| -> u64 { t.rows()[row][1].parse().unwrap() };
        assert!(deaths(0) > 0, "cloud-a should see deaths within hours");
        // Enterprise has no lease-driven deaths.
        assert_eq!(deaths(2), 0);
        // Cloud-a median lifetime is in the single-digit-hours range.
        let p50: f64 = t.rows()[0][4].parse().unwrap();
        assert!(p50 > 0.5 && p50 < 24.0, "cloud-a median lifetime {p50}h");
    }
}
