//! T1 — Table I: characteristics of the two self-service cloud
//! environments (plus the enterprise baseline for contrast).
//!
//! The paper's Table I summarized the two production setups it profiled.
//! We regenerate the equivalent summary from multi-day simulations of the
//! calibrated profiles: inventory scale, activity volume, burstiness, and
//! the share of provisioning in the operation stream.

use cpsim_des::SimTime;
use cpsim_metrics::Table;
use cpsim_workload::Profile;

use crate::experiments::loops::{debug_assert_tasks_conserved, profile_sweep};
use crate::experiments::{fmt, ExpOptions};
use crate::Scenario;

/// Runs T1.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let hours = opts.pick(72, 8);
    let mut table = Table::new(
        "T1 — Characteristics of the simulated cloud environments",
        &[
            "environment",
            "hosts",
            "datastores",
            "templates",
            "peak VMs",
            "ops/day",
            "peak ops/hour",
            "provisioning %",
            "arrival CV",
            "clone mode",
        ],
    );
    for row in profile_sweep(opts, |p| profile_row(p, hours, opts.seed)) {
        table.row(row);
    }
    vec![table]
}

fn profile_row(profile: &Profile, hours: u64, seed: u64) -> Vec<String> {
    let mut sim = Scenario::from_profile(profile).seed(seed).build();
    let mut peak_vms = 0usize;
    // Sample peak population hourly.
    for h in 1..=hours {
        sim.run_until(SimTime::from_hours(h));
        peak_vms = peak_vms.max(sim.plane().inventory().counts().vms);
    }
    debug_assert_tasks_conserved(sim.plane(), sim.trace());
    let a = sim.analyze_trace();
    vec![
        profile.name.clone(),
        profile.topology.hosts.to_string(),
        profile.topology.datastores.to_string(),
        profile.topology.templates.len().to_string(),
        peak_vms.to_string(),
        fmt(a.ops_per_day()),
        a.hourly
            .counts()
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .to_string(),
        fmt(a.provisioning_fraction() * 100.0),
        fmt(a.interarrival_cv),
        profile.workload.clone_mode.name().to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_shapes_hold_in_quick_mode() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        assert_eq!(t.len(), 3);
        let get = |row: usize, col: usize| t.rows()[row][col].parse::<f64>().unwrap();
        // ops/day: both clouds far more active than enterprise.
        let (a_ops, b_ops, e_ops) = (get(0, 5), get(1, 5), get(2, 5));
        assert!(a_ops > e_ops, "cloud-a {a_ops} vs enterprise {e_ops}");
        assert!(b_ops > e_ops, "cloud-b {b_ops} vs enterprise {e_ops}");
        // provisioning share: clouds >> enterprise. (Clones are roughly a
        // third of each deployment chain — fencing and power-on follow
        // every clone — so even a provisioning-dominated cloud sits near
        // 20-30 % clones in the op stream.)
        let (a_prov, e_prov) = (get(0, 7), get(2, 7));
        assert!(a_prov > 15.0, "cloud-a provisioning share {a_prov}");
        assert!(e_prov < 10.0, "enterprise provisioning share {e_prov}");
        assert!(a_prov > 2.0 * e_prov);
    }
}
