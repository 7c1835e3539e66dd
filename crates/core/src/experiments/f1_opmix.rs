//! F1 — Figure 1: the management operation mix of the two clouds vs the
//! enterprise-datacenter baseline.
//!
//! The paper's point: cloud workflows expand one user request into many
//! management operations, making the management stream provisioning- and
//! reconfigure-dominated, whereas enterprise administration is dominated
//! by power and migration operations on a static population.

use cpsim_des::SimTime;
use cpsim_metrics::Table;
use cpsim_workload::TraceAnalysis;

use crate::experiments::loops::profile_sweep;
use crate::experiments::{fmt, ExpOptions};
use crate::Scenario;

/// Operation kinds reported in the mix figure, in display order.
pub const KINDS: [&str; 10] = [
    "clone-linked",
    "clone-full",
    "power-on",
    "power-off",
    "reconfigure",
    "destroy-vm",
    "snapshot",
    "remove-snapshot",
    "migrate-vm",
    "seed-template",
];

/// Runs F1.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let hours = opts.pick(72, 8);
    let analyses: Vec<(String, TraceAnalysis)> = profile_sweep(opts, |p| {
        let mut sim = Scenario::from_profile(p).seed(opts.seed).build();
        sim.run_until(SimTime::from_hours(hours));
        (p.name.clone(), sim.analyze_trace())
    });

    let mut table = Table::new(
        "F1 — Management operation mix (% of operations)",
        &["operation", "cloud-a", "cloud-b", "enterprise"],
    );
    for kind in KINDS {
        let mut row = vec![kind.to_string()];
        for (_, a) in &analyses {
            row.push(fmt(a.mix_fraction(kind) * 100.0));
        }
        table.row(row);
    }
    // Everything else (rescans, host adds, creates) folded into one row.
    let mut row = vec!["other".to_string()];
    for (_, a) in &analyses {
        let covered: f64 = KINDS.iter().map(|k| a.mix_fraction(k)).sum();
        row.push(fmt((1.0 - covered).max(0.0) * 100.0));
    }
    table.row(row);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_mix_contrast_holds_in_quick_mode() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let col = |kind: &str, c: usize| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[0] == kind)
                .map(|r| r[c].parse().unwrap())
                .unwrap()
        };
        // Clouds clone linked; enterprise barely clones at all.
        assert!(col("clone-linked", 1) > 10.0, "cloud-a linked share");
        assert!(col("clone-linked", 3) < 5.0, "enterprise linked share");
        // Enterprise is power-dominated relative to its provisioning.
        let e_power = col("power-on", 3) + col("power-off", 3);
        let e_prov = col("clone-linked", 3) + col("clone-full", 3);
        assert!(e_power > e_prov);
        // Percentages roughly sum to 100 per column.
        for c in 1..=3 {
            let total: f64 = t.rows().iter().map(|r| r[c].parse::<f64>().unwrap()).sum();
            assert!((total - 100.0).abs() < 2.0, "column {c} sums to {total}");
        }
    }
}
