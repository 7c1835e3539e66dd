//! F3 — Figure 3: per-operation latency, split into control-plane and
//! data-plane time, at low load.
//!
//! The paper's observation: with full clones, provisioning latency is
//! dominated by data movement; linked clones collapse the data term to
//! near zero and the whole operation becomes control-plane time.

use cpsim_metrics::{Summary, Table};

use crate::experiments::probe::{mean_of, run_probe};
use crate::experiments::{fmt, ExpOptions};

/// Operation kinds in display order.
pub const KINDS: [&str; 10] = [
    "clone-full",
    "clone-linked",
    "power-on",
    "power-off",
    "reconfigure",
    "snapshot",
    "remove-snapshot",
    "migrate-vm",
    "destroy-vm",
    "seed-template",
];

/// Runs F3.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let sim = run_probe(opts);
    let mut table = Table::new(
        "F3 — Operation latency split at low load (seconds)",
        &[
            "operation",
            "mean latency",
            "p95 latency",
            "control (cpu+db+agent)",
            "data transfer",
            "data share %",
            "samples",
        ],
    );
    for kind in KINDS {
        let mut lat: Summary = sim
            .trace()
            .records()
            .iter()
            .filter(|r| r.kind == kind && r.success)
            .map(|r| r.latency_s)
            .collect();
        if lat.is_empty() {
            continue;
        }
        let control = mean_of(&sim, kind, |r| r.control_s()).unwrap_or(0.0);
        let data = mean_of(&sim, kind, |r| r.data_s).unwrap_or(0.0);
        let share = if control + data > 0.0 {
            data / (control + data) * 100.0
        } else {
            0.0
        };
        table.row([
            kind.to_string(),
            fmt(lat.mean()),
            fmt(lat.percentile(95.0)),
            fmt(control),
            fmt(data),
            fmt(share),
            lat.count().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_split_shapes_hold_in_quick_mode() {
        let tables = run(&ExpOptions::quick());
        let t = &tables[0];
        let cell = |kind: &str, col: usize| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[0] == kind)
                .unwrap_or_else(|| panic!("missing row {kind}"))[col]
                .parse()
                .unwrap()
        };
        // Full clones are data-dominated; linked clones are not.
        assert!(cell("clone-full", 5) > 80.0, "full clone data share");
        assert!(cell("clone-linked", 5) < 20.0, "linked clone data share");
        // Linked clone latency is a small fraction of full clone latency.
        assert!(cell("clone-linked", 1) < cell("clone-full", 1) / 4.0);
        // Power ops are pure control plane.
        assert_eq!(cell("power-on", 4), 0.0);
    }
}
