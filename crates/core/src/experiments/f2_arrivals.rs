//! F2 — Figure 2: operation arrival rate over a simulated day.
//!
//! Self-service arrivals are bursty (class-start storms in Cloud A,
//! work-hour swell in Cloud B); the enterprise baseline is comparatively
//! smooth. The figure is the hourly operation-submission series plus the
//! burstiness summary.

use cpsim_des::SimTime;
use cpsim_metrics::Table;
use cpsim_workload::TraceAnalysis;

use crate::experiments::loops::profile_sweep;
use crate::experiments::{fmt, ExpOptions};
use crate::Scenario;

/// Runs F2.
pub fn run(opts: &ExpOptions) -> Vec<Table> {
    let hours = opts.pick(48, 12);
    let analyses: Vec<(String, TraceAnalysis)> = profile_sweep(opts, |p| {
        let mut sim = Scenario::from_profile(p).seed(opts.seed).build();
        sim.run_until(SimTime::from_hours(hours));
        (p.name.clone(), sim.analyze_trace())
    });

    let mut series = Table::new(
        "F2 — Management operations submitted per hour",
        &["hour", "cloud-a", "cloud-b", "enterprise"],
    );
    for h in 0..hours as usize {
        let mut row = vec![h.to_string()];
        for (_, a) in &analyses {
            row.push(a.hourly.counts().get(h).copied().unwrap_or(0).to_string());
        }
        series.row(row);
    }

    let mut summary = Table::new(
        "F2b — Burstiness summary",
        &["environment", "peak/mean (hourly ops)", "interarrival CV"],
    );
    for (name, a) in &analyses {
        summary.row([name.clone(), fmt(a.peak_to_mean), fmt(a.interarrival_cv)]);
    }
    vec![series, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_burstiness_ranks_clouds_over_enterprise() {
        let tables = run(&ExpOptions::quick());
        let summary = &tables[1];
        // Interarrival CV is the robust burstiness statistic here: the
        // hourly peak/mean column rides on few, noisy buckets (the
        // enterprise trace submits so few ops per hour that its peak
        // bucket sits ~2.5x its mean from Poisson noise alone), so the
        // cloud-vs-enterprise gap there is within sampling jitter.
        let cv = |row: usize| -> f64 { summary.rows()[row][2].parse().unwrap() };
        let (cloud_a_cv, cloud_b_cv, enterprise_cv) = (cv(0), cv(1), cv(2));
        assert!(
            cloud_a_cv > cloud_b_cv && cloud_b_cv > enterprise_cv,
            "burstiness must rank a > b > enterprise: {cloud_a_cv} / {cloud_b_cv} / {enterprise_cv}"
        );
        // The clouds are far from Poisson (CV 1); the enterprise is close.
        assert!(cloud_a_cv > 3.0, "cloud-a storms: CV {cloud_a_cv}");
        assert!(
            enterprise_cv < 2.0,
            "enterprise near-Poisson: CV {enterprise_cv}"
        );
        // Series has one row per hour.
        assert_eq!(tables[0].len(), 12);
    }
}
