//! Oracles for the per-task record path.
//!
//! - `MgmtStats` keeps its phase totals in per-kind slots matched by
//!   label address first. Its `phase_totals()` must equal a plain
//!   string-keyed map bit for bit, also when equal labels live at
//!   different addresses and after `merge`.
//! - Cost models draw through `Dist::sampler`, which takes a log-normal's
//!   `median.ln()` once. Its draws must bit-equal a fresh
//!   `LogNormal::new(median.ln(), sigma)` per draw, and preparing a
//!   sampler must leave the `Dist`'s JSON form as it was.

use std::collections::BTreeMap;

use cpsim::des::{Dist, SimDuration, SimTime, Streams};
use cpsim::mgmt::{MgmtStats, PhaseClass, TaskReport};
use proptest::prelude::*;
use rand_distr::{Distribution, LogNormal};

const KINDS: [&str; 3] = ["clone-linked", "clone-full", "power-on"];
const CLASSES: [PhaseClass; 4] = [
    PhaseClass::Cpu,
    PhaseClass::Db,
    PhaseClass::HostAgent,
    PhaseClass::DataTransfer,
];
const LABELS: [&str; 4] = ["api-ingress", "insert", "finalize", "power-on-vm"];

/// `text` as a `&'static str`: the literal itself, or a leaked copy at an
/// address no other string shares.
fn intern(text: &'static str, leak: bool) -> &'static str {
    if leak {
        Box::leak(text.to_string().into_boxed_str())
    } else {
        text
    }
}

/// One breakdown row: class, label, whether the label is a leaked copy,
/// and its seconds.
type Row = (usize, usize, bool, f64);

/// One task: kind, whether the kind is a leaked copy, and its rows.
type Spec = (usize, bool, Vec<Row>);

fn report(spec: &Spec) -> TaskReport {
    let (kind, leak_kind, rows) = spec;
    TaskReport {
        kind: intern(KINDS[*kind], *leak_kind),
        tag: 0,
        submitted_at: SimTime::ZERO,
        completed_at: SimTime::from_secs(1),
        latency: SimDuration::from_secs(1),
        cpu_secs: 0.0,
        db_secs: 0.0,
        agent_secs: 0.0,
        data_secs: 0.0,
        queue_secs: 0.0,
        admission_secs: 0.0,
        produced_vm: None,
        target_vm: None,
        placement: None,
        error: None,
        retries: 0,
        aborted: false,
        rolled_back: false,
        breakdown: rows
            .iter()
            .map(|&(c, l, leak, secs)| (CLASSES[c], intern(LABELS[l], leak), secs))
            .collect(),
    }
}

type Key = (String, String, String);
type Reference = BTreeMap<Key, (f64, u64)>;

/// The string-keyed reference: one `+=` per row, in row order.
fn reference(specs: &[Spec]) -> Reference {
    let mut map = Reference::new();
    for spec in specs {
        let r = report(spec);
        for (class, label, secs) in &r.breakdown {
            let key = (
                r.kind.to_string(),
                class.name().to_string(),
                label.to_string(),
            );
            let slot = map.entry(key).or_insert((0.0, 0));
            slot.0 += secs;
            slot.1 += 1;
        }
    }
    map
}

fn stats(specs: &[Spec]) -> MgmtStats {
    let mut s = MgmtStats::new();
    for spec in specs {
        s.on_finished(&report(spec));
    }
    s
}

/// Both sides as sorted `(kind, class, label, secs bits, count)` rows.
fn rows_of(stats: &MgmtStats) -> Vec<(Key, u64, u64)> {
    stats
        .phase_totals()
        .map(|(k, c, l, secs, n)| ((k.into(), c.into(), l.into()), secs.to_bits(), n))
        .collect()
}

fn rows_of_reference(map: &Reference) -> Vec<(Key, u64, u64)> {
    map.iter()
        .map(|(key, &(secs, n))| (key.clone(), secs.to_bits(), n))
        .collect()
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    let row = (0usize..4, 0usize..4, any::<bool>(), 0.0f64..30.0);
    (
        0usize..3,
        any::<bool>(),
        proptest::collection::vec(row, 0..12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn phase_totals_match_a_string_keyed_map(
        specs in proptest::collection::vec(spec_strategy(), 0..40),
    ) {
        prop_assert_eq!(rows_of(&stats(&specs)), rows_of_reference(&reference(&specs)));
    }

    #[test]
    fn merged_phase_totals_match_a_merged_string_keyed_map(
        a in proptest::collection::vec(spec_strategy(), 0..30),
        b in proptest::collection::vec(spec_strategy(), 0..30),
    ) {
        let mut merged = stats(&a);
        merged.merge(&stats(&b));
        let mut want = reference(&a);
        for (key, (secs, n)) in reference(&b) {
            let slot = want.entry(key).or_insert((0.0, 0));
            slot.0 += secs;
            slot.1 += n;
        }
        prop_assert_eq!(rows_of(&merged), rows_of_reference(&want));
    }

    #[test]
    fn log_normal_sampler_matches_a_fresh_log_normal(
        exponent in -6.0f64..6.0,
        sigma in 0.0f64..3.0,
        seed in 0u64..u64::MAX,
    ) {
        let median = 10f64.powf(exponent);
        let dist = Dist::log_normal(median, sigma).unwrap();
        let sampler = dist.sampler();
        let fresh = || LogNormal::new(median.ln(), sigma).unwrap();
        let mut a = Streams::new(seed).rng(0);
        let mut b = Streams::new(seed).rng(0);
        for _ in 0..64 {
            let want = fresh().sample(&mut b);
            prop_assert_eq!(sampler.sample(&mut a).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn log_normal_json_round_trips_byte_identically(
        exponent in -6.0f64..6.0,
        sigma in 0.0f64..3.0,
    ) {
        let dist = Dist::log_normal(10f64.powf(exponent), sigma).unwrap();
        let json = serde_json::to_string(&dist).unwrap();
        let _ = dist.sampler();
        let back: Dist = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &dist);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json.clone());
        prop_assert!(json.starts_with("{\"LogNormal\":{\"median\":"), "{}", json);
        prop_assert!(json.contains(",\"sigma\":"), "{}", json);
    }
}

/// Equal labels at distinct addresses land in one slot.
#[test]
fn equal_labels_at_distinct_addresses_share_a_slot() {
    let leaked = intern("api-ingress", true);
    assert!(!std::ptr::eq(leaked, "api-ingress"));
    let specs: Vec<Spec> = vec![
        (0, false, vec![(0, 0, false, 1.0), (0, 0, true, 2.0)]),
        (0, true, vec![(0, 0, true, 4.0)]),
    ];
    let rows: Vec<_> = stats(&specs).phase_totals().collect();
    assert_eq!(rows, vec![("clone-linked", "cpu", "api-ingress", 7.0, 3)]);
}
