//! Conformance suite for `cpsim-lint` itself: every rule fires on its
//! positive fixture, every suppression form holds, test-gated code is
//! exempt, and the harness profile is looser in exactly the documented way.

use std::path::PathBuf;

use cpsim_lint::{
    graph_rules::GraphConfig, scan_files, scan_path, FileReport, Profile, RuleId, ALL_RULES,
};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn scan(name: &str, profile: Profile) -> FileReport {
    scan_path(&fixture(name), profile, ALL_RULES).expect("fixture file readable")
}

/// Scans a fixture *set* as one unit so the graph rules (R7–R9) see the
/// cross-file call chains. Reports come back in `names` order.
fn scan_set(names: &[&str]) -> Vec<FileReport> {
    let paths: Vec<PathBuf> = names.iter().map(|n| fixture(n)).collect();
    scan_files(&paths, Profile::Sim, ALL_RULES, &GraphConfig::default())
        .expect("fixture files readable")
}

fn count(report: &FileReport, rule: RuleId) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

fn count_suppressed(report: &FileReport, rule: RuleId) -> usize {
    report.suppressed.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn r1_fires_on_wall_clock_and_skips_sim_variants() {
    let r = scan("r1_wall_clock.rs", Profile::Sim);
    // Instant::now + SystemTime + UNIX_EPOCH; CloneMode::Instant and the
    // string/comment mentions must not fire.
    assert_eq!(count(&r, RuleId::NoWallClock), 3, "{:?}", r.violations);
    assert_eq!(r.suppressed.len(), 0);
}

#[test]
fn r1_suppression_holds_in_both_positions() {
    let r = scan("r1_suppressed.rs", Profile::Sim);
    assert_eq!(count(&r, RuleId::NoWallClock), 0, "{:?}", r.violations);
    // Line-above and same-line forms both count as suppressed hits.
    assert_eq!(count_suppressed(&r, RuleId::NoWallClock), 2);
    assert_eq!(count(&r, RuleId::LintDirective), 0);
}

#[test]
fn r2_fires_on_ambient_rng_only() {
    let r = scan("r2_ambient_rng.rs", Profile::Sim);
    // thread_rng + from_entropy + OsRng; seed_from_u64 must not fire.
    assert_eq!(count(&r, RuleId::NoAmbientRng), 3, "{:?}", r.violations);
}

#[test]
fn r3_fires_on_unordered_collections_only() {
    let r = scan("r3_unordered.rs", Profile::Sim);
    // use HashMap + field HashMap + field HashSet; BTreeMap/Vec are fine.
    assert_eq!(
        count(&r, RuleId::NoUnorderedIteration),
        3,
        "{:?}",
        r.violations
    );
}

#[test]
fn r3_suppression_holds() {
    let r = scan("r3_suppressed.rs", Profile::Sim);
    assert_eq!(
        count(&r, RuleId::NoUnorderedIteration),
        0,
        "{:?}",
        r.violations
    );
    assert_eq!(count_suppressed(&r, RuleId::NoUnorderedIteration), 1);
}

#[test]
fn r4_fires_on_calls_but_not_trait_impls() {
    let r = scan("r4_float_ord.rs", Profile::Sim);
    // The sort_by call fires; the `fn partial_cmp` definition and the
    // total_cmp call do not.
    assert_eq!(count(&r, RuleId::NoRawFloatOrd), 1, "{:?}", r.violations);
}

#[test]
fn r6_fires_on_printing_but_not_sink_writes() {
    let r = scan("r6_stdout.rs", Profile::Sim);
    // println! + eprintln! + dbg!; writeln!(out, ...) is the sanctioned path.
    assert_eq!(count(&r, RuleId::NoStdoutInLibs), 3, "{:?}", r.violations);
}

#[test]
fn harness_profile_waives_exactly_the_harness_rules() {
    // The file declares profile(harness); scan_path honors the directive
    // even though the default passed in is Sim.
    let r = scan("harness_profile.rs", Profile::Sim);
    assert_eq!(r.profile, Profile::Harness);
    assert_eq!(count(&r, RuleId::NoWallClock), 0);
    assert_eq!(count(&r, RuleId::NoUnorderedIteration), 0);
    assert_eq!(count(&r, RuleId::NoStdoutInLibs), 0);
    // Seeding and float ordering still fire: they leak into results.
    assert_eq!(count(&r, RuleId::NoAmbientRng), 1, "{:?}", r.violations);
    assert_eq!(count(&r, RuleId::NoRawFloatOrd), 1, "{:?}", r.violations);
}

#[test]
fn cfg_test_items_are_exempt() {
    let r = scan("cfg_test_exempt.rs", Profile::Sim);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn reasonless_or_unknown_suppressions_are_violations() {
    let r = scan("bad_suppression.rs", Profile::Sim);
    // One malformed (missing reason) + one unknown rule name.
    assert_eq!(count(&r, RuleId::LintDirective), 2, "{:?}", r.violations);
    // And the reasonless allow does NOT suppress: the Instant::now under it
    // still fires.
    assert_eq!(count(&r, RuleId::NoWallClock), 1, "{:?}", r.violations);
}

#[test]
fn raw_string_literals_are_masked_and_expect_messages_read() {
    let r = scan("masking_raw_string.rs", Profile::Sim);
    // Only the two real HashMap mentions after the raw strings fire.
    assert_eq!(
        count(&r, RuleId::NoUnorderedIteration),
        2,
        "{:?}",
        r.violations
    );
    for rule in [
        RuleId::NoWallClock,
        RuleId::NoAmbientRng,
        RuleId::NoRawFloatOrd,
        RuleId::NoStdoutInLibs,
    ] {
        assert_eq!(count(&r, rule), 0, "{:?}", r.violations);
    }
    // Reached from a hot entry point, the short raw-string expect message
    // fires; the invariant-citing one passes.
    let hot = &scan_set(&["masking_raw_string.rs"])[0];
    assert_eq!(
        count(hot, RuleId::PanicReachability),
        1,
        "{:?}",
        hot.violations
    );
}

#[test]
fn macro_rules_bodies_are_masked() {
    let r = scan("masking_macro_rules.rs", Profile::Sim);
    // Only the two HashMap mentions outside the macro bodies fire.
    assert_eq!(
        count(&r, RuleId::NoUnorderedIteration),
        2,
        "{:?}",
        r.violations
    );
    assert_eq!(count(&r, RuleId::NoWallClock), 0, "{:?}", r.violations);
    assert_eq!(count(&r, RuleId::NoAmbientRng), 0, "{:?}", r.violations);
    assert_eq!(count(&r, RuleId::NoRawFloatOrd), 0, "{:?}", r.violations);
}

#[test]
fn r7_flags_panics_reachable_across_files() {
    let reports = scan_set(&["r7_bad/wheel.rs", "r7_bad/helper.rs"]);
    // The entry-point file itself is panic-free...
    assert_eq!(
        count(&reports[0], RuleId::PanicReachability),
        0,
        "{:?}",
        reports[0].violations
    );
    // ...but the unwrap two hops away, in a different file, is flagged
    // with its reachability provenance.
    assert_eq!(
        count(&reports[1], RuleId::PanicReachability),
        1,
        "{:?}",
        reports[1].violations
    );
    let v = reports[1]
        .violations
        .iter()
        .find(|v| v.rule == RuleId::PanicReachability)
        .expect("flagged above");
    assert!(
        v.message.contains("reachable from hot entry"),
        "missing provenance: {}",
        v.message
    );
}

#[test]
fn r7_clean_closure_passes() {
    for r in scan_set(&["r7_ok/wheel.rs", "r7_ok/helper.rs"]) {
        assert_eq!(
            count(&r, RuleId::PanicReachability),
            0,
            "{:?}",
            r.violations
        );
    }
}

#[test]
fn r8_flags_each_discipline_breach() {
    let reports = scan_set(&["r8_bad.rs"]);
    // seed_from_u64 outside the stream module + RNG clone + literal
    // master seed outside a scenario builder + SimRng in a shared cell.
    assert_eq!(
        count(&reports[0], RuleId::RngStreamDiscipline),
        4,
        "{:?}",
        reports[0].violations
    );
}

#[test]
fn r8_sanctioned_stream_derivation_passes() {
    let reports = scan_set(&["r8_ok.rs"]);
    assert_eq!(
        count(&reports[0], RuleId::RngStreamDiscipline),
        0,
        "{:?}",
        reports[0].violations
    );
}

#[test]
fn r9_flags_naked_store_mutation() {
    let reports = scan_set(&["r9_bad/store.rs", "r9_bad/user.rs"]);
    // The defining file polices nothing; the naked `.commit(...)` in the
    // user file fires.
    assert_eq!(count(&reports[0], RuleId::StoreProtocol), 0);
    assert_eq!(
        count(&reports[1], RuleId::StoreProtocol),
        1,
        "{:?}",
        reports[1].violations
    );
}

#[test]
fn r9_dominated_mutations_pass() {
    for r in scan_set(&["r9_ok/store.rs", "r9_ok/user.rs"]) {
        assert_eq!(count(&r, RuleId::StoreProtocol), 0, "{:?}", r.violations);
    }
}

#[test]
fn rule_names_round_trip() {
    for r in ALL_RULES {
        assert_eq!(RuleId::from_name(r.name()), Some(*r));
        assert!(!r.description().is_empty());
    }
}
