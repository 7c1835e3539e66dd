//! Workspace self-check: the repo is lint-clean at HEAD, every suppression
//! carries a reason, and no simulation crate escapes into the harness
//! profile. This is the test-suite embedding of
//! `cargo run -p cpsim-lint -- --check`.

use std::path::PathBuf;

use cpsim_lint::{run_workspace, Directive, Profile, SourceFile, ALL_RULES, SIM_CRATES};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean_at_head() {
    let report = run_workspace(&workspace_root(), ALL_RULES).expect("scan workspace");
    assert!(
        !report.files.is_empty(),
        "scanner found no files — wrong root?"
    );
    let rendered = report.render_text();
    assert!(
        report.is_clean(),
        "cpsim-lint violations at HEAD:\n{rendered}"
    );
}

#[test]
fn no_sim_crate_matches_the_harness_profile() {
    let report = run_workspace(&workspace_root(), ALL_RULES).expect("scan workspace");
    for file in &report.files {
        let in_sim_crate = SIM_CRATES
            .iter()
            .any(|c| file.path.starts_with(&format!("crates/{c}/")));
        if in_sim_crate {
            assert_eq!(
                file.profile,
                Profile::Sim,
                "{} is a sim-crate file but was checked under the {} profile",
                file.path,
                file.profile.name()
            );
        } else {
            // Everything else in the scan set is the bench/repro harness,
            // which must have *declared* its looser profile in place.
            assert_eq!(
                file.profile,
                Profile::Harness,
                "{} is outside the sim crates but was not declared harness",
                file.path
            );
        }
    }
}

#[test]
fn every_in_tree_suppression_carries_a_reason() {
    // Belt and braces on top of the parser (which already rejects
    // reasonless allows): re-parse every scanned file and assert each
    // directive is well-formed with a non-empty reason.
    let root = workspace_root();
    let report = run_workspace(&root, ALL_RULES).expect("scan workspace");
    let mut allows = 0usize;
    for file in &report.files {
        let text = std::fs::read_to_string(root.join(&file.path)).expect("readable");
        let src = SourceFile::parse(root.join(&file.path), file.path.clone(), text);
        for d in &src.directives {
            match d {
                Directive::Allow { reason, .. } | Directive::DeclareProfile { reason, .. } => {
                    assert!(
                        !reason.trim().is_empty(),
                        "{}: suppression without a reason",
                        file.path
                    );
                    if matches!(d, Directive::Allow { .. }) {
                        allows += 1;
                    }
                }
                Directive::Malformed { line, error } => {
                    panic!("{}:{line}: malformed directive: {error}", file.path)
                }
            }
        }
    }
    // The workspace currently carries a small, audited set of allows:
    // the two FastMap/FastSet alias definitions, the keyed-only FastMap
    // fields (director workflows/ctx, federation migrations/reservations,
    // fleet agents, plane transfer owners, admission gates), one
    // admission lock panic, and one clone-mode unreachable. The R7
    // re-audit deleted the shared-lock unreachable in
    // `AdmissionControl::try_acquire` (restructured into the sibling
    // arms' sanctioned `assert!` form), lowering the bound from 15; the
    // binary-heap event queue deleted the two event-queue seq sets,
    // lowering it from 14. Growing this number should be a conscious
    // choice.
    assert!(
        allows <= 11,
        "suppression count grew to {allows}; audit new allows before raising this bound"
    );
}

#[test]
fn hot_entry_points_all_resolve() {
    // Every declared R7 entry spec must resolve to at least one fn in the
    // workspace graph; a rename in a sim crate should fail loudly here
    // rather than silently shrink the hot closure.
    let loaded = cpsim_lint::load_workspace(&workspace_root()).expect("load workspace");
    let (g, _) = cpsim_lint::build_graph(&loaded);
    let (entries, missing) =
        cpsim_lint::resolve::entry_fns(&g, cpsim_lint::resolve::HOT_ENTRY_POINTS);
    assert!(
        missing.is_empty(),
        "hot entry points failed to resolve: {missing:?}"
    );
    assert!(!entries.is_empty());
}

#[test]
fn r7_closure_subsumes_the_legacy_hot_path_list() {
    // The hand-maintained PR-4 list is kept as a regression floor: every
    // file it names must still contain at least one fn inside the
    // graph-computed hot closure.
    let loaded = cpsim_lint::load_workspace(&workspace_root()).expect("load workspace");
    let (g, sim_idx) = cpsim_lint::build_graph(&loaded);
    let rels: Vec<&str> = sim_idx
        .iter()
        .map(|&i| loaded[i].src.rel.as_str())
        .collect();
    let (entries, _) = cpsim_lint::resolve::entry_fns(&g, cpsim_lint::resolve::HOT_ENTRY_POINTS);
    let closure = g.reachable_from(&entries);
    for hot_file in cpsim_lint::HOT_PATH_FILES {
        let covered = g
            .fns
            .iter()
            .enumerate()
            .any(|(i, f)| closure[i].is_some() && rels[f.file] == *hot_file);
        assert!(
            covered,
            "{hot_file} is in HOT_PATH_FILES but no fn of it is in the R7 closure; \
             either the graph regressed or the file should be audited out of the list"
        );
    }
}
