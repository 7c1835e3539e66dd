//! `cpsim-lint` — determinism-invariant static analysis for the cpsim
//! workspace.
//!
//! The paper reproduction promises byte-identical experiment CSVs for any
//! `--jobs` value; that only holds if the simulation crates never consult
//! the wall clock, ambient entropy, unordered collections, or partial float
//! orders. This crate makes those hazards *unrepresentable by review*: a
//! std-only analyzer (file walker + lightweight tokenizer, no `syn`,
//! consistent with the offline `compat/` policy) that scans every sim crate
//! and fails the build on violations.
//!
//! # Profiles
//!
//! - **sim** (`crates/{des,core,mgmt,inventory,cloud,hostagent,storage,`
//!   `faults,workload,metrics}/src`): the full rule set.
//! - **harness** (`crates/bench/src`, the root `src/`, `examples/`): only
//!   the rules whose violation would leak into experiment *results*
//!   (`no-ambient-rng`, `no-raw-float-ord`). Harness files must *declare*
//!   their looser profile in place with
//!   `// cpsim-lint: profile(harness): <reason>`; sim files may not.
//!
//! # Suppressions
//!
//! `// cpsim-lint: allow(<rule>[, <rule>...]): <reason>` on the violating
//! line or the line above. The reason is mandatory; a reasonless allow is
//! itself a violation (`lint-directive`).
//!
//! Run with `cargo run -p cpsim-lint -- --check`.

pub mod graph;
pub mod graph_rules;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

pub use graph::SymbolGraph;
pub use report::{FileReport, Report, Violation};
pub use rules::{RuleId, ALL_RULES};
pub use source::{Directive, Profile, SourceFile};

/// Crates checked under the full simulation profile.
pub const SIM_CRATES: &[&str] = &[
    "cloud",
    "core",
    "des",
    "faults",
    "federation",
    "hostagent",
    "inventory",
    "metrics",
    "mgmt",
    "storage",
    "workload",
];

/// Directories checked under the looser harness profile (workspace-relative).
pub const HARNESS_DIRS: &[&str] = &["crates/bench/src", "src", "examples"];

/// How a file's profile directive is policed during a workspace scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProfilePolicy {
    /// Sim crates: a `profile(harness)` declaration is a violation.
    ForbidHarness,
    /// Harness dirs: the `profile(harness)` declaration is mandatory, so
    /// the looser profile is explicit in the file rather than implicit in
    /// the tool's path table.
    RequireHarness,
    /// Explicit single-file scans (fixtures, CLI paths): a declaration
    /// simply switches the profile.
    Honor,
}

/// Scans one parsed source file under the given policy.
///
/// `extra` carries workspace-graph rule hits (R7–R9) attributed to this
/// file; they pass through the same profile, test-exemption, and
/// suppression machinery as pattern hits.
pub fn scan_source(
    src: &SourceFile,
    default_profile: Profile,
    policy: ProfilePolicy,
    enabled: &[RuleId],
    extra: &[(RuleId, rules::RawViolation)],
) -> FileReport {
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    let directive_rule_on = enabled.contains(&RuleId::LintDirective);
    let push_meta = |line: usize, message: String, violations: &mut Vec<Violation>| {
        if directive_rule_on {
            violations.push(Violation {
                rule: RuleId::LintDirective,
                path: src.rel.clone(),
                line,
                col: 1,
                message,
                snippet: src.line_text(line).trim().to_string(),
            });
        }
    };

    // Resolve the profile and police the declaration.
    let declared = src.declared_profile();
    let profile = match (policy, declared) {
        (ProfilePolicy::Honor, Some(p)) => p,
        (ProfilePolicy::ForbidHarness, Some(Profile::Harness)) => {
            let line = src
                .directives
                .iter()
                .find_map(|d| match d {
                    Directive::DeclareProfile { line, .. } => Some(*line),
                    _ => None,
                })
                .unwrap_or(1);
            push_meta(
                line,
                "simulation crates may not opt into the harness profile".to_string(),
                &mut violations,
            );
            default_profile
        }
        _ => default_profile,
    };
    if policy == ProfilePolicy::RequireHarness && declared != Some(Profile::Harness) {
        push_meta(
            1,
            "harness file must declare its profile explicitly: // cpsim-lint: profile(harness): <reason>"
                .to_string(),
            &mut violations,
        );
    }

    // Directive hygiene: malformed directives and unknown rule names.
    for d in &src.directives {
        match d {
            Directive::Malformed { line, error } => {
                push_meta(
                    *line,
                    format!("malformed cpsim-lint directive: {error}"),
                    &mut violations,
                );
            }
            Directive::Allow { line, rules, .. } => {
                for r in rules {
                    if RuleId::from_name(r).is_none() {
                        push_meta(
                            *line,
                            format!("allow(...) names unknown rule `{r}`"),
                            &mut violations,
                        );
                    }
                }
            }
            Directive::DeclareProfile { .. } => {}
        }
    }

    // Pattern rules, then graph-rule hits attributed to this file — both
    // funneled through the same exemption and suppression checks.
    let consider = |rule: RuleId,
                    raw: rules::RawViolation,
                    violations: &mut Vec<Violation>,
                    suppressed: &mut Vec<Violation>| {
        if src.is_exempt(raw.byte) {
            return;
        }
        let line = src.line_of(raw.byte);
        let v = Violation {
            rule,
            path: src.rel.clone(),
            line,
            col: src.col_of(raw.byte),
            message: raw.message,
            snippet: src.line_text(line).trim().to_string(),
        };
        if is_suppressed(src, rule, line) {
            suppressed.push(v);
        } else {
            violations.push(v);
        }
    };
    for &rule in enabled {
        if rule == RuleId::LintDirective || !rule.applies(profile) {
            continue;
        }
        for raw in rules::check(src, rule) {
            consider(rule, raw, &mut violations, &mut suppressed);
        }
    }
    for (rule, raw) in extra {
        if !enabled.contains(rule) || !rule.applies(profile) {
            continue;
        }
        consider(
            *rule,
            rules::RawViolation {
                byte: raw.byte,
                message: raw.message.clone(),
            },
            &mut violations,
            &mut suppressed,
        );
    }

    FileReport {
        path: src.rel.clone(),
        profile,
        violations,
        suppressed,
    }
}

/// Whether an `allow` directive for `rule` covers 1-based line `line`
/// (same line or the line immediately above).
fn is_suppressed(src: &SourceFile, rule: RuleId, line: usize) -> bool {
    src.directives.iter().any(|d| match d {
        Directive::Allow { line: l, rules, .. } => {
            (*l == line || *l + 1 == line) && rules.iter().any(|r| r == rule.name())
        }
        _ => false,
    })
}

/// Loads and scans a single file (used by the CLI's explicit-path mode and
/// the conformance tests; profile directives in the file are honored).
/// Pattern rules only — graph rules need a file *set*; see [`scan_files`].
pub fn scan_path(
    path: &Path,
    default_profile: Profile,
    enabled: &[RuleId],
) -> io::Result<FileReport> {
    let text = std::fs::read_to_string(path)?;
    let rel = path.to_string_lossy().replace('\\', "/");
    let src = SourceFile::parse(path.to_path_buf(), rel, text);
    Ok(scan_source(
        &src,
        default_profile,
        ProfilePolicy::Honor,
        enabled,
        &[],
    ))
}

/// Loads and scans a set of files as one unit: a symbol graph is built
/// over the whole set, so the graph rules (R7–R9) see cross-file call
/// chains. Used by the CLI's multi-file mode and the fixture-crate tests.
pub fn scan_files(
    paths: &[PathBuf],
    default_profile: Profile,
    enabled: &[RuleId],
    cfg: &graph_rules::GraphConfig,
) -> io::Result<Vec<FileReport>> {
    let mut srcs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)?;
        let rel = path.to_string_lossy().replace('\\', "/");
        srcs.push(SourceFile::parse(path.clone(), rel, text));
    }
    let refs: Vec<&SourceFile> = srcs.iter().collect();
    let g = SymbolGraph::build(&refs);
    let extras = graph_rules::check(&g, &refs, cfg);
    Ok(srcs
        .iter()
        .zip(extras.iter())
        .map(|(src, extra)| scan_source(src, default_profile, ProfilePolicy::Honor, enabled, extra))
        .collect())
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// One file of the workspace scan set, with its scan parameters.
pub struct LoadedFile {
    pub src: SourceFile,
    pub profile: Profile,
    pub policy: ProfilePolicy,
}

/// Loads the full workspace scan set in deterministic order: every sim
/// crate under the sim profile, then the bench/repro harness and examples
/// under the harness profile.
pub fn load_workspace(root: &Path) -> io::Result<Vec<LoadedFile>> {
    let mut files = Vec::new();
    let mut load_dir = |dir: PathBuf, profile: Profile, policy: ProfilePolicy| {
        let mut paths = Vec::new();
        walk_rs(&dir, &mut paths)?;
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            files.push(LoadedFile {
                src: SourceFile::parse(path.clone(), rel, text),
                profile,
                policy,
            });
        }
        io::Result::Ok(())
    };
    for krate in SIM_CRATES {
        load_dir(
            root.join("crates").join(krate).join("src"),
            Profile::Sim,
            ProfilePolicy::ForbidHarness,
        )?;
    }
    for dir in HARNESS_DIRS {
        load_dir(
            root.join(dir),
            Profile::Harness,
            ProfilePolicy::RequireHarness,
        )?;
    }
    Ok(files)
}

/// Builds the symbol graph over the sim-profile files of a loaded set.
/// Returns the graph plus the indices (into `files`) of the graphed files,
/// in graph order.
pub fn build_graph(files: &[LoadedFile]) -> (SymbolGraph, Vec<usize>) {
    let sim_idx: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.profile == Profile::Sim)
        .map(|(i, _)| i)
        .collect();
    let refs: Vec<&SourceFile> = sim_idx.iter().map(|&i| &files[i].src).collect();
    (SymbolGraph::build(&refs), sim_idx)
}

/// The full workspace scan with default graph-rule configuration.
pub fn run_workspace(root: &Path, enabled: &[RuleId]) -> io::Result<Report> {
    run_workspace_with(root, enabled, &graph_rules::GraphConfig::default())
}

/// The full workspace scan: per-file pattern rules plus the workspace
/// symbol-graph rules (R7–R9) computed over all sim crates.
pub fn run_workspace_with(
    root: &Path,
    enabled: &[RuleId],
    cfg: &graph_rules::GraphConfig,
) -> io::Result<Report> {
    let loaded = load_workspace(root)?;
    let (g, sim_idx) = build_graph(&loaded);
    let refs: Vec<&SourceFile> = sim_idx.iter().map(|&i| &loaded[i].src).collect();
    let graph_hits = graph_rules::check(&g, &refs, cfg);
    // Re-key graph hits by loaded-file index.
    let mut extras: Vec<Vec<(RuleId, rules::RawViolation)>> =
        (0..loaded.len()).map(|_| Vec::new()).collect();
    for (gi, hits) in graph_hits.into_iter().enumerate() {
        extras[sim_idx[gi]] = hits;
    }
    let files = loaded
        .iter()
        .zip(extras.iter())
        .map(|(f, extra)| scan_source(&f.src, f.profile, f.policy, enabled, extra))
        .collect();
    Ok(Report {
        root: root.to_path_buf(),
        files,
    })
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the scan root.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
