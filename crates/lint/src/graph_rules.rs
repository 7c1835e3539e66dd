//! The graph-shaped rule families R7 and R8, computed over the workspace
//! symbol graph and merged into per-file reports by the scan assembler
//! (which applies the usual profile, test-exemption, and suppression
//! machinery to every hit).
//!
//! - **R7 panic-reachability**: BFS closure from the declared hot entry
//!   points ([`crate::resolve::HOT_ENTRY_POINTS`]); any panic-capable site
//!   in a reachable fn body is a violation, whatever crate it lives in.
//!   Reachability, not membership in a hand-kept file list, decides
//!   what "hot" means.
//! - **R8 RNG stream discipline**: raw seeding constructors are confined
//!   to the stream-source module (`impl Streams`), streams may not be
//!   cloned, `Streams::new(<literal>)` is confined to scenario builders,
//!   and `SimRng` may not sit in a shared cell (`Arc`/`Mutex`/`RwLock`).

use std::collections::BTreeSet;

use crate::graph::SymbolGraph;
use crate::resolve::{entry_fns, HOT_ENTRY_POINTS};
use crate::rules::{indexing_sites, panic_sites, RawViolation, RuleId};
use crate::source::SourceFile;

/// Tunables for the graph rules.
#[derive(Default, Clone)]
pub struct GraphConfig {
    /// R7 also flags slice indexing in reachable fns (`--r7-index`):
    /// a strict audit mode, off by default — structurally-validated
    /// indices are the event-queue slab idiom.
    pub index_checks: bool,
}

/// Runs R7 and R8 over the graph. `files` must be the slice the graph was
/// built over; the result is indexed the same way.
pub fn check(
    g: &SymbolGraph,
    files: &[&SourceFile],
    cfg: &GraphConfig,
) -> Vec<Vec<(RuleId, RawViolation)>> {
    let mut out: Vec<Vec<(RuleId, RawViolation)>> = vec![Vec::new(); files.len()];
    panic_reachability(g, files, cfg, &mut out);
    rng_discipline(g, files, &mut out);
    for file in &mut out {
        file.sort_by_key(|(_, v)| v.byte);
    }
    out
}

/// R7: panic-capable sites in the bodies of fns reachable from the hot
/// entry points.
fn panic_reachability(
    g: &SymbolGraph,
    files: &[&SourceFile],
    cfg: &GraphConfig,
    out: &mut [Vec<(RuleId, RawViolation)>],
) {
    let (entries, _missing) = entry_fns(g, HOT_ENTRY_POINTS);
    let reach = g.reachable_from(&entries);
    for (i, f) in g.fns.iter().enumerate() {
        let Some(root) = reach[i] else { continue };
        if f.is_test {
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        let src = files[f.file];
        let provenance = if root == i {
            format!("`{}` is itself a hot entry point", f.qualified())
        } else {
            format!(
                "`{}` is reachable from hot entry `{}`",
                f.qualified(),
                g.fns[root].qualified()
            )
        };
        for (byte, desc) in panic_sites(src, bs, be) {
            out[f.file].push((
                RuleId::PanicReachability,
                RawViolation {
                    byte,
                    message: format!(
                        "{desc} on a panic-reachable path: {provenance}; return a typed error or an invariant-citing `.expect(...)`"
                    ),
                },
            ));
        }
        if cfg.index_checks {
            for (byte, desc) in indexing_sites(src, bs, be) {
                out[f.file].push((
                    RuleId::PanicReachability,
                    RawViolation {
                        byte,
                        message: format!(
                            "{desc} on a panic-reachable path: {provenance}; use `.get(...)` or prove the bound"
                        ),
                    },
                ));
            }
        }
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of whole-word occurrences of `word` in `code`.
fn word_occurrences(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    code.match_indices(word)
        .filter(|(i, _)| {
            let before_ok = *i == 0 || !is_ident_byte(bytes[i - 1]);
            let end = i + word.len();
            let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
            before_ok && after_ok
        })
        .map(|(i, _)| i)
        .collect()
}

/// R8: RNG stream discipline.
fn rng_discipline(g: &SymbolGraph, files: &[&SourceFile], out: &mut [Vec<(RuleId, RawViolation)>]) {
    // The stream-source module: wherever `impl Streams` lives. Raw seeding
    // constructors are legal only there (that is where derive_seed turns a
    // master seed + stream id into a child stream).
    let stream_files: BTreeSet<usize> = g
        .fns
        .iter()
        .filter(|f| f.self_ty.as_deref() == Some("Streams"))
        .map(|f| f.file)
        .collect();
    // Scenario-builder types: `...Scenario` impls may seed `Streams::new`
    // from configuration.
    let push = |out: &mut [Vec<(RuleId, RawViolation)>], fi: usize, byte: usize, msg: String| {
        out[fi].push((
            RuleId::RngStreamDiscipline,
            RawViolation { byte, message: msg },
        ));
    };

    for (fi, src) in files.iter().enumerate() {
        let code = &src.code;
        let cb = code.as_bytes();

        // (a) Raw seeding constructors outside the stream-source module.
        if !stream_files.contains(&fi) {
            for w in ["seed_from_u64", "from_seed"] {
                for i in word_occurrences(code, w) {
                    push(out, fi, i, format!(
                        "raw RNG constructor `{w}` outside the stream-source module; derive streams via `Streams::rng`/`Streams::substreams`"
                    ));
                }
            }
        }

        // (b) Cloning an RNG value duplicates its sequence: two consumers
        // of one stream silently decorrelate under refactoring.
        for i in word_occurrences(code, "clone") {
            let mut p = i;
            while p > 0 && (cb[p - 1] as char).is_whitespace() {
                p -= 1;
            }
            if p == 0 || cb[p - 1] != b'.' {
                continue;
            }
            let mut r_end = p - 1;
            while r_end > 0 && (cb[r_end - 1] as char).is_whitespace() {
                r_end -= 1;
            }
            let mut r_start = r_end;
            while r_start > 0 && is_ident_byte(cb[r_start - 1]) {
                r_start -= 1;
            }
            let recv = &code[r_start..r_end];
            if recv.to_ascii_lowercase().contains("rng") {
                push(out, fi, i, format!(
                    "`.clone()` on RNG `{recv}` duplicates its stream; derive a fresh substream via `Streams::substreams` instead"
                ));
            }
        }

        // (c) `Streams::new(<integer literal>)` outside a scenario builder:
        // a baked-in master seed hides the scenario's seed plumbing.
        for i in word_occurrences(code, "Streams") {
            let rest = &cb[i + "Streams".len()..];
            let Some(tail) = strip_ws_prefix(rest, b"::") else {
                continue;
            };
            let Some(tail2) = strip_ws_prefix(tail, b"new") else {
                continue;
            };
            let Some(arg) = strip_ws_prefix(tail2, b"(") else {
                continue;
            };
            let mut a = 0;
            while a < arg.len() && (arg[a] as char).is_whitespace() {
                a += 1;
            }
            if a >= arg.len() || !arg[a].is_ascii_digit() {
                continue;
            }
            let in_builder = g.fn_at(fi, i).is_some_and(|f| {
                let f = &g.fns[f];
                f.self_ty
                    .as_deref()
                    .is_some_and(|t| t.ends_with("Scenario"))
                    || f.name.contains("scenario")
            });
            if !in_builder {
                push(out, fi, i, "`Streams::new(<literal>)` outside a scenario builder bakes in a master seed; thread the scenario/point seed through instead".to_string());
            }
        }

        // (d) A `SimRng` inside a shared cell is cross-shard stream
        // sharing: draws interleave by thread schedule, not sim order.
        for i in word_occurrences(code, "SimRng") {
            let line = src.line_of(i);
            let start = src.line_starts[line - 1];
            let end = src.line_starts.get(line).copied().unwrap_or(code.len());
            let line_code = &code[start..end];
            if ["Arc<", "Arc <", "Mutex<", "Mutex <", "RwLock<", "RwLock <"]
                .iter()
                .any(|p| line_code.contains(p))
            {
                push(out, fi, i, "`SimRng` inside a shared cell (Arc/Mutex/RwLock) lets draws interleave by thread schedule; give each shard its own derived stream".to_string());
            }
        }
    }
}

/// If `b` starts with optional whitespace then `prefix`, returns the rest.
fn strip_ws_prefix<'a>(b: &'a [u8], prefix: &[u8]) -> Option<&'a [u8]> {
    let mut i = 0;
    while i < b.len() && (b[i] as char).is_whitespace() {
        i += 1;
    }
    if b[i..].starts_with(prefix) {
        Some(&b[i + prefix.len()..])
    } else {
        None
    }
}
