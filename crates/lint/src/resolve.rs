//! Conservative call resolution over the symbol graph.
//!
//! Resolution is name-based and deliberately over-approximate: a method
//! call `.pop()` resolves to *every* workspace method named `pop`, a
//! qualified call `Queue::pop()` to every method of a type named `Queue`.
//! Over-approximation is the safe direction for R7 (panic reachability can
//! only be over-reported, never missed) and keeps the resolver far from
//! type inference — there is no trait solving here, just the symbol table.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{CallKind, SymbolGraph};

/// Fills [`SymbolGraph::callees`] from the recorded call sites.
pub fn resolve_calls(g: &mut SymbolGraph) {
    // Name indexes over the symbol table.
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qualified: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut type_names: BTreeSet<&str> = BTreeSet::new();
    for t in &g.types {
        type_names.insert(t.name.as_str());
    }
    for (i, f) in g.fns.iter().enumerate() {
        match &f.self_ty {
            Some(ty) => {
                methods.entry(f.name.as_str()).or_default().push(i);
                by_qualified
                    .entry((ty.as_str(), f.name.as_str()))
                    .or_default()
                    .push(i);
                type_names.insert(ty.as_str());
            }
            None => free.entry(f.name.as_str()).or_default().push(i),
        }
    }
    let mut aliases: BTreeMap<(usize, &str), &str> = BTreeMap::new();
    for a in &g.aliases {
        aliases.insert((a.file, a.alias.as_str()), a.target.as_str());
    }

    let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.fns.len()];
    for call in &g.calls {
        let caller = &g.fns[call.caller];
        let name = call.name.as_str();
        let targets: Vec<usize> = match call.kind {
            CallKind::Method => {
                // `self.m()` in `impl T` prefers `T::m` when it exists;
                // otherwise every method named `m` is a candidate.
                let own = call
                    .receiver
                    .is_none()
                    .then_some(caller.self_ty.as_deref())
                    .flatten()
                    .and_then(|ty| by_qualified.get(&(ty, name)));
                match own {
                    Some(v) => v.clone(),
                    None => methods.get(name).cloned().unwrap_or_default(),
                }
            }
            CallKind::Qualified => {
                let q = call.qualifier.as_deref().unwrap_or("");
                // Expand `use ... as` renames, then `Self`.
                let q = aliases.get(&(caller.file, q)).copied().unwrap_or(q);
                let q = if q == "Self" {
                    caller.self_ty.as_deref().unwrap_or(q)
                } else {
                    q
                };
                if let Some(v) = by_qualified.get(&(q, name)) {
                    v.clone()
                } else if type_names.contains(q) {
                    // A known type without that method: likely a derive or
                    // std trait (`Clone::clone`); resolve to nothing rather
                    // than every same-named fn.
                    Vec::new()
                } else {
                    // Module-qualified free call.
                    free.get(name).cloned().unwrap_or_default()
                }
            }
            CallKind::Free => free.get(name).cloned().unwrap_or_default(),
        };
        callees[call.caller].extend(targets);
    }
    g.callees = callees
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect();
}

/// A hot-path entry point: `(self_ty, fn_name)`, `None` for free fns.
pub type EntrySpec = (Option<&'static str>, &'static str);

/// The declared hot entry points R7 computes its closure from: the event
/// queue's schedule/pop surface, placement, the admission drain, and
/// the heartbeat replay with its lazy station arrivals. These replace the
/// PR-4-era hand-maintained hot-file list — reachability, not file
/// membership, now decides what "hot path" means.
pub const HOT_ENTRY_POINTS: &[EntrySpec] = &[
    // DES event queue (crates/des/src/queue.rs).
    (Some("EventQueue"), "schedule"),
    (Some("EventQueue"), "pop"),
    (Some("EventQueue"), "pop_if_before"),
    // Placement (crates/mgmt/src/placement.rs).
    (Some("Placer"), "place"),
    // Admission drain (crates/mgmt/src/admission.rs).
    (Some("AdmissionControl"), "try_acquire"),
    (Some("AdmissionControl"), "park"),
    (Some("AdmissionControl"), "release"),
    (Some("AdmissionControl"), "release_only"),
    (Some("AdmissionControl"), "drain_pending"),
    // Heartbeat replay (crates/mgmt/src/plane.rs, crates/mgmt/src/beats.rs)
    // and the lazy station arrival each beat makes
    // (crates/des/src/resource/station.rs).
    (Some("ControlPlane"), "replay_beats"),
    (Some("FcfsStation"), "arrive_lazy"),
];

/// Resolves every entry spec to fn indices; specs that resolve to nothing
/// are reported so the list cannot rot silently.
pub fn entry_fns(g: &SymbolGraph, specs: &[EntrySpec]) -> (Vec<usize>, Vec<&'static str>) {
    let mut out = Vec::new();
    let mut missing = Vec::new();
    for &(ty, name) in specs {
        let found = g.find_fns(ty, name);
        if found.is_empty() {
            missing.push(name);
        }
        out.extend(found);
    }
    (out, missing)
}

/// Renders the parsed graph and R7 closure for `--graph-dump`.
pub fn render_graph_dump(g: &SymbolGraph, files: &[&crate::source::SourceFile]) -> String {
    use std::fmt::Write as _;
    let (entries, missing) = entry_fns(g, HOT_ENTRY_POINTS);
    let reach = g.reachable_from(&entries);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# symbol graph: {} fns, {} types, {} call sites, {} files",
        g.fns.len(),
        g.types.len(),
        g.calls.len(),
        files.len()
    );
    for m in &missing {
        let _ = writeln!(out, "# WARNING: entry point `{m}` resolved to no fn");
    }
    for (i, f) in g.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let mark = match reach[i] {
            Some(e) if e == i => " [entry]",
            Some(_) => " [hot]",
            None => "",
        };
        let _ = write!(
            out,
            "{} {}:{}{}",
            f.qualified(),
            files[f.file].rel,
            f.line,
            mark
        );
        if let Some(e) = reach[i] {
            if e != i {
                let _ = write!(out, " via {}", g.fns[e].qualified());
            }
        }
        let callees: Vec<String> = g.callees[i].iter().map(|&c| g.fns[c].qualified()).collect();
        if callees.is_empty() {
            let _ = writeln!(out);
        } else {
            let _ = writeln!(out, " -> {}", callees.join(", "));
        }
    }
    out
}
