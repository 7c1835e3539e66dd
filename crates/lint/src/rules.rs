//! The determinism-invariant rule set.
//!
//! Every rule is a whole-word pattern match over masked code (see
//! [`crate::source`]), so string contents, comments, and test-gated items
//! never fire. Each rule is individually toggleable from the CLI and
//! suppressible in place with `// cpsim-lint: allow(<rule>): <reason>`.

use crate::source::{Profile, SourceFile};

/// Minimum `.expect("...")` message length (chars) accepted on a hot path.
///
/// An `expect` whose message cites the invariant that makes the panic
/// unreachable is the sanctioned in-band form of R7 suppression; terse
/// markers like `"live"` or `"checked"` document nothing.
pub const MIN_EXPECT_MSG_CHARS: usize = 8;

/// Identifies one lint rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleId {
    /// R1: no wall-clock time sources in sim crates.
    NoWallClock,
    /// R2: no ambient (non-seeded) randomness anywhere.
    NoAmbientRng,
    /// R3: no unordered collections in sim crates.
    NoUnorderedIteration,
    /// R4: no raw float ordering (`partial_cmp`) — use `total_cmp`.
    NoRawFloatOrd,
    /// R6: no stdout/stderr printing from library crates.
    NoStdoutInLibs,
    /// R7: no panic reachable from a declared hot entry point (call-graph
    /// closure; replaces the PR-4 hand-maintained hot-file list).
    PanicReachability,
    /// R8: every RNG value must flow from a named derive/substream
    /// constructor — no clones, no literal re-seeding, no shared cells.
    RngStreamDiscipline,
    /// Meta: malformed or misused `cpsim-lint:` directives.
    LintDirective,
}

/// Every rule, in report order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::NoWallClock,
    RuleId::NoAmbientRng,
    RuleId::NoUnorderedIteration,
    RuleId::NoRawFloatOrd,
    RuleId::NoStdoutInLibs,
    RuleId::PanicReachability,
    RuleId::RngStreamDiscipline,
    RuleId::LintDirective,
];

impl RuleId {
    /// The kebab-case name used in reports, `--rules`, and `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoAmbientRng => "no-ambient-rng",
            RuleId::NoUnorderedIteration => "no-unordered-iteration",
            RuleId::NoRawFloatOrd => "no-raw-float-ord",
            RuleId::NoStdoutInLibs => "no-stdout-in-libs",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::RngStreamDiscipline => "rng-stream-discipline",
            RuleId::LintDirective => "lint-directive",
        }
    }

    /// The stable short ID used in JSON reports and accepted by `--rules`
    /// (`R7` / `r7` for `panic-reachability`, ...). The directive meta-rule
    /// is `R0`.
    pub fn short_id(self) -> &'static str {
        match self {
            RuleId::NoWallClock => "R1",
            RuleId::NoAmbientRng => "R2",
            RuleId::NoUnorderedIteration => "R3",
            RuleId::NoRawFloatOrd => "R4",
            RuleId::NoStdoutInLibs => "R6",
            RuleId::PanicReachability => "R7",
            RuleId::RngStreamDiscipline => "R8",
            RuleId::LintDirective => "R0",
        }
    }

    /// Resolves a rule name (kebab-case) or short ID (`r7`/`R7`) as written
    /// in `allow(...)` or `--rules`.
    pub fn from_name(s: &str) -> Option<RuleId> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.name() == s || r.short_id() == s || r.short_id().to_ascii_lowercase() == s)
    }

    /// One-line description for `--list-rules` and the design doc.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::NoWallClock => {
                "sim time must flow from the DES clock: Instant/SystemTime/UNIX_EPOCH are banned in sim crates"
            }
            RuleId::NoAmbientRng => {
                "all randomness must derive from scenario/point seeds: thread_rng/from_entropy/OsRng are banned"
            }
            RuleId::NoUnorderedIteration => {
                "HashMap/HashSet iteration order is nondeterministic: sim state wants BTreeMap/BTreeSet/Vec"
            }
            RuleId::NoRawFloatOrd => {
                "partial_cmp on floats is partial and NaN-unsafe: ordering must use f64::total_cmp"
            }
            RuleId::NoStdoutInLibs => {
                "library crates must not print: output flows through metrics tables and the bench harness"
            }
            RuleId::PanicReachability => {
                "no panic/unwrap may be reachable from a hot entry point (event queue, placement, admission, heartbeat replay) through any call chain"
            }
            RuleId::RngStreamDiscipline => {
                "RNG values must flow from named derive/substream constructors: no stream clones, literal re-seeding, or shared RNG cells"
            }
            RuleId::LintDirective => {
                "cpsim-lint directives must parse, name real rules, and carry a non-empty reason"
            }
        }
    }

    /// Whether the rule runs for a file with this profile.
    ///
    /// The harness profile keeps only the rules whose violation would leak
    /// into experiment *results* (seeding, float ordering): the harness is
    /// supposed to read the wall clock, keep scratch maps, and print.
    pub fn applies(self, profile: Profile) -> bool {
        match self {
            RuleId::NoAmbientRng | RuleId::NoRawFloatOrd | RuleId::LintDirective => true,
            RuleId::NoWallClock | RuleId::NoUnorderedIteration | RuleId::NoStdoutInLibs => {
                profile == Profile::Sim
            }
            // The graph rules are sim-crate invariants: the harness neither
            // sits in the hot closure nor derives streams.
            RuleId::PanicReachability | RuleId::RngStreamDiscipline => profile == Profile::Sim,
        }
    }
}

/// A rule hit before line/column resolution and suppression matching.
#[derive(Debug, Clone)]
pub struct RawViolation {
    /// Byte offset of the match in the file.
    pub byte: usize,
    /// Human-readable explanation of this specific hit.
    pub message: String,
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

/// First non-whitespace byte before `i`, if any.
fn prev_nonspace(code: &[u8], i: usize) -> Option<u8> {
    code[..i]
        .iter()
        .rev()
        .copied()
        .find(|b| !(*b as char).is_whitespace())
}

/// Index of the first non-whitespace byte at or after `i`.
fn next_nonspace_idx(code: &[u8], mut i: usize) -> Option<usize> {
    while i < code.len() {
        if !(code[i] as char).is_whitespace() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Whether the identifier ending just before `i` (skipping whitespace) is
/// `kw` — used to skip `fn partial_cmp` trait-impl definitions.
fn preceded_by_keyword(code: &[u8], i: usize, kw: &str) -> bool {
    let mut end = i;
    while end > 0 && (code[end - 1] as char).is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_byte(code[start - 1]) {
        start -= 1;
    }
    &code[start..end] == kw.as_bytes()
}

/// Runs one rule over a file, returning raw hits (unsuppressed, unexempted).
pub fn check(file: &SourceFile, rule: RuleId) -> Vec<RawViolation> {
    let code = &file.code;
    let cb = code.as_bytes();
    let mut out = Vec::new();
    let mut push = |byte: usize, message: String| out.push(RawViolation { byte, message });
    match rule {
        RuleId::NoWallClock => {
            for w in ["SystemTime", "UNIX_EPOCH"] {
                for i in word_occurrences(code, w) {
                    push(i, format!(
                        "wall-clock source `{w}` in simulation code; sim time must come from the DES clock (SimTime)"
                    ));
                }
            }
            // `Instant` alone is ambiguous (`CloneMode::Instant` is a sim
            // concept): flag only the wall-clock forms `Instant::now` and
            // `[std::]time::Instant`.
            for i in word_occurrences(code, "Instant") {
                let followed_by_now = next_nonspace_idx(cb, i + "Instant".len()).is_some_and(|j| {
                    cb[j..].starts_with(b"::") && {
                        next_nonspace_idx(cb, j + 2).is_some_and(|k| cb[k..].starts_with(b"now"))
                    }
                });
                let qualified_by_time =
                    i >= 2 && cb[..i].ends_with(b"::") && preceded_by_keyword(cb, i - 2, "time");
                if followed_by_now || qualified_by_time {
                    push(i, "wall-clock source `Instant` in simulation code; sim time must come from the DES clock (SimTime)".to_string());
                }
            }
        }
        RuleId::NoAmbientRng => {
            for w in [
                "thread_rng",
                "ThreadRng",
                "from_entropy",
                "OsRng",
                "getrandom",
            ] {
                for i in word_occurrences(code, w) {
                    push(i, format!(
                        "ambient RNG `{w}`; every stream must be seeded from the scenario/point seed"
                    ));
                }
            }
        }
        RuleId::NoUnorderedIteration => {
            for w in ["HashMap", "HashSet"] {
                for i in word_occurrences(code, w) {
                    push(i, format!(
                        "unordered collection `{w}` in simulation code; use BTreeMap/BTreeSet/Vec or a sorted adapter"
                    ));
                }
            }
        }
        RuleId::NoRawFloatOrd => {
            for i in word_occurrences(code, "partial_cmp") {
                // `fn partial_cmp` is a PartialOrd impl, not a call site.
                if preceded_by_keyword(cb, i, "fn") {
                    continue;
                }
                push(i, "raw float ordering via `partial_cmp`; use `f64::total_cmp` for a total, NaN-safe order".to_string());
            }
        }
        RuleId::NoStdoutInLibs => {
            for w in ["println", "eprintln", "print", "eprint", "dbg"] {
                for i in word_occurrences(code, w) {
                    if next_nonspace_idx(cb, i + w.len()).is_some_and(|j| cb[j] == b'!') {
                        push(i, format!(
                            "`{w}!` in library code; emit results via metrics tables or return values — printing belongs to bins"
                        ));
                    }
                }
            }
        }
        // The graph rules need the whole-workspace symbol graph; they are
        // computed in [`crate::graph_rules`] and merged during scan
        // assembly, not pattern-matched per file.
        RuleId::PanicReachability | RuleId::RngStreamDiscipline => {}
        // Directive hygiene is handled during scan assembly (it needs the
        // rule registry and profile policy), not by pattern matching.
        RuleId::LintDirective => {}
    }
    out
}

/// Panic-capable sites in `file` within the byte range `[start, end)`:
/// `.unwrap()`, the `panic!` macro family, and `.expect("...")` whose
/// message is too short to cite the invariant making it unreachable.
///
/// Used by R7 on the bodies of fns in the hot entry-point closure.
/// Returns `(byte, description)` pairs; the caller supplies rule-specific
/// advice.
pub(crate) fn panic_sites(file: &SourceFile, start: usize, end: usize) -> Vec<(usize, String)> {
    let code = &file.code;
    let cb = code.as_bytes();
    let mut out = Vec::new();
    for i in word_occurrences(code, "unwrap") {
        if i < start || i >= end {
            continue;
        }
        if prev_nonspace(cb, i) == Some(b'.')
            && next_nonspace_idx(cb, i + "unwrap".len()).is_some_and(|j| cb[j] == b'(')
        {
            out.push((i, "`.unwrap()`".to_string()));
        }
    }
    for w in ["panic", "unreachable", "todo", "unimplemented"] {
        for i in word_occurrences(code, w) {
            if i < start || i >= end {
                continue;
            }
            if next_nonspace_idx(cb, i + w.len()).is_some_and(|j| cb[j] == b'!') {
                out.push((i, format!("`{w}!`")));
            }
        }
    }
    for i in word_occurrences(code, "expect") {
        if i < start || i >= end {
            continue;
        }
        if prev_nonspace(cb, i) != Some(b'.') {
            continue;
        }
        let Some(open) = next_nonspace_idx(cb, i + "expect".len()) else {
            continue;
        };
        if cb[open] != b'(' {
            continue;
        }
        // Read the message literal from the *original* text (it is masked
        // out of `code`). Non-literal arguments pass: a constructed message
        // is presumed substantive.
        let Some(q) = next_nonspace_idx(file.text.as_bytes(), open + 1) else {
            continue;
        };
        let Some(msg) = read_expect_literal(&file.text, q) else {
            continue;
        };
        if msg.chars().count() < MIN_EXPECT_MSG_CHARS {
            out.push((i, format!(
                "`.expect(\"{msg}\")` whose message does not cite its invariant (need ≥ {MIN_EXPECT_MSG_CHARS} chars)"
            )));
        }
    }
    out.sort_by_key(|&(i, _)| i);
    out
}

/// Slice/array indexing sites in `[start, end)`: `expr[...]` where the
/// `[` follows an identifier, `)`, or `]`. Opt-in for R7 (`--r7-index`):
/// structurally-validated indices are the event-queue slab idiom, so this
/// is a strict audit mode rather than a default gate.
pub(crate) fn indexing_sites(file: &SourceFile, start: usize, end: usize) -> Vec<(usize, String)> {
    let cb = file.code.as_bytes();
    let mut out = Vec::new();
    for i in start..end.min(cb.len()) {
        if cb[i] != b'[' || i == 0 {
            continue;
        }
        let p = cb[i - 1];
        if is_ident_byte(p) || p == b')' || p == b']' {
            out.push((i, "slice indexing (`expr[...]`)".to_string()));
        }
    }
    out
}

/// Reads an `.expect(...)` message literal starting at byte `q` of the
/// original text: plain `"..."` or raw `r"..."` / `r#"..."#` forms.
/// `None` means the argument is not a string literal (a constructed
/// message is presumed substantive).
fn read_expect_literal(text: &str, q: usize) -> Option<String> {
    let b = text.as_bytes();
    if b[q] == b'"' {
        return Some(read_string_literal(text, q));
    }
    if b[q] != b'r' {
        return None;
    }
    let mut i = q + 1;
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return None;
    }
    let start = i + 1;
    let mut p = start;
    while p < b.len() {
        if b[p] == b'"'
            && b[p + 1..].len() >= hashes
            && b[p + 1..p + 1 + hashes].iter().all(|&h| h == b'#')
        {
            return Some(text[start..p].to_string());
        }
        p += 1;
    }
    Some(text[start..].to_string())
}

/// Reads the body of the `"`-quoted literal opening at byte `q`.
fn read_string_literal(text: &str, q: usize) -> String {
    let b = text.as_bytes();
    let mut i = q + 1;
    let start = i;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => break,
            _ => i += 1,
        }
    }
    text[start..i.min(text.len())].to_string()
}
