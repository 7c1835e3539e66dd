//! Report types and the human/JSON renderers.
//!
//! JSON is hand-rolled (string escaping only) to keep the crate
//! dependency-free; the schema is flat and stable so CI can archive the
//! report as an artifact and diff it across runs.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::rules::RuleId;
use crate::source::Profile;

/// One confirmed or suppressed rule hit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the match.
    pub line: usize,
    /// 1-based byte column of the match.
    pub col: usize,
    /// Explanation of the hit.
    pub message: String,
    /// The trimmed source line, for context.
    pub snippet: String,
}

/// Scan result for one file.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path.
    pub path: String,
    /// Profile the file was checked under.
    pub profile: Profile,
    /// Unsuppressed violations (these fail the check).
    pub violations: Vec<Violation>,
    /// Hits waived by an in-place `allow(...)` with a reason.
    pub suppressed: Vec<Violation>,
}

/// A whole scan: every file visited, clean or not.
#[derive(Debug)]
pub struct Report {
    /// The workspace root the scan ran from.
    pub root: PathBuf,
    /// Per-file results, in scan order (deterministic).
    pub files: Vec<FileReport>,
}

impl Report {
    /// Every unsuppressed violation across the scan.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.files.iter().flat_map(|f| f.violations.iter())
    }

    /// Every suppressed hit across the scan.
    pub fn suppressed(&self) -> impl Iterator<Item = &Violation> {
        self.files.iter().flat_map(|f| f.suppressed.iter())
    }

    /// Whether the scan found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none()
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in self.violations() {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}\n    | {}",
                v.path,
                v.line,
                v.col,
                v.rule.name(),
                v.message,
                v.snippet
            );
        }
        let n_viol = self.violations().count();
        let n_supp = self.suppressed().count();
        if n_viol == 0 {
            let _ = writeln!(
                out,
                "cpsim-lint: clean — {} files scanned, {} suppression(s) in force",
                self.files.len(),
                n_supp
            );
        } else {
            let _ = writeln!(
                out,
                "cpsim-lint: {} violation(s) in {} files scanned ({} suppressed)",
                n_viol,
                self.files.len(),
                n_supp
            );
        }
        out
    }

    /// The machine-readable report (stable flat schema).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files.len());
        let _ = writeln!(out, "  \"violation_count\": {},", self.violations().count());
        let _ = writeln!(
            out,
            "  \"suppressed_count\": {},",
            self.suppressed().count()
        );
        out.push_str("  \"files\": [\n");
        for (fi, f) in self.files.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"profile\": {}, \"violations\": [",
                json_str(&f.path),
                json_str(f.profile.name()),
            );
            render_violations(&mut out, &f.violations);
            out.push_str("], \"suppressed\": [");
            render_violations(&mut out, &f.suppressed);
            out.push_str("]}");
            out.push_str(if fi + 1 < self.files.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn render_violations(out: &mut String, vs: &[Violation]) {
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `id` is the stable short rule id (R1..R9, R0) and `path` makes
        // each violation row self-contained, so CI tooling can diff or
        // aggregate rows without joining back to the enclosing file
        // object. Both are append-only schema extensions.
        let _ = write!(
            out,
            "{{\"id\": {}, \"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"snippet\": {}}}",
            json_str(v.rule.short_id()),
            json_str(v.rule.name()),
            json_str(&v.path),
            v.line,
            v.col,
            json_str(&v.message),
            json_str(&v.snippet)
        );
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
