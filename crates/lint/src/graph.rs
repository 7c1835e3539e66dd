//! The workspace symbol graph: a lightweight item parser over the masked
//! token stream.
//!
//! The per-file tokenizer can police single-file patterns, but some
//! invariants are *graph-shaped*: "no panic is reachable from a hot entry
//! point through any callee" is a property of call chains that cross
//! files and crates. This module
//! parses just enough structure out of the masked code — `fn` items with
//! body spans, `impl`/`trait` blocks, `struct`/`enum` definitions, `use`
//! aliases — to build a symbol table and a *conservative* call graph:
//! method calls resolve by name to every workspace method of that name, so
//! reachability over-approximates and rule R7 can never miss a real path.
//! Still dependency-free: no `syn`, byte-level scanning only, consistent
//! with the offline `compat/` policy.

use std::collections::BTreeSet;

use crate::source::SourceFile;

/// What kind of type definition a [`TypeItem`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TypeKind {
    Struct,
    Enum,
    Trait,
}

/// A `struct`/`enum`/`trait` definition.
#[derive(Debug)]
pub struct TypeItem {
    /// Index into the file slice the graph was built over.
    pub file: usize,
    /// The bare type name (no generics).
    pub name: String,
    /// 1-based definition line.
    pub line: usize,
    pub kind: TypeKind,
}

/// A `use` alias: `alias` names `target` in the importing file.
///
/// Plain imports record `Item -> Item` (so "is this name imported here" is
/// answerable); renames record `c -> b` for `use a::b as c`.
#[derive(Debug)]
pub struct UseAlias {
    pub file: usize,
    pub alias: String,
    pub target: String,
}

/// One `fn` item (free function, inherent/trait method, or trait default),
/// or a `const`/`static` item outside any fn body standing in for one: a
/// table of fn paths (a dispatch table) calls what it names, and a fn that
/// names the table calls the table.
#[derive(Debug)]
pub struct FnItem {
    /// Index into the file slice the graph was built over.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if this is a method.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Masked text of the parameter list (between the parens).
    pub params: String,
    /// Byte span of the body including braces; `None` for `fn ...;` decls.
    /// A table's body is its initializer, from the `=` to the `;`.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a `#[cfg(test)]` / `#[test]` range.
    pub is_test: bool,
    /// Whether this is a `const`/`static` table rather than a `fn`.
    pub is_table: bool,
}

impl FnItem {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// How a call site names its callee.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallKind {
    /// `foo(...)` — a free call.
    Free,
    /// `.foo(...)` — a method call on some receiver.
    Method,
    /// `Qual::foo(...)` or a path reference `Qual::foo` passed as a value.
    Qualified,
}

/// One call (or function-path reference) inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Index of the calling function in [`SymbolGraph::fns`].
    pub caller: usize,
    /// Byte offset of the callee name in the caller's file.
    pub byte: usize,
    /// The callee name as written.
    pub name: String,
    /// `Qual` for qualified calls (alias-unexpanded).
    pub qualifier: Option<String>,
    /// For method calls: the identifier immediately before the dot
    /// (`self.cell.with(...)` records `cell`), if one exists.
    pub receiver: Option<String>,
    pub kind: CallKind,
}

/// The workspace symbol table + conservative call graph.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    pub fns: Vec<FnItem>,
    pub types: Vec<TypeItem>,
    pub aliases: Vec<UseAlias>,
    pub calls: Vec<CallSite>,
    /// Resolved adjacency: `callees[f]` = indices into `fns`, sorted+deduped.
    pub callees: Vec<Vec<usize>>,
}

impl SymbolGraph {
    /// Builds the symbol table and call graph over `files` (masked code).
    /// Call-graph edges are resolved by [`crate::resolve::resolve_calls`].
    pub fn build(files: &[&SourceFile]) -> SymbolGraph {
        let mut g = SymbolGraph::default();
        for (fi, src) in files.iter().enumerate() {
            parse_items(fi, src, &mut g);
        }
        // Attribute call sites to the innermost enclosing fn body.
        let tables: BTreeSet<String> = g
            .fns
            .iter()
            .filter(|f| f.is_table)
            .map(|f| f.name.clone())
            .collect();
        for (fi, src) in files.iter().enumerate() {
            extract_calls(fi, src, &tables, &mut g);
        }
        crate::resolve::resolve_calls(&mut g);
        g
    }

    /// Indices of fns matching an entry-point spec `(self_ty, name)`;
    /// `None` self_ty matches free functions only.
    pub fn find_fns(&self, self_ty: Option<&str>, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name && f.self_ty.as_deref() == self_ty && !f.is_test)
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS closure from `entries`: `out[f] = Some(entry_fn)` names one
    /// witness entry point from which `f` is reachable. Test-gated fns are
    /// never traversed (they only compile into test builds).
    pub fn reachable_from(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut provenance: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        for &e in entries {
            if provenance[e].is_none() && !self.fns[e].is_test {
                provenance[e] = Some(e);
                queue.push_back(e);
            }
        }
        while let Some(f) = queue.pop_front() {
            let root = provenance[f];
            for &c in &self.callees[f] {
                if provenance[c].is_none() && !self.fns[c].is_test {
                    provenance[c] = root;
                    queue.push_back(c);
                }
            }
        }
        provenance
    }

    /// The innermost fn whose body span contains `byte` in file `file`.
    pub fn fn_at(&self, file: usize, byte: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file != file {
                continue;
            }
            if let Some((s, e)) = f.body {
                if byte >= s && byte < e {
                    let tighter = match best {
                        Some(b) => {
                            let (bs, be) = self.fns[b].body.unwrap_or((0, usize::MAX));
                            e - s < be - bs
                        }
                        None => true,
                    };
                    if tighter {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Rust keywords that can syntactically precede `(` or look like callees.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

/// Index just past the `}`/`)`/`]` matching the opener at `open`.
fn match_delim(b: &[u8], open: usize) -> usize {
    let (o, c) = match b[open] {
        b'{' => (b'{', b'}'),
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        _ => return open + 1,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        if b[i] == o {
            depth += 1;
        } else if b[i] == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    b.len()
}

/// Index just past the `>` matching the `<` at `open`; `->` is not counted.
fn match_angles(b: &[u8], open: usize) -> usize {
    debug_assert_eq!(b[open], b'<');
    let mut depth = 0i64;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && b[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Reads the identifier starting at `i`, if any.
fn read_ident(b: &[u8], i: usize) -> Option<(usize, &str)> {
    if i >= b.len() || !is_ident_start(b[i]) {
        return None;
    }
    let mut j = i;
    while j < b.len() && is_ident_byte(b[j]) {
        j += 1;
    }
    Some((j, std::str::from_utf8(&b[i..j]).unwrap_or("")))
}

/// Parses one file's items into the graph.
///
/// A single forward pass over the masked bytes with a region stack for
/// enclosing `impl`/`trait` blocks. Signatures (params, return types) are
/// stepped over so `impl Trait` in return position never opens a phantom
/// region; bodies are scanned (nested fns and items are rare but legal).
fn parse_items(fi: usize, src: &SourceFile, g: &mut SymbolGraph) {
    let b = src.code.as_bytes();
    // (self_ty, end_byte) of enclosing impl/trait blocks.
    let mut regions: Vec<(String, usize)> = Vec::new();
    // End bytes of enclosing fn bodies.
    let mut fn_ends: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !is_ident_start(b[i]) {
            i += 1;
            continue;
        }
        if i > 0 && is_ident_byte(b[i - 1]) {
            i += 1;
            continue;
        }
        while let Some(&(_, end)) = regions.last() {
            if i >= end {
                regions.pop();
            } else {
                break;
            }
        }
        while fn_ends.last().is_some_and(|&end| i >= end) {
            fn_ends.pop();
        }
        let (after, word) = read_ident(b, i).expect("ident start checked above");
        match word {
            "impl" => {
                // Header: `impl<G> Trait<A> for Type<B> where ... {`
                let mut j = skip_ws(b, after);
                if j < b.len() && b[j] == b'<' {
                    j = match_angles(b, j);
                }
                let header_start = j;
                while j < b.len() && b[j] != b'{' && b[j] != b';' {
                    if b[j] == b'<' {
                        j = match_angles(b, j);
                    } else {
                        j += 1;
                    }
                }
                if j >= b.len() || b[j] != b'{' {
                    i = j.max(after);
                    continue;
                }
                let header = &src.code[header_start..j];
                let ty = impl_self_ty(header);
                let end = match_delim(b, j);
                if let Some(ty) = ty {
                    regions.push((ty, end));
                }
                i = j + 1;
            }
            "trait" => {
                let j = skip_ws(b, after);
                if let Some((after_name, name)) = read_ident(b, j) {
                    let mut k = after_name;
                    while k < b.len() && b[k] != b'{' && b[k] != b';' {
                        if b[k] == b'<' {
                            k = match_angles(b, k);
                        } else {
                            k += 1;
                        }
                    }
                    g.types.push(TypeItem {
                        file: fi,
                        name: name.to_string(),
                        line: src.line_of(i),
                        kind: TypeKind::Trait,
                    });
                    if k < b.len() && b[k] == b'{' {
                        let end = match_delim(b, k);
                        regions.push((name.to_string(), end));
                        i = k + 1;
                    } else {
                        i = k;
                    }
                } else {
                    i = after;
                }
            }
            "struct" | "enum" => {
                let j = skip_ws(b, after);
                if let Some((after_name, name)) = read_ident(b, j) {
                    g.types.push(TypeItem {
                        file: fi,
                        name: name.to_string(),
                        line: src.line_of(i),
                        kind: if word == "struct" {
                            TypeKind::Struct
                        } else {
                            TypeKind::Enum
                        },
                    });
                    // Skip the definition so field types are not re-parsed
                    // as items.
                    let mut k = after_name;
                    while k < b.len() && b[k] != b'{' && b[k] != b';' {
                        if b[k] == b'<' {
                            k = match_angles(b, k);
                        } else if b[k] == b'(' {
                            k = match_delim(b, k);
                        } else {
                            k += 1;
                        }
                    }
                    i = if k < b.len() && b[k] == b'{' {
                        match_delim(b, k)
                    } else {
                        k + 1
                    };
                } else {
                    i = after;
                }
            }
            "fn" => {
                let j = skip_ws(b, after);
                let Some((after_name, name)) = read_ident(b, j) else {
                    // `fn(u32)` pointer type, not an item.
                    i = after;
                    continue;
                };
                let mut k = skip_ws(b, after_name);
                if k < b.len() && b[k] == b'<' {
                    k = match_angles(b, k);
                }
                if k >= b.len() || b[k] != b'(' {
                    i = after_name;
                    continue;
                }
                let params_end = match_delim(b, k);
                let params = src.code[k + 1..params_end.saturating_sub(1)].to_string();
                // Signature tail: to the body `{` or a `;` declaration.
                let mut t = params_end;
                while t < b.len() && b[t] != b'{' && b[t] != b';' {
                    if b[t] == b'<' {
                        t = match_angles(b, t);
                    } else if b[t] == b'(' || b[t] == b'[' {
                        t = match_delim(b, t);
                    } else {
                        t += 1;
                    }
                }
                let body = if t < b.len() && b[t] == b'{' {
                    Some((t, match_delim(b, t)))
                } else {
                    None
                };
                g.fns.push(FnItem {
                    file: fi,
                    name: name.to_string(),
                    self_ty: regions.last().map(|(ty, _)| ty.clone()),
                    line: src.line_of(i),
                    params,
                    body,
                    is_test: src.is_exempt(i),
                    is_table: false,
                });
                fn_ends.extend(body.map(|(_, e)| e));
                // Continue *inside* the body (nested items), skipping the
                // signature tail.
                i = match body {
                    Some((s, _)) => s + 1,
                    None => t + 1,
                };
            }
            "use" => {
                let mut k = after;
                while k < b.len() && b[k] != b';' {
                    k += 1;
                }
                parse_use_aliases(fi, &src.code[after..k.min(src.code.len())], g);
                i = k + 1;
            }
            // A table inside a fn body is part of that body's calls; `'static`
            // is a lifetime.
            "const" | "static" if fn_ends.is_empty() && (i == 0 || b[i - 1] != b'\'') => {
                let Some((name, init)) = table_item(b, after) else {
                    i = after;
                    continue;
                };
                g.fns.push(FnItem {
                    file: fi,
                    name,
                    self_ty: regions.last().map(|(ty, _)| ty.clone()),
                    line: src.line_of(i),
                    params: String::new(),
                    body: Some(init),
                    is_test: src.is_exempt(i),
                    is_table: true,
                });
                i = init.1;
            }
            "macro_rules" => {
                // Body already masked; skip the introducer.
                i = after;
            }
            _ => {
                i = after;
            }
        }
    }
}

/// Parses `[mut] NAME: Type = init;` after a `const`/`static` keyword
/// ending at `after`: the item's name and its initializer's byte span. A
/// `const fn`, or a `const _` with no name to refer to, is no table.
fn table_item(b: &[u8], after: usize) -> Option<(String, (usize, usize))> {
    let (mut k, mut name) = read_ident(b, skip_ws(b, after))?;
    if name == "mut" {
        (k, name) = read_ident(b, skip_ws(b, k))?;
    }
    let mut t = skip_ws(b, k);
    if name == "_" || b.get(t) != Some(&b':') {
        return None;
    }
    while t < b.len() && b[t] != b'=' && b[t] != b';' {
        t = match b[t] {
            b'<' => match_angles(b, t),
            b'(' | b'[' => match_delim(b, t),
            _ => t + 1,
        };
    }
    if b.get(t) != Some(&b'=') {
        return None;
    }
    let mut e = t + 1;
    while e < b.len() && b[e] != b';' {
        e = match b[e] {
            b'(' | b'[' | b'{' => match_delim(b, e),
            _ => e + 1,
        };
    }
    Some((name.to_string(), (t, e)))
}

/// The self-type name of an `impl` header (text between generics and `{`).
fn impl_self_ty(header: &str) -> Option<String> {
    // `Trait for Type` → Type; otherwise the whole header is the type.
    let ty_part = match split_on_word(header, "for") {
        Some((_, rhs)) => rhs,
        None => header,
    };
    // Last path segment, generics stripped: `crate::store::PlacementStore<T>`
    // → `PlacementStore`.
    let ty_part = ty_part.trim();
    let no_generics = match ty_part.find('<') {
        Some(p) => &ty_part[..p],
        None => ty_part,
    };
    let seg = no_generics
        .rsplit("::")
        .next()
        .unwrap_or(no_generics)
        .trim()
        .trim_start_matches('&')
        .trim();
    let name: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty()
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        None
    } else {
        Some(name)
    }
}

/// Splits `s` on the first whole-word occurrence of `word`.
fn split_on_word<'a>(s: &'a str, word: &str) -> Option<(&'a str, &'a str)> {
    let b = s.as_bytes();
    for (k, _) in s.match_indices(word) {
        let before_ok = k == 0 || !is_ident_byte(b[k - 1]);
        let end = k + word.len();
        let after_ok = end >= b.len() || !is_ident_byte(b[end]);
        if before_ok && after_ok {
            return Some((&s[..k], &s[end..]));
        }
    }
    None
}

/// Parses the body of a `use` declaration into aliases.
///
/// Handles `a::b::C`, `a::b as c`, and one level of `a::{B, C as D}`
/// grouping — all the forms the workspace uses. Glob imports record
/// nothing.
fn parse_use_aliases(fi: usize, body: &str, g: &mut SymbolGraph) {
    let body = body.trim();
    let (prefix, group) = match body.find('{') {
        Some(p) => {
            let close = body.rfind('}').unwrap_or(body.len());
            (&body[..p], &body[p + 1..close])
        }
        None => ("", body),
    };
    let _ = prefix;
    for entry in group.split(',') {
        let entry = entry.trim();
        if entry.is_empty() || entry.ends_with('*') {
            continue;
        }
        let (path, alias) = match split_on_word(entry, "as") {
            Some((lhs, rhs)) => (lhs.trim(), rhs.trim()),
            None => (entry, ""),
        };
        let target = path.rsplit("::").next().unwrap_or(path).trim();
        if target.is_empty() || !is_ident_start(target.as_bytes()[0]) {
            continue;
        }
        let alias = if alias.is_empty() { target } else { alias };
        g.aliases.push(UseAlias {
            file: fi,
            alias: alias.to_string(),
            target: target.to_string(),
        });
    }
}

/// Extracts call sites (and qualified fn-path references) from every fn
/// body parsed out of file `fi`. A bare mention of a name in `tables`
/// calls that table.
fn extract_calls(fi: usize, src: &SourceFile, tables: &BTreeSet<String>, g: &mut SymbolGraph) {
    let b = src.code.as_bytes();
    let bodies: Vec<(usize, usize, usize)> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.file == fi)
        .filter_map(|(i, f)| f.body.map(|(s, e)| (i, s, e)))
        .collect();
    if bodies.is_empty() {
        return;
    }
    let lo = bodies.iter().map(|&(_, s, _)| s).min().unwrap_or(0);
    let hi = bodies.iter().map(|&(_, _, e)| e).max().unwrap_or(0);
    let mut i = lo;
    while i < hi.min(b.len()) {
        if !is_ident_start(b[i]) || (i > 0 && is_ident_byte(b[i - 1])) {
            i += 1;
            continue;
        }
        let (after, name) = read_ident(b, i).expect("ident start checked above");
        if is_keyword(name) || name == "self" || name == "Self" {
            i = after;
            continue;
        }
        let caller = bodies
            .iter()
            .filter(|&&(_, s, e)| i >= s && i < e)
            .min_by_key(|&&(_, s, e)| e - s)
            .map(|&(f, _, _)| f);
        let Some(caller) = caller else {
            i = after;
            continue;
        };
        let mut j = skip_ws(b, after);
        // Turbofish: `name::<...>(` is still a call of `name`.
        if b[j..].starts_with(b"::") {
            let k = skip_ws(b, j + 2);
            if k < b.len() && b[k] == b'<' {
                j = skip_ws(b, match_angles(b, k));
            }
        }
        let is_call = j < b.len() && b[j] == b'(';
        let is_macro = j < b.len() && b[j] == b'!';
        // Qualifier / receiver: what sits immediately before the ident.
        let mut p = i;
        while p > 0 && (b[p - 1] as char).is_whitespace() {
            p -= 1;
        }
        let (kind, qualifier, receiver) = if p >= 2 && &b[p - 2..p] == b"::" {
            let mut q_end = p - 2;
            while q_end > 0 && (b[q_end - 1] as char).is_whitespace() {
                q_end -= 1;
            }
            // Step back over one generic group: `EventQueue::<E>::pop`.
            if q_end > 0 && b[q_end - 1] == b'>' {
                let mut depth = 0i64;
                let mut s = q_end;
                while s > 0 {
                    match b[s - 1] {
                        b'>' => depth += 1,
                        b'<' => {
                            depth -= 1;
                            if depth == 0 {
                                s -= 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    s -= 1;
                }
                q_end = s;
                if q_end >= 2 && &b[q_end - 2..q_end] == b"::" {
                    q_end -= 2;
                }
            }
            let mut q_start = q_end;
            while q_start > 0 && is_ident_byte(b[q_start - 1]) {
                q_start -= 1;
            }
            if q_start < q_end {
                let q = std::str::from_utf8(&b[q_start..q_end]).unwrap_or("");
                (CallKind::Qualified, Some(q.to_string()), None)
            } else {
                (CallKind::Free, None, None)
            }
        } else if p >= 1 && b[p - 1] == b'.' {
            let mut r_end = p - 1;
            while r_end > 0 && (b[r_end - 1] as char).is_whitespace() {
                r_end -= 1;
            }
            let mut r_start = r_end;
            while r_start > 0 && is_ident_byte(b[r_start - 1]) {
                r_start -= 1;
            }
            let recv = if r_start < r_end {
                Some(
                    std::str::from_utf8(&b[r_start..r_end])
                        .unwrap_or("")
                        .to_string(),
                )
            } else {
                None
            };
            (CallKind::Method, None, recv)
        } else {
            (CallKind::Free, None, None)
        };
        // Record: real calls always; bare path references only when
        // qualified (`Registry { run: t1::run }` style fn pointers) or
        // naming a table.
        let table = kind == CallKind::Free && tables.contains(name);
        let record = !is_macro && (is_call || kind == CallKind::Qualified || table);
        if record {
            g.calls.push(CallSite {
                caller,
                byte: i,
                name: name.to_string(),
                qualifier,
                receiver,
                kind,
            });
        }
        i = after;
    }
}
