//! Item index: a lightweight structural pass over stripped sources.
//!
//! The semantic lints (L6, L7, L9, L10) need to know *which function*
//! a line of code belongs to and which `impl` block owns that function
//! — but a full Rust parser would drag in a dependency the linter
//! exists to gate. This module extracts just enough structure from the
//! [`strip`](crate::strip)-ped token stream: `fn` items with their
//! owning `impl`/`trait` type and brace-balanced body spans. Resolution
//! is name-based and tuned to this workspace's idioms (one type per
//! impl block, no macro-generated items); it deliberately
//! over-approximates rather than misses.

use crate::strip::Line;

/// One `fn` item recovered from a source file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` type the function is defined on, if any.
    /// For `impl Trait for Type`, this is `Type`.
    pub owner: Option<String>,
    /// Repo-root-relative path of the defining file.
    pub path: String,
    /// The crate the file belongs to (`core` for `crates/core/...`,
    /// the empty string for the root package).
    pub crate_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function sits inside a `#[cfg(test)]` region or a
    /// test tree.
    pub is_test: bool,
    /// Workspace crates the defining *file* references via `dcs_*`
    /// paths (`use dcs_core::…` or inline qualification). Call
    /// resolution may only cross into these crates — a file that never
    /// names `dcs_persist` cannot be calling into it.
    pub imports: Vec<String>,
    /// `(1-based line, stripped code)` for every line from the
    /// signature through the body's closing brace.
    pub body: Vec<(usize, String)>,
}

impl FnItem {
    /// `Owner::name` or plain `name` — the display form diagnostics use.
    pub fn qualified_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The crate a repo-relative path belongs to (`""` for the root
/// package and anything unrecognized).
pub fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Reads the identifier starting at byte `at`, if any.
fn ident_at(code: &str, at: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    if at >= bytes.len() || !is_ident_byte(bytes[at]) || bytes[at].is_ascii_digit() {
        return None;
    }
    let end = bytes[at..]
        .iter()
        .position(|&b| !is_ident_byte(b))
        .map_or(bytes.len(), |o| at + o);
    Some(&code[at..end])
}

/// The last path segment of a type, with generics and references
/// stripped: `std::fmt::Display` → `Display`, `SigRef<'a>` → `SigRef`.
fn last_type_segment(raw: &str) -> String {
    let no_generics = raw.split('<').next().unwrap_or(raw);
    let seg = no_generics.rsplit("::").next().unwrap_or(no_generics);
    seg.trim_matches(|c: char| !c.is_alphanumeric() && c != '_')
        .to_string()
}

/// A scope the parser is currently inside.
#[derive(Debug)]
enum Scope {
    /// `impl Type { … }` or `trait Name { … }` — owns methods.
    Owner { name: String, depth: usize },
    /// A function body; index into the output vector.
    Fn { index: usize, depth: usize },
    /// Any other braced block we only need to balance (mod, struct,
    /// match, …).
    Other { depth: usize },
}

/// A `fn` whose signature has started but whose body brace has not yet
/// been seen.
#[derive(Debug)]
struct PendingFn {
    name: String,
    owner: Option<String>,
    line: usize,
    body: Vec<(usize, String)>,
}

/// Parses the stripped lines of one file into its `fn` items.
///
/// `path` must be repo-root-relative with forward slashes. Trait
/// method *declarations* (no body) are skipped; default-bodied trait
/// methods and nested functions are indexed like any other.
pub fn parse_fns(path: &str, lines: &[Line]) -> Vec<FnItem> {
    let crate_name = crate_of(path);
    let imports = crate_imports(lines);
    let mut out: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<PendingFn> = None;
    let mut depth = 0usize;

    for (index, line) in lines.iter().enumerate() {
        let lineno = index + 1;
        let code = line.code.as_str();

        // Collect this line into every enclosing fn body (the innermost
        // fn is what effect/call extraction attributes lines to; outer
        // fns reach nested ones through call edges instead, so only the
        // innermost records the line).
        if let Some(p) = pending.as_mut() {
            p.body.push((lineno, code.to_string()));
        } else if let Some(Scope::Fn { index, .. }) =
            scopes.iter().rev().find(|s| matches!(s, Scope::Fn { .. }))
        {
            out[*index].body.push((lineno, code.to_string()));
        }

        let bytes = code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            if is_ident_byte(b) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
                // Advance past the whole word regardless of whether it
                // is an identifier (numeric literals must not stall the
                // scan).
                let after = bytes[i..]
                    .iter()
                    .position(|&b| !is_ident_byte(b))
                    .map_or(bytes.len(), |o| i + o);
                let word = &code[i..after];
                match word {
                    "fn" if pending.is_none() => {
                        // `fn name` — trait declarations (ending in `;`
                        // before any `{`) are filtered when the body
                        // never materializes.
                        let rest = code[after..].trim_start();
                        if let Some(name) = ident_at(rest, 0) {
                            let owner = scopes.iter().rev().find_map(|s| match s {
                                Scope::Owner { name, .. } => Some(name.clone()),
                                _ => None,
                            });
                            pending = Some(PendingFn {
                                name: name.to_string(),
                                owner,
                                line: lineno,
                                body: vec![(lineno, code.to_string())],
                            });
                        }
                    }
                    "impl" | "trait" if pending.is_none() => {
                        // The owner type: for `impl A for B` it is `B`;
                        // for `impl B` / `trait B` it is `B`. Scan the
                        // header up to the opening brace (which may be
                        // on a later line — then the heuristic reads
                        // what is visible on this one).
                        let header = code[after..].split('{').next().unwrap_or("");
                        let owner_ty = match header.split_whitespace().position(|w| w == "for") {
                            Some(pos) => header
                                .split_whitespace()
                                .nth(pos + 1)
                                .map(last_type_segment),
                            None => {
                                // Skip leading generics `<…>`.
                                let t = header.trim_start();
                                let t = if let Some(stripped) = t.strip_prefix('<') {
                                    let mut level = 1usize;
                                    let mut cut = stripped.len();
                                    for (o, c) in stripped.char_indices() {
                                        match c {
                                            '<' => level += 1,
                                            '>' => {
                                                level -= 1;
                                                if level == 0 {
                                                    cut = o + 1;
                                                    break;
                                                }
                                            }
                                            _ => {}
                                        }
                                    }
                                    &stripped[cut.min(stripped.len())..]
                                } else {
                                    t
                                };
                                t.split_whitespace().next().map(last_type_segment)
                            }
                        };
                        if let Some(name) = owner_ty.filter(|n| !n.is_empty()) {
                            // Armed: attaches at the next `{` below.
                            scopes.push(Scope::Owner { name, depth: 0 });
                        }
                    }
                    _ => {}
                }
                i = after;
                continue;
            }
            match b {
                b'{' => {
                    depth += 1;
                    if let Some(p) = pending.take() {
                        out.push(FnItem {
                            name: p.name,
                            owner: p.owner,
                            path: path.to_string(),
                            crate_name: crate_name.clone(),
                            line: p.line,
                            is_test: line.in_test,
                            imports: imports.clone(),
                            body: p.body,
                        });
                        scopes.push(Scope::Fn {
                            index: out.len() - 1,
                            depth,
                        });
                    } else if let Some(Scope::Owner { depth: d, .. }) = scopes.last_mut() {
                        if *d == 0 {
                            *d = depth;
                        } else {
                            scopes.push(Scope::Other { depth });
                        }
                    } else {
                        scopes.push(Scope::Other { depth });
                    }
                }
                b'}' => {
                    while let Some(top) = scopes.last() {
                        let d = match top {
                            Scope::Owner { depth, .. } => *depth,
                            Scope::Fn { depth, .. } | Scope::Other { depth } => *depth,
                        };
                        if d == depth && d != 0 {
                            scopes.pop();
                        } else {
                            break;
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                b';' if pending.is_some() => {
                    // A signature without a body (trait declaration,
                    // extern fn): discard the pending fn — unless the
                    // `;` sits inside `[…]` on this line (`[u8; 4]` in
                    // a signature array type).
                    let since_sig = &code[..i];
                    let opens = since_sig.matches('[').count();
                    let closes = since_sig.matches(']').count();
                    if opens <= closes {
                        pending = None;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// Workspace crates a file references: every `dcs_<crate>` word in its
/// stripped code (use statements and inline qualified paths alike).
fn crate_imports(lines: &[Line]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in lines {
        if line.is_doc {
            continue;
        }
        let code = line.code.as_str();
        let bytes = code.as_bytes();
        let mut from = 0usize;
        while let Some(rel) = code[from..].find("dcs_") {
            let at = from + rel;
            from = at + 4;
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue;
            }
            let end = bytes[at..]
                .iter()
                .position(|&b| !is_ident_byte(b))
                .map_or(bytes.len(), |o| at + o);
            let name = code[at + 4..end].to_string();
            if !name.is_empty() && !out.contains(&name) {
                out.push(name);
            }
            from = end;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::strip;

    fn fns(path: &str, source: &str) -> Vec<FnItem> {
        parse_fns(path, &strip(source))
    }

    #[test]
    fn free_and_method_fns_are_indexed_with_owners() {
        let src = "//! doc\n\
                   fn free() { body(); }\n\
                   impl Widget {\n\
                       pub fn method(&self) -> u32 {\n\
                           self.helper()\n\
                       }\n\
                   }\n\
                   impl Display for Widget {\n\
                       fn fmt(&self) {}\n\
                   }\n";
        let items = fns("crates/x/src/lib.rs", src);
        let names: Vec<(String, Option<String>)> = items
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".to_string(), None),
                ("method".to_string(), Some("Widget".to_string())),
                ("fmt".to_string(), Some("Widget".to_string())),
            ]
        );
        assert_eq!(items[0].line, 2);
        assert_eq!(items[1].line, 4);
        // The method body spans signature through closing brace.
        assert_eq!(items[1].body.first().map(|(l, _)| *l), Some(4));
        assert_eq!(items[1].body.last().map(|(l, _)| *l), Some(6));
    }

    #[test]
    fn multiline_signatures_and_generics_resolve() {
        let src = "//! doc\n\
                   impl<'a> SigRef<'a> {\n\
                       pub(crate) fn screen_class_after(\n\
                           self,\n\
                           key: u64,\n\
                       ) -> u32 {\n\
                           classify(key)\n\
                       }\n\
                   }\n";
        let items = fns("crates/x/src/lib.rs", src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "screen_class_after");
        assert_eq!(items[0].owner.as_deref(), Some("SigRef"));
        assert_eq!(items[0].line, 3);
    }

    #[test]
    fn trait_declarations_without_bodies_are_skipped() {
        let src = "//! doc\n\
                   trait Hash64 {\n\
                       fn hash(&self, key: u64) -> u64;\n\
                       fn hash_twice(&self, key: u64) -> u64 {\n\
                           self.hash(self.hash(key))\n\
                       }\n\
                   }\n";
        let items = fns("crates/x/src/lib.rs", src);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "hash_twice");
        assert_eq!(items[0].owner.as_deref(), Some("Hash64"));
    }

    #[test]
    fn nested_fns_own_their_lines() {
        let src = "//! doc\n\
                   fn outer() {\n\
                       fn inner() { alloc(); }\n\
                       inner();\n\
                   }\n";
        let items = fns("crates/x/src/lib.rs", src);
        assert_eq!(items.len(), 2);
        let outer = items.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.iter().find(|f| f.name == "inner").unwrap();
        assert!(inner.body.iter().any(|(_, c)| c.contains("alloc()")));
        // Outer still sees the call line (line 4) but not inner's body
        // via the innermost-owner rule for line 3 — both record line 3
        // when the nested fn opens and closes on one line, which is
        // acceptable over-approximation; what matters is inner owns it.
        assert!(outer.body.iter().any(|(_, c)| c.contains("inner();")));
    }

    #[test]
    fn test_regions_are_flagged() {
        let src = "//! doc\n\
                   fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() {}\n\
                   }\n";
        let items = fns("crates/x/src/lib.rs", src);
        let live = items.iter().find(|f| f.name == "live").unwrap();
        let helper = items.iter().find(|f| f.name == "helper").unwrap();
        assert!(!live.is_test);
        assert!(helper.is_test);
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/core/src/sketch.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "");
        assert_eq!(crate_of("tests/soak.rs"), "");
    }
}
