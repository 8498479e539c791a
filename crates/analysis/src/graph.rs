//! Call graph and hot-path purity analysis (L6).
//!
//! Builds a name-resolved call graph over the [`FnItem`] index and
//! walks it from a configured set of hot-path roots, flagging any
//! reachable function that performs a forbidden *effect* (allocation,
//! locking, sleeping, I/O). Resolution is deliberately
//! over-approximate: a method call `.foo(…)` edges to every workspace
//! method named `foo` (narrowed to the caller's crate when possible),
//! so the walk can include functions that are never actually called —
//! but it cannot *miss* a workspace callee. False edges into clean
//! code are free; false edges into dirty code cost one reviewed
//! suppression.
//!
//! ## Root-set configuration
//!
//! [`HOT_PATH_ROOTS`] lists the entry points with the effect classes
//! each forbids. Update-path roots (`update`, `update_batch`,
//! `apply_net`, `screened_apply`, `ingest_batch`) forbid **all**
//! effects — the paper's real-time guarantee is O(1) bounded work per
//! packet. `Monitor::ingest` and `Monitor::ingest_net` forbid the
//! blocking classes only: their sharded arm copies each handoff slice
//! into a worker's ring. Query-path
//! roots (`estimate_top_k`, `track_top_k`) forbid only *blocking*
//! effects (lock/sleep/I/O): assembling a top-k answer inherently
//! allocates its output, but it must never stall the ingest threads it
//! runs beside. Constructor-shaped names in [`EXEMPT_SETUP_FNS`] are
//! cut points — `update_batch` may call `BatchScratch::new` once per
//! *call* (not per packet), and setup allocation is the point of a
//! constructor.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::items::FnItem;
use crate::lints::{Lint, Violation};

/// Bitmask for effect classes a root forbids.
pub const FORBID_ALLOC: u8 = 1 << 0;
/// See [`FORBID_ALLOC`].
pub const FORBID_LOCK: u8 = 1 << 1;
/// See [`FORBID_ALLOC`].
pub const FORBID_SLEEP: u8 = 1 << 2;
/// See [`FORBID_ALLOC`].
pub const FORBID_IO: u8 = 1 << 3;
/// Update-path mask: nothing is allowed.
pub const FORBID_ALL: u8 = FORBID_ALLOC | FORBID_LOCK | FORBID_SLEEP | FORBID_IO;
/// Query-path mask: may allocate its answer, must never block.
pub const FORBID_BLOCKING: u8 = FORBID_LOCK | FORBID_SLEEP | FORBID_IO;

/// A hot-path entry point: `(owner type, fn name, forbidden effects)`.
pub type RootSpec = (&'static str, &'static str, u8);

/// The hot-path root set. Documented in DESIGN.md §14; changing this
/// list is an API-contract decision, not a lint tweak.
pub const HOT_PATH_ROOTS: &[RootSpec] = &[
    // Per-packet update path: O(1), no effects at all.
    ("DistinctCountSketch", "update", FORBID_ALL),
    ("DistinctCountSketch", "update_batch", FORBID_ALL),
    ("DistinctCountSketch", "apply_net", FORBID_ALL),
    ("DistinctCountSketch", "screened_apply", FORBID_ALL),
    ("TrackingDcs", "update", FORBID_ALL),
    ("TrackingDcs", "update_batch", FORBID_ALL),
    ("DdosMonitor", "ingest_batch", FORBID_ALL),
    // Every `run_pipeline` update; the sharded arm copies each slice
    // into a worker's queue, waiting while it is full, but takes no
    // lock (DESIGN.md §14).
    ("Monitor", "ingest", FORBID_BLOCKING),
    ("Monitor", "ingest_net", FORBID_BLOCKING),
    // Query path: runs concurrently with ingest, must not block it.
    ("DistinctCountSketch", "estimate_top_k", FORBID_BLOCKING),
    ("TrackingDcs", "track_top_k", FORBID_BLOCKING),
    // Read-side kernels (DESIGN.md §16): the screen and merge passes
    // walk slabs in place and must stay effect-free end to end.
    ("LevelState", "merge_from", FORBID_ALL),
    ("LevelState", "subtract", FORBID_ALL),
    ("LevelState", "slide_epoch", FORBID_ALL),
    ("LevelState", "occupancy", FORBID_ALL),
    // Merge/difference assemble a result sketch (allocation is the
    // point) but run beside live ingest and must never block it.
    ("DistinctCountSketch", "merge_many", FORBID_BLOCKING),
    ("DistinctCountSketch", "difference", FORBID_BLOCKING),
    ("DistinctCountSketch", "subtract", FORBID_BLOCKING),
    ("DistinctCountSketch", "slide_epoch", FORBID_BLOCKING),
    // Sliding-window slide and query (DESIGN.md §17): run at epoch
    // boundaries beside live ingest — retaining the delta and building
    // estimates allocate, but nothing may block.
    ("SlidingWindow", "roll", FORBID_BLOCKING),
    ("SlidingWindow", "top_k", FORBID_BLOCKING),
    ("EpochWindow", "advance", FORBID_BLOCKING),
];

/// Constructor-shaped names the walk does not traverse *into*: calling
/// a constructor from a hot root is a once-per-call setup cost, and
/// constructors exist to allocate. The call site itself is still
/// scanned for inline effects.
pub const EXEMPT_SETUP_FNS: &[&str] = &[
    "new",
    "with_config",
    "with_default_config",
    "with_capacity",
    "default",
    "from_state",
    "from_parts",
    "from_sketch",
    "from_config",
];

/// One effect class with its trigger tokens (matched on stripped code).
struct EffectClass {
    mask: u8,
    label: &'static str,
    /// `(token, needs_method_dot)` — when `needs_method_dot` the token
    /// must appear as `.token` followed by a non-identifier byte.
    tokens: &'static [(&'static str, bool)],
}

const EFFECT_CLASSES: &[EffectClass] = &[
    EffectClass {
        mask: FORBID_ALLOC,
        label: "allocates",
        tokens: &[
            ("Vec::new", false),
            ("Vec::with_capacity", false),
            ("vec!", false),
            ("Box::new", false),
            ("String::new", false),
            ("format!", false),
            ("push", true),
            ("to_string", true),
            ("to_owned", true),
            ("to_vec", true),
            ("collect", true),
        ],
    },
    EffectClass {
        mask: FORBID_LOCK,
        label: "takes a lock",
        tokens: &[
            ("Mutex::new", false),
            ("RwLock::new", false),
            ("lock", true),
        ],
    },
    EffectClass {
        mask: FORBID_SLEEP,
        label: "sleeps",
        tokens: &[("thread::sleep", false), ("sleep", true)],
    },
    EffectClass {
        mask: FORBID_IO,
        label: "does I/O",
        tokens: &[
            ("println!", false),
            ("eprintln!", false),
            ("File::open", false),
            ("File::create", false),
            ("std::fs", false),
            ("io::stdout", false),
            ("io::stderr", false),
            ("sync_all", true),
            ("read_exact", true),
            ("write_all", true),
        ],
    },
];

/// An effect found in a function body.
#[derive(Debug, Clone)]
pub struct Effect {
    /// 1-based line the effect token sits on.
    pub line: usize,
    /// The effect-class bit ([`FORBID_ALLOC`] etc.).
    pub mask: u8,
    /// Human label for the class ("allocates", …).
    pub label: &'static str,
    /// The token that matched.
    pub token: &'static str,
}

/// A call site found in a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// `A` in `A::b(…)`; `Self` resolves to the caller's owner.
    pub qualifier: Option<String>,
    /// The callee name.
    pub name: String,
    /// Whether the call was `recv.name(…)` (method syntax).
    pub method: bool,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Words that look like calls but aren't.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "move", "in", "as", "let", "else",
    "unsafe", "where", "impl", "dyn",
];

/// Extracts effect tokens from one stripped line.
pub fn effects_in_line(code: &str) -> Vec<(u8, &'static str, &'static str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for class in EFFECT_CLASSES {
        for &(token, needs_dot) in class.tokens {
            let mut from = 0usize;
            while let Some(rel) = code[from..].find(token) {
                let at = from + rel;
                from = at + token.len();
                let before_ok = if needs_dot {
                    at > 0 && bytes[at - 1] == b'.'
                } else {
                    at == 0 || (!is_ident_byte(bytes[at - 1]) && bytes[at - 1] != b':')
                };
                let end = at + token.len();
                let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
                if before_ok && after_ok {
                    out.push((class.mask, class.label, token));
                }
            }
        }
    }
    out
}

/// Extracts call sites from one stripped line.
pub fn calls_in_line(code: &str) -> Vec<CallSite> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let word = &code[start..i];
        if word.as_bytes()[0].is_ascii_digit() || NON_CALL_KEYWORDS.contains(&word) {
            continue;
        }
        // What follows: `(` or turbofish `::<` means a call; a
        // lowercase qualified path (`A::b` as a fn reference) counts
        // too. `!` means a macro — effects cover the ones we care
        // about.
        let followed_by_call = bytes.get(i) == Some(&b'(')
            || (code[i..].starts_with("::<") && {
                // `name::<T>(` — treat as call on `name`.
                true
            });
        let is_macro = bytes.get(i) == Some(&b'!');
        if is_macro {
            continue;
        }
        // Qualifier: the `::`-joined segment immediately before.
        let mut qualifier = None;
        let mut method = false;
        if start >= 2 && &bytes[start - 2..start] == b"::" {
            let mut qe = start - 2;
            let mut qs = qe;
            while qs > 0 && is_ident_byte(bytes[qs - 1]) {
                qs -= 1;
            }
            if qs < qe {
                qualifier = Some(code[qs..qe].to_string());
            }
            // `::<` turbofish on the *qualifier* path (`Vec::<u8>::new`)
            // is rare here; skip that refinement.
            let _ = &mut qe;
        } else if start >= 1 && bytes[start - 1] == b'.' {
            method = true;
        }
        let first = word.as_bytes()[0];
        let lowercase_name = first.is_ascii_lowercase() || first == b'_';
        if !lowercase_name {
            continue; // `Some(…)`, `Ok(…)`, enum variants, type ctors
        }
        let qualified_ref = qualifier.is_some() && lowercase_name;
        if followed_by_call || qualified_ref {
            out.push(CallSite {
                qualifier,
                name: word.to_string(),
                method,
            });
        }
    }
    out
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    fns: &'a [FnItem],
    /// `(owner, name)` → fn indices.
    by_owner_name: HashMap<(String, String), Vec<usize>>,
    /// method name → indices of fns that have an owner.
    methods_by_name: HashMap<String, Vec<usize>>,
    /// free-fn name → indices of fns without an owner.
    free_by_name: HashMap<String, Vec<usize>>,
    /// Pre-extracted per-fn data: `(callees resolved to indices, effects)`.
    resolved: Vec<(Vec<usize>, Vec<Effect>)>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph: indexes items, extracts calls/effects, and
    /// resolves every call site to workspace fn indices.
    pub fn build(fns: &'a [FnItem]) -> Self {
        let mut by_owner_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            match &f.owner {
                Some(owner) => {
                    by_owner_name
                        .entry((owner.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    methods_by_name.entry(f.name.clone()).or_default().push(i);
                }
                None => {
                    free_by_name.entry(f.name.clone()).or_default().push(i);
                }
            }
        }
        let mut graph = CallGraph {
            fns,
            by_owner_name,
            methods_by_name,
            free_by_name,
            resolved: Vec::with_capacity(fns.len()),
        };
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                graph.resolved.push((Vec::new(), Vec::new()));
                continue;
            }
            let mut callees: Vec<usize> = Vec::new();
            let mut effects: Vec<Effect> = Vec::new();
            for (lineno, code) in &f.body {
                for (mask, label, token) in effects_in_line(code) {
                    effects.push(Effect {
                        line: *lineno,
                        mask,
                        label,
                        token,
                    });
                }
                for call in calls_in_line(code) {
                    callees.extend(graph.resolve(i, &call));
                }
            }
            callees.sort_unstable();
            callees.dedup();
            callees.retain(|&c| c != i);
            graph.resolved.push((callees, effects));
        }
        graph
    }

    /// Whether `caller` could plausibly call into `candidate`'s crate:
    /// the same crate, or one the caller's file references via a
    /// `dcs_*` path. Without this gate, std method names (`.get(`,
    /// `.load(`, `.build(`) bridge unrelated crates and the walk
    /// floods the workspace.
    fn crate_allowed(&self, caller_fn: &FnItem, candidate: usize) -> bool {
        let c = &self.fns[candidate];
        c.crate_name == caller_fn.crate_name || caller_fn.imports.iter().any(|i| i == &c.crate_name)
    }

    /// Resolves a call site from fn `caller` to workspace fn indices.
    /// Unresolvable calls (std, external crates) return empty.
    fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let caller_fn = &self.fns[caller];
        let allowed = |hits: &[usize]| -> Vec<usize> {
            hits.iter()
                .copied()
                .filter(|&i| self.crate_allowed(caller_fn, i))
                .collect()
        };
        if let Some(q) = &call.qualifier {
            let owner = if q == "Self" {
                match &caller_fn.owner {
                    Some(o) => o.clone(),
                    None => return Vec::new(),
                }
            } else {
                q.clone()
            };
            if let Some(hits) = self.by_owner_name.get(&(owner.clone(), call.name.clone())) {
                return allowed(hits);
            }
            // Module-qualified free fn: `signature::merge(…)` resolves
            // to free fns in a file named `signature.rs`.
            if owner.as_bytes()[0].is_ascii_lowercase() {
                if let Some(hits) = self.free_by_name.get(&call.name) {
                    let suffix_rs = format!("/{owner}.rs");
                    let suffix_mod = format!("/{owner}/mod.rs");
                    let narrowed: Vec<usize> = allowed(hits)
                        .into_iter()
                        .filter(|&i| {
                            self.fns[i].path.ends_with(&suffix_rs)
                                || self.fns[i].path.ends_with(&suffix_mod)
                        })
                        .collect();
                    if !narrowed.is_empty() {
                        return narrowed;
                    }
                }
            }
            return Vec::new();
        }
        if call.method {
            // Over-approximate within the allowed crates: every method
            // with that name, preferring the caller's own crate when it
            // matches something.
            if let Some(hits) = self.methods_by_name.get(&call.name) {
                let reachable = allowed(hits);
                let same_crate: Vec<usize> = reachable
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].crate_name == caller_fn.crate_name)
                    .collect();
                return if same_crate.is_empty() {
                    reachable
                } else {
                    same_crate
                };
            }
            return Vec::new();
        }
        // Bare call: same file, then same crate, then allowed crates.
        if let Some(hits) = self.free_by_name.get(&call.name) {
            let same_file: Vec<usize> = hits
                .iter()
                .copied()
                .filter(|&i| self.fns[i].path == caller_fn.path)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            let same_crate: Vec<usize> = hits
                .iter()
                .copied()
                .filter(|&i| self.fns[i].crate_name == caller_fn.crate_name)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            return allowed(hits);
        }
        Vec::new()
    }

    /// The resolved callee indices of fn `i` (diagnostics/tests).
    pub fn callees_of(&self, i: usize) -> &[usize] {
        &self.resolved[i].0
    }

    /// Indices of fns matching `(owner, name)`.
    fn roots_matching(&self, owner: &str, name: &str) -> Vec<usize> {
        self.by_owner_name
            .get(&(owner.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Runs the L6 hot-path purity walk and returns violations.
    ///
    /// Each effect location is reported once, under the strictest mask
    /// of any root that reaches it; the message names both the effect
    /// and the root so a reader can trace the path.
    pub fn hot_path_violations(&self) -> Vec<Violation> {
        // (path, line, token) → (forbidding root, label).
        let mut flagged: HashMap<(String, usize, &'static str), (String, &'static str, String)> =
            HashMap::new();
        for &(owner, name, forbid) in HOT_PATH_ROOTS {
            let roots = self.roots_matching(owner, name);
            if roots.is_empty() {
                continue;
            }
            let root_label = format!("{owner}::{name}");
            let mut seen: HashSet<usize> = HashSet::new();
            let mut queue: VecDeque<usize> = roots.into_iter().collect();
            while let Some(i) = queue.pop_front() {
                if !seen.insert(i) {
                    continue;
                }
                let f = &self.fns[i];
                let (callees, effects) = &self.resolved[i];
                for e in effects {
                    if e.mask & forbid == 0 {
                        continue;
                    }
                    let key = (f.path.clone(), e.line, e.token);
                    // First (strictest-listed) root wins; HOT_PATH_ROOTS
                    // lists FORBID_ALL roots before FORBID_BLOCKING ones.
                    flagged
                        .entry(key)
                        .or_insert_with(|| (root_label.clone(), e.label, f.qualified_name()));
                }
                for &c in callees {
                    let callee = &self.fns[c];
                    if EXEMPT_SETUP_FNS.contains(&callee.name.as_str()) {
                        continue; // constructor cut point
                    }
                    if !seen.contains(&c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        let mut out: Vec<Violation> = flagged
            .into_iter()
            .map(|((path, line, token), (root, label, in_fn))| Violation {
                lint: Lint::L6,
                path,
                line,
                message: format!(
                    "`{in_fn}` is reachable from hot-path root `{root}` but {label} (`{token}`)"
                ),
            })
            .collect();
        out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_fns;
    use crate::strip::strip;

    fn graph_violations(files: &[(&str, &str)]) -> Vec<Violation> {
        let mut fns = Vec::new();
        for (path, src) in files {
            fns.extend(parse_fns(path, &strip(src)));
        }
        CallGraph::build(&fns).hot_path_violations()
    }

    #[test]
    fn effect_tokens_match_word_boundaries() {
        let hits = effects_in_line("let v = Vec::new();");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].2, "Vec::new");
        // `pushed` and `unlock` must not match `push`/`lock`.
        assert!(effects_in_line("let pushed = unlock_all();").is_empty());
        // method-dot tokens require the dot.
        assert!(effects_in_line("fn push(x: u32) {}").is_empty());
        assert_eq!(effects_in_line("out.push(x);").len(), 1);
    }

    #[test]
    fn calls_resolve_through_methods_and_qualified_paths() {
        let src = "//! doc\n\
                   impl Sketch {\n\
                       pub fn update(&mut self, k: u64) {\n\
                           self.apply(k);\n\
                           helper(k);\n\
                           Other::leaf(k);\n\
                       }\n\
                       fn apply(&mut self, k: u64) { let _ = k; }\n\
                   }\n\
                   fn helper(k: u64) { let _ = k; }\n\
                   impl Other {\n\
                       fn leaf(k: u64) { let _ = k; }\n\
                   }\n";
        let fns = parse_fns("crates/x/src/lib.rs", &strip(src));
        let graph = CallGraph::build(&fns);
        let update = fns.iter().position(|f| f.name == "update").unwrap();
        let (callees, _) = &graph.resolved[update];
        let names: Vec<&str> = callees.iter().map(|&i| fns[i].name.as_str()).collect();
        assert!(names.contains(&"apply"));
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"leaf"));
    }

    #[test]
    fn transitive_allocation_is_flagged_at_the_allocating_line() {
        let src = "//! doc\n\
                   impl DistinctCountSketch {\n\
                       pub fn update(&mut self, k: u64) {\n\
                           self.inner(k);\n\
                       }\n\
                       fn inner(&mut self, k: u64) {\n\
                           self.scratch.push(k);\n\
                       }\n\
                   }\n";
        let v = graph_violations(&[("crates/core/src/sketch.rs", src)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 7);
        assert!(v[0].message.contains("DistinctCountSketch::update"));
        assert!(v[0].message.contains("allocates"));
    }

    #[test]
    fn constructor_cut_points_are_not_traversed() {
        let src = "//! doc\n\
                   impl DistinctCountSketch {\n\
                       pub fn update_batch(&mut self, ks: &[u64]) {\n\
                           let s = Scratch::new(ks.len());\n\
                           let _ = s;\n\
                       }\n\
                   }\n\
                   impl Scratch {\n\
                       pub fn new(n: usize) -> Self {\n\
                           Scratch { buf: Vec::with_capacity(n) }\n\
                       }\n\
                   }\n";
        let v = graph_violations(&[("crates/core/src/sketch.rs", src)]);
        assert!(v.is_empty(), "constructor body must be exempt: {v:?}");
    }

    #[test]
    fn query_roots_allow_alloc_but_not_locks() {
        let src = "//! doc\n\
                   impl DistinctCountSketch {\n\
                       pub fn estimate_top_k(&self, k: usize) -> Vec<u64> {\n\
                           let mut out = Vec::new();\n\
                           self.guarded(k, &mut out);\n\
                           out\n\
                       }\n\
                       fn guarded(&self, k: usize, out: &mut Vec<u64>) {\n\
                           let g = self.state.lock();\n\
                           let _ = (k, g, out);\n\
                       }\n\
                   }\n";
        let v = graph_violations(&[("crates/core/src/sketch.rs", src)]);
        assert_eq!(v.len(), 1, "only the lock should fire: {v:?}");
        assert_eq!(v[0].line, 9);
        assert!(v[0].message.contains("takes a lock"));
    }

    #[test]
    fn unreachable_allocation_is_not_flagged() {
        let src = "//! doc\n\
                   impl DistinctCountSketch {\n\
                       pub fn update(&mut self, k: u64) { let _ = k; }\n\
                   }\n\
                   fn cold_path() -> Vec<u64> {\n\
                       vec![1, 2, 3]\n\
                   }\n";
        let v = graph_violations(&[("crates/core/src/sketch.rs", src)]);
        assert!(v.is_empty(), "unreachable fn must not fire: {v:?}");
    }
}
