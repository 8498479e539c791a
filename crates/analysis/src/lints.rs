//! The invariant lints and their file-scope rules.
//!
//! Each lint guards a property the test suite cannot cheaply observe
//! (see DESIGN.md §9 and §14 for the catalog mapping each rule to the
//! paper guarantee it protects):
//!
//! * **L1** — counter mutations in the count-signature module must use
//!   `wrapping_*`: sketch merge/subtract are linear only if overflow
//!   wraps identically on both operands.
//! * **L2** — no `as` numeric casts in `crates/core`, `crates/hash`
//!   or `crates/persist` (which narrows 8-byte counter words to the
//!   sketch's 4-byte counters); conversions go through `dcs_hash::cast`
//!   or `From`/`TryFrom` so every narrowing is explicit and audited in
//!   one place.
//! * **L3** — no `.unwrap()`/`.expect(` in library code; fallible paths
//!   return errors or are restructured so the invariant is visible.
//! * **L4** — no nondeterminism sources (`HashMap`/`HashSet` with the
//!   default hasher, `SystemTime`, unseeded rand) in core/hash; query
//!   results must be reproducible run-to-run.
//! * **L5** — every source file opens with a `//!` module header.
//!
//! The semantic lints added in v2 ride on the item index and call
//! graph ([`crate::items`], [`crate::graph`]):
//!
//! * **L6** — hot-path purity: no allocation, locking, sleeping, or
//!   I/O reachable from the sketch update roots (see
//!   [`crate::graph::HOT_PATH_ROOTS`]).
//! * **L7** — atomic-ordering audit: every atomic op names an
//!   `Ordering`; `Relaxed` only in `crates/telemetry`.
//! * **L8** — retired with the `telemetry` cargo feature it checked
//!   (cfg-pair consistency); the code stays unassigned.
//! * **L9** — error-variant coverage: every constructed
//!   `SketchError`/`PersistError` variant is matched by name in tests.
//! * **L10** — concurrency preflight: no `static mut`, no
//!   `thread::sleep` in library code, lock/channel construction
//!   confined to the netsim fan-out modules.

use crate::graph::CallGraph;
use crate::items::{self, FnItem};
use crate::strip;

/// A lint rule identifier (`L1` … `L10`; `L8` is retired).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Non-wrapping arithmetic on count-signature counters.
    L1,
    /// Lossy or unaudited `as` numeric cast in core/hash/persist.
    L2,
    /// `.unwrap()` / `.expect()` in library (non-test, non-binary) code.
    L3,
    /// Nondeterminism source in core/hash.
    L4,
    /// Missing `//!` module doc header.
    L5,
    /// Forbidden effect reachable from a hot-path root.
    L6,
    /// Atomic op without a named `Ordering`, or `Relaxed` outside
    /// `crates/telemetry`.
    L7,
    /// Error variant constructed in library code but never matched by
    /// name in tests.
    L9,
    /// `static mut`, library `thread::sleep`, or lock/channel
    /// construction outside the allowlisted modules.
    L10,
}

impl Lint {
    /// The short code used in diagnostics and `allow.toml` (`"L1"`…).
    pub fn code(self) -> &'static str {
        match self {
            Lint::L1 => "L1",
            Lint::L2 => "L2",
            Lint::L3 => "L3",
            Lint::L4 => "L4",
            Lint::L5 => "L5",
            Lint::L6 => "L6",
            Lint::L7 => "L7",
            Lint::L9 => "L9",
            Lint::L10 => "L10",
        }
    }

    /// Parses a short code back into a lint, case-sensitively.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "L1" => Some(Lint::L1),
            "L2" => Some(Lint::L2),
            "L3" => Some(Lint::L3),
            "L4" => Some(Lint::L4),
            "L5" => Some(Lint::L5),
            "L6" => Some(Lint::L6),
            "L7" => Some(Lint::L7),
            "L9" => Some(Lint::L9),
            "L10" => Some(Lint::L10),
            _ => None,
        }
    }
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// One diagnostic: a lint that fired at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub lint: Lint,
    /// Repo-root-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation of what to do instead.
    pub message: String,
}

impl std::fmt::Display for Violation {
    /// Renders the `file:line: code: message` diagnostic form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// The one module allowed to contain `as` numeric casts: it *is* the
/// audited conversion layer the rest of the workspace must use.
const CAST_HELPER: &str = "crates/hash/src/cast.rs";
/// The one module allowed to name `HashMap`/`HashSet`: it wraps them
/// with a fixed-seed hasher to *produce* the deterministic variants.
const DET_HELPER: &str = "crates/hash/src/det.rs";
/// The count-signature module whose counters L1 protects.
const SIGNATURE: &str = "crates/core/src/signature.rs";

/// Numeric types that make an `as` cast lint-relevant.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Identifiers that introduce nondeterminism into query results.
const NONDETERMINISM: &[&str] = &[
    "HashMap",
    "HashSet",
    "SystemTime",
    "thread_rng",
    "from_entropy",
];

/// The crate whose relaxed atomic counters L7 blesses: telemetry
/// counters are monotonic and read only at snapshot boundaries, so
/// `Relaxed` is the documented design there (DESIGN.md §11).
const RELAXED_OK_PREFIX: &str = "crates/telemetry/src/";

/// The error enums whose variants L9 requires tests to match by name.
const ERROR_ENUMS: &[&str] = &["SketchError", "PersistError"];

/// The only modules allowed to construct locks or channels (L10): the
/// netsim fan-out layer that exists to demonstrate deployment shape,
/// plus the sharded ingest engine (whose only locks are the per-shard
/// sketch mutexes that reads use in place). Everything
/// upstream of it — especially `dcs-core` — must stay
/// shared-state-free.
const CONCURRENCY_MODULES: &[&str] = &[
    "crates/netsim/src/ingest.rs",
    "crates/netsim/src/sharded.rs",
    "crates/netsim/src/pipeline.rs",
];

/// Lock/channel constructors L10 confines to [`CONCURRENCY_MODULES`].
const CONCURRENCY_CTORS: &[&str] = &[
    "Mutex::new(",
    "RwLock::new(",
    "channel::bounded",
    "channel::unbounded",
    "mpsc::channel",
    "mpsc::sync_channel",
];

/// Whether the path is outside every lint's scope (bench harnesses,
/// fixtures, vendored stand-ins). Test trees are *not* fully exempt —
/// they still get the L5 header check and feed the L9 corpus — see
/// [`is_test_tree`].
fn is_exempt_path(path: &str) -> bool {
    path.starts_with("vendor/")
        || path.starts_with("target/")
        || path
            .split('/')
            .any(|seg| matches!(seg, "benches" | "fixtures" | "examples" | "target"))
}

/// Whether the path is an integration-test tree (`tests/` at the repo
/// root or under a crate). Such files get only the L5 header rule:
/// unwraps, casts, and sleeps are idiomatic in tests, and the other
/// lints' messages already document the exemption.
pub(crate) fn is_test_tree(path: &str) -> bool {
    path.split('/').any(|seg| seg == "tests")
}

/// Whether the file is a binary root (binaries may panic on startup
/// misconfiguration; L3 covers library code only).
fn is_binary(path: &str) -> bool {
    path.contains("/bin/") || path == "src/main.rs" || path.ends_with("/main.rs")
}

/// Whether the file belongs to the determinism-critical crates.
fn in_core_or_hash(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/hash/src/")
}

/// Whether the file is in L2's scope: the determinism-critical crates
/// plus the checkpoint codec, where a stray cast would wrap a counter.
fn in_cast_scope(path: &str) -> bool {
    in_core_or_hash(path) || path.starts_with("crates/persist/src/")
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Finds `word` in `code` at a word boundary, starting at byte `from`.
fn find_word_from(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(pos) = code.get(start..).and_then(|s| s.find(word)) {
        let at = start + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_word_byte(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_word_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

/// Finds an `as <numeric type>` cast, returning the target type name.
fn find_numeric_cast(code: &str) -> Option<&'static str> {
    let mut search = 0;
    while let Some(at) = find_word_from(code, "as", search) {
        let rest = code[at + 2..].trim_start();
        let ident_len = rest.bytes().take_while(|&b| is_word_byte(b)).count();
        let ident = &rest[..ident_len];
        if let Some(ty) = NUMERIC_TYPES.iter().find(|&&t| t == ident) {
            return Some(ty);
        }
        search = at + 2;
    }
    None
}

/// Whether the line assigns into an indexed slot (`] =`, not `] ==`).
fn has_indexed_assignment(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code.get(start..).and_then(|s| s.find("] =")) {
        let at = start + pos;
        let after = at + 3;
        if bytes.get(after) != Some(&b'=') {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Runs every applicable lint over one file.
///
/// `path` must be repo-root-relative with forward slashes — scope rules
/// (which crate, binary vs library, helper-module exemptions) key off
/// it. Returns diagnostics in line order.
pub fn lint_source(path: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    if !path.ends_with(".rs") || is_exempt_path(path) {
        return out;
    }

    // L5: the module header is about the file as a whole.
    let first_nonempty = source
        .lines()
        .enumerate()
        .find(|(_, l)| !l.trim().is_empty());
    match first_nonempty {
        Some((_, line)) if line.trim_start().starts_with("//!") => {}
        Some((index, _)) => out.push(Violation {
            lint: Lint::L5,
            path: path.to_string(),
            line: index + 1,
            message: "file must open with a `//!` module doc header".to_string(),
        }),
        None => out.push(Violation {
            lint: Lint::L5,
            path: path.to_string(),
            line: 1,
            message: "empty file: add a `//!` module doc header".to_string(),
        }),
    }

    // Test trees stop here: only the header rule applies to them.
    if is_test_tree(path) {
        return out;
    }

    let stripped = strip::strip(source);
    out.extend(atomic_ordering_audit(path, &stripped));
    out.extend(concurrency_preflight(path, &stripped));

    for (index, line) in stripped.iter().enumerate() {
        if line.is_doc || line.in_test {
            continue;
        }
        let lineno = index + 1;
        let code = line.code.as_str();

        if path == SIGNATURE {
            if code.contains("+=") || code.contains("-=") {
                out.push(Violation {
                    lint: Lint::L1,
                    path: path.to_string(),
                    line: lineno,
                    message: "compound assignment on counter state breaks merge/subtract \
                              linearity under overflow; use wrapping_add/wrapping_sub"
                        .to_string(),
                });
            } else if code.contains("counts[")
                && !code.contains("wrapping_")
                && (code.contains('+') || code.contains('-'))
                && has_indexed_assignment(code)
            {
                out.push(Violation {
                    lint: Lint::L1,
                    path: path.to_string(),
                    line: lineno,
                    message: "bare +/- assigned into a counter slot; use \
                              wrapping_add/wrapping_sub so overflow stays linear"
                        .to_string(),
                });
            }
        }

        if in_cast_scope(path) && path != CAST_HELPER {
            if let Some(ty) = find_numeric_cast(code) {
                out.push(Violation {
                    lint: Lint::L2,
                    path: path.to_string(),
                    line: lineno,
                    message: format!(
                        "`as {ty}` cast; use dcs_hash::cast helpers or From/TryFrom so \
                         narrowing is explicit and audited"
                    ),
                });
            }
        }

        if !is_binary(path) && (code.contains(".unwrap()") || code.contains(".expect(")) {
            out.push(Violation {
                lint: Lint::L3,
                path: path.to_string(),
                line: lineno,
                message: "unwrap/expect in library code; propagate an error or restructure \
                          so the invariant is visible (binaries and tests are exempt)"
                    .to_string(),
            });
        }

        if in_core_or_hash(path) && path != DET_HELPER {
            if let Some(word) = NONDETERMINISM
                .iter()
                .find(|w| find_word_from(code, w, 0).is_some())
            {
                out.push(Violation {
                    lint: Lint::L4,
                    path: path.to_string(),
                    line: lineno,
                    message: format!(
                        "nondeterminism source `{word}` in core/hash; use \
                         DetHashMap/DetHashSet, BTree collections, or seeded generators"
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (a.line, a.lint.code()).cmp(&(b.line, b.lint.code())));
    out
}

/// L7: every atomic `load`/`store`/`fetch_*` must name an `Ordering`,
/// and `Relaxed` is permitted only in `crates/telemetry` (whose
/// counters are monotonic and snapshot-read by design). Only files
/// that use atomic types are scanned, so `PersistManager::load` and
/// friends never false-positive.
fn atomic_ordering_audit(path: &str, stripped: &[strip::Line]) -> Vec<Violation> {
    let uses_atomics = stripped
        .iter()
        .any(|l| !l.is_doc && !l.in_test && l.code.contains("Atomic"));
    if !uses_atomics {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (index, line) in stripped.iter().enumerate() {
        if line.is_doc || line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let has_op = [".load(", ".store(", ".fetch_"]
            .iter()
            .any(|t| code.contains(t));
        if !has_op {
            continue;
        }
        // The ordering argument may wrap: look at this line plus the
        // next two (rustfmt never pushes it further in this workspace).
        let mut window = code.to_string();
        for follow in stripped.iter().skip(index + 1).take(2) {
            window.push_str(&follow.code);
        }
        if !window.contains("Ordering::") {
            out.push(Violation {
                lint: Lint::L7,
                path: path.to_string(),
                line: index + 1,
                message: "atomic operation without an explicit `Ordering`; name the ordering \
                          at the call site so reviewers can audit it"
                    .to_string(),
            });
        } else if window.contains("Ordering::Relaxed") && !path.starts_with(RELAXED_OK_PREFIX) {
            out.push(Violation {
                lint: Lint::L7,
                path: path.to_string(),
                line: index + 1,
                message: "`Ordering::Relaxed` outside crates/telemetry; use Acquire/Release \
                          (or document why Relaxed is sound in allow.toml)"
                    .to_string(),
            });
        }
    }
    out
}

/// L10: concurrency preflight ahead of the lock-free ingest refactor.
/// `static mut` is banned everywhere; `thread::sleep` and lock/channel
/// construction are banned in library code outside
/// [`CONCURRENCY_MODULES`] (binaries are drivers and may block).
fn concurrency_preflight(path: &str, stripped: &[strip::Line]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (index, line) in stripped.iter().enumerate() {
        if line.is_doc || line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let lineno = index + 1;
        if code.contains("static mut") {
            out.push(Violation {
                lint: Lint::L10,
                path: path.to_string(),
                line: lineno,
                message: "`static mut` is unsynchronized shared state; use an atomic or pass \
                          state explicitly"
                    .to_string(),
            });
        }
        if is_binary(path) {
            continue;
        }
        if code.contains("thread::sleep") {
            out.push(Violation {
                lint: Lint::L10,
                path: path.to_string(),
                line: lineno,
                message: "`thread::sleep` in library code; timing belongs to the caller \
                          (tests and binaries are exempt)"
                    .to_string(),
            });
        }
        if !CONCURRENCY_MODULES.contains(&path) {
            if let Some(ctor) = CONCURRENCY_CTORS.iter().find(|t| code.contains(*t)) {
                let ctor = ctor.trim_end_matches('(');
                out.push(Violation {
                    lint: Lint::L10,
                    path: path.to_string(),
                    line: lineno,
                    message: format!(
                        "`{ctor}` outside the allowlisted concurrency modules \
                         (netsim::ingest, netsim::sharded, netsim::pipeline); \
                         core stays shared-state-free"
                    ),
                });
            }
        }
    }
    out
}

/// One source file handed to the workspace pass: repo-relative path
/// plus raw contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-root-relative path with forward slashes.
    pub path: String,
    /// The file's full contents.
    pub source: String,
}

/// Runs the cross-file lints (L6 hot-path purity, L9 error-variant
/// coverage) over the whole workspace at once.
///
/// `files` should include *both* library sources and test trees: test
/// files contribute nothing to the call graph but form the corpus L9
/// searches for variant matches. Fixture/bench/vendor paths are
/// ignored entirely.
pub fn lint_workspace(files: &[SourceFile]) -> Vec<Violation> {
    let mut fns: Vec<FnItem> = Vec::new();
    let mut lib_files: Vec<(&SourceFile, Vec<strip::Line>)> = Vec::new();
    let mut test_files: Vec<&SourceFile> = Vec::new();
    for file in files {
        if !file.path.ends_with(".rs") || is_exempt_path(&file.path) {
            continue;
        }
        if is_test_tree(&file.path) {
            test_files.push(file);
            continue;
        }
        let stripped = strip::strip(&file.source);
        fns.extend(items::parse_fns(&file.path, &stripped));
        lib_files.push((file, stripped));
    }

    let mut out = CallGraph::build(&fns).hot_path_violations();
    out.extend(error_variant_coverage(&lib_files, &test_files));
    out.sort_by(|a, b| (&a.path, a.line, a.lint.code()).cmp(&(&b.path, b.line, b.lint.code())));
    out
}

/// L9: every `SketchError`/`PersistError` variant constructed in
/// library code must be matched *by name* somewhere in the test corpus
/// (integration-test trees or `#[cfg(test)]` regions). A variant no
/// test can name is a failure path no test has ever taken.
fn error_variant_coverage(
    lib_files: &[(&SourceFile, Vec<strip::Line>)],
    test_files: &[&SourceFile],
) -> Vec<Violation> {
    // 1. Variant names per error enum, from the definitions.
    let mut variants: Vec<(String, String)> = Vec::new(); // (enum, variant)
    for (file, stripped) in lib_files {
        for enum_name in ERROR_ENUMS {
            variants.extend(
                enum_variants(stripped, enum_name)
                    .into_iter()
                    .map(|v| (enum_name.to_string(), v)),
            );
        }
        let _ = file;
    }

    // 2. First construction site of each variant in non-test library
    // code (binaries included: a variant a driver constructs still
    // deserves a test that can name it).
    let mut sites: Vec<(String, String, String, usize)> = Vec::new(); // (enum, variant, path, line)
    for (file, stripped) in lib_files {
        for (index, line) in stripped.iter().enumerate() {
            if line.is_doc || line.in_test {
                continue;
            }
            for (enum_name, variant) in &variants {
                let needle = format!("{enum_name}::{variant}");
                if find_word_from(&line.code, &needle, 0).is_some()
                    && !sites
                        .iter()
                        .any(|(e, v, _, _)| e == enum_name && v == variant)
                {
                    sites.push((
                        enum_name.clone(),
                        variant.clone(),
                        file.path.clone(),
                        index + 1,
                    ));
                }
            }
        }
    }

    // 3. The test corpus: raw text of test trees plus the raw lines of
    // `#[cfg(test)]` regions in library files.
    let mut corpus = String::new();
    for file in test_files {
        corpus.push_str(&file.source);
        corpus.push('\n');
    }
    for (file, stripped) in lib_files {
        let raw_lines: Vec<&str> = file.source.lines().collect();
        for (index, line) in stripped.iter().enumerate() {
            if line.in_test {
                if let Some(raw) = raw_lines.get(index) {
                    corpus.push_str(raw);
                    corpus.push('\n');
                }
            }
        }
    }

    sites
        .into_iter()
        .filter(|(_, variant, _, _)| find_word_from(&corpus, variant, 0).is_none())
        .map(|(enum_name, variant, path, line)| Violation {
            lint: Lint::L9,
            path,
            line,
            message: format!(
                "`{enum_name}::{variant}` is constructed here but never matched by name \
                 under tests/ or a #[cfg(test)] module"
            ),
        })
        .collect()
}

/// Extracts the variant names of `enum enum_name` from stripped lines.
fn enum_variants(stripped: &[strip::Line], enum_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut inside = false;
    for line in stripped {
        if line.is_doc || line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if !inside && depth == 0 {
            if let Some(at) = find_word_from(code, "enum", 0) {
                let rest = code[at + 4..].trim_start();
                let name_len = rest.bytes().take_while(|&b| is_word_byte(b)).count();
                if &rest[..name_len] == enum_name {
                    inside = true;
                }
            }
        }
        if !inside {
            // Still need to track braces? No: we only enter at depth 0,
            // and `inside` handles its own depth below.
            continue;
        }
        // Inside the enum: variants are uppercase idents at depth 1
        // whose previous significant char is `{` or `,`.
        let mut prev_sig = if depth == 0 { ' ' } else { ',' };
        let bytes = code.as_bytes();
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            match b {
                b'{' => {
                    depth += 1;
                    prev_sig = '{';
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return out; // enum closed
                    }
                    prev_sig = '}';
                }
                b',' => prev_sig = ',',
                b'(' | b')' | b'=' | b'#' | b'[' | b']' | b'<' | b'>' | b':' => {
                    prev_sig = b as char
                }
                _ if b.is_ascii_whitespace() => {}
                _ if is_word_byte(b) => {
                    let start = i;
                    while i < bytes.len() && is_word_byte(bytes[i]) {
                        i += 1;
                    }
                    if depth == 1
                        && matches!(prev_sig, '{' | ',')
                        && bytes[start].is_ascii_uppercase()
                    {
                        out.push(code[start..i].to_string());
                    }
                    prev_sig = 'a';
                    continue;
                }
                _ => prev_sig = b as char,
            }
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries_exclude_det_wrappers() {
        assert!(find_word_from("let m: DetHashMap<u32, u64>;", "HashMap", 0).is_none());
        assert!(find_word_from("let m: HashMap<u32, u64>;", "HashMap", 0).is_some());
    }

    #[test]
    fn numeric_cast_detection() {
        assert_eq!(find_numeric_cast("let x = y as u32;"), Some("u32"));
        assert_eq!(find_numeric_cast("let x = y as MyType;"), None);
        assert_eq!(find_numeric_cast("let alias = basis;"), None);
    }

    #[test]
    fn indexed_assignment_excludes_comparisons() {
        assert!(has_indexed_assignment("self.counts[0] = total + 1;"));
        assert!(!has_indexed_assignment("if self.counts[0] == total {}"));
    }

    #[test]
    fn exempt_paths_produce_nothing() {
        let v = lint_source("vendor/rand/src/lib.rs", "fn f() { x.unwrap() }");
        assert!(v.is_empty());
        let v = lint_source(
            "crates/analysis/tests/fixtures/bad.rs",
            "fn f() { x.unwrap() }",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn test_trees_get_only_the_header_rule() {
        // Unwraps are idiomatic in tests; the header rule still applies.
        let v = lint_source("crates/core/tests/soak.rs", "fn f() { x.unwrap() }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::L5);
        let v = lint_source("tests/soak.rs", "//! soak test\nfn f() { x.unwrap() }");
        assert!(v.is_empty());
    }

    #[test]
    fn binaries_are_exempt_from_l3_only() {
        let source = "fn main() { cfg().unwrap(); }\n";
        let v = lint_source("src/bin/dcsmon.rs", source);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::L5);
    }

    #[test]
    fn display_is_file_line_code_message() {
        let v = Violation {
            lint: Lint::L2,
            path: "crates/core/src/sketch.rs".to_string(),
            line: 42,
            message: "msg".to_string(),
        };
        assert_eq!(v.to_string(), "crates/core/src/sketch.rs:42: L2: msg");
    }

    #[test]
    fn lint_codes_round_trip() {
        for lint in [
            Lint::L1,
            Lint::L2,
            Lint::L3,
            Lint::L4,
            Lint::L5,
            Lint::L6,
            Lint::L7,
            Lint::L9,
            Lint::L10,
        ] {
            assert_eq!(Lint::parse(lint.code()), Some(lint));
        }
        assert_eq!(Lint::parse("L8"), None, "retired with its feature");
        assert_eq!(Lint::parse("L11"), None);
        assert_eq!(Lint::parse("l3"), None);
    }
}
