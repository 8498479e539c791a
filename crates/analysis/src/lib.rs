//! # dcs-analysis — repo-native invariant linter
//!
//! Nine invariants of the Distinct-Count Sketch workspace live in the
//! *source text*, not the type system. Five are token-level: counter
//! linearity under overflow (L1), audited numeric narrowing (L2),
//! panic-free library paths (L3), run-to-run determinism (L4), and
//! per-module intent headers (L5). Four are *semantic*, riding on a
//! lightweight item index and call graph built over the same stripped
//! token streams: hot-path purity (L6 — nothing reachable from the
//! sketch update roots may allocate, lock, sleep, or do I/O),
//! atomic-ordering audit (L7), error-variant test coverage (L9), and
//! concurrency preflight (L10). L8 (cfg-pair consistency) was retired
//! with the `telemetry` cargo feature it checked; its code stays
//! unassigned.
//! `cargo test` cannot see any of them — a non-wrapping `+=` passes
//! every test until the day a counter overflows mid-merge, and a `Vec`
//! growing three calls below `update_batch` passes every test until
//! the day it stalls a line-rate ingest core. This crate enforces them
//! dependency-free, as a CI gate:
//!
//! ```text
//! cargo run -p dcs-analysis -- lint
//! ```
//!
//! Diagnostics are `file:line: L#: message`; the exit code is nonzero
//! on any unsuppressed violation. Known-acceptable violations are
//! recorded (never hidden) in `analysis/allow.toml`, line-anchored so
//! a stale entry fails the build as *unused* when the code moves. See
//! DESIGN.md §9 and §14 for the mapping from each lint to the paper
//! guarantee it protects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod graph;
pub mod items;
pub mod lines;
pub mod lints;
pub mod strip;

pub use allow::{parse_allow, AllowEntry, MAX_ALLOW_ENTRIES};
pub use lines::program_lines;
pub use lints::{lint_source, lint_workspace, Lint, SourceFile, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of linting a tree and applying a suppression list.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Unsuppressed violations, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Violations matched (and silenced) by an allow entry.
    pub suppressed: Vec<Violation>,
    /// Allow entries that matched nothing — stale suppressions, which
    /// fail the run just like violations do.
    pub unused_allows: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_checked: usize,
}

impl LintOutcome {
    /// Whether the run should exit zero.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allows.is_empty()
    }
}

/// Splits raw violations into kept/suppressed and reports stale
/// entries. Each allow entry may be consumed at most once per
/// violation it anchors, but one entry matching repeated diagnostics
/// on the same line suppresses all of them.
pub fn apply_allow(found: Vec<Violation>, allows: &[AllowEntry]) -> LintOutcome {
    let mut used = vec![false; allows.len()];
    let mut outcome = LintOutcome::default();
    for violation in found {
        match allows.iter().position(|a| a.matches(&violation)) {
            Some(index) => {
                used[index] = true;
                outcome.suppressed.push(violation);
            }
            None => outcome.violations.push(violation),
        }
    }
    outcome.unused_allows = allows
        .iter()
        .zip(&used)
        .filter(|&(_, &was_used)| !was_used)
        .map(|(entry, _)| entry.clone())
        .collect();
    outcome
}

/// Recursively collects `.rs` files under `dir`, skipping nested test
/// trees, benches, fixtures, and build output. Test trees are walked
/// separately by [`collect_files`] so their *top-level* dirs are
/// covered while fixture subdirectories stay exempt.
pub(crate) fn walk_src(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            if matches!(
                name.as_str(),
                "tests" | "benches" | "fixtures" | "examples" | "target"
            ) {
                continue;
            }
            walk_src(&entry.path(), out)?;
        } else if name.ends_with(".rs") {
            out.push(entry.path());
        }
    }
    Ok(())
}

/// Collects every lintable source file in the workspace rooted at
/// `root`: each `crates/*/src/` and `crates/*/tests/` tree plus the
/// root package's `src/` and `tests/`. Test trees feed the L5 header
/// rule and the L9 match corpus; fixture subdirectories inside them
/// stay exempt. Vendored stand-ins (`vendor/`) are not workspace
/// members and are never visited. Paths come back repo-root-relative
/// with forward slashes, sorted.
pub fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut absolute = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
        crate_dirs.sort_by_key(|e| e.file_name());
        for crate_dir in crate_dirs {
            for sub in ["src", "tests"] {
                let dir = crate_dir.path().join(sub);
                if dir.is_dir() {
                    walk_src(&dir, &mut absolute)?;
                }
            }
        }
    }
    for sub in ["src", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_src(&dir, &mut absolute)?;
        }
    }
    let mut files: Vec<_> = absolute
        .into_iter()
        .map(|path| (rel_path(root, &path), path))
        .collect();
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, with forward slashes.
pub(crate) fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the workspace rooted at `root` and applies `allows`: the
/// per-file rules (L1–L5, L7, L10) over each file, then the
/// cross-file pass (L6 hot-path purity, L9 error-variant coverage)
/// over the whole set at once.
///
/// # Errors
///
/// Returns any I/O error from walking or reading source files.
pub fn lint_root(root: &Path, allows: &[AllowEntry]) -> io::Result<LintOutcome> {
    let mut sources = Vec::new();
    for (rel, path) in collect_files(root)? {
        sources.push(SourceFile {
            path: rel,
            source: fs::read_to_string(&path)?,
        });
    }
    let files_checked = sources.len();
    let mut found = Vec::new();
    for file in &sources {
        found.extend(lint_source(&file.path, &file.source));
    }
    found.extend(lint_workspace(&sources));
    let mut outcome = apply_allow(found, allows);
    outcome.files_checked = files_checked;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_allow_splits_and_flags_stale_entries() {
        let hit = Violation {
            lint: Lint::L3,
            path: "crates/x/src/lib.rs".to_string(),
            line: 5,
            message: "m".to_string(),
        };
        let other = Violation {
            lint: Lint::L2,
            path: "crates/x/src/lib.rs".to_string(),
            line: 9,
            message: "m".to_string(),
        };
        let allows = vec![
            AllowEntry {
                lint: Lint::L3,
                path: "crates/x/src/lib.rs".to_string(),
                line: 5,
                reason: "ok".to_string(),
            },
            AllowEntry {
                lint: Lint::L1,
                path: "stale.rs".to_string(),
                line: 1,
                reason: "stale".to_string(),
            },
        ];
        let outcome = apply_allow(vec![hit, other.clone()], &allows);
        assert_eq!(outcome.violations, vec![other]);
        assert_eq!(outcome.suppressed.len(), 1);
        assert_eq!(outcome.unused_allows.len(), 1);
        assert_eq!(outcome.unused_allows[0].path, "stale.rs");
        assert!(!outcome.is_clean());
    }

    #[test]
    fn clean_outcome_requires_no_unused_allows() {
        let outcome = apply_allow(vec![], &[]);
        assert!(outcome.is_clean());
    }
}
