//! Hand-rolled parser for `analysis/allow.toml`.
//!
//! The suppression file is deliberately line-anchored: an entry names
//! the lint, the exact `path` and `line`, and a human reason. When the
//! code moves, the entry stops matching and the linter fails with an
//! *unused suppression* error — violations are tracked, never silently
//! hidden. Only the subset of TOML the file needs is accepted
//! (`[[allow]]` tables with string/integer keys), keeping the linter
//! dependency-free.

use crate::lints::{Lint, Violation};

/// The hard cap on suppression entries. The CI gate assumes the
/// suppression list stays reviewable at a glance; past this size the
/// right fix is fixing violations, not growing the list.
pub const MAX_ALLOW_ENTRIES: usize = 10;

/// One suppression: exactly one lint at one file:line, with a reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Which lint is being suppressed.
    pub lint: Lint,
    /// Repo-root-relative path with forward slashes.
    pub path: String,
    /// 1-based line the violation sits on.
    pub line: usize,
    /// Why the violation is acceptable (surfaced in reports).
    pub reason: String,
}

impl AllowEntry {
    /// Whether this entry suppresses `violation`.
    pub fn matches(&self, violation: &Violation) -> bool {
        self.lint == violation.lint && self.path == violation.path && self.line == violation.line
    }
}

/// A field being accumulated for the entry currently being parsed.
#[derive(Debug, Default)]
struct Partial {
    lint: Option<Lint>,
    path: Option<String>,
    line: Option<usize>,
    reason: Option<String>,
    header_line: usize,
}

impl Partial {
    fn finish(self) -> Result<AllowEntry, String> {
        let missing = |field: &str, at: usize| {
            format!("allow entry at line {at} is missing required key `{field}`")
        };
        Ok(AllowEntry {
            lint: self.lint.ok_or_else(|| missing("lint", self.header_line))?,
            path: self.path.ok_or_else(|| missing("path", self.header_line))?,
            line: self.line.ok_or_else(|| missing("line", self.header_line))?,
            reason: self
                .reason
                .ok_or_else(|| missing("reason", self.header_line))?,
        })
    }
}

/// Strips the surrounding double quotes from a TOML string value.
fn unquote(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a double-quoted string, got `{v}`"))?;
    Ok(inner.to_string())
}

/// Parses the suppression file. Returns entries in file order.
///
/// # Errors
///
/// Returns a message naming the offending line for: keys outside an
/// `[[allow]]` table, unknown keys, malformed values, unknown lint
/// codes, and entries missing any of the four required keys.
pub fn parse_allow(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    let mut current: Option<Partial> = None;
    for (index, raw) in text.lines().enumerate() {
        let lineno = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(partial) = current.take() {
                entries.push(partial.finish()?);
            }
            current = Some(Partial {
                header_line: lineno,
                ..Partial::default()
            });
            continue;
        }
        let Some(partial) = current.as_mut() else {
            return Err(format!(
                "line {lineno}: `{line}` appears outside an [[allow]] entry"
            ));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = value`, got `{line}`"
            ));
        };
        match key.trim() {
            "lint" => {
                let code = unquote(value, lineno)?;
                partial.lint = Some(Lint::parse(&code).ok_or_else(|| {
                    format!("line {lineno}: unknown lint code `{code}` (expected L1..L10, except the retired L8)")
                })?);
            }
            "path" => partial.path = Some(unquote(value, lineno)?),
            "line" => {
                partial.line =
                    Some(value.trim().parse().map_err(|_| {
                        format!("line {lineno}: `line` must be a positive integer")
                    })?);
            }
            "reason" => {
                let reason = unquote(value, lineno)?;
                if reason.trim().is_empty() {
                    return Err(format!("line {lineno}: `reason` must not be empty"));
                }
                partial.reason = Some(reason);
            }
            other => {
                return Err(format!("line {lineno}: unknown key `{other}`"));
            }
        }
    }
    if let Some(partial) = current.take() {
        entries.push(partial.finish()?);
    }
    if entries.len() > MAX_ALLOW_ENTRIES {
        return Err(format!(
            "{} allow entries exceed the cap of {MAX_ALLOW_ENTRIES}; fix the underlying \
             violations instead of growing the suppression list",
            entries.len()
        ));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# workspace suppressions
[[allow]]
lint = "L3"
path = "crates/netsim/src/pipeline.rs"
line = 12
reason = "documented panic on poisoned state"

[[allow]]
lint = "L2"
path = "crates/core/src/sketch.rs"
line = 99
reason = "cast proven in-range by the preceding assert"
"#;

    #[test]
    fn parses_multiple_entries() {
        let entries = parse_allow(SAMPLE).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].lint, Lint::L3);
        assert_eq!(entries[0].path, "crates/netsim/src/pipeline.rs");
        assert_eq!(entries[0].line, 12);
        assert_eq!(entries[1].lint, Lint::L2);
    }

    #[test]
    fn empty_and_comment_only_files_are_empty_lists() {
        assert!(parse_allow("").unwrap().is_empty());
        assert!(parse_allow("# nothing suppressed\n").unwrap().is_empty());
    }

    #[test]
    fn missing_key_is_an_error() {
        let err = parse_allow("[[allow]]\nlint = \"L3\"\npath = \"x.rs\"\nline = 1\n").unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_lint_and_key_are_errors() {
        let err = parse_allow("[[allow]]\nlint = \"L99\"\n").unwrap_err();
        assert!(err.contains("L99"), "{err}");
        let err = parse_allow("[[allow]]\nseverity = \"high\"\n").unwrap_err();
        assert!(err.contains("severity"), "{err}");
    }

    #[test]
    fn key_outside_entry_is_an_error() {
        let err = parse_allow("lint = \"L3\"\n").unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn entry_cap_is_enforced() {
        let entry = "[[allow]]\nlint = \"L3\"\npath = \"x.rs\"\nline = 1\nreason = \"r\"\n";
        let at_cap = entry.repeat(MAX_ALLOW_ENTRIES);
        assert_eq!(parse_allow(&at_cap).unwrap().len(), MAX_ALLOW_ENTRIES);
        let over = entry.repeat(MAX_ALLOW_ENTRIES + 1);
        let err = parse_allow(&over).unwrap_err();
        assert!(err.contains("exceed the cap"), "{err}");
        assert!(err.contains("11"), "{err}");
    }

    #[test]
    fn new_lint_codes_parse_in_entries() {
        let entries = parse_allow(
            "[[allow]]\nlint = \"L6\"\npath = \"crates/core/src/heap.rs\"\nline = 96\n\
             reason = \"bounded by sample size\"\n",
        )
        .unwrap();
        assert_eq!(entries[0].lint, Lint::L6);
        let err = parse_allow("[[allow]]\nlint = \"L11\"\n").unwrap_err();
        assert!(err.contains("L1..L10"), "{err}");
    }

    #[test]
    fn matches_requires_all_three_coordinates() {
        let entries = parse_allow(SAMPLE).unwrap();
        let hit = Violation {
            lint: Lint::L3,
            path: "crates/netsim/src/pipeline.rs".to_string(),
            line: 12,
            message: String::new(),
        };
        assert!(entries[0].matches(&hit));
        let moved = Violation {
            line: 13,
            ..hit.clone()
        };
        assert!(!entries[0].matches(&moved));
        let other_lint = Violation {
            lint: Lint::L4,
            ..hit
        };
        assert!(!entries[0].matches(&other_lint));
    }
}
