//! Program line counts for `dcs-analysis lines`: the non-blank lines
//! outside `#[cfg(test)]` items, as [`strip`] marks them, of each
//! crate's `src/`, the root `src/` and `examples/`. A file declared
//! `#[cfg(test)] mod name;` is test code as a whole.

use std::collections::BTreeMap;
use std::path::Path;
use std::{fs, io};

use crate::strip::strip;
use crate::{collect_files, rel_path, walk_src};

/// Program lines per unit under `root`: `crates/<name>`, `src` or
/// `examples`, in that order.
///
/// # Errors
///
/// Returns any I/O error from walking or reading source files.
pub fn program_lines(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut examples = Vec::new();
    if root.join("examples").is_dir() {
        walk_src(&root.join("examples"), &mut examples)?;
    }
    let examples = examples
        .into_iter()
        .map(|path| (rel_path(root, &path), path));
    // Per file: unit, path stem, program lines. `gated`: the path stems
    // of modules declared `#[cfg(test)] mod name;`.
    let (mut files, mut gated) = (Vec::new(), Vec::new());
    for (rel, path) in collect_files(root)?.into_iter().chain(examples) {
        let unit = match rel.split('/').collect::<Vec<_>>()[..] {
            ["crates", name, "src", ..] => format!("crates/{name}"),
            [top @ ("src" | "examples"), ..] => top.to_string(),
            _ => continue,
        };
        let source = fs::read_to_string(path)?;
        let stem = rel.trim_end_matches(".rs").to_string();
        // `lib.rs`, `main.rs` and `mod.rs` declare the modules beside
        // them; `name.rs` those in `name/`.
        let parent = ["/lib", "/main", "/mod"]
            .iter()
            .fold(stem.as_str(), |s, file| s.strip_suffix(file).unwrap_or(s));
        let mut lines = 0;
        for (text, line) in source.lines().zip(strip(&source)) {
            let item = line.code.trim().trim_start_matches("pub(crate) ");
            let item = item.trim_start_matches("pub ").strip_prefix("mod ");
            match item.and_then(|rest| rest.strip_suffix(';')) {
                Some(name) if line.in_test => gated.push(format!("{parent}/{}", name.trim())),
                _ => lines += usize::from(!line.in_test && !text.trim().is_empty()),
            }
        }
        files.push((unit, stem, lines));
    }
    let mut units = BTreeMap::new();
    for (unit, stem, lines) in files {
        let test_file = gated
            .iter()
            .any(|g| stem == *g || stem.starts_with(&format!("{g}/")));
        *units.entry(unit).or_default() += if test_file { 0 } else { lines };
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// lib.rs: 6 program lines around its test module and its gated
    /// `mod oracle;`; oracle.rs is test code as a whole; widget.rs has
    /// 3 program lines around an inline `#[cfg(test)]` fn; the crate's
    /// `tests/` tree is skipped.
    #[test]
    fn counts_program_lines_outside_test_items_per_unit() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lines");
        let counts: Vec<(String, usize)> = program_lines(&root).unwrap().into_iter().collect();
        let expected = [("crates/demo", 9), ("examples", 3), ("src", 2)];
        assert_eq!(counts, expected.map(|(unit, n)| (unit.to_string(), n)));
    }
}
