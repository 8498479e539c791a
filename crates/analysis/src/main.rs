//! CLI for the invariant linter: `cargo run -p dcs-analysis -- lint`,
//! and the program line count: `cargo run -p dcs-analysis -- lines`.
//!
//! Exit codes: `0` clean, `1` unsuppressed violations or stale allow
//! entries, `2` usage or I/O errors. With `--format json` every
//! diagnostic (including suppressed ones) is emitted as one JSON
//! object per line on stdout — the CI artifact PRs are diffed against —
//! and the human summary moves to stderr.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dcs_analysis::{lint_root, parse_allow, program_lines, AllowEntry, Violation};

const USAGE: &str = "usage: dcs-analysis lint [--root DIR] [--allow FILE] [--format text|json]
       dcs-analysis lines [--root DIR]

`lint` checks the workspace at DIR (default: .) against invariants L1-L7,
L9 and L10, reading suppressions from FILE (default: DIR/analysis/allow.toml).
`--format json` prints one diagnostic per line as JSON (keys: lint,
path, line, message, suppressed) for machine diffing.

`lines` prints the program lines of each crate's src/, the root src/ and
examples/, and their total: non-blank lines outside #[cfg(test)] items.";

/// Output mode selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dcs-analysis: error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Escapes a string for embedding in a JSON string literal. A copy of
/// `dcs_telemetry::json_string` (without the quotes) on purpose:
/// dcs-analysis stays dependency-free (see its `Cargo.toml`).
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One diagnostic as a single JSON line.
fn json_line(violation: &Violation, suppressed: bool) -> String {
    format!(
        "{{\"lint\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"suppressed\":{}}}",
        violation.lint,
        json_escape(&violation.path),
        violation.line,
        json_escape(&violation.message),
        suppressed
    )
}

/// Prints each unit's program lines, then their total.
fn print_lines(root: &Path) -> Result<ExitCode, String> {
    let units = program_lines(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    for (unit, lines) in &units {
        println!("{unit:<20} {lines:>7}");
    }
    println!("{:<20} {:>7}", "total", units.values().sum::<usize>());
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut allow_path: Option<PathBuf> = None;
    let mut command: Option<&str> = None;
    let mut format = Format::Text;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "lint" | "lines" if command.is_none() => command = Some(arg.as_str()),
            "--root" => {
                root = PathBuf::from(iter.next().ok_or("--root requires a directory argument")?);
            }
            "--allow" => {
                allow_path = Some(PathBuf::from(
                    iter.next().ok_or("--allow requires a file argument")?,
                ));
            }
            "--format" => {
                format = match iter
                    .next()
                    .ok_or("--format requires `text` or `json`")?
                    .as_str()
                {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (use text or json)")),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => {
                return Err(format!("unrecognized argument `{other}`\n{USAGE}"));
            }
        }
    }
    match command {
        Some("lint") => {}
        Some(_) if allow_path.is_none() && format == Format::Text => return print_lines(&root),
        Some(_) => return Err(format!("`lines` takes only --root\n{USAGE}")),
        None => return Err(format!("expected `lint` or `lines`\n{USAGE}")),
    }

    let allow_file = allow_path.unwrap_or_else(|| root.join("analysis/allow.toml"));
    let allows: Vec<AllowEntry> = if allow_file.is_file() {
        let text = std::fs::read_to_string(&allow_file)
            .map_err(|e| format!("reading {}: {e}", allow_file.display()))?;
        parse_allow(&text).map_err(|e| format!("{}: {e}", allow_file.display()))?
    } else {
        Vec::new()
    };

    let outcome =
        lint_root(&root, &allows).map_err(|e| format!("walking {}: {e}", root.display()))?;

    match format {
        Format::Text => {
            for violation in &outcome.violations {
                println!("{violation}");
            }
            for entry in &outcome.unused_allows {
                println!(
                    "{}: unused suppression: {} {}:{} no longer fires ({})",
                    allow_file.display(),
                    entry.lint,
                    entry.path,
                    entry.line,
                    entry.reason
                );
            }
        }
        Format::Json => {
            for violation in &outcome.violations {
                println!("{}", json_line(violation, false));
            }
            for violation in &outcome.suppressed {
                println!("{}", json_line(violation, true));
            }
            for entry in &outcome.unused_allows {
                let stale = Violation {
                    lint: entry.lint,
                    path: entry.path.clone(),
                    line: entry.line,
                    message: format!("unused suppression: {}", entry.reason),
                };
                println!("{}", json_line(&stale, false));
            }
        }
    }
    let summary = format!(
        "dcs-analysis: {} files checked, {} violations ({} suppressed), {} stale allow entries",
        outcome.files_checked,
        outcome.violations.len(),
        outcome.suppressed.len(),
        outcome.unused_allows.len()
    );
    match format {
        Format::Text => println!("{summary}"),
        Format::Json => eprintln!("{summary}"),
    }
    if outcome.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}
