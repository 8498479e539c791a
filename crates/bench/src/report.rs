//! Multi-run aggregation for the vendored criterion's JSON exports.
//!
//! One criterion run is a noisy sample: on the shared single-CPU bench
//! host, medians move ±30–40% run to run with allocator and scheduler
//! state. The recording protocol (bench README) therefore runs each
//! bench binary N ≥ 3 times with `CRITERION_RUNS_LOG=<file>` set, which
//! appends each run's export document as one JSONL line, and then
//! aggregates here: per benchmark, the **median of the per-run
//! medians**. A median of medians is insensitive both to one bad run
//! (outer median) and to tail iterations inside a run (inner median),
//! which is what a committed `BENCH_*.json` number needs to be.
//!
//! The parser is deliberately strict to the shape `render_json` in
//! `vendor/criterion` emits — this is a sidecar-format reader, not a
//! general JSON parser (the workspace has no JSON dependency).

/// One benchmark's measurement within a single run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEntry {
    /// Full benchmark id, e.g. `update/basic/2`.
    pub name: String,
    /// Median per-iteration time for that run, in nanoseconds.
    pub median_ns: u128,
    /// Elements per iteration, when the group declared a throughput.
    pub elements: Option<u64>,
}

/// One benchmark's aggregate across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    /// Full benchmark id.
    pub name: String,
    /// Median of the per-run medians, in nanoseconds.
    pub median_ns: u128,
    /// Smallest per-run median.
    pub min_run_median_ns: u128,
    /// Largest per-run median.
    pub max_run_median_ns: u128,
    /// Number of runs that reported this benchmark.
    pub runs: usize,
    /// Elements per iteration, from the last run that declared one.
    pub elements: Option<u64>,
}

/// Extracts the string value of `"key":"…"` following `from` in `line`.
fn string_field(line: &str, from: usize, key: &str) -> Option<(String, usize)> {
    let pattern = format!("\"{key}\":\"");
    let start = line[from..].find(&pattern)? + from + pattern.len();
    let mut value = String::new();
    let mut chars = line[start..].char_indices();
    while let Some((offset, c)) = chars.next() {
        match c {
            '\\' => {
                let (_, escaped) = chars.next()?;
                value.push(escaped);
            }
            '"' => return Some((value, start + offset + 1)),
            c => value.push(c),
        }
    }
    None
}

/// Extracts the unsigned integer value of `"key":N` following `from`.
fn integer_field(line: &str, from: usize, key: &str) -> Option<(u128, usize)> {
    let pattern = format!("\"{key}\":");
    let start = line[from..].find(&pattern)? + from + pattern.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let value = digits.parse().ok()?;
    Some((value, start + digits.len()))
}

/// Parses one JSONL line of a `CRITERION_RUNS_LOG` sidecar into its
/// benchmark entries. Returns `None` when the line is not a criterion
/// export document (callers skip blank or foreign lines).
pub fn parse_run_line(line: &str) -> Option<Vec<RunEntry>> {
    let line = line.trim();
    if !line.starts_with("{\"benchmarks\":[") {
        return None;
    }
    let mut entries = Vec::new();
    let mut cursor = 0usize;
    while let Some((name, after_name)) = string_field(line, cursor, "name") {
        let (median_ns, after_median) = integer_field(line, after_name, "median_ns")?;
        // `elements` is either an integer or the literal `null`; the
        // integer probe simply fails on `null`.
        let elements =
            integer_field(line, after_median, "elements").and_then(|(v, _)| u64::try_from(v).ok());
        // Advance past this record: max_ns always follows median_ns, so
        // the next "name" find starts beyond the current record's
        // numeric fields (elements may belong to the next record if
        // this one lacked it — hence the re-anchor on max_ns).
        let (_, after_max) = integer_field(line, after_median, "max_ns")?;
        entries.push(RunEntry {
            name,
            median_ns,
            elements,
        });
        cursor = after_max;
    }
    Some(entries)
}

/// Median of a sorted slice (upper median for even lengths, matching
/// the vendored criterion's sample median).
fn median_sorted(sorted: &[u128]) -> u128 {
    sorted[sorted.len() / 2]
}

/// Aggregates parsed runs into per-benchmark medians of medians.
///
/// Benchmarks are ordered by first appearance across runs; a benchmark
/// missing from some runs aggregates over the runs that have it.
pub fn aggregate(runs: &[Vec<RunEntry>]) -> Vec<Aggregate> {
    let mut order: Vec<String> = Vec::new();
    for run in runs {
        for entry in run {
            if !order.contains(&entry.name) {
                order.push(entry.name.clone());
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let mut medians: Vec<u128> = Vec::new();
            let mut elements = None;
            for run in runs {
                for entry in run {
                    if entry.name == name {
                        medians.push(entry.median_ns);
                        if entry.elements.is_some() {
                            elements = entry.elements;
                        }
                    }
                }
            }
            medians.sort_unstable();
            Aggregate {
                name,
                median_ns: median_sorted(&medians),
                min_run_median_ns: medians[0],
                max_run_median_ns: medians[medians.len() - 1],
                runs: medians.len(),
                elements,
            }
        })
        .collect()
}

/// Renders aggregates as a `BENCH_*.json`-style document.
///
/// `bench` and `note` are free-form context fields recorded alongside
/// the numbers (capture date, host, protocol pointer).
pub fn render(bench: &str, note: &str, aggregates: &[Aggregate]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(" \"bench\": \"{bench}\",\n"));
    out.push_str(&format!(" \"note\": \"{note}\",\n"));
    out.push_str(" \"protocol\": \"median of per-run medians; see crates/bench/README.md\",\n");
    out.push_str(" \"benchmarks\": [\n");
    for (i, a) in aggregates.iter().enumerate() {
        let melem = a.elements.map(|n| {
            if a.median_ns > 0 {
                n as f64 * 1e3 / a.median_ns as f64
            } else {
                0.0
            }
        });
        out.push_str("  {\n");
        out.push_str(&format!("   \"name\": \"{}\",\n", a.name));
        out.push_str(&format!("   \"median_ns\": {},\n", a.median_ns));
        out.push_str(&format!(
            "   \"min_run_median_ns\": {},\n",
            a.min_run_median_ns
        ));
        out.push_str(&format!(
            "   \"max_run_median_ns\": {},\n",
            a.max_run_median_ns
        ));
        out.push_str(&format!("   \"runs\": {},\n", a.runs));
        match (a.elements, melem) {
            (Some(n), Some(rate)) => {
                out.push_str(&format!("   \"elements\": {n},\n"));
                out.push_str(&format!("   \"melem_per_s\": {rate:.4}\n"));
            }
            _ => {
                out.push_str("   \"elements\": null,\n");
                out.push_str("   \"melem_per_s\": null\n");
            }
        }
        out.push_str(if i + 1 == aggregates.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push_str(" ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"benchmarks\":[{\"name\":\"update/basic/2\",\"median_ns\":1500,\"min_ns\":1400,\"max_ns\":1600,\"elements\":20000,\"melem_per_s\":13.3},{\"name\":\"update/basic_per_update/2\",\"median_ns\":1700,\"min_ns\":1650,\"max_ns\":1800,\"elements\":null,\"melem_per_s\":null}]}";

    #[test]
    fn parses_export_line() {
        let entries = parse_run_line(LINE).expect("valid export line");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "update/basic/2");
        assert_eq!(entries[0].median_ns, 1500);
        assert_eq!(entries[0].elements, Some(20000));
        assert_eq!(entries[1].name, "update/basic_per_update/2");
        assert_eq!(entries[1].median_ns, 1700);
        assert_eq!(entries[1].elements, None);
    }

    #[test]
    fn rejects_foreign_lines() {
        assert_eq!(parse_run_line(""), None);
        assert_eq!(parse_run_line("not json"), None);
        assert_eq!(parse_run_line("{\"other\":1}"), None);
    }

    #[test]
    fn parses_escaped_names() {
        let line = "{\"benchmarks\":[{\"name\":\"g\\\"x\",\"median_ns\":5,\"min_ns\":4,\"max_ns\":6,\"elements\":null,\"melem_per_s\":null}]}";
        let entries = parse_run_line(line).expect("valid");
        assert_eq!(entries[0].name, "g\"x");
    }

    #[test]
    fn aggregates_median_of_medians() {
        let runs: Vec<Vec<RunEntry>> = [3000u128, 1000, 2000]
            .iter()
            .map(|&m| {
                vec![RunEntry {
                    name: "a".into(),
                    median_ns: m,
                    elements: Some(10),
                }]
            })
            .collect();
        let agg = aggregate(&runs);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].median_ns, 2000, "median across runs, not mean");
        assert_eq!(agg[0].min_run_median_ns, 1000);
        assert_eq!(agg[0].max_run_median_ns, 3000);
        assert_eq!(agg[0].runs, 3);
        assert_eq!(agg[0].elements, Some(10));
    }

    #[test]
    fn aggregate_handles_missing_benchmarks_per_run() {
        let runs = vec![
            vec![
                RunEntry {
                    name: "a".into(),
                    median_ns: 10,
                    elements: None,
                },
                RunEntry {
                    name: "b".into(),
                    median_ns: 100,
                    elements: None,
                },
            ],
            vec![RunEntry {
                name: "a".into(),
                median_ns: 20,
                elements: None,
            }],
        ];
        let agg = aggregate(&runs);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].runs, 2);
        assert_eq!(agg[1].runs, 1);
        assert_eq!(agg[1].median_ns, 100);
    }

    #[test]
    fn round_trips_through_render() {
        let runs = vec![parse_run_line(LINE).expect("valid")];
        let doc = render("update_throughput", "test capture", &aggregate(&runs));
        assert!(doc.contains("\"name\": \"update/basic/2\""));
        assert!(doc.contains("\"median_ns\": 1500"));
        assert!(doc.contains("\"runs\": 1"));
        assert!(doc.contains("median of per-run medians"));
        assert!(doc.ends_with("}\n"));
    }
}
