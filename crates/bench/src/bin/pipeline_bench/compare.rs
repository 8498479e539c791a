//! `pipeline_bench compare PARENT CHANGE`: one verdict per
//! (end-to-end metric, workload) between two capture files.
//!
//! A capture file holds one JSON line per benchmark process (`--out`
//! appends). Each line's reported value is one sample, and line `i` of
//! one file pairs with line `i` of the other: run parent and change in
//! turn, alternating which goes first, each appending to its own file.
//! Both files must hold the same number of lines, at least
//! [`MIN_PAIRS`]. The timed runs inside one process are not pairs and
//! are never compared: two processes run one after the other can
//! differ by the host's drift alone.
//!
//! The bounds and directions come from `BENCHMARK.json`. A metric's
//! tolerance is its bound times the parent's median, and never less
//! than the metric's floor in [`FLOORS`]. A row is
//! * **improved** when the change wins at least nine tenths of the
//!   pairs (ties count for neither side) and the medians differ by more
//!   than the parent's quartile spread;
//! * **unresolved** when either side's quartile spread is wider than
//!   the tolerance, unless every change sample beats every parent
//!   sample;
//! * **regressed** when the change's median is worse than the parent's
//!   by more than the tolerance;
//! * **unchanged** otherwise.

use std::fs;

use crate::json::{self, Value};
use crate::stats::Summary;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Process pairs a comparison needs.
const MIN_PAIRS: usize = 10;

/// Absolute floors under a metric's share bound, which `BENCHMARK.json`
/// has no field for. `setup_s` is about 50 µs on three workloads and
/// moves by a fifth between processes; a set-up regression matters only
/// once it reaches milliseconds.
const FLOORS: [(&str, f64); 1] = [("setup_s", 2e-3)];

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    parent: Summary,
    change: Summary,
    /// The wider of the two sides' quartile spreads, as a share of the
    /// parent's median.
    spread: f64,
    /// Pairs the change won.
    wins: usize,
    verdict: Verdict,
}

/// Compares `change` against `parent`, sample `i` of each side from the
/// `i`th pair of processes, for a metric that may worsen by `bound` (a
/// share of the parent's median) or `floor` (absolute), whichever is
/// larger.
pub fn classify(
    parent: &[f64],
    change: &[f64],
    bound: f64,
    floor: f64,
    higher_is_better: bool,
) -> Row {
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let better = |a: f64, b: f64| sign * (a - b) > 0.0;
    let p = Summary::of(parent);
    let c = Summary::of(change);
    let tolerance = (bound * p.median.abs()).max(floor);
    let widest = (p.q3 - p.q1).max(c.q3 - c.q1);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    let every_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && sign * (c.median - p.median) > p.q3 - p.q1
    {
        Verdict::Improved
    } else if widest > tolerance && !every_better {
        Verdict::Unresolved
    } else if sign * (p.median - c.median) > tolerance {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Row {
        parent: p,
        change: c,
        spread: widest / p.median.abs().max(f64::MIN_POSITIVE),
        wins,
        verdict,
    }
}

/// One end-to-end metric from `BENCHMARK.json`.
struct Bound {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn read_json_lines(path: &str) -> Result<Vec<Value>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| format!("{path}: metric without {key}"))
            };
            Ok(Bound {
                name: field("name")?.str().unwrap_or_default().to_string(),
                bound: field("bound")?.num().unwrap_or(0.0),
                higher_is_better: field("better")?.str() == Some("higher"),
            })
        })
        .collect()
}

/// The reported value of `metric` on `workload` in each capture.
fn samples(captures: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    captures
        .iter()
        .filter_map(|capture| {
            capture
                .get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .num()
        })
        .collect()
}

/// Runs the subcommand; returns the process exit code (1 when any row
/// regressed).
pub fn run(argv: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.clone().next()) {
            ("--benchmark", Some(path)) => {
                benchmark = path.clone();
                it.next();
            }
            _ => files.push(arg.clone()),
        }
    }
    let [parent, change] = files.as_slice() else {
        eprintln!("usage: pipeline_bench compare PARENT CHANGE [--benchmark BENCHMARK.json]");
        return 2;
    };
    let loaded = read_bounds(&benchmark)
        .and_then(|bounds| Ok((bounds, read_json_lines(parent)?, read_json_lines(change)?)));
    let (bounds, parent_lines, change_lines) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("pipeline_bench compare: {e}");
            return 2;
        }
    };
    if parent_lines.len() != change_lines.len() || parent_lines.len() < MIN_PAIRS {
        eprintln!(
            "pipeline_bench compare: {parent} and {change} hold {} and {} capture lines; \
             each needs one line per process of at least {MIN_PAIRS} alternating pairs",
            parent_lines.len(),
            change_lines.len()
        );
        return 2;
    }
    let workloads: Vec<String> = parent_lines
        .first()
        .and_then(|c| c.get("workloads"))
        .map(|w| w.members().iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default();
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>8} {:>8} {:>6} {:>7}  verdict",
        "metric", "workload", "parent", "change", "delta", "spread", "bound", "wins"
    );
    let mut regressed = false;
    for bound in &bounds {
        for workload in &workloads {
            let p = samples(&parent_lines, workload, &bound.name);
            let c = samples(&change_lines, workload, &bound.name);
            if p.len() != parent_lines.len() || c.len() != change_lines.len() {
                println!("{:<16} {:<14} missing", bound.name, workload);
                continue;
            }
            let floor = FLOORS
                .iter()
                .find(|(name, _)| *name == bound.name)
                .map_or(0.0, |&(_, floor)| floor);
            let row = classify(&p, &c, bound.bound, floor, bound.higher_is_better);
            regressed |= row.verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>5.1}% {:>3}/{:<3}  {:?}",
                bound.name,
                workload,
                row.parent.median,
                row.change.median,
                (row.change.median / row.parent.median - 1.0) * 100.0,
                row.spread * 100.0,
                bound.bound * 100.0,
                row.wins,
                p.len(),
                row.verdict
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(parent: &[f64], change: &[f64], bound: f64, higher: bool) -> Verdict {
        classify(parent, change, bound, 0.0, higher).verdict
    }

    #[test]
    fn verdicts_follow_the_pairs_rule_and_the_bound() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let same: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        assert_eq!(verdict(&parent, &faster, 0.1, true), Verdict::Improved);
        assert_eq!(verdict(&parent, &slower, 0.1, true), Verdict::Regressed);
        assert_eq!(verdict(&parent, &same, 0.1, true), Verdict::Unchanged);
        // Lower is better: the same numbers read the other way.
        assert_eq!(verdict(&parent, &slower, 0.1, false), Verdict::Improved);
        // Three pairs cannot show a gain, and a wide spread is unresolved.
        assert_eq!(
            verdict(&parent[..3], &faster[..3], 0.1, true),
            Verdict::Unchanged
        );
        let noisy = [50.0, 100.0, 150.0, 100.0, 60.0];
        assert_eq!(verdict(&noisy, &noisy, 0.1, true), Verdict::Unresolved);
    }

    #[test]
    fn a_floor_absorbs_small_absolute_changes() {
        // 50 µs set-up times doubling: past a 25% bound, inside 2 ms.
        let parent = [50e-6, 52e-6, 48e-6, 51e-6, 49e-6];
        let doubled: Vec<f64> = parent.iter().map(|p| p * 2.0).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p + 3e-3).collect();
        let setup = |change: &[f64], floor| classify(&parent, change, 0.25, floor, false).verdict;
        assert_eq!(setup(&doubled, 0.0), Verdict::Regressed);
        assert_eq!(setup(&doubled, 2e-3), Verdict::Unchanged);
        assert_eq!(setup(&slower, 2e-3), Verdict::Regressed);
    }
}
