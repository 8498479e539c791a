//! CI performance gate: every fast path production runs must keep its
//! margin over the reference it replaced.
//!
//! One harness, one table. Each [`Row`] names a candidate (the path
//! production runs) and a reference, a parameter sweep, a bound, a rep
//! count and an optional core-count skip rule. At each sweep point the
//! row builds its state once, then [`alternate`] times the candidate
//! and the reference rep by rep and keeps each side's **minimum**. The
//! minimum estimates the code's uncontended cost on a noisy shared
//! host, since interference only ever adds time, and alternating rep
//! by rep exposes both sides to the same allocator, cache and
//! frequency state. The bench README tables the rows and the
//! production path each candidate runs.
//!
//! Prints one line per row and sweep point, and exits 1 if any fails:
//!
//! ```text
//! cargo run --release -p dcs-bench --bin perf_guard
//! ```

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

use dcs_core::{DistinctCountSketch, FlowUpdate, SketchConfig};
use dcs_netsim::sharded::ShardedIngest;
use dcs_netsim::{EpochWindow, WindowPolicy};
use dcs_streamgen::{PaperWorkload, WorkloadConfig};

/// The pass condition on a row's two minimum times.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// The candidate's best time is at most this multiple of the
    /// reference's: a fast path must not regress past its reference.
    AtMost(f64),
    /// The reference's best time is at least this multiple of the
    /// candidate's: a fast path must keep a required speedup.
    SpeedupAtLeast(f64),
}

impl Bound {
    /// The ratio this bound judges, and whether it passes: candidate
    /// over reference for [`AtMost`](Self::AtMost), reference over
    /// candidate for [`SpeedupAtLeast`](Self::SpeedupAtLeast). Both
    /// pass at exactly the bound.
    fn verdict(self, candidate_min: f64, reference_min: f64) -> (f64, bool) {
        match self {
            Self::AtMost(factor) => {
                let ratio = candidate_min / reference_min;
                (ratio, ratio <= factor)
            }
            Self::SpeedupAtLeast(factor) => {
                let speedup = reference_min / candidate_min;
                (speedup, speedup >= factor)
            }
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AtMost(factor) => write!(f, "ratio ≤ {factor:.2}"),
            Self::SpeedupAtLeast(factor) => write!(f, "speedup ≥ {factor:.2}x"),
        }
    }
}

/// One side's rep times, in seconds.
struct Stats {
    min: f64,
    mean: f64,
}

/// One gate: a candidate timed against a reference at each sweep point.
struct Row {
    name: &'static str,
    /// The swept parameter's name, as printed.
    param: &'static str,
    sweep: &'static [usize],
    candidate: &'static str,
    reference: &'static str,
    bound: Bound,
    reps: usize,
    /// Skip the row, saying so, on hosts with fewer cores than this:
    /// there the bound is physically unattainable and a pass would be
    /// a lie.
    min_cores: Option<usize>,
    /// Builds the row's state at one sweep point, then returns
    /// [`alternate`]'s `[candidate, reference]` stats over `reps`.
    time: fn(param: usize, reps: usize) -> [Stats; 2],
}

/// A fast path's best time may exceed its reference's by at most 10%.
const SLACK: Bound = Bound::AtMost(1.10);

const ROWS: &[Row] = &[
    Row {
        name: "batch",
        param: "r",
        sweep: &[2, 3, 4],
        candidate: "update_batch",
        reference: "per-update",
        bound: SLACK,
        reps: 30,
        min_cores: None,
        time: batch,
    },
    Row {
        name: "read/singletons",
        param: "r",
        sweep: &[2, 3, 4],
        candidate: "wide",
        reference: "scalar",
        bound: SLACK,
        reps: 30,
        min_cores: None,
        time: |r, reps| {
            read(
                r,
                reps,
                |a, _| a.singletons(),
                |a, _| a.singletons_reference(),
            )
        },
    },
    Row {
        name: "read/occupancy",
        param: "r",
        sweep: &[2, 3, 4],
        candidate: "wide",
        reference: "scalar",
        bound: SLACK,
        reps: 30,
        min_cores: None,
        time: |r, reps| {
            read(
                r,
                reps,
                |a, _| {
                    for level in 0..a.config().max_levels() {
                        black_box(a.level_occupancy(level));
                    }
                },
                |a, _| {
                    for level in 0..a.config().max_levels() {
                        black_box(a.level_occupancy_reference(level));
                    }
                },
            )
        },
    },
    Row {
        name: "read/merge",
        param: "r",
        sweep: &[2, 3, 4],
        candidate: "wide",
        reference: "scalar",
        bound: SLACK,
        reps: 30,
        min_cores: None,
        time: |r, reps| {
            read(
                r,
                reps,
                |a, b| {
                    let mut m = a.clone();
                    m.merge_from(b).expect("compatible");
                    m
                },
                |a, b| {
                    let mut m = a.clone();
                    m.merge_from_reference(b).expect("compatible");
                    m
                },
            )
        },
    },
    Row {
        name: "read/difference",
        param: "r",
        sweep: &[2, 3, 4],
        candidate: "wide",
        reference: "scalar",
        bound: SLACK,
        reps: 30,
        min_cores: None,
        time: |r, reps| {
            read(
                r,
                reps,
                |a, b| a.difference(b).expect("compatible"),
                |a, b| a.difference_reference(b).expect("compatible"),
            )
        },
    },
    Row {
        name: "window",
        param: "n",
        sweep: &[8, 16],
        candidate: "advance",
        reference: "recompute",
        bound: Bound::SpeedupAtLeast(2.0),
        reps: 30,
        min_cores: None,
        time: window_slide,
    },
    Row {
        name: "scaling",
        param: "shards",
        sweep: &[4],
        candidate: "sharded",
        reference: "direct",
        bound: Bound::SpeedupAtLeast(1.5),
        reps: 15,
        min_cores: Some(4),
        time: scaling,
    },
];

/// Times `candidate` and `reference` alternately for `reps` reps over
/// shared `state`, running `prepare` untimed before each candidate rep.
/// A side's return value is dropped outside its timed region; `state`
/// passes through [`black_box`] after every rep, so work whose only
/// effect is on the state is not optimized away.
fn alternate<S, A, B>(
    reps: usize,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut candidate: impl FnMut(&mut S) -> A,
    mut reference: impl FnMut(&mut S) -> B,
) -> [Stats; 2] {
    let mut best = [f64::MAX; 2];
    let mut sum = [0.0; 2];
    let mut record = |side: usize, start: Instant| {
        let elapsed = start.elapsed().as_secs_f64();
        best[side] = best[side].min(elapsed);
        sum[side] += elapsed;
    };
    for _ in 0..reps {
        prepare(state);
        let start = Instant::now();
        let out = candidate(state);
        record(0, start);
        black_box(out);
        black_box(&mut *state);

        let start = Instant::now();
        let out = reference(state);
        record(1, start);
        black_box(out);
        black_box(&mut *state);
    }
    let reps = reps as f64;
    [0, 1].map(|side| Stats {
        min: best[side],
        mean: sum[side] / reps,
    })
}

fn workload(distinct_pairs: u64, num_destinations: u32, seed: u64) -> Vec<FlowUpdate> {
    PaperWorkload::generate(WorkloadConfig {
        distinct_pairs,
        num_destinations,
        skew: 1.0,
        seed,
    })
    .into_updates()
}

fn tables(r: usize) -> SketchConfig {
    SketchConfig::builder()
        .num_tables(r)
        .seed(1)
        .build()
        .expect("valid benchmark config")
}

/// `update_batch` against the per-update loop it replaced, each into
/// its own long-lived sketch: level-arena allocation happens once per
/// side, so no rep times glibc (the bench README's steady state).
fn batch(r: usize, reps: usize) -> [Stats; 2] {
    let updates = workload(20_000, 1_000, 42);
    let mut sketches = [(); 2].map(|()| DistinctCountSketch::new(tables(r)));
    alternate(
        reps,
        &mut sketches,
        |_| {},
        |[batched, _]| batched.update_batch(&updates),
        |[_, looped]| {
            for update in &updates {
                looped.update(*update);
            }
        },
    )
}

/// A wide read path against its retained scalar twin. Both read the
/// same two long-lived sketches, built by the per-update path from
/// workload seeds 10 and 20; each side's result is dropped inside its
/// timed region.
fn read<A, B>(
    r: usize,
    reps: usize,
    wide: impl Fn(&DistinctCountSketch, &DistinctCountSketch) -> A,
    scalar: impl Fn(&DistinctCountSketch, &DistinctCountSketch) -> B,
) -> [Stats; 2] {
    let [a, b] = [10, 20].map(|seed| {
        let mut sketch = DistinctCountSketch::new(tables(r));
        for update in &workload(20_000, 1_000, seed) {
            sketch.update(*update);
        }
        sketch
    });
    alternate(
        reps,
        &mut (),
        |_| {},
        |_| drop(black_box(wide(&a, &b))),
        |_| drop(black_box(scalar(&a, &b))),
    )
}

/// One epoch of the window row: 5 000 distinct pairs.
fn epoch(seed: u64) -> Vec<FlowUpdate> {
    workload(5_000, 200, seed)
}

/// The windowed `Monitor`'s slide, `EpochWindow::advance` (one fused
/// `slide_epoch` pass), against the O(N) recompute of the ring it
/// keeps summed. The ring is filled to capacity first, so every timed
/// advance reuses the expiring delta's storage; each rep's fresh epoch
/// is ingested into the cumulative sketch untimed.
fn window_slide(epochs: usize, reps: usize) -> [Stats; 2] {
    let config = SketchConfig::builder().seed(1).build().expect("valid");
    let policy = WindowPolicy::Sliding { epochs };
    let mut state = (
        DistinctCountSketch::new(config.clone()),
        EpochWindow::new(config, policy).expect("valid policy"),
        900u64,
    );
    let (cumulative, window, _) = &mut state;
    for seed in 100..100 + epochs as u64 {
        cumulative.update_batch(&epoch(seed));
        window.advance(cumulative).expect("compatible");
    }
    alternate(
        reps,
        &mut state,
        |(cumulative, _, seed)| {
            cumulative.update_batch(&epoch(*seed));
            *seed += 1;
        },
        |(cumulative, window, _)| window.advance(cumulative).expect("compatible"),
        |(_, window, _)| {
            black_box(window.window().recompute().expect("compatible"));
        },
    )
}

/// A long-lived sharded engine (ingest, then `merged`: flush, merge
/// every shard and rebuild the tracking view) against direct
/// `update_batch` into one long-lived sketch: reps time ingest, not
/// thread spawns or arena growth.
fn scaling(shards: usize, reps: usize) -> [Stats; 2] {
    let updates = workload(200_000, 1_000, 17);
    let config = SketchConfig::builder()
        .seed(17)
        .build()
        .expect("valid benchmark config");
    let mut state = (
        ShardedIngest::new(config.clone(), shards),
        DistinctCountSketch::new(config),
    );
    alternate(
        reps,
        &mut state,
        |_| {},
        |(engine, _)| {
            engine.ingest(&updates);
            engine.merged().expect("shards share one config")
        },
        |(_, direct)| direct.update_batch(&updates),
    )
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut failed = false;
    println!("perf_guard: min of alternating reps per row, {cores} core(s)");
    for row in ROWS {
        if let Some(need) = row.min_cores.filter(|&need| cores < need) {
            println!(
                "{}: SKIP — {cores} core(s) available, need ≥{need} for a {} gate to be attainable",
                row.name, row.bound
            );
            continue;
        }
        for &param in row.sweep {
            let [candidate, reference] = (row.time)(param, row.reps);
            let (ratio, ok) = row.bound.verdict(candidate.min, reference.min);
            println!(
                "{} {}={param}: {} min {:.3} mean {:.3} ms, {} min {:.3} mean {:.3} ms, {ratio:.3} ({}, {} reps) [{}]",
                row.name,
                row.param,
                row.candidate,
                candidate.min * 1e3,
                candidate.mean * 1e3,
                row.reference,
                reference.min * 1e3,
                reference.mean * 1e3,
                row.bound,
                row.reps,
                if ok { "ok" } else { "FAIL" },
            );
            failed |= !ok;
        }
    }
    if failed {
        eprintln!("perf_guard: a candidate path lost its margin over its reference");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loosening a gate must edit this table.
    #[test]
    fn gate_table_is_pinned() {
        let table: Vec<_> = ROWS
            .iter()
            .map(|row| (row.name, row.sweep, row.bound, row.reps, row.min_cores))
            .collect();
        let r: &[usize] = &[2, 3, 4];
        assert_eq!(
            table,
            [
                ("batch", r, Bound::AtMost(1.10), 30, None),
                ("read/singletons", r, Bound::AtMost(1.10), 30, None),
                ("read/occupancy", r, Bound::AtMost(1.10), 30, None),
                ("read/merge", r, Bound::AtMost(1.10), 30, None),
                ("read/difference", r, Bound::AtMost(1.10), 30, None),
                ("window", &[8, 16][..], Bound::SpeedupAtLeast(2.0), 30, None),
                ("scaling", &[4][..], Bound::SpeedupAtLeast(1.5), 15, Some(4)),
            ]
        );
    }

    #[test]
    fn verdict_judges_both_directions_inclusively() {
        let slack = Bound::AtMost(1.10);
        assert_eq!(slack.verdict(1.0, 1.0), (1.0, true));
        assert_eq!(slack.verdict(11.0, 10.0), (1.1, true));
        assert!(!slack.verdict(11.000_001, 10.0).1);
        assert!(slack.verdict(0.5, 1.0).1);

        let window = Bound::SpeedupAtLeast(2.0);
        assert_eq!(window.verdict(1.0, 2.0), (2.0, true));
        assert!(window.verdict(1.0, 9.7).1);
        assert!(!window.verdict(1.0, 1.999_999).1);
        assert!(!window.verdict(2.0, 1.0).1);

        let scaling = Bound::SpeedupAtLeast(1.5);
        assert_eq!(scaling.verdict(2.0, 3.0), (1.5, true));
        assert!(!scaling.verdict(2.0, 2.999_999).1);
        assert!(!scaling.verdict(1.0, 1.0).1);
    }
}
