//! Packets-to-alarms benchmark: how fast `run_pipeline` turns TCP
//! segments into alarms, and which layer limits it.
//!
//! For each workload the benchmark generates the router feed from the
//! seed, outside every timer, and then measures in two modes:
//!
//! * **untraced** (`--trace 0`): `run_pipeline` called from outside
//!   with tracing off gives the end-to-end metrics;
//! * **traced** (`--trace 1`): the pipeline recomposed on one thread
//!   from the layers' public functions (`replay.rs`), with a span
//!   around each call, gives the per-layer metrics.
//!
//! Every run's alarms and update count must equal the traced replay's,
//! and its alarms must name the injected victim and nothing else; a run
//! that does not is counted as failed. The last line of standard output
//! is one JSON object with the run's verdict and metrics.
//!
//! ```text
//! cargo run --release --offline -p dcs-bench --bin pipeline_bench -- \
//!   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! pipeline_bench compare PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! See `README.md` beside this file for the metric catalogue and the
//! run protocol.

mod compare;
mod json;
mod replay;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dcs_netsim::{run_pipeline, Alarm, PipelineConfig, TcpSegment};

use crate::replay::{replay, Replayed};
use crate::stats::{percentile, Summary};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{Spec, Workload, VICTIM, WORKLOADS};

const USAGE: &str = "usage: pipeline_bench [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--out FILE]\n       pipeline_bench compare PARENT CHANGE \
[--benchmark BENCHMARK.json]\nworkloads: flood_direct, flood_sharded, pulse_sliding, restart_ckpt";

/// Timed runs each untraced measurement makes at least.
const MIN_RUNS: usize = 5;
/// Empty-feed runs behind each `setup_s` median: at least the first,
/// then more while [`SETUP_BUDGET_S`] lasts, up to the second.
const SETUP_RUNS: (usize, usize) = (9, 5_000);
const SETUP_BUDGET_S: f64 = 1.0;
/// The traced measurement stops after this many multiples of
/// `--seconds` even if a pooled percentile is still short of samples.
const TRACE_OVERRUN: f64 = 3.0;
/// Metrics with more run samples than this are captured as a summary.
const CAPTURE_SAMPLES: usize = 200;
/// Scratch directory for checkpoint and telemetry files, under the
/// working directory.
const SCRATCH_ROOT: &str = ".pipeline_bench";

/// Which measurements to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    EndToEnd,
    Layers,
    Both,
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    quick: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            workloads: WORKLOADS.to_vec(),
            seed: 7,
            seconds: 10.0,
            mode: Mode::Both,
            quick: false,
            out: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                args.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    args.workloads =
                        vec![Workload::from_name(value).ok_or_else(|| bad("a workload name"))?];
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?;
                }
                "--trace" => {
                    args.mode = match value.as_str() {
                        "0" => Mode::EndToEnd,
                        "1" => Mode::Layers,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                "--out" => args.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().is_some_and(|a| a == "compare") {
        compare::run(&argv[1..])
    } else {
        match Args::parse(&argv) {
            Ok(args) => bench(&args),
            Err(e) => {
                eprintln!("pipeline_bench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// One reported metric: its run samples, their summary, and the
/// reported value.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Summary,
    samples: Vec<f64>,
    /// Set when a pooled percentile had too few samples beyond it.
    refused: bool,
}

impl Metric {
    /// Reports the median of `samples`.
    fn of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        let summary = Summary::of(&samples);
        Self {
            name,
            unit,
            value: summary.median,
            summary,
            samples,
            refused: false,
        }
    }

    /// Reports the largest of `samples`.
    fn best(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            value: samples.iter().copied().fold(0.0, f64::max),
            ..Self::of(name, unit, samples)
        }
    }
}

/// One workload's results.
#[derive(Debug)]
struct Outcome {
    workload: Workload,
    segments: u64,
    updates: u64,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    /// Layer → share of the traced replay's wall time.
    shares: Vec<(&'static str, f64)>,
}

/// End-to-end metrics that go into the JSON result (the others are
/// printed, and enforced through `failed`).
const E2E_REPORTED: [&str; 3] = ["segments_per_s", "setup_s", "state_bytes"];

fn bench(args: &Args) -> i32 {
    let scratch_root = Path::new(SCRATCH_ROOT);
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let scratch = scratch_root.join(format!("{}-{}", workload.name(), std::process::id()));
        let outcome = measure(workload, args, &scratch);
        let _ = fs::remove_dir_all(&scratch);
        print_outcome(&outcome, args);
        outcomes.push(outcome);
    }
    // Only removes the root when no other run is using it.
    let _ = fs::remove_dir(scratch_root);
    if let Some(path) = &args.out {
        if let Err(e) = append_capture(path, args, &outcomes) {
            eprintln!("pipeline_bench: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", result_line(&outcomes));
    0
}

/// Generates the workload's feed and runs the requested measurements.
fn measure(workload: Workload, args: &Args, scratch: &Path) -> Outcome {
    let spec = workload.spec(args.quick);
    let config = spec.config_in(scratch);
    // Set-up runs first, while the heap is fresh: once the feeds and
    // replays have come and gone, allocator state alone moved the
    // median of these ~50 µs runs by up to 3x between processes.
    let setup =
        (args.mode != Mode::Layers).then(|| setup_times(&spec, args.seed, &config, scratch));
    let feeds = spec.feeds(args.seed);
    let mut outcome = Outcome {
        workload,
        segments: feeds.iter().map(|f| f.len() as u64).sum(),
        updates: 0,
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        layers: Vec::new(),
        shares: Vec::new(),
    };
    let min_runs = if args.quick { 2 } else { MIN_RUNS };
    if let Some(setup) = setup {
        end_to_end(
            &feeds,
            &config,
            scratch,
            args.seconds,
            min_runs,
            setup,
            &mut outcome,
        );
    }
    if args.mode != Mode::EndToEnd {
        layers(&feeds, &config, scratch, args.seconds, &mut outcome);
    }
    outcome
}

/// Empties the scratch directory, so the first phase starts without a
/// checkpoint.
fn reset(scratch: &Path) {
    let _ = fs::remove_dir_all(scratch);
    fs::create_dir_all(scratch).expect("scratch directory can be created");
}

/// One `run_pipeline` call per phase.
#[derive(Debug)]
struct PipelineRun {
    /// Wall seconds inside `run_pipeline`, summed over phases.
    wall: f64,
    alarms: Vec<Alarm>,
    updates: u64,
    segments: u64,
    restored: Vec<bool>,
    state_bytes: usize,
}

fn run_phases(feeds: Vec<Vec<TcpSegment>>, config: &PipelineConfig) -> PipelineRun {
    let mut run = PipelineRun {
        wall: 0.0,
        alarms: Vec::new(),
        updates: 0,
        segments: 0,
        restored: Vec::new(),
        state_bytes: 0,
    };
    for feed in feeds {
        let config = config.clone();
        let started = Instant::now();
        let report = run_pipeline(vec![feed], config);
        run.wall += started.elapsed().as_secs_f64();
        run.alarms.extend(report.alarms);
        run.updates += report.updates_ingested;
        run.segments += report.segments_observed;
        run.restored.push(report.restored_from_checkpoint);
        run.state_bytes = report.monitor.sketch().heap_bytes();
    }
    run
}

/// A fresh copy of the feeds (made outside the timer), a clean scratch
/// directory, and one pipeline run; `None` if the run panicked.
fn pipeline_run(
    feeds: &[Vec<TcpSegment>],
    config: &PipelineConfig,
    scratch: &Path,
) -> Option<PipelineRun> {
    reset(scratch);
    let feeds = feeds.to_vec();
    panic::catch_unwind(AssertUnwindSafe(|| run_phases(feeds, config))).ok()
}

/// Checks a pipeline run against the traced replay of the same feed
/// and against the injected attack.
fn check(run: &PipelineRun, reference: &Replayed, phases: usize) -> Result<(), String> {
    if run.updates != reference.updates {
        return Err(format!(
            "updates_ingested {} differs from the traced replay's {}",
            run.updates, reference.updates
        ));
    }
    if run.segments != reference.segments {
        return Err(format!(
            "segments_observed {} differs from the traced replay's {}",
            run.segments, reference.segments
        ));
    }
    if run.alarms != reference.alarms {
        return Err("the alarm list differs from the traced replay's".into());
    }
    let expect_restored: Vec<bool> = (0..phases).map(|phase| phase > 0).collect();
    if run.restored != expect_restored {
        return Err(format!(
            "restored_from_checkpoint per phase is {:?}, expected {expect_restored:?}",
            run.restored
        ));
    }
    if !run.alarms.iter().any(|a| a.dest == VICTIM) {
        return Err("missed the victim".into());
    }
    let false_alarms = false_alarm_dests(&run.alarms);
    if !false_alarms.is_empty() {
        return Err(format!(
            "destinations other than the victim alarmed: {false_alarms:08x?}"
        ));
    }
    Ok(())
}

fn false_alarm_dests(alarms: &[Alarm]) -> Vec<u32> {
    let mut dests: Vec<u32> = alarms
        .iter()
        .map(|a| a.dest)
        .filter(|&d| d != VICTIM)
        .collect();
    dests.sort_unstable();
    dests.dedup();
    dests
}

/// Counts one attempted run and reports a failed one.
fn tally(outcome: &mut Outcome, verdict: Result<(), String>) {
    outcome.attempted += 1;
    if let Err(e) = verdict {
        outcome.failed += 1;
        eprintln!(
            "{}: run {} failed: {e}",
            outcome.workload.name(),
            outcome.attempted
        );
    }
}

/// The untraced measurement: timed `run_pipeline` runs for `seconds`,
/// reported with the `setup` times measured before.
fn end_to_end(
    feeds: &[Vec<TcpSegment>],
    config: &PipelineConfig,
    scratch: &Path,
    seconds: f64,
    min_runs: usize,
    setup: Vec<f64>,
    outcome: &mut Outcome,
) {
    reset(scratch);
    let reference = replay(feeds, config, &mut Tracer::on());
    outcome.updates = reference.updates;
    let _warm_up = pipeline_run(feeds, config, scratch);

    let mut rates = Vec::new();
    let mut state_bytes = Vec::new();
    let started = Instant::now();
    while outcome.attempted < min_runs || started.elapsed().as_secs_f64() < seconds {
        let verdict = match pipeline_run(feeds, config, scratch) {
            Some(run) => check(&run, &reference, feeds.len()).map(|()| {
                rates.push(run.segments as f64 / run.wall);
                state_bytes.push(run.state_bytes as f64);
            }),
            None => Err("run_pipeline panicked".into()),
        };
        tally(outcome, verdict);
    }
    outcome.end_to_end = vec![
        // The fastest run, not the median: on a 2-vCPU host the runs of
        // the two-thread pipeline come in slow and fast stretches, and
        // how many runs of a process fall in slow ones moves its median
        // more than its fastest run (README.md, "Why the fastest run").
        Metric::best("segments_per_s", "seg/s", rates),
        Metric::of("setup_s", "s", setup),
        Metric::of("state_bytes", "B", state_bytes),
        Metric::of(
            "detect_delay_updates",
            "updates",
            reference
                .detect_delay()
                .map_or_else(Vec::new, |d| vec![d as f64]),
        ),
        Metric::of(
            "false_alarm_dests",
            "count",
            vec![false_alarm_dests(&reference.alarms).len() as f64],
        ),
        Metric::of(
            "failed_frac",
            "ratio",
            vec![outcome.failed as f64 / outcome.attempted.max(1) as f64],
        ),
    ];
}

/// Wall seconds of `run_pipeline` on an empty feed with the workload's
/// configuration. A split workload first leaves its first phase's
/// checkpoint behind, so each empty run decodes and restores it, as a
/// restart does.
fn setup_times(spec: &Spec, seed: u64, config: &PipelineConfig, scratch: &Path) -> Vec<f64> {
    reset(scratch);
    let restarts = spec.phases > 1;
    if restarts {
        let first = spec.feeds(seed).swap_remove(0);
        run_pipeline(vec![first], config.clone());
    }
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < SETUP_RUNS.0
        || (times.len() < SETUP_RUNS.1 && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let config = config.clone();
        let run_started = Instant::now();
        let report = run_pipeline(vec![Vec::new()], config);
        times.push(run_started.elapsed().as_secs_f64());
        assert_eq!(
            report.restored_from_checkpoint, restarts,
            "an empty run restores exactly when the workload restarts"
        );
    }
    times
}

/// Per-replay values and pooled span durations of the traced
/// measurement.
#[derive(Debug, Default)]
struct LayerSamples {
    values: Vec<(&'static str, &'static str, Vec<f64>)>,
    pooled: Vec<(&'static str, Vec<f64>)>,
    shares: Vec<(&'static str, Vec<f64>)>,
}

impl LayerSamples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, samples)) => samples.push(value),
            None => self.values.push((name, unit, vec![value])),
        }
    }

    fn pool(&mut self, span: &'static str, spans: &[Span]) {
        let durations = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration() as f64);
        match self.pooled.iter_mut().find(|(n, _)| *n == span) {
            Some((_, samples)) => samples.extend(durations),
            None => self.pooled.push((span, durations.collect())),
        }
    }

    fn pooled(&self, span: &str) -> &[f64] {
        self.pooled
            .iter()
            .find(|(n, _)| *n == span)
            .map_or(&[], |(_, s)| s)
    }

    /// Whether every pooled span that occurred has the 100 samples a
    /// p90 needs.
    fn enough(&self) -> bool {
        self.pooled
            .iter()
            .all(|(_, s)| s.is_empty() || percentile(s, 0.9).is_some())
    }

    /// Adds one traced replay.
    fn add(
        &mut self,
        spans: &[Span],
        traced: &Replayed,
        run_wall: f64,
        serial: f64,
        traced_wall: f64,
    ) {
        let own = self_times(spans);
        let busy = |pick: &dyn Fn(&Span) -> bool| -> f64 {
            spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| pick(s))
                .map(|(_, &t)| t as f64 * 1e-9)
                .sum()
        };
        let layer = |name: &'static str| busy(&|s: &Span| s.layer() == name);
        let call = |name: &'static str| busy(&|s: &Span| s.name == name);
        let calls = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
        let per = |total: f64, count: u64| {
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        let segments = traced.segments;
        let updates = traced.updates;
        let ingest = call("ingest.batch");
        let root = spans.first().map_or(0, Span::duration) as f64 * 1e-9;
        let covered = own.iter().skip(1).sum::<u64>() as f64 * 1e-9;

        self.push("router.busy_s", "s", layer("router"));
        self.push(
            "router.ns_per_segment",
            "ns",
            per(layer("router") * 1e9, segments),
        );
        self.push(
            "router.export_ratio",
            "ratio",
            per(updates as f64, segments),
        );
        self.push(
            "router.live_flows_end",
            "count",
            traced.live_flows_end as f64,
        );
        self.push("ingest.busy_s", "s", ingest);
        self.push(
            "ingest.ns_per_update",
            "ns",
            if ingest > 0.0 {
                per(ingest * 1e9, updates)
            } else {
                0.0
            },
        );
        self.push("ingest.calls", "count", calls("ingest.batch"));
        self.push("sharded.handoff_s", "s", call("sharded.ingest"));
        self.push("sharded.merge_busy_s", "s", call("sharded.merged"));
        self.push("eval.count", "count", calls("monitor.evaluate"));
        self.push("eval.busy_s", "s", call("monitor.evaluate"));
        self.push("eval.alarms", "count", traced.alarms.len() as f64);
        self.push(
            "monitor.detect_delay_updates",
            "updates",
            traced.detect_delay().unwrap_or(0) as f64,
        );
        self.push("window.advance_busy_s", "s", call("window.advance"));
        self.push("window.topk_busy_s", "s", call("window.top_k"));
        self.push("window.heap_bytes", "B", traced.window_heap_bytes as f64);
        self.push("persist.snapshot_busy_s", "s", call("persist.snapshot"));
        self.push("persist.save_busy_s", "s", call("persist.save"));
        self.push(
            "persist.bytes_per_save",
            "B",
            per(
                traced.save_bytes.iter().sum::<u64>() as f64,
                traced.save_bytes.len() as u64,
            ),
        );
        self.push("persist.restore_s", "s", call("persist.restore"));
        self.push("telemetry.busy_s", "s", layer("telemetry"));
        self.push("telemetry.bytes", "B", traced.telemetry_bytes as f64);
        self.push("pipeline.serial_s", "s", serial);
        self.push("pipeline.overlap_gain", "ratio", serial / run_wall);
        self.push("trace.span_coverage", "ratio", covered / root);
        self.push("trace.overhead_frac", "ratio", traced_wall / serial - 1.0);
        for span in [
            "sharded.merged",
            "monitor.evaluate",
            "window.advance",
            "persist.save",
        ] {
            self.pool(span, spans);
        }
        let mut layers: Vec<&'static str> = spans.iter().skip(1).map(Span::layer).collect();
        layers.sort_unstable();
        layers.dedup();
        for name in layers {
            let share = layer(name) / root;
            match self.shares.iter_mut().find(|(n, _)| *n == name) {
                Some((_, samples)) => samples.push(share),
                None => self.shares.push((name, vec![share])),
            }
        }
    }

    /// The per-layer metrics, in the catalogue's order.
    fn metrics(&self) -> Vec<Metric> {
        let value = |name: &str| {
            let (name, unit, samples) = self
                .values
                .iter()
                .find(|(n, _, _)| *n == name)
                .expect("every per-replay metric is pushed");
            Metric::of(name, unit, samples.clone())
        };
        let tail = |name: &'static str, unit: &'static str, span: &str, q: f64, scale: f64| {
            let samples: Vec<f64> = self.pooled(span).iter().map(|ns| ns * scale).collect();
            let at = percentile(&samples, q);
            Metric {
                value: at.unwrap_or(0.0),
                refused: !samples.is_empty() && at.is_none(),
                ..Metric::of(name, unit, samples)
            }
        };
        vec![
            value("router.busy_s"),
            value("router.ns_per_segment"),
            value("router.export_ratio"),
            value("router.live_flows_end"),
            value("ingest.busy_s"),
            value("ingest.ns_per_update"),
            value("ingest.calls"),
            value("sharded.handoff_s"),
            value("sharded.merge_busy_s"),
            tail("sharded.merge_p50_us", "us", "sharded.merged", 0.5, 1e-3),
            tail("sharded.merge_p90_us", "us", "sharded.merged", 0.9, 1e-3),
            value("eval.count"),
            value("eval.busy_s"),
            tail("eval.p50_us", "us", "monitor.evaluate", 0.5, 1e-3),
            tail("eval.p90_us", "us", "monitor.evaluate", 0.9, 1e-3),
            value("eval.alarms"),
            value("monitor.detect_delay_updates"),
            value("window.advance_busy_s"),
            tail("window.advance_p50_us", "us", "window.advance", 0.5, 1e-3),
            tail("window.advance_p90_us", "us", "window.advance", 0.9, 1e-3),
            value("window.topk_busy_s"),
            value("window.heap_bytes"),
            value("persist.snapshot_busy_s"),
            value("persist.save_busy_s"),
            tail("persist.save_p50_ms", "ms", "persist.save", 0.5, 1e-6),
            tail("persist.save_p90_ms", "ms", "persist.save", 0.9, 1e-6),
            value("persist.bytes_per_save"),
            value("persist.restore_s"),
            value("telemetry.busy_s"),
            value("telemetry.bytes"),
            value("pipeline.serial_s"),
            value("pipeline.overlap_gain"),
            value("trace.span_coverage"),
            value("trace.overhead_frac"),
        ]
    }
}

/// The traced measurement: rounds of one `run_pipeline` run, one
/// untraced replay and one traced replay, for `seconds` and until every
/// pooled percentile has its samples.
fn layers(
    feeds: &[Vec<TcpSegment>],
    config: &PipelineConfig,
    scratch: &Path,
    seconds: f64,
    outcome: &mut Outcome,
) {
    let _warm_up = pipeline_run(feeds, config, scratch);
    let mut samples = LayerSamples::default();
    let started = Instant::now();
    loop {
        let run = pipeline_run(feeds, config, scratch);
        reset(scratch);
        let serial_started = Instant::now();
        replay(feeds, config, &mut Tracer::off());
        let serial = serial_started.elapsed().as_secs_f64();
        reset(scratch);
        let mut tracer = Tracer::on();
        let traced_started = Instant::now();
        let traced = replay(feeds, config, &mut tracer);
        let traced_wall = traced_started.elapsed().as_secs_f64();
        let spans = tracer.into_spans();
        outcome.updates = traced.updates;
        let verdict = match &run {
            Some(run) => check(run, &traced, feeds.len()),
            None => Err("run_pipeline panicked".into()),
        };
        tally(outcome, verdict);
        if let Some(run) = &run {
            samples.add(&spans, &traced, run.wall, serial, traced_wall);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if (elapsed >= seconds && samples.enough()) || elapsed >= seconds * TRACE_OVERRUN {
            break;
        }
    }
    outcome.layers = samples.metrics();
    outcome.shares = samples
        .shares
        .iter()
        .map(|(name, s)| (*name, Summary::of(s).median))
        .collect();
}

fn print_outcome(outcome: &Outcome, args: &Args) {
    println!(
        "== {} (seed {}{}): {} segments, {} updates, {} of {} runs failed",
        outcome.workload.name(),
        args.seed,
        if args.quick { ", quick" } else { "" },
        outcome.segments,
        outcome.updates,
        outcome.failed,
        outcome.attempted,
    );
    let print = |title: &str, metrics: &[Metric]| {
        if metrics.is_empty() {
            return;
        }
        println!("{title}");
        for m in metrics {
            let s = &m.summary;
            let tail = if m.refused {
                "  refused: fewer than 10 samples beyond it".to_string()
            } else if m.value != s.median {
                format!(
                    "  median {:.6} [{:.6}, {:.6}] n={}",
                    s.median, s.q1, s.q3, s.n
                )
            } else if s.n > 1 {
                format!("  [{:.6}, {:.6}] n={}", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            println!("  {:<30} {:>16.6} {:<8}{tail}", m.name, m.value, m.unit);
        }
    };
    print(
        "end-to-end (untraced run_pipeline; segments_per_s is the best timed run):",
        &outcome.end_to_end,
    );
    print(
        "per-layer (traced replay; medians over replays, percentiles over all spans):",
        &outcome.layers,
    );
    if !outcome.shares.is_empty() {
        let shares: Vec<String> = outcome
            .shares
            .iter()
            .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
            .collect();
        println!("layer shares of the traced replay: {}", shares.join(", "));
    }
}

/// The JSON result line: the `BENCHMARK.json` metrics of the modes that
/// ran. With one workload, metric names are as in `BENCHMARK.json`; with
/// several, each is prefixed `workload/`.
fn result_line(outcomes: &[Outcome]) -> String {
    let attempted: usize = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failed).sum();
    let mut metrics = Vec::new();
    for outcome in outcomes {
        let prefix = if outcomes.len() > 1 {
            format!("{}/", outcome.workload.name())
        } else {
            String::new()
        };
        let reported = outcome
            .end_to_end
            .iter()
            .filter(|m| E2E_REPORTED.contains(&m.name))
            .chain(&outcome.layers);
        for m in reported {
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&format!("{prefix}{}", m.name)),
                json::num(m.value),
                json::string(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

/// Appends one capture line (every metric with its summary and, up to
/// [`CAPTURE_SAMPLES`], its run samples) to `path`, for `compare` and
/// for the committed captures.
fn append_capture(path: &Path, args: &Args, outcomes: &[Outcome]) -> std::io::Result<()> {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let metric = |m: &Metric| {
        // Set-up's thousands of empty runs keep only their summary.
        let kept = if m.samples.len() <= CAPTURE_SAMPLES {
            &m.samples[..]
        } else {
            &[]
        };
        let samples: Vec<String> = kept.iter().map(|&v| json::num(v)).collect();
        format!(
            "{}: {{\"unit\": {}, \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
            json::string(m.name),
            json::string(m.unit),
            json::num(m.value),
            json::num(m.summary.median),
            json::num(m.summary.q1),
            json::num(m.summary.q3),
            m.summary.n,
            samples.join(", ")
        )
    };
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let metrics: Vec<String> = o.end_to_end.iter().chain(&o.layers).map(metric).collect();
            let shares: Vec<String> = o
                .shares
                .iter()
                .map(|(name, share)| format!("{}: {}", json::string(name), json::num(*share)))
                .collect();
            format!(
                "{}: {{\"segments\": {}, \"updates\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"metrics\": {{{}}}, \"layer_shares\": {{{}}}}}",
                json::string(o.workload.name()),
                o.segments,
                o.updates,
                o.attempted,
                o.failed,
                metrics.join(", "),
                shares.join(", ")
            )
        })
        .collect();
    let line = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"quick\": {}, \"host\": {{\"cpu\": {}, \"cores\": {}}}, \
         \"workloads\": {{{}}}}}\n",
        args.seed,
        json::num(args.seconds),
        args.quick,
        json::string(&cpu),
        cores,
        workloads.join(", ")
    );
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_feeds(workload: Workload, seed: u64) -> Vec<Vec<TcpSegment>> {
        workload.spec(true).feeds(seed)
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pipeline_bench-{tag}-{}", std::process::id()))
    }

    #[test]
    fn feeds_are_deterministic_per_seed() {
        for workload in WORKLOADS {
            let first = quick_feeds(workload, 3);
            assert_eq!(first, quick_feeds(workload, 3), "{}", workload.name());
            assert_ne!(first, quick_feeds(workload, 4), "{}", workload.name());
            let feed = first.concat();
            assert!(
                feed.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
                "{} is in time order",
                workload.name()
            );
        }
    }

    #[test]
    fn quick_workloads_pass_the_fidelity_check() {
        for workload in WORKLOADS {
            let dir = scratch(workload.name());
            let spec = workload.spec(true);
            let feeds = spec.feeds(11);
            let config = spec.config_in(&dir);
            reset(&dir);
            let reference = replay(&feeds, &config, &mut Tracer::on());
            let run = pipeline_run(&feeds, &config, &dir).expect("run_pipeline completes");
            let _ = fs::remove_dir_all(&dir);
            assert_eq!(
                check(&run, &reference, feeds.len()),
                Ok(()),
                "{}",
                workload.name()
            );
            assert!(reference.detect_delay().is_some(), "{}", workload.name());
        }
    }

    #[test]
    fn traced_replay_covers_its_wall_time() {
        let dir = scratch("coverage");
        let spec = Workload::RestartCkpt.spec(true);
        let feeds = spec.feeds(5);
        let config = spec.config_in(&dir);
        reset(&dir);
        let mut tracer = Tracer::on();
        replay(&feeds, &config, &mut tracer);
        let _ = fs::remove_dir_all(&dir);
        let spans = tracer.into_spans();
        let own = self_times(&spans);
        let coverage = own[1..].iter().sum::<u64>() as f64 / spans[0].duration() as f64;
        assert!(coverage >= 0.9, "span coverage {coverage}");
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples[..99], 0.9), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_quick_run_reports_every_metric() {
        let args = Args {
            workloads: vec![Workload::FloodDirect],
            seed: 2,
            seconds: 0.01,
            mode: Mode::Both,
            quick: true,
            out: None,
        };
        let dir = scratch("measure");
        let outcome = measure(Workload::FloodDirect, &args, &dir);
        let _ = fs::remove_dir_all(&dir);
        // How many runs fit in the time budget depends on the host; the
        // untraced and traced measurements make at least 2 and 1.
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= 3, "{} runs", outcome.attempted);
        let names: Vec<&str> = outcome
            .end_to_end
            .iter()
            .chain(&outcome.layers)
            .map(|m| m.name)
            .collect();
        assert_eq!(names.len(), 6 + 34);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        let line = result_line(&[outcome]);
        assert!(json::parse(&line).is_ok(), "{line}");
        assert!(E2E_REPORTED.iter().all(|name| line.contains(name)));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = Args::parse(&argv(
            "--workload pulse_sliding --seed 3 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!(args.workloads, vec![Workload::PulseSliding]);
        assert_eq!((args.seed, args.seconds, args.mode), (3, 2.0, Mode::Layers));
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--trace 2")).is_err());
        assert!(Args::parse(&argv("--seconds 0")).is_err());
        assert!(Args::parse(&argv("--seed")).is_err());
    }
}
