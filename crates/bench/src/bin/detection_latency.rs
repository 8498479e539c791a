//! Extension experiment: detection latency vs attack rate.
//!
//! The paper's title claims *real-time* detection; this experiment
//! quantifies it. Calm background traffic runs for 10 × 100 ticks;
//! at tick 1000 a SYN flood of varying rate begins (spread over ~100
//! ticks). `run_pipeline` judges alarms every 10 ticks of traffic
//! time; we report the latency between the attack's first packet and
//! the first judgment that alarmed on the victim.
//!
//! Expected shape: latency falls with the attack rate — the alarm
//! fires as soon as the cumulative distinct-source count crosses the
//! threshold, i.e. after `threshold / rate` ticks (plus one evaluation
//! period) — and the full policy's EWMA-ratio rule fires within two
//! evaluation periods at any rate. The binary asserts both, with every
//! seed detected at every rate, after writing its record.
//!
//! Run: `cargo run -p dcs-bench --release --bin detection_latency`

use dcs_bench::{emit_record, emit_telemetry, SEEDS};
use dcs_core::{DestAddr, SketchConfig};
use dcs_metrics::{ExperimentRecord, Stats, Table};
use dcs_netsim::{run_pipeline, AlarmPolicy, PipelineConfig, TrafficDriver};
use dcs_telemetry::TelemetrySnapshot;

const ATTACK_RATES: [u32; 5] = [500, 1_000, 2_000, 4_000, 8_000];
const THRESHOLD: u64 = 400;
const ATTACK_START: u64 = 1_000;
const EVALUATE_EVERY_TICKS: u64 = 10;

fn run_once(
    total_sources: u32,
    seed: u64,
    absolute_only: bool,
) -> (Option<u64>, TelemetrySnapshot) {
    let victim = DestAddr(0x0a00_0001);
    let mut driver = TrafficDriver::new(seed);
    for _ in 0..10 {
        driver.legitimate_sessions(DestAddr(0x0b00_0001), 60);
        driver.advance_clock(100);
    }
    driver.syn_flood(victim, total_sources);
    let config = PipelineConfig {
        sketch: SketchConfig::builder()
            .buckets_per_table(1024)
            .seed(seed)
            .build()
            .expect("valid"),
        policy: AlarmPolicy {
            absolute_threshold: THRESHOLD,
            // Absolute-only runs disable the EWMA-ratio rule to isolate
            // the threshold-crossing latency.
            ratio_over_baseline: if absolute_only { f64::INFINITY } else { 8.0 },
            ..AlarmPolicy::default()
        },
        evaluate_every_ticks: Some(EVALUATE_EVERY_TICKS),
        ..PipelineConfig::default()
    };
    let report = run_pipeline(vec![driver.into_segments()], config);
    let variant = if absolute_only { "absolute" } else { "full" };
    let snapshot = report
        .monitor
        .telemetry_snapshot(&format!("detection_latency_{variant}_rate{total_sources}"));
    let latency = report
        .first_alarm_at(victim.0)
        .map(|at| at.saturating_sub(ATTACK_START));
    (latency, snapshot)
}

fn main() {
    println!(
        "detection latency vs attack rate — threshold {THRESHOLD} distinct sources, \
         evaluation every {EVALUATE_EVERY_TICKS} ticks, {} seeds",
        SEEDS.len()
    );
    let mut table = Table::new(vec![
        "attack sources (over ~100 ticks)".into(),
        "detected".into(),
        "latency, full policy".into(),
        "latency, absolute-only".into(),
    ]);
    let mut rec = ExperimentRecord::new("detection_latency")
        .parameter("threshold", THRESHOLD)
        .parameter("evaluate_every_ticks", EVALUATE_EVERY_TICKS)
        .parameter("seeds", SEEDS.len());
    let mut mean_latencies = Vec::new();
    let mut mean_absolute = Vec::new();
    let mut missed = Vec::new();
    let mut slowest_full = 0.0f64;

    let summarize = |latencies: &[f64]| -> (String, f64) {
        if latencies.is_empty() {
            ("—".to_string(), -1.0)
        } else {
            let stats = Stats::from_samples(latencies);
            (
                format!("{:.0} ± {:.0}", stats.mean, stats.std_dev),
                stats.mean,
            )
        }
    };

    let mut telemetry = Vec::new();
    for &rate in &ATTACK_RATES {
        let mut full = Vec::new();
        let mut absolute = Vec::new();
        for &seed in &SEEDS {
            let (latency, snapshot) = run_once(rate, seed, false);
            // One snapshot per rate (first seed, full policy) keeps the
            // sidecar to one line per x-axis point.
            if seed == SEEDS[0] {
                telemetry.push(snapshot);
            }
            full.extend(latency.map(|l| l as f64));
            let (latency, _) = run_once(rate, seed, true);
            absolute.extend(latency.map(|l| l as f64));
        }
        slowest_full = full.iter().copied().fold(slowest_full, f64::max);
        let detected = full.len();
        if detected < SEEDS.len() || absolute.len() < SEEDS.len() {
            missed.push(rate);
        }
        let (full_summary, full_mean) = summarize(&full);
        let (abs_summary, abs_mean) = summarize(&absolute);
        println!(
            "rate {rate:>5}: detected {detected}/{} — full {full_summary}, absolute-only {abs_summary}",
            SEEDS.len()
        );
        table.row(vec![
            rate.to_string(),
            format!("{detected}/{}", SEEDS.len()),
            full_summary,
            abs_summary,
        ]);
        mean_latencies.push(full_mean);
        mean_absolute.push(abs_mean);
    }

    println!("\nDetection latency:");
    print!("{}", table.render());
    println!(
        "\nexpected shape: absolute-only latency ≈ threshold/rate + one evaluation \
         period (falling with the rate); the full policy's EWMA-ratio rule reacts to \
         the *change* and fires within ~2 evaluation periods regardless of rate."
    );

    rec = rec
        .parameter("attack_rates", format!("{ATTACK_RATES:?}"))
        .with_series("mean_latency_full", mean_latencies)
        .with_series("mean_latency_absolute_only", mean_absolute.clone());
    if let Some(path) = emit_record(&rec) {
        println!("wrote {}", path.display());
        if let Some(sidecar) = emit_telemetry(&path, &telemetry) {
            println!("wrote {}", sidecar.display());
        }
    }
    assert!(
        missed.is_empty(),
        "some seeds missed the flood at rates {missed:?}"
    );
    assert!(
        mean_absolute.windows(2).all(|w| w[1] <= w[0]),
        "absolute-only latency rose with the rate: {mean_absolute:?}"
    );
    assert!(
        slowest_full <= (2 * EVALUATE_EVERY_TICKS) as f64,
        "the full policy took {slowest_full} ticks, more than two evaluation periods"
    );
}
