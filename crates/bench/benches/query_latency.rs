//! Top-k query latency: `BaseTopk` (structure rescan) vs `TrackTopk`
//! (heap read) — the query-time rows of Table 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dcs_core::{DistinctCountSketch, SketchConfig, TrackingDcs};
use dcs_streamgen::{PaperWorkload, WorkloadConfig};

fn bench_queries(c: &mut Criterion) {
    let updates = PaperWorkload::generate(WorkloadConfig {
        distinct_pairs: 100_000,
        num_destinations: 2_000,
        skew: 1.5,
        seed: 9,
    })
    .into_updates();

    let config = SketchConfig::builder().seed(9).build().expect("valid");
    let mut basic = DistinctCountSketch::new(config.clone());
    let mut tracking = TrackingDcs::new(config);
    for u in &updates {
        basic.update(*u);
        tracking.update(*u);
    }

    let mut group = c.benchmark_group("top_k_query");
    for k in [1usize, 5, 10, 20] {
        group.bench_with_input(BenchmarkId::new("base_topk", k), &k, |b, &k| {
            b.iter(|| basic.estimate_top_k(k, 0.25))
        });
        group.bench_with_input(BenchmarkId::new("track_topk", k), &k, |b, &k| {
            b.iter(|| tracking.track_top_k(k, 0.25))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("threshold_query");
    group.bench_function("base_threshold", |b| {
        b.iter(|| basic.estimate_threshold(100, 0.25))
    });
    group.bench_function("track_threshold", |b| {
        b.iter(|| tracking.track_threshold(100, 0.25))
    });
    group.finish();

    // Structure-scan reads: raw singleton enumeration across every
    // level, and the per-level occupancy gauges behind a telemetry
    // snapshot — the read paths served by the screen pass.
    let mut group = c.benchmark_group("snapshot_scan");
    group.bench_function("singletons_enum", |b| b.iter(|| basic.singletons()));
    group.bench_function("occupancy_gauges", |b| {
        b.iter(|| basic.telemetry_snapshot("bench"))
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
