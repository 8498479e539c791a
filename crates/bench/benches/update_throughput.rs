//! Per-update latency of the Basic and Tracking sketches (the
//! update-cost half of Fig. 9 / Table 2), across `r`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use dcs_core::{DistinctCountSketch, SketchConfig, TrackingDcs};
use dcs_streamgen::{PaperWorkload, WorkloadConfig};

fn workload(n: u64) -> Vec<dcs_core::FlowUpdate> {
    PaperWorkload::generate(WorkloadConfig {
        distinct_pairs: n,
        num_destinations: 1_000,
        skew: 1.0,
        seed: 42,
    })
    .into_updates()
}

fn bench_updates(c: &mut Criterion) {
    // `basic`/`tracking` measure the bulk-ingest path (`update_batch`,
    // what the netsim feeds use); the `*_per_update`
    // variants keep the one-call-per-update path visible for
    // comparison.
    //
    // The `basic*` benches ingest into ONE long-lived sketch across all
    // iterations (steady state): the basic sketch's update cost is
    // state-independent — four word updates per table, branchless in
    // the bucket values — and a production sketch is long-lived, so
    // steady-state ingest is the quantity the bench's name promises.
    // Building a fresh sketch per iteration instead spends ~40% of each
    // sample allocating and page-faulting the level arenas, a cost that
    // depends on glibc's process history, not on the update path — the
    // r=2 batch/per-update comparison used to invert on bench ordering
    // alone (README measurement-protocol notes, DESIGN.md §13).
    //
    // The `tracking*` benches keep a fresh sketch per iteration
    // (`iter_batched`, construction and teardown untimed): tracking
    // cost is state-dependent (screen outcomes and heap churn differ on
    // a populated sketch), so steady-state repetition would measure a
    // sketch unlike the one the detector runs.
    let updates = workload(20_000);
    let mut group = c.benchmark_group("update");
    group.throughput(Throughput::Elements(updates.len() as u64));
    for r in [2usize, 3, 4] {
        let config = SketchConfig::builder()
            .num_tables(r)
            .seed(1)
            .build()
            .expect("valid");
        group.bench_with_input(BenchmarkId::new("basic", r), &config, |b, config| {
            let mut sketch = DistinctCountSketch::new(config.clone());
            b.iter(|| {
                sketch.update_batch(&updates);
                sketch.updates_processed()
            })
        });
        group.bench_with_input(BenchmarkId::new("tracking", r), &config, |b, config| {
            b.iter_batched(
                || TrackingDcs::new(config.clone()),
                |mut sketch| {
                    sketch.update_batch(&updates);
                    sketch
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(
            BenchmarkId::new("basic_per_update", r),
            &config,
            |b, config| {
                let mut sketch = DistinctCountSketch::new(config.clone());
                b.iter(|| {
                    for u in &updates {
                        sketch.update(*u);
                    }
                    sketch.updates_processed()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tracking_per_update", r),
            &config,
            |b, config| {
                b.iter_batched(
                    || TrackingDcs::new(config.clone()),
                    |mut sketch| {
                        for u in &updates {
                            sketch.update(*u);
                        }
                        sketch
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_deletions(c: &mut Criterion) {
    // Deletion-heavy stream: insert all, delete half.
    let inserts = workload(10_000);
    let mut stream = inserts.clone();
    stream.extend(inserts.iter().take(5_000).map(|u| u.inverted()));
    let config = SketchConfig::builder().seed(2).build().expect("valid");
    let mut group = c.benchmark_group("update_with_deletes");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("tracking", |b| {
        b.iter_batched(
            || TrackingDcs::new(config.clone()),
            |mut sketch| {
                sketch.update_batch(&stream);
                sketch
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_screen(c: &mut Criterion) {
    // Screened hot path (TrackingDcs::update) vs the unscreened
    // reference path (decode-before / decode-after on every table) on
    // the same insert+delete stream: the comparison for the fast skip
    // of a repeat on a bucket's own singleton.
    //
    // The stream is repeat-heavy: each source-destination pair carries
    // many packets (SYN retries, long-lived flows), as in real flow
    // traces. Repeated hits on a singleton or empty bucket are exactly
    // where the screen pays — the skip rule avoids both decodes that
    // the reference path performs per table per update.
    use dcs_core::{DestAddr, FlowUpdate, SourceAddr};
    use rand::prelude::*;

    const PAIRS: u32 = 256;
    const PACKETS_PER_FLOW: usize = 32;
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<(u32, u32)> = (0..PAIRS).map(|i| (rng.gen(), i % 32)).collect();
    let mut stream: Vec<FlowUpdate> = pairs
        .iter()
        .flat_map(|&(s, d)| {
            std::iter::repeat_n(
                FlowUpdate::insert(SourceAddr(s), DestAddr(d)),
                PACKETS_PER_FLOW,
            )
        })
        .collect();
    stream.shuffle(&mut rng);
    // Half the flows then close: every one of their packets is deleted
    // (still well-formed — deletes follow all matching inserts).
    let mut deletes: Vec<FlowUpdate> = pairs
        .iter()
        .step_by(2)
        .flat_map(|&(s, d)| {
            std::iter::repeat_n(
                FlowUpdate::delete(SourceAddr(s), DestAddr(d)),
                PACKETS_PER_FLOW,
            )
        })
        .collect();
    deletes.shuffle(&mut rng);
    stream.extend(deletes);
    let config = SketchConfig::builder().seed(3).build().expect("valid");
    let mut group = c.benchmark_group("tracking_screen");
    group.throughput(Throughput::Elements(stream.len() as u64));
    // `iter_batched` excludes sketch construction (zeroing every
    // level's counter arrays) from the timing, so the comparison
    // isolates the update path itself.
    group.bench_function("screened", |b| {
        b.iter_batched(
            || TrackingDcs::new(config.clone()),
            |mut sketch| {
                for u in &stream {
                    sketch.update(*u);
                }
                sketch
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("reference", |b| {
        b.iter_batched(
            || TrackingDcs::new(config.clone()),
            |mut sketch| {
                for u in &stream {
                    sketch.update_reference(*u);
                }
                sketch
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("floor_basic", |b| {
        b.iter_batched(
            || DistinctCountSketch::new(config.clone()),
            |mut sketch| {
                for u in &stream {
                    sketch.update(*u);
                }
                sketch
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_updates, bench_deletions, bench_screen);
criterion_main!(benches);
