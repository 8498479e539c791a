//! Cost of sliding the epoch window: the O(1) accumulator slide
//! (merge the incoming delta, subtract the expiring one) against the
//! O(N) recompute-from-ring reference, across window lengths — the
//! committed `BENCH_window_slide.json` shows the slide flat in N while
//! the recompute grows linearly. Plus the windowed query, which reads
//! the accumulator directly (no clone, no merge).
//!
//! The `epoch_advance` group explains the windowed pipeline's
//! end-to-end number: one `EpochWindow::advance` at the pipeline's
//! shape (`paper_default`, a cumulative sketch holding ≈19 levels,
//! 2 000-update epochs, N = 16) — the fused one-pass slide against the
//! unfused `difference` → `roll` → `clone` composition it replaced.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dcs_core::{DestAddr, DistinctCountSketch, FlowUpdate, SketchConfig, SourceAddr};
use dcs_netsim::{EpochWindow, SlidingWindow, WindowPolicy};
use dcs_streamgen::{PaperWorkload, WorkloadConfig};

fn epoch_delta(config: &SketchConfig, seed: u64) -> DistinctCountSketch {
    let updates = PaperWorkload::generate(WorkloadConfig {
        distinct_pairs: 5_000,
        num_destinations: 200,
        skew: 1.0,
        seed,
    })
    .into_updates();
    let mut delta = DistinctCountSketch::new(config.clone());
    for u in &updates {
        delta.update(*u);
    }
    delta
}

/// A window pre-filled to capacity `epochs`, plus a pool of further
/// deltas to keep rolling through it.
fn filled_window(
    config: &SketchConfig,
    epochs: usize,
) -> (SlidingWindow, Vec<DistinctCountSketch>) {
    let mut window = SlidingWindow::new(config.clone(), epochs);
    for i in 0..epochs {
        window
            .roll(epoch_delta(config, 100 + i as u64))
            .expect("compatible");
    }
    let pool: Vec<DistinctCountSketch> = (0..8).map(|i| epoch_delta(config, 900 + i)).collect();
    (window, pool)
}

fn bench_window_slide(c: &mut Criterion) {
    let config = SketchConfig::builder().seed(1).build().expect("valid");
    let mut group = c.benchmark_group("window_slide");
    for epochs in [4usize, 8, 16, 32] {
        let (mut window, pool) = filled_window(&config, epochs);
        let mut next = 0usize;
        // The O(1) slide at steady state (ring at capacity: every roll
        // merges one delta and subtracts one). The delta clone happens
        // in setup, outside the timed routine.
        group.bench_function(format!("slide_o1_n{epochs}"), |bencher| {
            bencher.iter_batched(
                || {
                    let delta = pool[next % pool.len()].clone();
                    next += 1;
                    delta
                },
                |delta| window.roll(delta).expect("compatible"),
                BatchSize::SmallInput,
            )
        });

        // The O(N) reference: merge the whole ring back together.
        let (window, _) = filled_window(&config, epochs);
        group.bench_function(format!("recompute_on_n{epochs}"), |bencher| {
            bencher.iter(|| window.recompute().expect("compatible"))
        });

        // The windowed query straight off the accumulator.
        group.bench_function(format!("windowed_topk_n{epochs}"), |bencher| {
            bencher.iter(|| window.top_k(10, 0.25))
        });
    }
    group.finish();
}

/// Window length of the pipeline's windowed workload.
const ADVANCE_EPOCHS: usize = 16;
/// Updates per epoch (the pipeline's evaluation cadence there).
const EPOCH_UPDATES: u32 = 2_000;
/// Updates ingested before the first epoch: enough distinct pairs for
/// the geometric level hash to materialize ≈19 levels.
const PREFILL_UPDATES: u32 = 650_000;

/// A cumulative sketch that grows by one epoch of distinct inserts per
/// [`next_epoch`](Self::next_epoch).
struct EpochStream {
    cumulative: DistinctCountSketch,
    next_source: u32,
}

impl EpochStream {
    fn new(config: &SketchConfig) -> Self {
        let mut stream = Self {
            cumulative: DistinctCountSketch::new(config.clone()),
            next_source: 0,
        };
        stream.ingest(PREFILL_UPDATES);
        stream
    }

    fn ingest(&mut self, n: u32) {
        let updates: Vec<FlowUpdate> = (self.next_source..self.next_source + n)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 512)))
            .collect();
        self.cumulative.update_batch(&updates);
        self.next_source += n;
    }

    /// Ingests one more epoch and returns the cumulative state at its
    /// close (a clone, so the timed routine owns its input).
    fn next_epoch(&mut self) -> DistinctCountSketch {
        self.ingest(EPOCH_UPDATES);
        self.cumulative.clone()
    }
}

fn bench_epoch_advance(c: &mut Criterion) {
    let config = SketchConfig::paper_default();
    let mut group = c.benchmark_group("epoch_advance");

    // The fused slide, ring full: every advance reuses the expiring
    // delta's storage. The first advance closes an epoch holding the
    // prefill history, which expires as the ring fills. Epoch ingest
    // and the cumulative clone happen in setup; the returned sketch is
    // dropped outside the timed region.
    {
        let mut stream = EpochStream::new(&config);
        let policy = WindowPolicy::Sliding {
            epochs: ADVANCE_EPOCHS,
        };
        let mut window = EpochWindow::new(config.clone(), policy).expect("valid policy");
        window.advance(&stream.cumulative).expect("compatible");
        for _ in 0..ADVANCE_EPOCHS {
            window.advance(&stream.next_epoch()).expect("compatible");
        }
        group.bench_function(format!("fused_n{ADVANCE_EPOCHS}"), |bencher| {
            bencher.iter_batched(
                || stream.next_epoch(),
                |cumulative| {
                    window.advance(&cumulative).expect("compatible");
                    cumulative
                },
                BatchSize::LargeInput,
            )
        });
    }

    // The unfused composition over the same shape: difference off the
    // base, roll the delta in (merge + subtract), clone the new base.
    {
        let mut stream = EpochStream::new(&config);
        let mut window = SlidingWindow::new(config.clone(), ADVANCE_EPOCHS);
        let mut base = stream.cumulative.clone();
        let mut advance = |cumulative: &DistinctCountSketch| {
            let delta = cumulative.difference(&base).expect("base trails");
            window.roll(delta).expect("compatible");
            base = cumulative.clone();
        };
        for _ in 0..ADVANCE_EPOCHS {
            advance(&stream.next_epoch());
        }
        group.bench_function(format!("composed_n{ADVANCE_EPOCHS}"), |bencher| {
            bencher.iter_batched(
                || stream.next_epoch(),
                |cumulative| {
                    advance(&cumulative);
                    cumulative
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_window_slide, bench_epoch_advance);
criterion_main!(benches);
