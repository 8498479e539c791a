//! The sliding window's two load-bearing claims, pinned end to end.
//!
//! **Claim 1 — bit-identity.** The ring-of-deltas window accumulator
//! (O(1) slide: merge the incoming delta, subtract the expiring one)
//! is *bit-identical* — same `SketchState`, every counter, key-sum,
//! fingerprint-sum, and materialized level — to the brute-force
//! reference `difference(cumulative_now, cumulative_{now−N})` computed
//! from raw snapshots of the cumulative sketch, at every slide
//! position: before the ring fills (partial window), across the
//! capacity boundary, and across a checkpoint/restore in the middle of
//! the window. Deterministic tests pin the shape; proptest interleaves
//! slides, queries, and restores arbitrarily.
//!
//! The window slides through one fused pass
//! ([`DistinctCountSketch::slide_epoch`] under `EpochWindow::advance`);
//! the unfused composition it replaced — `difference` → `roll` →
//! `clone` — survives here only as the oracle it must equal byte for
//! byte, checkpoint documents included.
//!
//! **Claim 2 — detection semantics.** Windowing is not a refactor; it
//! changes what the monitor can see. A pulse-wave attack whose bursts
//! straddle every coarse interval boundary averages out to nothing in
//! each tumbling window (0 alarms — the attack is invisible), while a
//! sliding window over the same stream at the same threshold catches
//! it. Asserted as precision/recall over the attacked destination,
//! with a completing flash crowd present to keep precision honest.

use std::borrow::Cow;

use proptest::prelude::*;

use ddos_streams::netsim::sharded::ShardedIngest;
use ddos_streams::netsim::window::{EpochWindow, SlidingWindow, WindowPolicy};
use ddos_streams::netsim::Monitor;
use ddos_streams::persist::{decode, encode, Checkpoint, WindowCheckpoint};
use ddos_streams::streamgen::timeline::TimelineBuilder;
use ddos_streams::telemetry::TelemetrySnapshot;
use ddos_streams::{
    AlarmPolicy, DestAddr, DistinctCountSketch, FlowUpdate, SketchConfig, SketchError, SourceAddr,
    TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(128)
        .seed(seed)
        .build()
        .unwrap()
}

/// A wider sketch for the tests that assert on *estimates* (detection,
/// rankings) rather than bit-identity: more buckets means the decode
/// level is lower and frequency estimates are close to exact, so the
/// assertions exercise window semantics instead of sampling noise.
fn wide_config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(4096)
        .seed(seed)
        .build()
        .unwrap()
}

/// The brute-force reference: the sketch of the last `window` epochs,
/// recomputed from raw cumulative snapshots. `snaps[i]` is the
/// cumulative state after `i` rotations (`snaps[0]` is empty).
fn reference_window(snaps: &[DistinctCountSketch], window: usize) -> DistinctCountSketch {
    let rotations = snaps.len() - 1;
    let now = &snaps[rotations];
    let expired = &snaps[rotations.saturating_sub(window)];
    now.difference(expired).expect("snapshots share a config")
}

fn windowed(config: SketchConfig, alarm_policy: AlarmPolicy, policy: WindowPolicy) -> Monitor {
    Monitor::new(config, alarm_policy, Some(policy)).unwrap()
}

/// The monitor's sliding window.
fn ring(wm: &Monitor) -> &SlidingWindow {
    wm.window().expect("a windowed monitor").window()
}

/// The cumulative basic sketch the monitor's window slides over.
fn cumulative(wm: &mut Monitor) -> DistinctCountSketch {
    wm.cumulative().unwrap().into_owned()
}

/// Serializes a windowed monitor through the full persist codec and
/// restores it — the checkpoint path a real crash recovery takes.
fn roundtrip(wm: &mut Monitor, config: &SketchConfig, policy: &WindowPolicy) -> Monitor {
    let bytes = encode(&wm.checkpoint().unwrap());
    let doc = decode(&bytes).unwrap();
    assert!(matches!(doc, Checkpoint::Window(_)), "wrong document kind");
    Monitor::from_checkpoint(doc, config, AlarmPolicy::default(), Some(policy.clone())).unwrap()
}

#[test]
fn ring_window_is_bit_identical_to_difference_of_snapshots_at_every_slide() {
    // 9 epochs through a 3-epoch window: positions 1 and 2 exercise the
    // partial window, 3 the exact-capacity boundary, 4.. the steady
    // slide. Epoch 5 is churn-heavy (deletions of epoch-4 flows) so the
    // subtraction path sees negative nets too.
    let window_policy = WindowPolicy::Sliding { epochs: 3 };
    let mut wm = windowed(config(17), AlarmPolicy::default(), window_policy);
    let mut snaps = vec![cumulative(&mut wm)];
    for epoch in 0..9u32 {
        let mut updates: Vec<FlowUpdate> = (0..40 + epoch * 7)
            .map(|s| FlowUpdate::insert(SourceAddr(epoch * 10_000 + s), DestAddr(epoch % 4)))
            .collect();
        if epoch == 5 {
            updates.extend(
                (0..30u32).map(|s| FlowUpdate::delete(SourceAddr(4 * 10_000 + s), DestAddr(4 % 4))),
            );
        }
        wm.ingest(&updates);
        wm.evaluate().unwrap();
        snaps.push(cumulative(&mut wm));
        let reference = reference_window(&snaps, 3);
        assert_eq!(
            ring(&wm).sketch().to_state(),
            reference.to_state(),
            "slide position {epoch} (window holds {})",
            ring(&wm).len()
        );
    }
}

#[test]
fn restore_mid_window_continues_bit_identically() {
    // Checkpoint with the ring partially refilled (2 of 3 slots carry
    // post-capacity deltas) and updates pending in the open epoch; the
    // restored monitor must track the uninterrupted one state-for-state
    // through several more slides.
    let window_policy = WindowPolicy::Sliding { epochs: 3 };
    let mut live = windowed(config(23), AlarmPolicy::default(), window_policy.clone());
    let mut snaps = vec![cumulative(&mut live)];
    let feed = |wm: &mut Monitor, epoch: u32| {
        let updates: Vec<FlowUpdate> = (0..60u32)
            .map(|s| FlowUpdate::insert(SourceAddr(epoch * 5_000 + s), DestAddr(epoch % 3)))
            .collect();
        wm.ingest(&updates);
    };
    for epoch in 0..5u32 {
        feed(&mut live, epoch);
        live.evaluate().unwrap();
        snaps.push(cumulative(&mut live));
    }
    // Open-epoch updates that must survive inside the cumulative state.
    let open: Vec<FlowUpdate> = (0..25u32)
        .map(|s| FlowUpdate::insert(SourceAddr(900_000 + s), DestAddr(9)))
        .collect();
    live.ingest(&open);
    let mut restored = roundtrip(&mut live, &config(23), &window_policy);
    assert_eq!(
        ring(&restored).sketch().to_state(),
        ring(&live).sketch().to_state()
    );
    assert_eq!(
        cumulative(&mut restored).to_state(),
        cumulative(&mut live).to_state()
    );
    assert_eq!(restored.checkpoint().unwrap(), live.checkpoint().unwrap());
    for epoch in 5..9u32 {
        feed(&mut live, epoch);
        feed(&mut restored, epoch);
        live.evaluate().unwrap();
        restored.evaluate().unwrap();
        snaps.push(cumulative(&mut live));
        let reference = reference_window(&snaps, 3);
        assert_eq!(
            ring(&restored).sketch().to_state(),
            ring(&live).sketch().to_state(),
            "restored diverged at epoch {epoch}"
        );
        assert_eq!(
            ring(&restored).sketch().to_state(),
            reference.to_state(),
            "both diverged from the snapshot reference at epoch {epoch}"
        );
        assert_eq!(restored.top_k(5).unwrap(), live.top_k(5).unwrap());
    }
}

/// One step of the proptest interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest a batch of updates into the open epoch (`true` = insert).
    Ingest(Vec<(u32, u32, bool)>),
    /// Close the epoch and slide the window.
    Rotate,
    /// Windowed top-k query (must not perturb state).
    Query,
    /// Checkpoint through the full codec and carry on from the restore.
    Restore,
}

fn ingest_strategy() -> impl Strategy<Value = Op> {
    // Mostly inserts, with enough deletes to drive counters negative in
    // individual epochs (the subtraction path must stay exact there).
    proptest::collection::vec((0u32..400, 0u32..6, 0u32..10), 1..25).prop_map(|batch| {
        Op::Ingest(
            batch
                .into_iter()
                .map(|(s, d, roll)| (s, d, roll < 8))
                .collect(),
        )
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is uniform; weighting comes from
    // repeating the ingest/rotate arms.
    prop_oneof![
        ingest_strategy(),
        ingest_strategy(),
        Just(Op::Rotate),
        Just(Op::Rotate),
        Just(Op::Query),
        Just(Op::Restore),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary interleavings of ingest/slide/query/checkpoint-restore
    /// leave the ring window bit-identical to the recompute-from-
    /// snapshots reference, for window sizes 1 (tumbling degenerate),
    /// 2, and the ring-capacity boundary of the op sequence itself.
    #[test]
    fn arbitrary_interleavings_stay_bit_identical(
        seed in 0u64..50,
        epochs in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let window_policy = WindowPolicy::Sliding { epochs };
        let mut wm = windowed(config(seed), AlarmPolicy::default(), window_policy.clone());
        let mut snaps = vec![cumulative(&mut wm)];
        for op in &ops {
            match op {
                Op::Ingest(batch) => {
                    let updates: Vec<FlowUpdate> = batch
                        .iter()
                        .map(|&(s, d, insert)| {
                            if insert {
                                FlowUpdate::insert(SourceAddr(s), DestAddr(d))
                            } else {
                                FlowUpdate::delete(SourceAddr(s), DestAddr(d))
                            }
                        })
                        .collect();
                    wm.ingest(&updates);
                }
                Op::Rotate => {
                    wm.evaluate().unwrap();
                    snaps.push(cumulative(&mut wm));
                    let reference = reference_window(&snaps, epochs);
                    prop_assert_eq!(
                        ring(&wm).sketch().to_state(),
                        reference.to_state()
                    );
                }
                Op::Query => {
                    let before = ring(&wm).sketch().to_state();
                    let _ = wm.top_k(5).unwrap();
                    prop_assert_eq!(ring(&wm).sketch().to_state(), before);
                }
                Op::Restore => {
                    let mut restored = roundtrip(&mut wm, &config(seed), &window_policy);
                    prop_assert_eq!(
                        ring(&restored).sketch().to_state(),
                        ring(&wm).sketch().to_state()
                    );
                    prop_assert_eq!(
                        cumulative(&mut restored).to_state(),
                        cumulative(&mut wm).to_state()
                    );
                    prop_assert_eq!(restored.checkpoint().unwrap(), wm.checkpoint().unwrap());
                    wm = restored;
                }
            }
        }
        // Whatever the interleaving, close one last epoch and check.
        wm.evaluate().unwrap();
        snaps.push(cumulative(&mut wm));
        let reference = reference_window(&snaps, epochs);
        prop_assert_eq!(ring(&wm).sketch().to_state(), reference.to_state());
    }
}

/// Detector harness for the pulse-wave scenario: ingests a timeline in
/// fine ticks, rotating every `rotate_every_intervals` fine intervals,
/// and collects the alarmed destinations.
fn run_detector(
    intervals: &[Vec<FlowUpdate>],
    policy: WindowPolicy,
    rotate_every_intervals: usize,
    threshold: u64,
) -> Vec<u32> {
    let alarm_policy = AlarmPolicy {
        absolute_threshold: threshold,
        // The ratio rule is deliberately out of play: the scenario
        // isolates what the *window shape* alone can see.
        min_frequency_for_ratio: u64::MAX,
        ..AlarmPolicy::default()
    };
    let mut wm = windowed(wide_config(3), alarm_policy, policy);
    let mut alarmed = Vec::new();
    for (i, chunk) in intervals.iter().enumerate() {
        wm.ingest(chunk);
        if (i + 1) % rotate_every_intervals == 0 {
            for alarm in wm.evaluate().unwrap() {
                alarmed.push(alarm.dest);
            }
        }
    }
    alarmed.sort_unstable();
    alarmed.dedup();
    alarmed
}

#[test]
fn pulse_wave_straddling_boundaries_evades_tumbling_but_not_sliding() {
    const VICTIM: u32 = 0x0a00_0063;
    const FINE: u64 = 10; // sliding epoch, in ticks
    const COARSE: usize = 3; // tumbling epoch = 3 fine intervals = 30 ticks
    const THRESHOLD: u64 = 300;

    // A completing flash crowd (steady background, 90% completion) and
    // then a pulse-wave attack: 400-source bursts of 10 ticks, period
    // 60, phased by quiet(25) so every burst [85,95), [145,155),
    // [205,215) straddles a 30-tick tumbling boundary — each tumbling
    // window sees only ~200 of the 400 sources (and later the
    // teardown), never crossing the threshold.
    let timeline = TimelineBuilder::new(42)
        .steady_background(60, 15, 8, 0.9)
        .quiet(25)
        .pulse_attack(VICTIM, 3, 60, 10, 400)
        .build();
    let intervals = timeline.intervals(FINE);

    let tumbling = run_detector(&intervals, WindowPolicy::Tumbling, COARSE, THRESHOLD);
    let sliding = run_detector(
        &intervals,
        WindowPolicy::Sliding { epochs: COARSE },
        1,
        THRESHOLD,
    );

    // Ground truth: exactly one attacked destination.
    let attacked = [VICTIM];

    // Tumbling: recall 0 — the attack is invisible at this cadence.
    let tumbling_hits = tumbling.iter().filter(|d| attacked.contains(d)).count();
    assert_eq!(
        tumbling_hits, 0,
        "tumbling was not supposed to see the straddled bursts: {tumbling:?}"
    );
    assert!(
        tumbling.is_empty(),
        "tumbling raised spurious alarms: {tumbling:?}"
    );

    // Sliding: recall 1, precision 1 — it alarms on the victim and on
    // nothing else (the flash crowd completes and stays quiet).
    let sliding_hits = sliding.iter().filter(|d| attacked.contains(d)).count();
    let recall = sliding_hits as f64 / attacked.len() as f64;
    let precision = if sliding.is_empty() {
        0.0
    } else {
        sliding_hits as f64 / sliding.len() as f64
    };
    assert_eq!(recall, 1.0, "sliding missed the pulse wave: {sliding:?}");
    assert_eq!(
        precision, 1.0,
        "sliding alarmed on non-attacked destinations: {sliding:?}"
    );
}

#[test]
fn tumbling_policy_is_the_capacity_one_degenerate_of_sliding() {
    // WindowPolicy::Tumbling is not special-cased machinery: it is a
    // capacity-1 sliding window, and at equal rotation cadence the two
    // produce identical windowed states.
    let mut tumbling = windowed(config(7), AlarmPolicy::default(), WindowPolicy::Tumbling);
    let mut sliding1 = windowed(
        config(7),
        AlarmPolicy::default(),
        WindowPolicy::Sliding { epochs: 1 },
    );
    for epoch in 0..4u32 {
        let updates: Vec<FlowUpdate> = (0..80u32)
            .map(|s| FlowUpdate::insert(SourceAddr(epoch * 1_000 + s), DestAddr(epoch)))
            .collect();
        tumbling.ingest(&updates);
        sliding1.ingest(&updates);
        assert_eq!(tumbling.evaluate().unwrap(), sliding1.evaluate().unwrap());
        assert_eq!(
            ring(&tumbling).sketch().to_state(),
            ring(&sliding1).sketch().to_state()
        );
    }
}

#[test]
fn partial_window_covers_exactly_the_closed_epochs() {
    // Before the ring fills, the window is the difference against the
    // *empty* snapshot — all closed epochs, nothing from the open one.
    let mut window = SlidingWindow::new(config(11), 4);
    let mut cumulative = DistinctCountSketch::new(config(11));
    for s in 0..35u32 {
        cumulative.insert(SourceAddr(s), DestAddr(1));
    }
    window
        .roll(
            cumulative
                .difference(&DistinctCountSketch::new(config(11)))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(window.len(), 1);
    assert_eq!(window.sketch().updates_processed(), 35);
    assert_eq!(
        window.sketch().to_state(),
        cumulative
            .difference(&DistinctCountSketch::new(config(11)))
            .unwrap()
            .to_state()
    );
}

#[test]
fn decayed_lambda_one_ranks_like_plain_sliding() {
    // The decayed policy at λ = 1 must rank exactly like the plain
    // sliding window (the degenerate case the decay docs promise).
    let mk = |policy: WindowPolicy| {
        let mut wm = windowed(wide_config(29), AlarmPolicy::default(), policy);
        for epoch in 0..5u32 {
            let updates: Vec<FlowUpdate> = (0..(30 + epoch * 20))
                .map(|s| FlowUpdate::insert(SourceAddr(epoch * 3_000 + s), DestAddr(epoch)))
                .collect();
            wm.ingest(&updates);
            wm.evaluate().unwrap();
        }
        wm
    };
    let mut plain = mk(WindowPolicy::Sliding { epochs: 3 });
    let mut decayed = mk(WindowPolicy::Decayed {
        epochs: 3,
        lambda: 1.0,
    });
    assert_eq!(
        plain.top_k(3).unwrap().groups(),
        decayed.top_k(3).unwrap().groups()
    );
}

#[test]
fn windowed_query_rejects_snapshot_ahead_cumulative() {
    // A cumulative sketch behind the epoch base cannot be a later state
    // of the sketch the base was captured from: the windowed query path
    // surfaces SnapshotAhead instead of silently producing a wrapped
    // (garbage) delta.
    let mut window = EpochWindow::new(config(31), WindowPolicy::Sliding { epochs: 2 }).unwrap();
    let mut cumulative = DistinctCountSketch::new(config(31));
    for s in 0..50u32 {
        cumulative.insert(SourceAddr(s), DestAddr(2));
    }
    window.advance(&cumulative).unwrap();
    let stale = DistinctCountSketch::new(config(31));
    let err = window.advance(&stale);
    assert!(
        matches!(err, Err(ddos_streams::SketchError::SnapshotAhead { .. })),
        "{err:?}"
    );
    // The failed advance left the window untouched.
    assert_eq!(window.window().epochs_rotated(), 1);
    assert_eq!(window.window().sketch().updates_processed(), 50);
}

/// The unfused epoch slide, composed from public operations: the
/// oracle the fused [`EpochWindow::advance`] must equal byte for byte.
struct ComposedWindow {
    window: SlidingWindow,
    base: DistinctCountSketch,
}

impl ComposedWindow {
    fn new(config: SketchConfig, epochs: usize) -> Self {
        Self {
            window: SlidingWindow::new(config.clone(), epochs),
            base: DistinctCountSketch::new(config),
        }
    }

    fn advance(&mut self, cumulative: &DistinctCountSketch) -> Result<(), SketchError> {
        let delta = cumulative.difference(&self.base)?;
        self.window.roll(delta)?;
        self.base = cumulative.clone();
        Ok(())
    }

    fn to_checkpoint(&self, current: &TrackingDcs) -> WindowCheckpoint {
        WindowCheckpoint {
            epochs: self.window.epochs() as u64,
            epochs_rotated: self.window.epochs_rotated(),
            current: current.to_state(),
            base: self.base.to_state(),
            window: self.window.sketch().to_state(),
            deltas: self
                .window
                .deltas()
                .map(DistinctCountSketch::to_state)
                .collect(),
        }
    }
}

/// The cumulative sketch a window slides over: ingested directly and
/// passed as a fresh clone at each boundary, ingested directly and
/// passed in place, or split across sharded workers and merged at each
/// boundary.
enum Cumulative {
    Cloned(DistinctCountSketch),
    InPlace(DistinctCountSketch),
    Sharded(ShardedIngest),
}

impl Cumulative {
    fn ingest(&mut self, updates: &[FlowUpdate]) {
        match self {
            Self::Cloned(sketch) | Self::InPlace(sketch) => sketch.update_batch(updates),
            Self::Sharded(engine) => engine.ingest(updates),
        }
    }

    fn sketch(&mut self) -> Cow<'_, DistinctCountSketch> {
        match self {
            Self::Cloned(sketch) => Cow::Owned(sketch.clone()),
            Self::InPlace(sketch) => Cow::Borrowed(sketch),
            Self::Sharded(engine) => Cow::Owned(engine.merged_sketch().unwrap()),
        }
    }

    /// Carries on from a restored copy of the cumulative sketch, as a
    /// resumed monitor does (a sharded engine keeps its shards).
    fn resume(&mut self, restored: DistinctCountSketch) {
        match self {
            Self::Cloned(sketch) | Self::InPlace(sketch) => *sketch = restored,
            Self::Sharded(_) => {}
        }
    }
}

/// A sketch small enough that a 16-deep ring of them checkpoints fast.
fn slim_config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .num_tables(2)
        .buckets_per_table(16)
        .max_levels(16)
        .seed(seed)
        .build()
        .unwrap()
}

/// Asserts the fused window and the oracle hold the same accumulator,
/// base and ring deltas, and encode to the same kind-5 bytes. (The
/// documents' `current` field only passes through, so an empty
/// tracking sketch stands in for the cumulative one.)
fn assert_same_window(fused: &EpochWindow, oracle: &ComposedWindow) -> Result<(), TestCaseError> {
    let current = TrackingDcs::new(oracle.window.config().clone());
    let (got, want) = (
        fused.to_checkpoint(&current),
        oracle.to_checkpoint(&current),
    );
    prop_assert_eq!(&got.window, &want.window, "accumulator");
    prop_assert_eq!(&got.base, &want.base, "epoch base");
    prop_assert_eq!(&got.deltas, &want.deltas, "ring deltas");
    prop_assert_eq!(got.epochs_rotated, want.epochs_rotated);
    prop_assert!(
        encode(&Checkpoint::Window(got)) == encode(&Checkpoint::Window(want)),
        "kind-5 documents differ"
    );
    Ok(())
}

/// One step of the fused-vs-composed interleaving.
#[derive(Debug, Clone)]
enum SlideOp {
    /// Ingest updates into the open epoch (`true` = insert).
    Ingest(Vec<(u32, u32, bool)>),
    /// Ingest only those updates whose pairs land on levels 0 and 1,
    /// so the epoch leaves every higher level unchanged.
    IngestLow(Vec<(u32, u32, bool)>),
    /// Close the epoch on both windows. Back-to-back rotations close
    /// empty epochs.
    Rotate,
    /// Checkpoint the fused window through the kind-5 codec and carry
    /// on from the restore, cumulative sketch included.
    Restore,
    /// Advance with a cumulative sketch behind the base (an error once
    /// the base has seen updates).
    Stale,
    /// Advance with a sketch of another configuration (always an error).
    Foreign,
}

fn slide_op_strategy() -> impl Strategy<Value = SlideOp> {
    let batch = |max| {
        proptest::collection::vec((0u32..100_000, 0u32..6, 0u32..10), 1..max).prop_map(|batch| {
            batch
                .into_iter()
                .map(|(s, d, roll)| (s, d, roll < 8))
                .collect::<Vec<_>>()
        })
    };
    // Small epochs stay on the low levels; the occasional large one
    // reaches levels the cumulative sketch never had.
    prop_oneof![
        batch(20).prop_map(SlideOp::Ingest),
        batch(20).prop_map(SlideOp::IngestLow),
        batch(300).prop_map(SlideOp::Ingest),
        Just(SlideOp::Rotate),
        Just(SlideOp::Rotate),
        Just(SlideOp::Rotate),
        Just(SlideOp::Restore),
        Just(SlideOp::Stale),
        Just(SlideOp::Foreign),
    ]
}

fn flow_updates(batch: &[(u32, u32, bool)]) -> Vec<FlowUpdate> {
    batch
        .iter()
        .map(|&(s, d, insert)| {
            if insert {
                FlowUpdate::insert(SourceAddr(s), DestAddr(d))
            } else {
                FlowUpdate::delete(SourceAddr(s), DestAddr(d))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random ingest/rotate/restore/error interleavings, for N = 1
    /// (tumbling), 2 and 16 — before and after the ring fills — over a
    /// cumulative passed as a fresh clone, passed in place, or merged
    /// from shards. Empty epochs and epochs confined to the low levels
    /// send unchanged levels down the content-id skip. After every
    /// rotation the fused window equals the composed one byte for
    /// byte, and a failed advance leaves the fused window's checkpoint
    /// unchanged.
    #[test]
    fn fused_slide_equals_the_composed_slide_byte_for_byte(
        seed in 0u64..50,
        epochs in (0usize..3).prop_map(|i| [1usize, 2, 16][i]),
        source in 0usize..3,
        ops in proptest::collection::vec(slide_op_strategy(), 1..60),
    ) {
        let policy = if epochs == 1 {
            WindowPolicy::Tumbling
        } else {
            WindowPolicy::Sliding { epochs }
        };
        let config = slim_config(seed);
        let levels = DistinctCountSketch::new(config.clone());
        let mut fused = EpochWindow::new(config.clone(), policy.clone()).unwrap();
        let mut oracle = ComposedWindow::new(config.clone(), epochs);
        let mut cumulative = match source {
            0 => Cumulative::Cloned(DistinctCountSketch::new(config.clone())),
            1 => Cumulative::InPlace(DistinctCountSketch::new(config.clone())),
            _ => Cumulative::Sharded(ShardedIngest::new(config.clone(), 2)),
        };
        let current = TrackingDcs::new(config.clone());
        for op in ops.iter().chain([&SlideOp::Rotate]) {
            let stale;
            let supplied = match op {
                SlideOp::Ingest(batch) => {
                    cumulative.ingest(&flow_updates(batch));
                    continue;
                }
                SlideOp::IngestLow(batch) => {
                    let mut updates = flow_updates(batch);
                    updates.retain(|u| levels.level_of(u.key) < 2);
                    cumulative.ingest(&updates);
                    continue;
                }
                SlideOp::Restore => {
                    let now = cumulative.sketch().into_owned();
                    let doc = fused.to_checkpoint(&TrackingDcs::from_sketch(now));
                    let Checkpoint::Window(doc) =
                        decode(&encode(&Checkpoint::Window(doc))).unwrap()
                    else {
                        panic!("wrong document kind");
                    };
                    let (restored, now) = EpochWindow::from_checkpoint(doc, policy.clone()).unwrap();
                    fused = restored;
                    cumulative.resume(now.into_sketch());
                    continue;
                }
                SlideOp::Rotate => cumulative.sketch(),
                SlideOp::Stale => {
                    stale = DistinctCountSketch::new(config.clone());
                    Cow::Borrowed(&stale)
                }
                SlideOp::Foreign => Cow::Owned(DistinctCountSketch::new(slim_config(seed + 1_000))),
            };
            let before = fused.to_checkpoint(&current);
            let got = fused.advance(&supplied);
            prop_assert_eq!(&got, &oracle.advance(&supplied));
            if got.is_err() {
                prop_assert_eq!(fused.to_checkpoint(&current), before);
            }
            assert_same_window(&fused, &oracle)?;
        }
    }
}

/// The content-id skip at `pulse_sliding`'s shape: 2 000-update epochs
/// through a 16-epoch window over a cumulative sketch that already
/// spans more levels than one epoch reaches. Most boundaries leave the
/// top levels unchanged, so the window must skip levels — and still
/// equal the composed slide byte for byte, through the ring's wrap.
#[test]
fn pulse_shaped_epochs_skip_unchanged_levels_and_match_the_composition() {
    let config = SketchConfig::paper_default();
    let policy = WindowPolicy::Sliding { epochs: 16 };
    let mut fused = EpochWindow::new(config.clone(), policy).unwrap();
    let mut oracle = ComposedWindow::new(config.clone(), 16);
    let mut cumulative = DistinctCountSketch::new(config);
    let prefill: Vec<FlowUpdate> = (0..1u32 << 17)
        .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 64)))
        .collect();
    cumulative.update_batch(&prefill);
    for epoch in 0..20u32 {
        let base = (epoch + 2) << 17;
        let mut updates: Vec<FlowUpdate> = (0..1_800u32)
            .map(|s| FlowUpdate::insert(SourceAddr(base + s), DestAddr(s % 8)))
            .collect();
        // Half-open flows of the previous epoch time out.
        updates.extend(
            (0..200u32)
                .map(|s| FlowUpdate::delete(SourceAddr(base - (1 << 17) + s), DestAddr(s % 8))),
        );
        if epoch > 0 {
            cumulative.update_batch(&updates);
        } else {
            cumulative.update_batch(&updates[..1_800]);
        }
        fused.advance(&cumulative).unwrap();
        oracle.advance(&cumulative).unwrap();
        if epoch % 8 == 7 || epoch == 19 {
            assert_same_window(&fused, &oracle).unwrap();
        }
    }
    let mut snap = TelemetrySnapshot::new("pulse");
    fused.stamp_gauges(&mut snap);
    let (slid, skipped) = (
        snap.counters["window_levels_slid"],
        snap.counters["window_levels_skipped"],
    );
    assert!(slid > 0 && skipped > 0, "slid {slid}, skipped {skipped}");
}

#[test]
fn fused_slide_matches_across_a_new_level_with_the_ring_full() {
    // Two small epochs fill a 2-epoch ring on the low levels; the third
    // epoch is large enough to materialize levels the cumulative
    // sketch, the base, the accumulator and the expiring delta never
    // had. A sharded-merged cumulative must slide identically.
    let policy = WindowPolicy::Sliding { epochs: 2 };
    for sharded in [false, true] {
        let mut fused = EpochWindow::new(slim_config(5), policy.clone()).unwrap();
        let mut oracle = ComposedWindow::new(slim_config(5), 2);
        let mut cumulative = if sharded {
            Cumulative::Sharded(ShardedIngest::new(slim_config(5), 3))
        } else {
            Cumulative::Cloned(DistinctCountSketch::new(slim_config(5)))
        };
        let mut levels_before = 0;
        for (epoch, size) in [8u32, 8, 4_000, 30].into_iter().enumerate() {
            let updates: Vec<FlowUpdate> = (0..size)
                .map(|s| FlowUpdate::insert(SourceAddr(epoch as u32 * 10_000 + s), DestAddr(s % 5)))
                .collect();
            cumulative.ingest(&updates);
            let now = cumulative.sketch().into_owned();
            if epoch == 2 {
                assert_eq!(fused.window().len(), 2, "the ring is full");
                assert!(
                    now.allocated_levels() > levels_before,
                    "a new level appeared"
                );
            }
            levels_before = now.allocated_levels();
            fused.advance(&now).unwrap();
            oracle.advance(&now).unwrap();
            assert_same_window(&fused, &oracle).unwrap();
        }
    }
}

/// A small, shallow configuration whose arbitrary sketches disagree
/// on which levels they materialize.
fn shallow_config() -> SketchConfig {
    SketchConfig::builder()
        .num_tables(2)
        .buckets_per_table(16)
        .max_levels(6)
        .seed(3)
        .build()
        .unwrap()
}

/// An arbitrary sketch: inserts, deletes, and insert-then-delete pairs
/// (which leave a materialized, all-zero level behind).
fn arbitrary_sketch(max_ops: usize) -> impl Strategy<Value = DistinctCountSketch> {
    proptest::collection::vec((0u32..300, 0u32..4, 0u32..3), 0..max_ops).prop_map(|ops| {
        let mut sketch = DistinctCountSketch::new(shallow_config());
        for (s, d, kind) in ops {
            let (source, dest) = (SourceAddr(s), DestAddr(d));
            match kind {
                0 => sketch.insert(source, dest),
                1 => sketch.delete(source, dest),
                _ => {
                    sketch.insert(source, dest);
                    sketch.delete(source, dest);
                }
            }
        }
        sketch
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core operation against the composition on four unrelated
    /// sketches, so every combination of present, absent and all-zero
    /// levels across cumulative, base, accumulator and expiring delta
    /// occurs: equal results on success, the same error with all four
    /// sketches untouched on failure. Half the cases slide against a
    /// base cloned from the cumulative sketch, so every level takes
    /// the content-id skip.
    #[test]
    fn slide_epoch_equals_the_composition_on_arbitrary_sketches(
        cumulative in arbitrary_sketch(40),
        base in arbitrary_sketch(20),
        window in arbitrary_sketch(40),
        expiring in arbitrary_sketch(20),
        base_is_cumulative in any::<bool>(),
    ) {
        let base = if base_is_cumulative { cumulative.clone() } else { base };
        let composed = (|| {
            let delta = cumulative.difference(&base)?;
            let mut w = window.clone();
            w.merge_from(&delta)?;
            w.subtract(&expiring)?;
            Ok::<_, SketchError>((w, cumulative.clone(), delta))
        })();
        let (mut w, mut b, mut slot) = (window.clone(), base.clone(), expiring.clone());
        let fused = w.slide_epoch(&cumulative, &mut b, &mut slot);
        match composed {
            Ok((want_w, want_b, want_slot)) => {
                let slide = fused.unwrap();
                prop_assert_eq!(
                    slide.levels_slid + slide.levels_skipped,
                    cumulative.allocated_levels() as u64
                );
                if base_is_cumulative {
                    prop_assert_eq!(slide.levels_slid, 0);
                }
                prop_assert_eq!(w.to_state(), want_w.to_state());
                prop_assert_eq!(b.to_state(), want_b.to_state());
                prop_assert_eq!(slot.to_state(), want_slot.to_state());
            }
            Err(err) => {
                prop_assert_eq!(fused, Err(err));
                prop_assert_eq!(w.to_state(), window.to_state());
                prop_assert_eq!(b.to_state(), base.to_state());
                prop_assert_eq!(slot.to_state(), expiring.to_state());
            }
        }
    }
}
