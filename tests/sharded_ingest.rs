//! Cross-crate contract tests for the lock-free sharded ingest engine:
//! the merged result is *bit-identical* to single-threaded ingestion
//! regardless of how callers slice the stream or how many shards run,
//! and telemetry snapshots read while the workers drain are never
//! torn. Underneath both sits linearity itself: *any* partition of a
//! stream merges to the single-threaded sketch, which is what lets a
//! sharded run resume from the direct pipeline's checkpoint.

use proptest::prelude::*;

use ddos_streams::netsim::{ingest_sharded, ShardedIngest};
use ddos_streams::{
    Delta, DestAddr, DistinctCountSketch, FlowKey, FlowUpdate, SketchConfig, SourceAddr,
    TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(256)
        .seed(seed)
        .build()
        .unwrap()
}

fn key_at(i: u32) -> FlowKey {
    FlowKey::new(SourceAddr(i), DestAddr(i % 50))
}

/// A well-formed workload with churn: every seventh position discounts
/// the flow inserted three positions earlier, so shard-routing mistakes
/// (reordered or dropped deletes) would change counter state, not just
/// shuffle identical work. The insert/delete pair always shares a
/// 4096-update routing chunk (pairs never straddle `r % 4096 < 3`), so
/// every per-shard sub-stream prefix — and therefore every mid-stream
/// snapshot — is itself a well-formed multiset (no delete ever precedes
/// its insert on any shard).
fn churn_updates(n: u32) -> Vec<FlowUpdate> {
    (0..n)
        .map(|i| {
            let r = i % 4096;
            if r % 7 == 6 {
                FlowUpdate {
                    key: key_at(i - 3),
                    delta: Delta::Delete,
                }
            } else {
                FlowUpdate {
                    key: key_at(i),
                    delta: Delta::Insert,
                }
            }
        })
        .collect()
}

/// Single-threaded reference: one `update_batch` call over the whole
/// stream, on the plain (non-tracking) sketch.
fn reference_sketch(updates: &[FlowUpdate], seed: u64) -> DistinctCountSketch {
    let mut sketch = DistinctCountSketch::new(config(seed));
    sketch.update_batch(updates);
    sketch
}

#[test]
fn merged_is_bit_identical_across_adversarial_slicings() {
    let updates = churn_updates(26_000);
    let reference = reference_sketch(&updates, 9);
    let num_cpus = std::thread::available_parallelism().map_or(2, usize::from);

    // Slicing patterns chosen to hit every routing edge: empty calls,
    // 1-element slivers, slices straddling the 4096-update routing
    // chunk and the 1024-update handoff chunk, and exact boundaries.
    let slicings: &[&[usize]] = &[
        &[26_000],                                // one shot
        &[0, 1, 0, 1, 25_998, 0],                 // empty + sliver edges
        &[1_000, 3_096, 1, 4_095, 4_096, 13_712], // chunk-aligned + straddling
        &[5_000, 5_000, 5_000, 5_000, 6_000],     // every slice straddles 4096
        &[1_023, 1, 1_024, 2_048, 21_904],        // handoff-chunk edges
    ];
    for &shards in &[1usize, 3, num_cpus.max(2)] {
        for slicing in slicings {
            assert_eq!(slicing.iter().sum::<usize>(), updates.len());
            let mut engine = ShardedIngest::new(config(9), shards);
            let mut cursor = 0usize;
            for &len in *slicing {
                engine.ingest(&updates[cursor..cursor + len]);
                cursor += len;
            }
            let merged = engine.merged().unwrap();
            assert_eq!(
                merged.sketch().to_state(),
                reference.to_state(),
                "shards={shards} slicing={slicing:?} diverged from single-threaded"
            );
        }
    }
}

#[test]
fn one_element_calls_match_single_threaded() {
    // Degenerate producer: 5_000 calls of one update each. Exercises the
    // per-call routing math at every absolute position.
    let updates = churn_updates(5_000);
    let reference = reference_sketch(&updates, 4);
    let mut engine = ShardedIngest::new(config(4), 3);
    for u in &updates {
        engine.ingest(std::slice::from_ref(u));
    }
    let merged = engine.merged().unwrap();
    assert_eq!(merged.sketch().to_state(), reference.to_state());
}

#[test]
fn helper_matches_engine_for_every_shard_count() {
    let updates = churn_updates(12_000);
    let reference = reference_sketch(&updates, 5);
    for shards in 1..=4usize {
        let sketch = ingest_sharded(&updates, config(5), shards).unwrap();
        assert_eq!(
            sketch.sketch().to_state(),
            reference.to_state(),
            "shards={shards}"
        );
    }
}

#[test]
fn concurrent_snapshots_are_never_torn() {
    // Telemetry snapshots taken between unflushed `ingest` calls read
    // the shards in place while the workers drain their rings. Each must
    // cover no more than the workers have applied, and no more than the
    // producer has handed out; coverage must never go backwards.
    let updates = churn_updates(60_000);
    let reference = reference_sketch(&updates, 13);
    let mut engine = ShardedIngest::new(config(13), 3);
    let mut last_covered = 0u64;
    for chunk in updates.chunks(512) {
        engine.ingest(chunk);
        let snap = engine.telemetry_snapshot("mid_stream");
        let drained = snap.counters["sharded_updates_drained"];
        let distributed = snap.counters["sharded_updates_distributed"];
        assert!(
            snap.updates_processed <= drained && drained <= distributed,
            "torn snapshot: covered {} drained {drained} distributed {distributed}",
            snap.updates_processed
        );
        assert_eq!(distributed, engine.updates_distributed());
        assert!(
            snap.updates_processed >= last_covered,
            "snapshot coverage went backwards: {last_covered} -> {}",
            snap.updates_processed
        );
        last_covered = snap.updates_processed;
    }

    // After the flush inside `merged`, a snapshot covers the full
    // stream and the merged sketch equals the single-threaded result
    // bit for bit.
    let merged = engine.merged().unwrap();
    assert_eq!(merged.sketch().to_state(), reference.to_state());
    assert_eq!(
        engine.telemetry_snapshot("flushed").updates_processed,
        60_000
    );
}

#[test]
fn sharded_matches_incremental_tracking_top_k() {
    // The tracking layer built from the merged sketch agrees with an
    // incrementally-maintained TrackingDcs on the query surface.
    let updates = churn_updates(18_000);
    let mut tracked = TrackingDcs::new(config(21));
    tracked.update_batch(&updates);
    let sharded = ingest_sharded(&updates, config(21), 4).unwrap();
    assert_eq!(sharded.updates_processed(), tracked.updates_processed());
    let a = sharded.track_top_k(10, 0.25);
    let b = tracked.track_top_k(10, 0.25);
    assert_eq!(a.entries, b.entries);
}

/// A churned stream with no routing constraint: every seventh position
/// discounts the flow inserted three positions earlier. Split at random,
/// the delete often lands in another part than its insert.
fn cross_churn(n: usize) -> Vec<FlowUpdate> {
    (0..n)
        .map(|i| {
            let i = u32::try_from(i).unwrap();
            if i % 7 == 6 {
                FlowUpdate {
                    key: key_at(i - 3),
                    delta: Delta::Delete,
                }
            } else {
                FlowUpdate {
                    key: key_at(i),
                    delta: Delta::Insert,
                }
            }
        })
        .collect()
}

/// Sketches each part's sub-stream (in stream order) on top of its
/// starting sketch, then merges the parts.
fn merge_partition(
    mut parts: Vec<DistinctCountSketch>,
    updates: &[FlowUpdate],
    owners: &[usize],
) -> DistinctCountSketch {
    let count = parts.len();
    for (update, owner) in updates.iter().zip(owners) {
        parts[owner % count].update(*update);
    }
    DistinctCountSketch::merge_many(&config(17), &parts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any assignment of updates to 1–5 parts — cross-part deletes
    /// included, so a part may hold a delete whose insert it never saw —
    /// merges to the single-threaded sketch, bit for bit.
    #[test]
    fn any_partition_merges_to_the_single_threaded_sketch(
        n in 1usize..3_000,
        shards in 1usize..=5,
        owners in proptest::collection::vec(0usize..5, 3_000),
    ) {
        let updates = cross_churn(n);
        let reference = reference_sketch(&updates, 17);
        let parts = (0..shards).map(|_| DistinctCountSketch::new(config(17))).collect();
        let merged = merge_partition(parts, &updates, &owners);
        prop_assert_eq!(merged.to_state(), reference.to_state());
    }

    /// The same with part 0 starting from a sketch of a prefix of the
    /// stream — the shape of a sharded run resumed from a checkpoint.
    #[test]
    fn a_partition_on_top_of_a_prefix_sketch_merges_to_the_whole(
        n in 1usize..3_000,
        cut in 0usize..3_000,
        shards in 1usize..=5,
        owners in proptest::collection::vec(0usize..5, 3_000),
    ) {
        let updates = cross_churn(n);
        let (prefix, suffix) = updates.split_at(cut.min(n));
        let reference = reference_sketch(&updates, 17);
        let mut parts = vec![reference_sketch(prefix, 17)];
        parts.resize_with(shards, || DistinctCountSketch::new(config(17)));
        let merged = merge_partition(parts, suffix, &owners);
        prop_assert_eq!(merged.to_state(), reference.to_state());
    }
}
