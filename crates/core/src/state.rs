//! Plain-data snapshots of sketch state for persistence.
//!
//! A checkpoint layer (see the `dcs-persist` crate) needs every word of
//! a synopsis' internal state — the per-level total, half-sum and
//! fingerprint-sum slabs, the tracking layer's singleton multisets and
//! heap slot arrays, the bookkeeping counters — but the storage types
//! themselves are deliberately private. This module is the boundary: public
//! structure-of-vectors types that hold *exactly* the persistent state,
//! produced by [`DistinctCountSketch::to_state`] /
//! [`TrackingDcs::to_state`] and consumed by the matching
//! `from_state` constructors.
//!
//! Two design rules make checkpoint/restore *bit-identical* rather
//! than merely equivalent:
//!
//! * **Hash functions are never serialized.** Every hash is derived
//!   deterministically from `SketchConfig::seed` via `SeedSequence`,
//!   so persisting the config reconstructs them exactly.
//! * **Heap slots are captured in array order, singletons in sorted
//!   order.** The tracking heaps break ties by arrangement-independent
//!   ordering, but the *internal slot arrangement* still determines
//!   how future `adjust` calls permute the array. Restoring slots
//!   verbatim (and rebuilding the derived position map) means a
//!   restored sketch replaying the suffix stream reaches the same
//!   arrangement as the uninterrupted run. Singleton maps have no
//!   observable order, so they are canonicalized by packed key.
//!
//! [`DistinctCountSketch::to_state`]: crate::DistinctCountSketch::to_state
//! [`TrackingDcs::to_state`]: crate::TrackingDcs::to_state

use crate::config::SketchConfig;
use crate::signature::CountSignature;

/// The four storage slabs of one materialized level, as plain vectors.
///
/// Each slab holds one word per bucket slot (`r·s` words, bucket `k` of
/// table `j` at slot `j·s + k`); lengths are redundant with the sketch
/// configuration and are re-validated against it on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSlabs {
    /// The first-level bucket index this slab belongs to.
    pub level: u32,
    /// Bucket totals `Σ ±1` (the paper's 4-byte counters).
    pub totals: Vec<i32>,
    /// Exact sums `Σ ±lo32(key)` of the keys' low 32-bit halves.
    pub lo_sums: Vec<i64>,
    /// Exact sums `Σ ±hi32(key)` of the keys' high 32-bit halves.
    pub hi_sums: Vec<i64>,
    /// Wrapping fingerprint sums `Σ ±fingerprint64(key)`.
    pub fp_sums: Vec<u64>,
}

impl LevelSlabs {
    /// The count signature of bucket slot `slot`, or `None` past the
    /// end of a slab.
    pub fn signature(&self, slot: usize) -> Option<CountSignature> {
        Some(CountSignature {
            total: *self.totals.get(slot)?,
            lo: *self.lo_sums.get(slot)?,
            hi: *self.hi_sums.get(slot)?,
            fp: *self.fp_sums.get(slot)?,
        })
    }
}

/// Complete persistent state of a [`DistinctCountSketch`].
///
/// Holds only the levels with a non-zero slot. The sketch is linear, so
/// a level whose counters all returned to zero is the same state as a
/// level never touched: both are absent here, and two sketches have
/// equal states exactly when their counters are equal. A state that
/// also lists all-zero levels, as files from earlier builds do, is
/// still valid; `from_state` installs those levels as given, and the
/// next `to_state` omits them again.
///
/// [`DistinctCountSketch`]: crate::DistinctCountSketch
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchState {
    /// Shape, seed and grouping (hashes re-derive from the seed).
    pub config: SketchConfig,
    /// Total updates processed.
    pub updates_processed: u64,
    /// Net sum of update signs.
    pub net_updates: i64,
    /// Levels with a non-zero slot, strictly ascending by `level`.
    pub levels: Vec<LevelSlabs>,
}

/// Persistent state of one tracking level: the singleton multiset and
/// the destination heap, plus the heap's anomaly counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackingLevelState {
    /// The first-level bucket index.
    pub level: u32,
    /// `(packed pair, table count)` entries sorted ascending by packed
    /// pair — the canonical order (the live map has none).
    pub singletons: Vec<(u64, u32)>,
    /// `(priority, group)` heap slots in *exact array order*; the
    /// key → slot position map is derived on restore.
    pub heap_slots: Vec<(u64, u32)>,
    /// Clamped negative heap adjustments observed so far.
    pub heap_underflows: u64,
    /// Clamped positive heap adjustments observed so far.
    pub heap_overflows: u64,
    /// Total heap adjustments observed so far.
    pub heap_adjusts: u64,
}

/// Complete persistent state of a [`TrackingDcs`]: the underlying
/// basic sketch plus the incrementally maintained tracking structures.
///
/// The tracking structures *could* be rebuilt from the counters
/// (`TrackingDcs::from_sketch` does exactly that), but a rebuild
/// produces a different internal heap arrangement than the incremental
/// history did — and then a restored run's future tie-breaking state
/// diverges from the uninterrupted run's, even though every query
/// answer agrees. Persisting them verbatim keeps recovery bit-identical.
///
/// [`TrackingDcs`]: crate::TrackingDcs
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackingState {
    /// The underlying counter storage and configuration.
    pub sketch: SketchState,
    /// Non-empty tracking levels, strictly ascending by `level`.
    /// (Levels with no singletons, an empty heap, and zero counters are
    /// omitted; restore fills them with fresh empties.)
    pub levels: Vec<TrackingLevelState>,
    /// Decrements of never-tracked pairs observed so far.
    pub untracked_decrements: u64,
}

impl TrackingLevelState {
    /// Whether this level carries no state worth persisting.
    pub fn is_empty(&self) -> bool {
        self.singletons.is_empty()
            && self.heap_slots.is_empty()
            && self.heap_underflows == 0
            && self.heap_overflows == 0
            && self.heap_adjusts == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::DistinctCountSketch;
    use crate::tracking::TrackingDcs;
    use crate::types::{DestAddr, FlowUpdate, SourceAddr};
    use proptest::prelude::*;

    fn config(seed: u64) -> SketchConfig {
        SketchConfig::builder()
            .num_tables(3)
            .buckets_per_table(64)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn sketch_state_roundtrips_bit_identically() {
        let mut sketch = DistinctCountSketch::new(config(1));
        for s in 0..500u32 {
            sketch.insert(SourceAddr(s), DestAddr(s % 9));
        }
        for s in 0..100u32 {
            sketch.delete(SourceAddr(s), DestAddr(s % 9));
        }
        let state = sketch.to_state();
        let restored = DistinctCountSketch::from_state(state.clone()).unwrap();
        assert_eq!(restored.to_state(), state);
        assert_eq!(
            restored.estimate_top_k(5, 0.25),
            sketch.estimate_top_k(5, 0.25)
        );
        assert_eq!(restored.updates_processed(), sketch.updates_processed());
        assert_eq!(restored.net_updates(), sketch.net_updates());
    }

    #[test]
    fn restored_sketch_continues_identically() {
        // Linearity in action: restore mid-stream, replay the suffix,
        // land on the uninterrupted run's exact counters.
        let mut full = DistinctCountSketch::new(config(2));
        let mut prefix = DistinctCountSketch::new(config(2));
        for s in 0..400u32 {
            full.insert(SourceAddr(s), DestAddr(s % 7));
            if s < 250 {
                prefix.insert(SourceAddr(s), DestAddr(s % 7));
            }
        }
        let mut resumed = DistinctCountSketch::from_state(prefix.to_state()).unwrap();
        for s in 250..400u32 {
            resumed.insert(SourceAddr(s), DestAddr(s % 7));
        }
        assert_eq!(resumed.to_state(), full.to_state());
    }

    #[test]
    fn tracking_state_roundtrips_bit_identically() {
        let mut t = TrackingDcs::new(config(3));
        for s in 0..600u32 {
            t.insert(SourceAddr(s), DestAddr(s % 11));
        }
        for s in 0..120u32 {
            t.delete(SourceAddr(s), DestAddr(s % 11));
        }
        let state = t.to_state();
        let restored = TrackingDcs::from_state(state.clone()).unwrap();
        assert_eq!(restored.to_state(), state);
        restored.check_tracking_invariants().unwrap();
        assert_eq!(restored.track_top_k(5, 0.25), t.track_top_k(5, 0.25));
        assert_eq!(restored.heap_adjusts(), t.heap_adjusts());
    }

    #[test]
    fn tracking_restore_preserves_heap_arrangement_not_just_content() {
        // from_sketch rebuilds and generally lands on a different slot
        // arrangement; from_state must not.
        let mut t = TrackingDcs::new(config(4));
        for s in 0..800u32 {
            t.insert(SourceAddr(s), DestAddr(s % 23));
        }
        let state = t.to_state();
        let restored = TrackingDcs::from_state(state.clone()).unwrap();
        // Exact slot vectors, not merely equal top-k answers.
        for (a, b) in state.levels.iter().zip(restored.to_state().levels.iter()) {
            assert_eq!(a.heap_slots, b.heap_slots, "level {}", a.level);
        }
    }

    #[test]
    fn from_state_rejects_wrong_dimensions() {
        let mut sketch = DistinctCountSketch::new(config(5));
        sketch.insert(SourceAddr(1), DestAddr(2));
        let mut state = sketch.to_state();
        state.levels[0].lo_sums.pop();
        assert!(DistinctCountSketch::from_state(state).is_err());
    }

    #[test]
    fn from_state_rejects_out_of_range_and_unsorted_levels() {
        let mut sketch = DistinctCountSketch::new(config(6));
        sketch.insert(SourceAddr(1), DestAddr(2));
        let good = sketch.to_state();

        let mut out_of_range = good.clone();
        out_of_range.levels[0].level = 64;
        assert!(DistinctCountSketch::from_state(out_of_range).is_err());

        let mut duplicated = good.clone();
        let dup = duplicated.levels[0].clone();
        duplicated.levels.push(dup);
        assert!(DistinctCountSketch::from_state(duplicated).is_err());
    }

    #[test]
    fn tracking_from_state_rejects_corrupt_structures() {
        let mut t = TrackingDcs::new(config(7));
        for s in 0..200u32 {
            t.insert(SourceAddr(s), DestAddr(s % 7));
        }
        let good = t.to_state();
        let with_singletons = good
            .levels
            .iter()
            .position(|l| !l.singletons.is_empty())
            .expect("a 200-pair stream must track singletons somewhere");
        let with_big_heap = good
            .levels
            .iter()
            .position(|l| l.heap_slots.len() >= 2)
            .expect("7 destinations must give some heap two entries");

        // Duplicate singleton key.
        let mut dup_singleton = good.clone();
        let first = dup_singleton.levels[with_singletons].singletons[0];
        dup_singleton.levels[with_singletons].singletons.push(first);
        assert!(TrackingDcs::from_state(dup_singleton).is_err());

        // Zero-count singleton.
        let mut zero_count = good.clone();
        zero_count.levels[with_singletons].singletons[0].1 = 0;
        assert!(TrackingDcs::from_state(zero_count).is_err());

        // Heap-order violation: force a child above its parent.
        let mut bad_heap = good;
        bad_heap.levels[with_big_heap].heap_slots[0].0 = 1;
        bad_heap.levels[with_big_heap].heap_slots[1].0 = u64::MAX;
        assert!(TrackingDcs::from_state(bad_heap).is_err());
    }

    #[test]
    fn empty_tracking_levels_are_omitted_and_restored() {
        let mut t = TrackingDcs::new(config(8));
        t.insert(SourceAddr(1), DestAddr(2));
        let state = t.to_state();
        assert!(
            state.levels.len() <= 3,
            "only touched levels persisted, got {}",
            state.levels.len()
        );
        let restored = TrackingDcs::from_state(state).unwrap();
        restored.check_tracking_invariants().unwrap();
    }

    /// A stream whose deletes cancel whole levels: every `churn` pair is
    /// inserted and later deleted, so a level only churn pairs reached
    /// returns to all-zero while the few `keep` pairs hold theirs.
    fn cancelling_stream(keep: &[(u32, u32)], churn: &[(u32, u32)]) -> Vec<FlowUpdate> {
        let update = |&(s, d): &(u32, u32)| FlowUpdate::insert(SourceAddr(s), DestAddr(d));
        let mut stream: Vec<FlowUpdate> = churn.iter().map(update).collect();
        stream.extend(keep.iter().map(update));
        stream.extend(
            churn
                .iter()
                .rev()
                .map(|&(s, d)| FlowUpdate::delete(SourceAddr(s), DestAddr(d))),
        );
        stream
    }

    fn replay(seed: u64, stream: &[FlowUpdate]) -> DistinctCountSketch {
        let mut sketch = DistinctCountSketch::new(config(seed));
        sketch.update_batch(stream);
        sketch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A sketch's state is its levels with content: `to_state` lists
        /// exactly the levels holding a non-zero slot, restoring it
        /// answers every query as the sketch did, restore plus a suffix
        /// lands on the uninterrupted run, and a state that also carries
        /// the all-zero levels (as earlier builds wrote it) restores to
        /// the same counters.
        #[test]
        fn state_holds_exactly_the_levels_with_content(
            seed in 0u64..1_000,
            keep in proptest::collection::vec((0u32..1_000, 0u32..16), 0..6),
            churn in proptest::collection::vec((1_000u32..5_000, 0u32..16), 1..300),
            cut in 0usize..700,
        ) {
            let stream = cancelling_stream(&keep, &churn);
            let sketch = replay(seed, &stream);
            let state = sketch.to_state();
            let max_levels = sketch.config().max_levels();
            let occupied = |level| sketch.level_occupancy(level).map(|(occupied, _)| occupied);
            let with_content: Vec<u32> = (0..max_levels)
                .filter(|&l| occupied(l).is_some_and(|o| o > 0))
                .collect();
            let listed: Vec<u32> = state.levels.iter().map(|l| l.level).collect();
            prop_assert_eq!(listed, with_content);

            let restored = DistinctCountSketch::from_state(state.clone()).unwrap();
            prop_assert_eq!(&restored.to_state(), &state);
            for epsilon in [0.0, 0.25] {
                prop_assert_eq!(
                    restored.distinct_sample(epsilon),
                    sketch.distinct_sample(epsilon)
                );
                prop_assert_eq!(
                    restored.estimate_top_k(5, epsilon),
                    sketch.estimate_top_k(5, epsilon)
                );
            }

            let split = cut.min(stream.len());
            let prefix = replay(seed, &stream[..split]).to_state();
            let mut resumed = DistinctCountSketch::from_state(prefix).unwrap();
            resumed.update_batch(&stream[split..]);
            prop_assert_eq!(resumed.to_state(), state.clone());

            let slots = sketch.config().num_tables() * sketch.config().buckets_per_table();
            let mut legacy = state.clone();
            for level in (0..max_levels).filter(|&l| occupied(l) == Some(0)) {
                let at = legacy.levels.partition_point(|l| l.level < level);
                let zero = LevelSlabs {
                    level,
                    totals: vec![0; slots],
                    lo_sums: vec![0; slots],
                    hi_sums: vec![0; slots],
                    fp_sums: vec![0; slots],
                };
                legacy.levels.insert(at, zero);
            }
            let from_legacy = DistinctCountSketch::from_state(legacy).unwrap();
            prop_assert_eq!(from_legacy.to_state(), state);
            prop_assert_eq!(
                from_legacy.estimate_top_k(5, 0.25),
                sketch.estimate_top_k(5, 0.25)
            );
        }
    }

    #[test]
    fn a_fully_cancelled_sketch_has_no_levels() {
        let churn: Vec<(u32, u32)> = (0..2_000).map(|s| (s, s % 9)).collect();
        let sketch = replay(9, &cancelling_stream(&[], &churn));
        assert!(sketch.allocated_levels() > 5);
        let state = sketch.to_state();
        assert!(state.levels.is_empty());
        assert_eq!(state.updates_processed, 4_000);
        assert_eq!(state.net_updates, 0);
    }
}
