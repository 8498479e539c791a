//! The Tracking Distinct-Count Sketch — §5 of the paper.
//!
//! A Tracking-DCS wraps the basic sketch's counter storage and keeps the
//! distinct sample *incrementally maintained*, so top-k queries run in
//! `O(k log m)` instead of rescanning `O(r·s·log² m)` counters:
//!
//! * `singletons(b)` — the set of currently-decodable singleton pairs in
//!   level `b`, each with the number of second-level tables where it is
//!   a singleton (`getCount`/`incrCount`/`decrCount` in the paper);
//! * `numSingletons(b)` — `|singletons(b)|`;
//! * `topDestHeap(b)` — an addressable max-heap over groups keyed by
//!   their occurrence frequency in `∪_{l ≥ b} singletons(l)`.
//!
//! The update algorithm (`UpdateTracking`, Fig. 6) watches each of the
//! `r` affected second-level buckets for state *transitions*
//! (empty ↔ singleton ↔ collision) and patches the three structures
//! accordingly. We implement insertion and deletion with one symmetric
//! decode-before / decode-after transition handler, which covers every
//! case in the paper's Fig. 6 (and its elided deletion half) uniformly.

use dcs_hash::cast::{u32_from_usize, u64_from_usize, usize_from_u32};
use dcs_hash::det::DetHashMap;
use dcs_hash::mix::fingerprint64;
use dcs_telemetry::{Counter, LevelGauges, TelemetrySnapshot};

use crate::config::SketchConfig;
use crate::error::SketchError;
use crate::estimator::{
    threshold_from_frequencies, top_k_from_frequencies, TopKEntry, TopKEstimate,
};
use crate::heap::IndexedMaxHeap;
use crate::sketch::{BatchScratch, DistinctCountSketch, BATCH_CHUNK, BATCH_MIN_ROUTED};
use crate::state::{TrackingLevelState, TrackingState};
use crate::types::{FlowKey, FlowUpdate};

/// Per-level tracking state: the incrementally maintained distinct
/// sample and destination heap.
#[derive(Debug, Clone, Default)]
struct TrackingLevel {
    /// Packed singleton pair → number of tables where it is a singleton.
    singletons: DetHashMap<u64, u32>,
    /// Group → occurrence frequency in `∪_{l ≥ this} singletons(l)`.
    heap: IndexedMaxHeap<u32>,
}

/// The Tracking Distinct-Count Sketch (Fig. 5).
///
/// Same space class as [`DistinctCountSketch`] (a small constant factor
/// more), same update class (`O(r log² m)` vs `O(r log m)`), but top-k
/// queries are `O(k log m)` — suitable for *continuous* tracking, where
/// the monitor asks for the top-k every few updates.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, SketchConfig, SourceAddr, TrackingDcs};
///
/// let mut sketch = TrackingDcs::new(SketchConfig::paper_default());
/// for s in 0..64u32 {
///     sketch.insert(SourceAddr(s), DestAddr(9));
/// }
/// let top = sketch.track_top_k(1, 0.25);
/// assert_eq!(top.entries[0].group, 9);
/// ```
#[derive(Debug, Clone)]
pub struct TrackingDcs {
    sketch: DistinctCountSketch,
    levels: Vec<TrackingLevel>,
    /// Number of decrements of pairs the tracking layer was not
    /// tracking. Stays zero on well-formed streams; counted (instead of
    /// silently ignored) so [`check_tracking_invariants`] can report it.
    ///
    /// [`check_tracking_invariants`]: Self::check_tracking_invariants
    untracked_decrements: u64,
}

impl TrackingDcs {
    /// Creates an empty tracking sketch with the given configuration.
    pub fn new(config: SketchConfig) -> Self {
        let levels = (0..config.max_levels())
            .map(|_| TrackingLevel::default())
            .collect();
        Self {
            sketch: DistinctCountSketch::new(config),
            levels,
            untracked_decrements: 0,
        }
    }

    /// Creates a tracking sketch with the paper's default configuration.
    pub fn with_default_config() -> Self {
        Self::new(SketchConfig::paper_default())
    }

    /// Wraps an existing basic sketch, building the tracking structures
    /// by scanning its counters once (`O(r·s·log² m)`, the cost of one
    /// basic query).
    ///
    /// This is how a monitoring center turns a serialized or
    /// merged [`DistinctCountSketch`] back into a continuously
    /// trackable synopsis.
    pub fn from_sketch(sketch: DistinctCountSketch) -> Self {
        let levels = (0..sketch.config().max_levels())
            .map(|_| TrackingLevel::default())
            .collect();
        let mut tracking = Self {
            sketch,
            levels,
            untracked_decrements: 0,
        };
        tracking.track_singletons();
        tracking
    }

    /// Consumes the tracking layer, returning the underlying basic
    /// sketch (e.g., for compact serialization).
    pub fn into_sketch(self) -> DistinctCountSketch {
        self.sketch
    }

    /// The underlying basic sketch (counter storage and configuration).
    ///
    /// `BaseTopk`-style estimation remains available through this view;
    /// on identical state it returns identical answers to
    /// [`track_top_k`](Self::track_top_k) (a property the test suite
    /// pins down).
    pub fn sketch(&self) -> &DistinctCountSketch {
        &self.sketch
    }

    /// The sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        self.sketch.config()
    }

    /// Total number of updates processed.
    pub fn updates_processed(&self) -> u64 {
        self.sketch.updates_processed()
    }

    /// `numSingletons(b)`: current number of distinct singleton pairs in
    /// level `level`.
    pub fn num_singletons(&self, level: u32) -> usize {
        self.levels[usize_from_u32(level)].singletons.len()
    }

    /// `UpdateTracking` (Fig. 6): applies one flow update and patches
    /// the tracked sample structures.
    ///
    /// Each of the `r` affected buckets is first run through the `O(1)`
    /// singleton screen: when it proves the update cannot move the
    /// bucket's decoded singleton set (a repeat of a singleton's own
    /// key, or an update into a bucket that is and stays
    /// empty/colliding — the overwhelmingly common cases on real
    /// streams), the counters are patched and both decodes are skipped.
    /// Only buckets the screen cannot clear pay for the
    /// decode-before/decode-after transition handling.
    pub fn update(&mut self, update: FlowUpdate) {
        self.apply_update(update);
    }

    /// The screened core shared by [`update`](Self::update) and the
    /// short-batch plan of [`update_batch`](Self::update_batch) — one
    /// code path mutates the counters and tracking structures per
    /// update.
    #[inline]
    fn apply_update(&mut self, update: FlowUpdate) {
        let level = usize_from_u32(self.sketch.level_of(update.key));
        let num_tables = self.config().num_tables();
        let fp = fingerprint64(update.key.packed());
        for table in 0..num_tables {
            let bucket = self.sketch.bucket_of(table, update.key);
            if let Some((before, after)) =
                self.sketch
                    .screened_apply(level, table, bucket, update.key, update.delta, fp)
            {
                self.handle_transition(level, before, after);
            }
        }
        self.sketch.note_update(update.delta);
    }

    /// The unscreened update path: decode-before / apply / decode-after
    /// on every affected bucket, with no fast skip.
    ///
    /// Semantically identical to [`update`](Self::update) on well-formed
    /// streams; kept as the reference implementation for equivalence
    /// tests and as the benchmark baseline the screened path is measured
    /// against.
    #[doc(hidden)]
    pub fn update_reference(&mut self, update: FlowUpdate) {
        let level = usize_from_u32(self.sketch.level_of(update.key));
        let num_tables = self.config().num_tables();
        let fp = fingerprint64(update.key.packed());
        for table in 0..num_tables {
            let bucket = self.sketch.bucket_of(table, update.key);
            let before = self.sketch.decode_bucket(level, table, bucket);
            self.sketch
                .apply_at(level, table, bucket, update.key, update.delta, fp);
            let after = self.sketch.decode_bucket(level, table, bucket);
            self.handle_transition(level, before, after);
        }
        self.sketch.note_update(update.delta);
    }

    /// Patches the tracking structures for one bucket's decode
    /// transition (the shared tail of both update paths).
    fn handle_transition(
        &mut self,
        level: usize,
        before: crate::signature::BucketState,
        after: crate::signature::BucketState,
    ) {
        match (before.singleton_key(), after.singleton_key()) {
            (None, Some(fresh)) => self.incr_singleton(level, fresh),
            (Some(gone), None) => self.decr_singleton(level, gone),
            (Some(gone), Some(fresh)) if gone != fresh => {
                // Only reachable on ill-formed streams; handled for
                // robustness.
                self.decr_singleton(level, gone);
                self.incr_singleton(level, fresh);
            }
            _ => {}
        }
    }

    /// Convenience: processes a `+1` update.
    pub fn insert(&mut self, source: crate::types::SourceAddr, dest: crate::types::DestAddr) {
        self.update(FlowUpdate::insert(source, dest));
    }

    /// Convenience: processes a `-1` update.
    pub fn delete(&mut self, source: crate::types::SourceAddr, dest: crate::types::DestAddr) {
        self.update(FlowUpdate::delete(source, dest));
    }

    /// Processes a batch of updates — equivalent to calling
    /// [`update`](Self::update) for each element in order (bit-identical
    /// counters, decode transitions, and heap arrangement). Mirrors
    /// [`DistinctCountSketch::update_batch`]'s auto-select: batches
    /// shorter than [`BATCH_MIN_ROUTED`] run the screened scalar core
    /// directly; longer batches route each chunk in one up-front bulk
    /// hashing pass, then screen/apply/patch in original order.
    /// Telemetry: one amortized-latency sample per update and exactly
    /// one batch-size observation per call, whichever plan runs
    /// ([`update`](Self::update) records no latency).
    pub fn update_batch(&mut self, updates: &[FlowUpdate]) {
        if updates.is_empty() {
            return;
        }
        let timer = self.sketch.telem.start_timer();
        if updates.len() < BATCH_MIN_ROUTED {
            for &update in updates {
                self.apply_update(update);
            }
        } else {
            let mut scratch = BatchScratch::new(updates.len(), self.config().num_tables());
            for chunk in updates.chunks(BATCH_CHUNK) {
                self.update_chunk(chunk, &mut scratch);
            }
        }
        self.sketch.telem.record_update_batch(timer, updates.len());
    }

    /// One [`BATCH_CHUNK`]-bounded chunk of
    /// [`update_batch`](Self::update_batch): route (pass 1, shared with
    /// the basic sketch), then screen/apply/patch in original update
    /// order (pass 2) — order preservation is what keeps the heap
    /// arrangement, and therefore tie-breaking in `track_top_k`,
    /// bit-identical to the one-at-a-time path.
    fn update_chunk(&mut self, chunk: &[FlowUpdate], scratch: &mut BatchScratch) {
        self.sketch.route_chunk(chunk, scratch);
        let num_tables = self.config().num_tables();
        for (i, update) in chunk.iter().enumerate() {
            let level = scratch.level(i);
            let fp = scratch.fp(i);
            for table in 0..num_tables {
                let bucket = scratch.bucket(table, i);
                if let Some((before, after)) =
                    self.sketch
                        .screened_apply(level, table, bucket, update.key, update.delta, fp)
                {
                    self.handle_transition(level, before, after);
                }
            }
            self.sketch.note_update(update.delta);
        }
    }

    /// Fig. 6, steps 15–23: the pair became a singleton in one more
    /// table of level `level`.
    fn incr_singleton(&mut self, level: usize, key: FlowKey) {
        let count = self.levels[level]
            .singletons
            .entry(key.packed())
            .or_insert(0);
        *count += 1;
        if *count == 1 {
            // New singleton occurrence: bump the destination's sample
            // frequency in the heaps of every level l ≤ level.
            let group = self.config().group_by().group_of(key);
            for l in 0..=level {
                self.levels[l].heap.adjust(group, 1);
            }
        }
    }

    /// Fig. 6, steps 4–13: the pair stopped being a singleton in one
    /// table of level `level`.
    fn decr_singleton(&mut self, level: usize, key: FlowKey) {
        let packed = key.packed();
        let Some(count) = self.levels[level].singletons.get_mut(&packed) else {
            // Decrementing a pair we never tracked can only happen on
            // ill-formed streams (a phantom singleton decoded and then
            // dissolved). Count it — silently returning would hide the
            // corruption, and panicking would take down the monitor over
            // an input problem.
            self.untracked_decrements += 1;
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.levels[level].singletons.remove(&packed);
            let group = self.config().group_by().group_of(key);
            for l in 0..=level {
                self.levels[l].heap.adjust(group, -1);
            }
        }
    }

    /// Selects the distinct-sample inference level for the target
    /// `(1+ε)·s/16` (Fig. 7, steps 1–7), returning
    /// `(level, cumulative sample size)`.
    fn select_level(&self, epsilon: f64) -> (u32, usize) {
        let target = self.config().target_sample_size(epsilon);
        let mut size = 0usize;
        for level in (0..self.config().max_levels()).rev() {
            size += self.levels[usize_from_u32(level)].singletons.len();
            if size >= target {
                return (level, size);
            }
        }
        (0, size)
    }

    /// `TrackTopk` (Fig. 7): returns the approximate top-`k` groups in
    /// `O(k log m)` time from the maintained heaps.
    pub fn track_top_k(&self, k: usize, epsilon: f64) -> TopKEstimate {
        let timer = self.sketch.telem.start_timer();
        let (level, size) = self.select_level(epsilon);
        let scale = 1u64 << level;
        let entries = self.levels[usize_from_u32(level)]
            .heap
            .top_k(k)
            .into_iter()
            .map(|(group, freq)| TopKEntry {
                group,
                estimated_frequency: freq * scale,
                sample_frequency: freq,
            })
            .collect();
        let estimate = TopKEstimate {
            entries,
            group_by: self.config().group_by(),
            sample_level: level,
            sample_size: size,
            scale,
        };
        self.sketch.telem.record_query(timer);
        estimate
    }

    /// Footnote-3 variant: all groups whose estimate is ≥ `tau`.
    pub fn track_threshold(&self, tau: u64, epsilon: f64) -> TopKEstimate {
        let (level, size) = self.select_level(epsilon);
        let freqs: DetHashMap<u32, u64> = self.levels[usize_from_u32(level)]
            .heap
            .iter()
            .map(|(&g, f)| (g, f))
            .collect();
        threshold_from_frequencies(&freqs, tau, self.config().group_by(), level, size)
    }

    /// Estimates the distinct-count frequency of a single group in
    /// `O(log m)` (a heap lookup at the current inference level).
    pub fn track_group(&self, group: u32, epsilon: f64) -> Option<u64> {
        let (level, _) = self.select_level(epsilon);
        self.levels[usize_from_u32(level)]
            .heap
            .priority(&group)
            .map(|f| f << level)
    }

    /// Estimates the total number of distinct pairs (sample size at the
    /// inference level × scale).
    pub fn estimate_distinct_pairs(&self, epsilon: f64) -> u64 {
        let (level, size) = self.select_level(epsilon);
        u64_from_usize(size) << level
    }

    /// Rebuilds an estimate via the *basic* scan-everything path — used
    /// by tests to check tracked state against ground truth.
    pub fn rescan_top_k(&self, k: usize, epsilon: f64) -> TopKEstimate {
        let sample = self.sketch.distinct_sample(epsilon);
        let freqs = crate::estimator::group_frequencies(&sample.keys, self.config().group_by());
        top_k_from_frequencies(
            &freqs,
            k,
            self.config().group_by(),
            sample.level,
            sample.keys.len(),
        )
    }

    /// Merges another tracking sketch built with identical configuration.
    ///
    /// Counter storage merges linearly; the tracking structures are then
    /// rebuilt from the merged counters (a merge is a rare, bulk
    /// operation — `O(r·s·log² m)` rebuild cost matches one basic query).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] if configurations
    /// (including seeds) differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        self.sketch.merge_from(&other.sketch)?;
        self.rebuild_tracking();
        Ok(())
    }

    /// Subtracts an earlier snapshot, yielding a tracking sketch over
    /// exactly the updates that arrived after the snapshot (see
    /// [`DistinctCountSketch::difference`]).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] if configurations
    /// (including seeds) differ.
    pub fn difference(&self, snapshot: &Self) -> Result<Self, SketchError> {
        Ok(Self::from_sketch(self.sketch.difference(&snapshot.sketch)?))
    }

    /// Number of decrements of untracked pairs observed so far (zero on
    /// well-formed streams).
    pub fn untracked_decrements(&self) -> u64 {
        self.untracked_decrements
    }

    /// Total number of heap-priority underflows across all levels (zero
    /// on well-formed streams); see
    /// [`IndexedMaxHeap::underflow_count`].
    pub fn heap_underflows(&self) -> u64 {
        self.levels.iter().map(|l| l.heap.underflow_count()).sum()
    }

    /// Total number of heap-priority overflow clamps across all levels
    /// (zero on well-formed streams); see
    /// [`IndexedMaxHeap::overflow_count`].
    pub fn heap_overflows(&self) -> u64 {
        self.levels.iter().map(|l| l.heap.overflow_count()).sum()
    }

    /// Total number of heap-priority adjustments applied across all
    /// levels (Fig. 6 step 11/21 traffic).
    pub fn heap_adjusts(&self) -> u64 {
        self.levels.iter().map(|l| l.heap.adjust_count()).sum()
    }

    /// Assembles a telemetry snapshot: the underlying sketch's gauges,
    /// counters, and latencies (see
    /// [`DistinctCountSketch::telemetry_snapshot`]) extended with the
    /// tracking layer's own state — `numSingletons(b)` and
    /// `topDestHeap(b)` size per level, plus the always-on bookkeeping
    /// counters (`heap_adjust`, the two heap clamp counters, and
    /// `untracked_decrement`), which are recorded as plain fields on the
    /// structures.
    pub fn telemetry_snapshot(&self, label: &str) -> TelemetrySnapshot {
        let mut snap = self.sketch.telemetry_snapshot(label);
        let mut by_level: std::collections::BTreeMap<u32, LevelGauges> = snap
            .levels
            .drain(..)
            .map(|gauges| (gauges.level, gauges))
            .collect();
        for (index, level) in self.levels.iter().enumerate() {
            let tracked = u64_from_usize(level.singletons.len());
            let heap_len = u64_from_usize(level.heap.len());
            if tracked == 0 && heap_len == 0 {
                continue;
            }
            let key = u32_from_usize(index);
            let entry = by_level.entry(key).or_insert(LevelGauges {
                level: key,
                ..LevelGauges::default()
            });
            entry.tracked_singletons = tracked;
            entry.heap_len = heap_len;
        }
        snap.levels = by_level.into_values().collect();
        for (name, value) in [
            (Counter::HeapAdjust.name(), self.heap_adjusts()),
            (Counter::HeapUnderflowClamp.name(), self.heap_underflows()),
            (Counter::HeapOverflowClamp.name(), self.heap_overflows()),
            (
                Counter::UntrackedDecrement.name(),
                self.untracked_decrements,
            ),
        ] {
            if value > 0 {
                snap.set_counter(name, value);
            }
        }
        snap
    }

    /// Rebuilds `singletons`/heaps from the current counter storage.
    /// Anomaly counters reset too — the rebuilt structures are exact by
    /// construction, so prior evidence of drift no longer applies.
    fn rebuild_tracking(&mut self) {
        self.untracked_decrements = 0;
        for level in self.levels.iter_mut() {
            level.singletons.clear();
            level.heap = IndexedMaxHeap::new();
        }
        self.track_singletons();
    }

    /// Registers every singleton the counters decode in the (empty)
    /// tracking structures.
    ///
    /// Runs each level's singleton enumeration as the screen pass
    /// (`LevelState::for_each_singleton`), which visits singletons in
    /// slot order — the table-major `(table, bucket)` order of a nested
    /// loop — and counts the ill-formed buckets it meets.
    fn track_singletons(&mut self) {
        for level in 0..usize_from_u32(self.config().max_levels()) {
            let mut found: Vec<FlowKey> = Vec::new();
            if let Some(state) = self.sketch.level_state(level) {
                let ill_formed = state.for_each_singleton(|key, _net| found.push(key));
                if ill_formed > 0 {
                    self.sketch.telem.add(Counter::DecodeIllFormed, ill_formed);
                }
            }
            for key in found {
                self.incr_singleton(level, key);
            }
        }
    }

    /// Captures the complete persistent state of the tracking sketch as
    /// plain data (see [`crate::state`]): the underlying basic sketch's
    /// state plus, per non-empty tracking level, the singleton multiset
    /// (sorted by packed key) and the heap's slot array *in exact array
    /// order* with its anomaly counters.
    ///
    /// Capturing the heap arrangement verbatim — rather than rebuilding
    /// from counters on restore, as [`from_sketch`](Self::from_sketch)
    /// does — is what makes restore + suffix replay bit-identical to
    /// the uninterrupted run, arrangement included.
    pub fn to_state(&self) -> TrackingState {
        let mut levels = Vec::new();
        for (index, level) in self.levels.iter().enumerate() {
            let mut singletons: Vec<(u64, u32)> =
                level.singletons.iter().map(|(&k, &c)| (k, c)).collect();
            singletons.sort_unstable();
            let heap = &level.heap;
            let state = TrackingLevelState {
                // Bounded by max_levels ≤ 64; the audited cast panics
                // on a logic error instead of mislabeling the level.
                level: u32_from_usize(index),
                singletons,
                heap_slots: heap.slots().to_vec(),
                heap_underflows: heap.underflow_count(),
                heap_overflows: heap.overflow_count(),
                heap_adjusts: heap.adjust_count(),
            };
            if !state.is_empty() {
                levels.push(state);
            }
        }
        TrackingState {
            sketch: self.sketch.to_state(),
            levels,
            untracked_decrements: self.untracked_decrements,
        }
    }

    /// Reconstructs a tracking sketch from a captured [`TrackingState`],
    /// validating every structural property before anything is
    /// installed: the underlying sketch state (see
    /// [`DistinctCountSketch::from_state`]), singleton lists sorted
    /// strictly ascending with positive counts, and heaps that are
    /// max-heap ordered with unique keys.
    ///
    /// The tracking structures are restored verbatim, not rebuilt —
    /// heap slot arrangements survive the round trip, so a restored
    /// sketch replaying the suffix stream stays bit-identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidState`] on any structural
    /// violation; the sketch is never left partially reconstructed.
    pub fn from_state(state: TrackingState) -> Result<Self, SketchError> {
        let sketch = DistinctCountSketch::from_state(state.sketch)?;
        let max_levels = sketch.config().max_levels();
        let mut levels: Vec<TrackingLevel> =
            (0..max_levels).map(|_| TrackingLevel::default()).collect();
        let mut prev: Option<u32> = None;
        for level_state in state.levels {
            if level_state.level >= max_levels {
                return Err(SketchError::InvalidState {
                    reason: format!(
                        "tracking level {} out of range (max_levels {max_levels})",
                        level_state.level
                    ),
                });
            }
            if let Some(p) = prev {
                if p >= level_state.level {
                    return Err(SketchError::InvalidState {
                        reason: format!(
                            "tracking levels not strictly ascending at level {}",
                            level_state.level
                        ),
                    });
                }
            }
            prev = Some(level_state.level);
            let mut singletons: DetHashMap<u64, u32> = DetHashMap::default();
            let mut prev_key: Option<u64> = None;
            for (packed, count) in level_state.singletons {
                if count == 0 {
                    return Err(SketchError::InvalidState {
                        reason: format!(
                            "tracking level {}: singleton {packed:#x} has zero count",
                            level_state.level
                        ),
                    });
                }
                if let Some(pk) = prev_key {
                    if pk >= packed {
                        return Err(SketchError::InvalidState {
                            reason: format!(
                                "tracking level {}: singleton keys not strictly \
                                 ascending at {packed:#x}",
                                level_state.level
                            ),
                        });
                    }
                }
                prev_key = Some(packed);
                singletons.insert(packed, count);
            }
            let heap = IndexedMaxHeap::from_parts(
                level_state.heap_slots,
                level_state.heap_underflows,
                level_state.heap_overflows,
                level_state.heap_adjusts,
            )
            .map_err(|reason| SketchError::InvalidState {
                reason: format!("tracking level {} heap: {reason}", level_state.level),
            })?;
            levels[usize_from_u32(level_state.level)] = TrackingLevel { singletons, heap };
        }
        Ok(Self {
            sketch,
            levels,
            untracked_decrements: state.untracked_decrements,
        })
    }

    /// Heap bytes used: counter storage plus tracking structures.
    pub fn heap_bytes(&self) -> usize {
        let tracking: usize = self
            .levels
            .iter()
            .map(|l| {
                l.singletons.capacity() * (std::mem::size_of::<(u64, u32)>() + 8)
                    + l.heap.heap_bytes()
            })
            .sum();
        self.sketch.heap_bytes() + tracking
    }

    /// Verifies the tracking invariants against a fresh scan of the
    /// counter storage; used by tests and debug assertions.
    ///
    /// Checks, per level `b`: `singletons(b)` equals the decoded
    /// singleton set, and every heap priority at `b` equals the group's
    /// frequency in `∪_{l ≥ b} singletons(l)`. Also fails if any
    /// silent-failure counter ([`untracked_decrements`],
    /// [`heap_underflows`], [`heap_overflows`]) is nonzero.
    ///
    /// [`untracked_decrements`]: Self::untracked_decrements
    /// [`heap_underflows`]: Self::heap_underflows
    /// [`heap_overflows`]: Self::heap_overflows
    #[doc(hidden)]
    pub fn check_tracking_invariants(&self) -> Result<(), String> {
        if self.untracked_decrements > 0 {
            return Err(format!(
                "{} untracked singleton decrement(s) observed (ill-formed stream?)",
                self.untracked_decrements
            ));
        }
        let underflows = self.heap_underflows();
        if underflows > 0 {
            return Err(format!(
                "{underflows} heap priority underflow(s) observed (ill-formed stream?)"
            ));
        }
        let overflows = self.heap_overflows();
        if overflows > 0 {
            return Err(format!(
                "{overflows} heap priority overflow clamp(s) observed (ill-formed stream?)"
            ));
        }
        let num_tables = self.config().num_tables();
        let buckets = self.config().buckets_per_table();
        let max_levels = usize_from_u32(self.config().max_levels());
        let mut cumulative: DetHashMap<u32, u64> = DetHashMap::default();
        // Walk levels top-down, accumulating group frequencies.
        for level in (0..max_levels).rev() {
            let mut scanned: DetHashMap<u64, u32> = DetHashMap::default();
            for table in 0..num_tables {
                for bucket in 0..buckets {
                    let decoded = self.sketch.decode_bucket(level, table, bucket);
                    if let Some(key) = decoded.singleton_key() {
                        *scanned.entry(key.packed()).or_insert(0) += 1;
                    }
                }
            }
            if scanned != self.levels[level].singletons {
                return Err(format!(
                    "level {level}: singleton sets diverge (scanned {}, tracked {})",
                    scanned.len(),
                    self.levels[level].singletons.len()
                ));
            }
            for &packed in scanned.keys() {
                let group = self
                    .config()
                    .group_by()
                    .group_of(FlowKey::from_packed(packed));
                *cumulative.entry(group).or_insert(0) += 1;
            }
            let heap = &self.levels[level].heap;
            if heap.len() != cumulative.values().filter(|&&v| v > 0).count() {
                return Err(format!(
                    "level {level}: heap has {} entries, expected {}",
                    heap.len(),
                    cumulative.len()
                ));
            }
            for (group, &freq) in &cumulative {
                if heap.priority(group) != Some(freq) {
                    return Err(format!(
                        "level {level}: group {group} heap priority {:?} != {freq}",
                        heap.priority(group)
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Default for TrackingDcs {
    fn default() -> Self {
        Self::with_default_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Delta, DestAddr, SourceAddr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn small_config(seed: u64) -> SketchConfig {
        SketchConfig::builder()
            .num_tables(3)
            .buckets_per_table(64)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_tracking_sketch() {
        let t = TrackingDcs::with_default_config();
        let est = t.track_top_k(5, 0.25);
        assert!(est.entries.is_empty());
        assert_eq!(t.estimate_distinct_pairs(0.25), 0);
        assert_eq!(t.track_group(1, 0.25), None);
        t.check_tracking_invariants().unwrap();
    }

    #[test]
    fn tracking_matches_basic_on_identical_state() {
        let mut t = TrackingDcs::new(small_config(1));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3000 {
            let src = SourceAddr(rng.gen());
            let dst = DestAddr(rng.gen_range(0..30));
            t.insert(src, dst);
        }
        for k in [1, 5, 10] {
            let tracked = t.track_top_k(k, 0.25);
            let scanned = t.rescan_top_k(k, 0.25);
            assert_eq!(tracked, scanned, "k = {k}");
        }
    }

    #[test]
    fn invariants_hold_under_inserts_and_deletes() {
        let mut t = TrackingDcs::new(small_config(2));
        let mut rng = StdRng::seed_from_u64(9);
        let mut live: Vec<(u32, u32)> = Vec::new();
        for step in 0..2000 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let i = rng.gen_range(0..live.len());
                let (s, d) = live.swap_remove(i);
                t.delete(SourceAddr(s), DestAddr(d));
            } else {
                let s: u32 = rng.gen();
                let d: u32 = rng.gen_range(0..10);
                live.push((s, d));
                t.insert(SourceAddr(s), DestAddr(d));
            }
            if step % 500 == 499 {
                t.check_tracking_invariants().unwrap();
            }
        }
        t.check_tracking_invariants().unwrap();
    }

    #[test]
    fn deleting_everything_returns_to_empty_sample() {
        let mut t = TrackingDcs::new(small_config(3));
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (i, i % 5)).collect();
        for &(s, d) in &pairs {
            t.insert(SourceAddr(s), DestAddr(d));
        }
        assert!(t.estimate_distinct_pairs(0.25) > 0);
        for &(s, d) in &pairs {
            t.delete(SourceAddr(s), DestAddr(d));
        }
        assert_eq!(t.estimate_distinct_pairs(0.25), 0);
        assert!(t.track_top_k(5, 0.25).entries.is_empty());
        t.check_tracking_invariants().unwrap();
    }

    #[test]
    fn track_group_matches_top_k_entry() {
        let mut t = TrackingDcs::new(small_config(4));
        for s in 0..40u32 {
            t.insert(SourceAddr(s), DestAddr(6));
        }
        let est = t.track_top_k(1, 0.25);
        assert_eq!(
            t.track_group(6, 0.25),
            Some(est.entries[0].estimated_frequency)
        );
        assert_eq!(t.track_group(12345, 0.25), None);
    }

    #[test]
    fn track_threshold_matches_basic_threshold() {
        let mut t = TrackingDcs::new(small_config(5));
        for s in 0..60u32 {
            t.insert(SourceAddr(s), DestAddr(1));
        }
        for s in 0..4u32 {
            t.insert(SourceAddr(s + 1000), DestAddr(2));
        }
        let tracked = t.track_threshold(10, 0.25);
        let basic = t.sketch().estimate_threshold(10, 0.25);
        assert_eq!(tracked, basic);
        assert_eq!(tracked.groups(), vec![1]);
    }

    #[test]
    fn merge_rebuilds_tracking_correctly() {
        let mut a = TrackingDcs::new(small_config(6));
        let mut b = TrackingDcs::new(small_config(6));
        let mut combined = TrackingDcs::new(small_config(6));
        for s in 0..100u32 {
            a.insert(SourceAddr(s), DestAddr(1));
            combined.insert(SourceAddr(s), DestAddr(1));
        }
        for s in 100..150u32 {
            b.insert(SourceAddr(s), DestAddr(2));
            combined.insert(SourceAddr(s), DestAddr(2));
        }
        a.merge_from(&b).unwrap();
        a.check_tracking_invariants().unwrap();
        assert_eq!(a.track_top_k(2, 0.25), combined.track_top_k(2, 0.25));
    }

    #[test]
    fn merge_rejects_incompatible() {
        let mut a = TrackingDcs::new(small_config(1));
        let b = TrackingDcs::new(small_config(2));
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn untracked_decrement_is_counted_and_reported() {
        // Organically reaching this path needs an ill-formed stream that
        // also defeats the fingerprint screen, so drive the private
        // handler directly: a decrement for a pair the layer never saw.
        let mut t = TrackingDcs::new(small_config(1));
        t.decr_singleton(0, FlowKey::from_packed(42));
        assert_eq!(t.untracked_decrements(), 1);
        let err = t.check_tracking_invariants().unwrap_err();
        assert!(err.contains("untracked"), "err = {err}");
        // A rebuild reconstructs exact structures and clears the flag.
        t.rebuild_tracking();
        assert_eq!(t.untracked_decrements(), 0);
        t.check_tracking_invariants().unwrap();
    }

    #[test]
    fn heap_underflows_start_at_zero() {
        let mut t = TrackingDcs::new(small_config(2));
        for s in 0..50u32 {
            t.insert(SourceAddr(s), DestAddr(3));
        }
        for s in 0..50u32 {
            t.delete(SourceAddr(s), DestAddr(3));
        }
        assert_eq!(t.heap_underflows(), 0);
        assert_eq!(t.untracked_decrements(), 0);
    }

    #[test]
    fn num_singletons_counts_distinct_pairs() {
        let mut t = TrackingDcs::new(small_config(7));
        let s = SourceAddr(1);
        let d = DestAddr(2);
        t.insert(s, d);
        let level = t.sketch().level_of(crate::types::FlowKey::new(s, d));
        // One pair, singleton in (up to) all r tables, counted once.
        assert_eq!(t.num_singletons(level), 1);
    }

    #[test]
    fn update_counters_delegate() {
        let mut t = TrackingDcs::new(small_config(8));
        t.update_batch(&[
            FlowUpdate::new(SourceAddr(1), DestAddr(2), Delta::Insert),
            FlowUpdate::new(SourceAddr(1), DestAddr(2), Delta::Delete),
        ]);
        assert_eq!(t.updates_processed(), 2);
        assert_eq!(t.sketch().net_updates(), 0);
    }

    #[test]
    fn heap_bytes_exceed_basic_sketch() {
        let mut t = TrackingDcs::new(small_config(9));
        for s in 0..500u32 {
            t.insert(SourceAddr(s), DestAddr(s % 9));
        }
        assert!(t.heap_bytes() > t.sketch().heap_bytes());
    }

    #[test]
    fn from_sketch_matches_incremental_tracking() {
        let mut incremental = TrackingDcs::new(small_config(10));
        let mut basic = crate::sketch::DistinctCountSketch::new(small_config(10));
        for s in 0..300u32 {
            incremental.insert(SourceAddr(s), DestAddr(s % 7));
            basic.insert(SourceAddr(s), DestAddr(s % 7));
        }
        let rebuilt = TrackingDcs::from_sketch(basic);
        rebuilt.check_tracking_invariants().unwrap();
        assert_eq!(
            rebuilt.track_top_k(5, 0.25),
            incremental.track_top_k(5, 0.25)
        );
        // Round-trip through the basic sketch.
        let back = TrackingDcs::from_sketch(rebuilt.into_sketch());
        assert_eq!(back.track_top_k(5, 0.25), incremental.track_top_k(5, 0.25));
    }

    #[test]
    fn tracking_difference_isolates_suffix() {
        let mut t = TrackingDcs::new(small_config(11));
        for s in 0..100u32 {
            t.insert(SourceAddr(s), DestAddr(1));
        }
        let snapshot = t.clone();
        // 4 suffix pairs: below the sample target, so the difference
        // resolves exactly.
        for s in 0..4u32 {
            t.insert(SourceAddr(9_000 + s), DestAddr(2));
        }
        let recent = t.difference(&snapshot).unwrap();
        recent.check_tracking_invariants().unwrap();
        assert_eq!(recent.estimate_distinct_pairs(0.25), 4);
        assert_eq!(recent.track_top_k(1, 0.25).entries[0].group, 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn invariants_hold_on_random_well_formed_streams(
            seed in 0u64..1000,
            ops in proptest::collection::vec((0u32..64, 0u32..8, proptest::bool::ANY), 1..300)
        ) {
            let mut t = TrackingDcs::new(small_config(seed));
            let mut net: HashMap<(u32, u32), i64> = HashMap::new();
            for (s, d, del) in ops {
                let entry = net.entry((s, d)).or_insert(0);
                if del && *entry > 0 {
                    *entry -= 1;
                    t.delete(SourceAddr(s), DestAddr(d));
                } else {
                    *entry += 1;
                    t.insert(SourceAddr(s), DestAddr(d));
                }
            }
            t.check_tracking_invariants().map_err(
                proptest::test_runner::TestCaseError::fail
            )?;
            // Tracked and rescanned answers agree.
            proptest::prop_assert_eq!(t.track_top_k(5, 0.25), t.rescan_top_k(5, 0.25));
        }
    }
}
