//! The (Basic) Distinct-Count Sketch — §3 and §4 of the paper.

use std::collections::BTreeSet;

use dcs_hash::cast::{u32_from_usize, u64_from_usize, usize_from_u32, usize_from_u64};
use dcs_hash::mix::{fingerprint64, fingerprint64_fill};
use dcs_hash::{GeometricLevelHash, MultiplyShiftHash, SeedSequence};

use dcs_telemetry::{LevelGauges, TelemetrySnapshot};

use crate::config::SketchConfig;
use crate::error::SketchError;
use crate::estimator::{
    frequencies_for_groups, group_frequencies, threshold_from_frequencies, top_k_from_frequencies,
    TopKEstimate,
};
use crate::level::{LevelSlide, LevelState};
use crate::signature::{BucketState, Change};
use crate::state::{LevelSlabs, SketchState};
use crate::telem::{Counter, Telem};
use crate::types::{Delta, FlowKey, FlowUpdate, GroupBy, NetBatch};

/// Updates per internal batch chunk: bounds the scratch buffers of
/// [`DistinctCountSketch::update_batch`] (and the tracking equivalent)
/// and keeps one chunk's routing tables comfortably inside L1/L2.
pub const BATCH_CHUNK: usize = 1024;

/// Batches shorter than this skip the routed (structure-of-arrays)
/// plan and run the per-update scalar path instead. Measured crossover
/// at 28-byte buckets (DESIGN.md §13): routed calls of 48 updates still
/// lose to the scalar loop at `r = 2`, calls of 64 win at every `r`
/// from 2 to 4. Both plans produce bit-identical sketch state, so the
/// cutoff is purely a performance knob.
pub const BATCH_MIN_ROUTED: usize = 64;

/// Reusable scratch for one routed batch: fixed-capacity
/// structure-of-arrays buffers filled by pass 1 (`route_chunk`) and
/// consumed by pass 2. All stripes live in **one** boxed slab sized
/// once at construction — it *cannot* reallocate across chunks, and
/// `update_batch` performs exactly one scratch allocation per call no
/// matter how many chunks the batch spans. (A single allocation also
/// keeps the batch plan's per-call allocator traffic identical to the
/// per-update plan's plus one block, which keeps glibc's placement
/// decisions — and therefore cache behavior — iteration-stable; an
/// earlier five-slab layout made sustained ingest loops flip between
/// fast and slow heap layouts.)
///
/// Slab layout, in `chunk_cap`-sized stripes of `u64`:
///
/// ```text
/// [ packed | fps | levels | buckets(table 0) | buckets(table 1) | … ]
/// ```
///
/// `buckets` is **table-major**: table `t`'s bucket for update `i`
/// lives at stripe `3 + t`, index `i`, so pass 1 writes each table's
/// stripe in one contiguous fill (one call per table per chunk, not
/// per key).
#[derive(Debug)]
pub(crate) struct BatchScratch {
    chunk_cap: usize,
    slab: Box<[u64]>,
}

/// Stripe indices into the scratch slab.
const STRIPE_PACKED: usize = 0;
const STRIPE_FPS: usize = 1;
const STRIPE_LEVELS: usize = 2;
const STRIPE_BUCKETS: usize = 3;

impl BatchScratch {
    /// Sizes scratch for batches of `len` updates (capped at
    /// [`BATCH_CHUNK`] — longer batches reuse the same buffers chunk by
    /// chunk) across `num_tables` second-level tables.
    pub(crate) fn new(len: usize, num_tables: usize) -> Self {
        let chunk_cap = len.clamp(1, BATCH_CHUNK);
        Self {
            chunk_cap,
            slab: vec![0u64; chunk_cap * (STRIPE_BUCKETS + num_tables)].into_boxed_slice(),
        }
    }

    /// One full stripe as a mutable slice.
    #[inline]
    fn stripe_mut(&mut self, stripe: usize) -> &mut [u64] {
        let start = stripe * self.chunk_cap;
        &mut self.slab[start..start + self.chunk_cap]
    }

    /// Two distinct stripes borrowed simultaneously (read, write).
    #[inline]
    fn stripe_pair_mut(&mut self, read: usize, write: usize) -> (&[u64], &mut [u64]) {
        debug_assert_ne!(read, write);
        if read < write {
            let (lo, hi) = self.slab.split_at_mut(write * self.chunk_cap);
            let r = &lo[read * self.chunk_cap..(read + 1) * self.chunk_cap];
            (r, &mut hi[..self.chunk_cap])
        } else {
            let (lo, hi) = self.slab.split_at_mut(read * self.chunk_cap);
            let w = &mut lo[write * self.chunk_cap..(write + 1) * self.chunk_cap];
            (&hi[..self.chunk_cap], w)
        }
    }

    /// The fixed per-chunk capacity (also the stride of the slab's
    /// stripes).
    pub(crate) fn chunk_cap(&self) -> usize {
        self.chunk_cap
    }

    /// The fingerprint of update `i` in the routed chunk.
    #[inline]
    pub(crate) fn fp(&self, i: usize) -> u64 {
        self.slab[STRIPE_FPS * self.chunk_cap + i]
    }

    /// The first-level bucket of update `i` in the routed chunk.
    #[inline]
    pub(crate) fn level(&self, i: usize) -> usize {
        usize_from_u64(self.slab[STRIPE_LEVELS * self.chunk_cap + i])
    }

    /// The second-level bucket of update `i` in table `table`.
    #[inline]
    pub(crate) fn bucket(&self, table: usize, i: usize) -> usize {
        usize_from_u64(self.slab[(STRIPE_BUCKETS + table) * self.chunk_cap + i])
    }
}

/// A distinct sample extracted from a sketch, with its inference level.
///
/// `keys` is a uniform sample (rate `2^-level`) over the *distinct*
/// source-destination pairs with positive net frequency; `level` is the
/// lowest first-level bucket included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSample {
    /// The sampled distinct pairs.
    pub keys: Vec<FlowKey>,
    /// The lowest first-level bucket index included; the sampling rate
    /// is `2^-level`.
    pub level: u32,
}

impl DistinctSample {
    /// The scale factor `2^level` that unbiases sample counts.
    pub fn scale(&self) -> u64 {
        1u64 << self.level
    }

    /// Estimates the distinct-count frequency of one `group` from this
    /// already-extracted sample — the reusable-handle form of
    /// [`DistinctCountSketch::estimate_group_frequency`]: extract the
    /// sample once with [`DistinctCountSketch::distinct_sample`], then
    /// answer any number of point queries without rescanning the
    /// sketch.
    pub fn group_frequency(&self, group_by: GroupBy, group: u32) -> u64 {
        let count = self
            .keys
            .iter()
            .filter(|k| group_by.group_of(**k) == group)
            .count();
        u64_from_usize(count) * self.scale()
    }
}

/// What one [`DistinctCountSketch::slide_epoch`] did, level by level:
/// of the levels the cumulative sketch holds, how many the epoch
/// changed (one fused slab pass each) and how many it left unchanged
/// (skipped by their content ids; at most the expiring delta is shed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSlide {
    /// Levels that took the fused four-sketch pass.
    pub levels_slid: u64,
    /// Levels whose epoch delta was zero and whose pass was skipped.
    pub levels_skipped: u64,
}

/// The Basic Distinct-Count Sketch (Fig. 2).
///
/// A delete-resilient synopsis of a flow-update stream supporting
/// approximate top-k *distinct-source frequency* queries. Updates cost
/// `O(r)` word operations (four per table); queries ([`estimate_top_k`]) scan
/// the structure (`O(r · s · log² m)`) — use
/// [`TrackingDcs`](crate::tracking::TrackingDcs) when queries are
/// frequent.
///
/// # Well-formed streams
///
/// Singleton decoding is sound when the stream is *well-formed*: at every
/// prefix, each pair's net count is ≥ 0 (deletions never outnumber prior
/// insertions of the same pair). SYN/ACK flow-update streams have this
/// property by construction. On ill-formed streams the sketch stays
/// consistent (its sums are exact) and estimates lose their guarantees,
/// but no negative-count pair reaches a sample: a bucket whose net
/// count is negative, or zero with residue, decodes to a collision and
/// is counted as `decode_ill_formed`.
///
/// [`estimate_top_k`]: DistinctCountSketch::estimate_top_k
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};
///
/// let mut sketch = DistinctCountSketch::new(SketchConfig::paper_default());
/// for s in 0..100u32 {
///     sketch.insert(SourceAddr(s), DestAddr(7));
/// }
/// let top = sketch.estimate_top_k(1, 0.25);
/// assert_eq!(top.entries[0].group, 7);
/// ```
#[derive(Debug, Clone)]
pub struct DistinctCountSketch {
    config: SketchConfig,
    level_hash: GeometricLevelHash,
    table_hashes: Vec<MultiplyShiftHash>,
    levels: Vec<Option<LevelState>>,
    updates_processed: u64,
    net_updates: i64,
    /// Telemetry recorder. Not part of the synopsis state, so
    /// checkpoints leave it out and equality-style comparisons ignore
    /// it. Boxed so the sketch itself stays a few words wide.
    pub(crate) telem: Box<Telem>,
}

impl DistinctCountSketch {
    /// Creates an empty sketch with the given configuration.
    pub fn new(config: SketchConfig) -> Self {
        let mut seeds = SeedSequence::new(config.seed());
        let level_hash = GeometricLevelHash::new(seeds.next_seed(), config.max_levels());
        let table_hashes = (0..config.num_tables())
            .map(|_| MultiplyShiftHash::new(seeds.next_seed()))
            .collect();
        let levels = vec![None; usize_from_u32(config.max_levels())];
        Self {
            config,
            level_hash,
            table_hashes,
            levels,
            updates_processed: 0,
            net_updates: 0,
            telem: Box::default(),
        }
    }

    /// Creates a sketch with the paper's default configuration.
    pub fn with_default_config() -> Self {
        Self::new(SketchConfig::paper_default())
    }

    /// The sketch's configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Total number of updates (inserts + deletes) processed.
    pub fn updates_processed(&self) -> u64 {
        self.updates_processed
    }

    /// Net sum of update signs (inserts minus deletes).
    pub fn net_updates(&self) -> i64 {
        self.net_updates
    }

    /// The first-level bucket a key maps to.
    #[inline]
    pub fn level_of(&self, key: FlowKey) -> u32 {
        self.level_hash.level(key.packed())
    }

    /// The second-level bucket a key maps to in table `table`.
    #[inline]
    pub fn bucket_of(&self, table: usize, key: FlowKey) -> usize {
        self.table_hashes[table].hash_to_range(key.packed(), self.config.buckets_per_table())
    }

    /// Processes one flow update — the basic maintenance algorithm of §3:
    /// for each of the `r` second-level tables at level `h(u,v)`, apply
    /// the update to the count signature at `g_j(u,v)`.
    #[inline]
    pub fn update(&mut self, update: FlowUpdate) {
        self.apply_change(update);
        self.updates_processed += 1;
        self.net_updates += update.delta.signum();
    }

    /// The scalar core shared by [`update`](Self::update) and the
    /// short-batch plan of [`update_batch`](Self::update_batch) and
    /// [`apply_net`](Self::apply_net): hash, materialize the level,
    /// apply to all `r` tables. The callers bump the stream counters.
    #[inline]
    fn apply_change(&mut self, change: impl Change) {
        let packed = change.key().packed();
        let level = usize_from_u32(self.level_hash.level(packed));
        let buckets = self.config.buckets_per_table();
        let num_tables = self.config.num_tables();
        let fp = fingerprint64(packed);
        let state = self.levels[level].get_or_insert_with(|| LevelState::new(num_tables, buckets));
        for (table, hash) in self.table_hashes.iter().enumerate() {
            let bucket = hash.hash_to_range(packed, buckets);
            state.apply_with_fp(table, bucket, change, fp);
        }
    }

    /// Convenience: processes a `+1` update for `(source, dest)`.
    pub fn insert(&mut self, source: crate::types::SourceAddr, dest: crate::types::DestAddr) {
        self.update(FlowUpdate::insert(source, dest));
    }

    /// Convenience: processes a `-1` update for `(source, dest)`.
    pub fn delete(&mut self, source: crate::types::SourceAddr, dest: crate::types::DestAddr) {
        self.update(FlowUpdate::delete(source, dest));
    }

    /// Processes a batch of updates — equivalent to calling
    /// [`update`](Self::update) for each element in order (bit-identical
    /// final counters), but faster on large batches. It measures nothing
    /// at call time but auto-selects between two pre-measured plans.
    ///
    /// * Batches shorter than [`BATCH_MIN_ROUTED`] run the scalar
    ///   per-update core directly — the routed plan's scratch fills
    ///   cannot amortize over a handful of updates.
    /// * Longer batches run the routed plan in [`BATCH_CHUNK`]-sized
    ///   chunks: pass 1 (`route_chunk`) bulk-hashes every key exactly
    ///   once into structure-of-arrays scratch — levels, fingerprints,
    ///   and all `r` second-level buckets as contiguous fills — and
    ///   pass 2 applies the updates in stream order against the flat
    ///   level arenas.
    ///
    /// Telemetry: one clock pair per call, giving one amortized-latency
    /// sample per update and exactly one batch-size observation per
    /// call, regardless of which plan runs. ([`update`](Self::update)
    /// records no latency.)
    pub fn update_batch(&mut self, updates: &[FlowUpdate]) {
        self.apply_batch(updates, u64_from_usize(updates.len()));
    }

    /// Applies a batch of net changes ([`crate::UpdateFold`] makes
    /// them) and advances [`updates_processed`](Self::updates_processed)
    /// by the `covered` raw updates they stand for. The counters, and
    /// [`net_updates`](Self::net_updates), end exactly as
    /// [`update_batch`](Self::update_batch) of those raw updates would
    /// leave them: every counter is a wrapping sum, so a pair's net
    /// change applied once equals its updates applied one by one, and a
    /// pair that cancelled needs no entry (DESIGN.md §18). Levels that
    /// only cancelled updates touched are never materialized.
    ///
    /// Runs the plans of `update_batch` over the entries, and so does
    /// its telemetry: one amortized-latency sample per entry, and one
    /// batch-size observation of the entry count per call.
    pub fn apply_net(&mut self, batch: &NetBatch) {
        self.apply_batch(&batch.entries, batch.covered);
    }

    /// The body of [`update_batch`](Self::update_batch) and
    /// [`apply_net`](Self::apply_net): `changes` stand for `covered`
    /// updates of the stream.
    fn apply_batch<C: Change>(&mut self, changes: &[C], covered: u64) {
        self.updates_processed += covered;
        if changes.is_empty() {
            return;
        }
        let timer = self.telem.start_timer();
        let mut net = 0i64;
        if changes.len() < BATCH_MIN_ROUTED {
            for &change in changes {
                self.apply_change(change);
                net += change.net();
            }
        } else {
            let mut scratch = BatchScratch::new(changes.len(), self.config.num_tables());
            for chunk in changes.chunks(BATCH_CHUNK) {
                net += self.update_chunk(chunk, &mut scratch);
            }
        }
        self.net_updates += net;
        self.telem.record_update_batch(timer, changes.len());
    }

    /// One [`BATCH_CHUNK`]-bounded chunk of the routed batch plan
    /// (`scratch` is allocated once per [`apply_batch`] call and
    /// reused across chunks). Returns the chunk's net change.
    ///
    /// [`apply_batch`]: Self::apply_batch
    fn update_chunk<C: Change>(&mut self, chunk: &[C], scratch: &mut BatchScratch) -> i64 {
        self.route_chunk(chunk, scratch);
        let num_tables = self.config.num_tables();
        let mut net = 0i64;
        for (i, &change) in chunk.iter().enumerate() {
            if let Some(state) = self.levels[scratch.level(i)].as_mut() {
                let fp = scratch.fp(i);
                for table in 0..num_tables {
                    state.apply_with_fp(table, scratch.bucket(table, i), change, fp);
                }
            }
            net += change.net();
        }
        net
    }

    /// Pass 1 of a batch chunk: bulk-hashes every key exactly once into
    /// the structure-of-arrays `scratch` — packed keys, first-level
    /// buckets, fingerprints, and each table's second-level buckets as
    /// four contiguous fill loops — and materializes every touched
    /// level, so pass 2 only ever sees allocated arenas. Each fill is a
    /// tight slice loop (one call per table per chunk), which is what
    /// lets the mixing arithmetic unroll and vectorize across keys.
    /// Shared with the tracking layer's batch path.
    pub(crate) fn route_chunk<C: Change>(&mut self, chunk: &[C], scratch: &mut BatchScratch) {
        let n = chunk.len();
        debug_assert!(n <= scratch.chunk_cap());
        let num_buckets = self.config.buckets_per_table();
        for (slot, change) in scratch.stripe_mut(STRIPE_PACKED)[..n].iter_mut().zip(chunk) {
            *slot = change.key().packed();
        }
        {
            let (packed, levels) = scratch.stripe_pair_mut(STRIPE_PACKED, STRIPE_LEVELS);
            self.level_hash.levels_fill(&packed[..n], &mut levels[..n]);
        }
        {
            let (packed, fps) = scratch.stripe_pair_mut(STRIPE_PACKED, STRIPE_FPS);
            fingerprint64_fill(&packed[..n], &mut fps[..n]);
        }
        for (table, hash) in self.table_hashes.iter().enumerate() {
            let (packed, buckets) = scratch.stripe_pair_mut(STRIPE_PACKED, STRIPE_BUCKETS + table);
            hash.hash_to_range_fill(&packed[..n], num_buckets, &mut buckets[..n]);
        }
        // Levels are capped at 64, so a u64 bitmask tracks which ones
        // this chunk touches.
        let mut touched = 0u64;
        for i in 0..n {
            touched |= 1u64 << scratch.level(i);
        }
        while touched != 0 {
            let level = usize_from_u32(touched.trailing_zeros());
            self.level_mut(level);
            touched &= touched - 1;
        }
    }

    /// Decodes the bucket `(level, table, bucket)` without allocating.
    pub(crate) fn decode_bucket(&self, level: usize, table: usize, bucket: usize) -> BucketState {
        match &self.levels[level] {
            Some(state) => state.signature(table, bucket).decode(),
            None => BucketState::Empty,
        }
    }

    /// Applies `(key, delta)` to the bucket `(level, table, bucket)`
    /// and reports its decode transition: `None` when the decoded
    /// singleton is the same before and after the update, and
    /// `Some((before, after))` — the decoded states around the
    /// application — when it changed.
    ///
    /// The dominant case — a repeated packet on a flow that owns its
    /// bucket — is proved by three multiplies without decoding
    /// (`CountSignature::holds_only`). Every other update decodes the
    /// bucket on both sides in `O(1)`; decodes of ill-formed states are
    /// counted as `decode_ill_formed`.
    pub(crate) fn screened_apply(
        &mut self,
        level: usize,
        table: usize,
        bucket: usize,
        key: FlowKey,
        delta: Delta,
        fp: u64,
    ) -> Option<(BucketState, BucketState)> {
        let state = self.level_mut(level);
        let sig = state.signature(table, bucket);
        let next = sig.after(key, delta, fp);
        state.set_signature(table, bucket, next);
        if sig.holds_only(key, delta, fp) {
            self.telem.incr(Counter::ScreenFastSkip);
            return None;
        }
        let ill_formed = u64::from(sig.is_ill_formed()) + u64::from(next.is_ill_formed());
        if ill_formed > 0 {
            self.telem.add(Counter::DecodeIllFormed, ill_formed);
        }
        let (before, after) = (sig.decode(), next.decode());
        if before.singleton_key() == after.singleton_key() {
            self.telem.incr(Counter::ScreenNoTransition);
            return None;
        }
        self.telem.incr(Counter::ScreenMiss);
        for decoded in [&before, &after] {
            if matches!(decoded, BucketState::Singleton { .. }) {
                self.telem.incr(Counter::DecodeSingleton);
            } else {
                self.telem.incr(Counter::DecodeNonSingleton);
            }
        }
        Some((before, after))
    }

    /// Applies an update to a single `(level, table, bucket)` cell —
    /// used by the tracking layer, which interleaves decodes between
    /// per-table applications. `fp` is the key's precomputed
    /// [`fingerprint64`].
    pub(crate) fn apply_at(
        &mut self,
        level: usize,
        table: usize,
        bucket: usize,
        key: FlowKey,
        delta: Delta,
        fp: u64,
    ) {
        self.level_mut(level)
            .apply_with_fp(table, bucket, FlowUpdate { key, delta }, fp);
    }

    pub(crate) fn note_update(&mut self, delta: Delta) {
        self.updates_processed += 1;
        self.net_updates += delta.signum();
    }

    fn level_mut(&mut self, level: usize) -> &mut LevelState {
        self.levels[level].get_or_insert_with(|| {
            LevelState::new(self.config.num_tables(), self.config.buckets_per_table())
        })
    }

    /// The distinct pairs decodable at one first-level bucket, sorted
    /// ascending — the shared scan under [`distinct_sample`] and
    /// [`singletons`](Self::singletons).
    ///
    /// Decoded keys are cross-checked against the first-level hash
    /// (`level_of(key) == level`), which is a no-op on well-formed
    /// streams and discards phantom decodes on ill-formed ones. The
    /// cross-check also means distinct levels can never yield the same
    /// key, so callers may concatenate levels without deduplicating.
    /// Buckets holding ill-formed states are counted as
    /// `decode_ill_formed`.
    ///
    /// [`distinct_sample`]: Self::distinct_sample
    fn level_singletons(&self, level: u32) -> Vec<FlowKey> {
        // Most of the `max_levels` levels are never materialized; a
        // query walks all of them, so skip the set for those.
        let Some(state) = &self.levels[usize_from_u32(level)] else {
            return Vec::new();
        };
        let mut keys = BTreeSet::new();
        let ill_formed = state.collect_singletons(&mut keys);
        if ill_formed > 0 {
            self.telem.add(Counter::DecodeIllFormed, ill_formed);
        }
        // BTreeSet iteration is already ascending, so the collected
        // vector needs no further sort.
        keys.into_iter()
            .filter(|k| self.level_of(*k) == level)
            .collect()
    }

    /// Extracts the distinct sample for an estimation target of
    /// `(1+ε)·s/16` pairs — the sampling loop of `BaseTopk`
    /// (Fig. 3, steps 1–6).
    pub fn distinct_sample(&self, epsilon: f64) -> DistinctSample {
        let target = self.config.target_sample_size(epsilon);
        let mut keys: Vec<FlowKey> = Vec::new();
        let mut lowest = 0u32;
        for level in (0..self.config.max_levels()).rev() {
            keys.extend(self.level_singletons(level));
            if keys.len() >= target {
                lowest = level;
                break;
            }
        }
        keys.sort_unstable();
        DistinctSample {
            keys,
            level: lowest,
        }
    }

    /// `BaseTopk` (Fig. 3): estimates the top-`k` groups and their
    /// distinct-count frequencies.
    ///
    /// `epsilon` is the relative-accuracy parameter; it sets the target
    /// sample size `(1+ε)·s/16`. The returned estimate exposes the
    /// inference level and sample size alongside the entries.
    pub fn estimate_top_k(&self, k: usize, epsilon: f64) -> TopKEstimate {
        let timer = self.telem.start_timer();
        let sample = self.distinct_sample(epsilon);
        let freqs = group_frequencies(&sample.keys, self.config.group_by());
        let estimate = top_k_from_frequencies(
            &freqs,
            k,
            self.config.group_by(),
            sample.level,
            sample.keys.len(),
        );
        self.telem.record_query(timer);
        estimate
    }

    /// Footnote-3 variant: estimates all groups with frequency ≥ `tau`.
    pub fn estimate_threshold(&self, tau: u64, epsilon: f64) -> TopKEstimate {
        let sample = self.distinct_sample(epsilon);
        let freqs = group_frequencies(&sample.keys, self.config.group_by());
        threshold_from_frequencies(
            &freqs,
            tau,
            self.config.group_by(),
            sample.level,
            sample.keys.len(),
        )
    }

    /// Estimates the total number `U` of distinct pairs with positive
    /// net frequency (Flajolet–Martin style: sample size × scale).
    pub fn estimate_distinct_pairs(&self, epsilon: f64) -> u64 {
        let sample = self.distinct_sample(epsilon);
        u64_from_usize(sample.keys.len()) * sample.scale()
    }

    /// Whether two sketches share configuration and hash functions and
    /// can therefore be merged.
    pub fn is_compatible(&self, other: &Self) -> bool {
        self.config == other.config
    }

    /// Merges another sketch built over a disjoint (or overlapping —
    /// counters are linear) stream into this one, bucket-wise.
    ///
    /// This is how a central DDoS monitor combines synopses computed at
    /// several edge routers.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] if the configurations
    /// (including seeds) differ.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), SketchError> {
        if !self.is_compatible(other) {
            return Err(SketchError::IncompatibleMerge {
                reason: format!("configs differ: {:?} vs {:?}", self.config, other.config),
            });
        }
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            match (mine.as_mut(), theirs) {
                (Some(a), Some(b)) => a.merge_from(b),
                (None, Some(b)) => *mine = Some(b.clone()),
                _ => {}
            }
        }
        self.updates_processed += other.updates_processed;
        self.net_updates += other.net_updates;
        self.telem.merge_from(&other.telem);
        Ok(())
    }

    /// Merges an ordered sequence of shard sketches into one, starting
    /// from a clone of the first — the read-side linear merge used by
    /// sharded ingest to materialize a consistent snapshot from
    /// per-worker partials. Merge order is the iteration order, so
    /// callers that iterate shards by index get a deterministic
    /// (bit-identical across calls) result.
    ///
    /// Returns an empty sketch built from `config` when the iterator is
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] if any two parts
    /// disagree on configuration (shards created from one config never
    /// do).
    pub fn merge_many<'a, I>(config: &SketchConfig, parts: I) -> Result<Self, SketchError>
    where
        I: IntoIterator<Item = &'a Self>,
    {
        let mut iter = parts.into_iter();
        let Some(first) = iter.next() else {
            return Ok(Self::new(config.clone()));
        };
        let mut merged = first.clone();
        for part in iter {
            merged.merge_from(part)?;
        }
        Ok(merged)
    }

    /// Subtracts an earlier snapshot of the same sketch, yielding a
    /// sketch of exactly the updates that arrived *after* the snapshot.
    ///
    /// Counters are linear, so if `snapshot` was cloned from this
    /// sketch at time `t₁` and this sketch has since processed more
    /// updates, the difference equals a sketch built over only the
    /// `(t₁, now]` updates. This is the building block for epoch-based
    /// surge detection (see `dcs-netsim`'s epoch window): compare the
    /// *recent* distinct-source activity against baseline profiles
    /// without keeping per-interval sketches.
    ///
    /// The resulting sketch is well-formed whenever the suffix stream
    /// itself is (e.g., for insert-only suffixes, always).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] if the configurations
    /// (including seeds) differ, and [`SketchError::SnapshotAhead`] if
    /// `snapshot` has processed *more* updates than this sketch — it
    /// then cannot be an earlier state, and the subtraction would
    /// produce a window of garbage. (An earlier revision clamped the
    /// window's update count to zero with `saturating_sub` and returned
    /// the garbage silently.)
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};
    ///
    /// let mut sketch = DistinctCountSketch::new(SketchConfig::paper_default());
    /// sketch.insert(SourceAddr(1), DestAddr(9));
    /// let snapshot = sketch.clone();
    /// sketch.insert(SourceAddr(2), DestAddr(9));
    /// let recent = sketch.difference(&snapshot)?;
    /// assert_eq!(recent.estimate_distinct_pairs(0.25), 1); // only the new pair
    /// // The other direction is an error, not an empty window:
    /// assert!(snapshot.difference(&sketch).is_err());
    /// # Ok::<(), dcs_core::SketchError>(())
    /// ```
    pub fn difference(&self, snapshot: &Self) -> Result<Self, SketchError> {
        self.check_subtrahend(snapshot)?;
        let mut diff = self.clone();
        diff.subtract_levels(snapshot);
        Ok(diff)
    }

    /// Subtracts `expired` from this sketch **in place** — the
    /// destructive twin of [`difference`](Self::difference), used by
    /// the sliding-window accumulator in `dcs-netsim` to expire the
    /// oldest epoch delta without cloning the whole window sketch.
    ///
    /// Counters are linear, so if this sketch currently equals the sum
    /// of several per-epoch delta sketches and `expired` is one of
    /// them, the result equals the sum of the remaining deltas,
    /// bit-for-bit. Levels present in `expired` but never touched here
    /// are only subtracted when non-zero (allocating a fresh level),
    /// exactly as [`difference`](Self::difference) does.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] if the
    /// configurations (including seeds) differ, and
    /// [`SketchError::SnapshotAhead`] if `expired` has processed more
    /// updates than this sketch — it then cannot be a constituent of
    /// the current sum. On error, `self` is unchanged.
    pub fn subtract(&mut self, expired: &Self) -> Result<(), SketchError> {
        self.check_subtrahend(expired)?;
        self.subtract_levels(expired);
        Ok(())
    }

    /// The checks [`difference`](Self::difference) and
    /// [`subtract`](Self::subtract) run before they touch a counter:
    /// `other` must share this sketch's configuration and must not have
    /// processed more updates (counted as `snapshot_ahead_rejected` on
    /// this sketch).
    fn check_subtrahend(&self, other: &Self) -> Result<(), SketchError> {
        if !self.is_compatible(other) {
            return Err(SketchError::IncompatibleMerge {
                reason: format!("configs differ: {:?} vs {:?}", self.config, other.config),
            });
        }
        if other.updates_processed > self.updates_processed {
            self.telem.incr(Counter::SnapshotAheadRejected);
            return Err(SketchError::SnapshotAhead {
                snapshot_updates: other.updates_processed,
                current_updates: self.updates_processed,
            });
        }
        Ok(())
    }

    /// Subtracts `other`'s levels and counts from this sketch's.
    /// [`check_subtrahend`](Self::check_subtrahend) must have passed.
    fn subtract_levels(&mut self, other: &Self) {
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            match (mine.as_mut(), theirs) {
                (Some(a), Some(b)) => a.subtract(b),
                (None, Some(b))
                    // Level never touched here but present in `other`:
                    // only sound if that level is all-zero (anything
                    // else would go negative).
                    if !b.is_zero() => {
                        let mut fresh =
                            LevelState::new(self.config.num_tables(), self.config.buckets_per_table());
                        fresh.subtract(b);
                        *mine = Some(fresh);
                    }
                _ => {}
            }
        }
        // Plain subtraction: `check_subtrahend` rejected
        // `other.updates_processed > self.updates_processed`.
        self.updates_processed -= other.updates_processed;
        self.net_updates -= other.net_updates;
    }

    /// Closes one epoch of a sliding window in a single pass over four
    /// sketches: this one (the window accumulator), `cumulative` (the
    /// all-time sketch the stream is ingested into), `base` (the
    /// cumulative state at the previous epoch boundary), and `slot`
    /// (the expiring delta, or an empty sketch when nothing expires).
    ///
    /// On success `slot` holds the closing epoch's delta
    /// `cumulative − base`, this accumulator has gained that delta and
    /// shed what `slot` held before, and `base` equals `cumulative`.
    /// The result is bit-identical — every materialized level, counter
    /// and update count — to the unfused composition
    ///
    /// ```text
    /// let delta = cumulative.difference(base)?;
    /// window.merge_from(&delta)?;
    /// window.subtract(&expired)?;
    /// *base = cumulative.clone();
    /// *slot = delta;
    /// ```
    ///
    /// but walks each level once and, once every level it touches is
    /// materialized in all four sketches, allocates nothing. A level
    /// the epoch left unchanged — the base names the cumulative level's
    /// content id (DESIGN.md §17.1) — is not walked at all; only a
    /// non-zero expiring delta is shed from it. The returned
    /// [`EpochSlide`] counts both kinds.
    ///
    /// # Errors
    ///
    /// Every check runs before anything is written, so on error all
    /// four sketches are unchanged. Returns
    /// [`SketchError::IncompatibleMerge`] if any configuration differs
    /// from this sketch's, and [`SketchError::SnapshotAhead`] if `base`
    /// has processed more updates than `cumulative` (it cannot be an
    /// earlier state) or `slot` more than the accumulator would hold
    /// after admitting the delta (it cannot be one of its constituents).
    pub fn slide_epoch(
        &mut self,
        cumulative: &Self,
        base: &mut Self,
        slot: &mut Self,
    ) -> Result<EpochSlide, SketchError> {
        // The composition's checks, in its order and with its errors.
        let incompatible = |a: &SketchConfig, b: &SketchConfig| SketchError::IncompatibleMerge {
            reason: format!("configs differ: {a:?} vs {b:?}"),
        };
        if cumulative.config != base.config {
            return Err(incompatible(&cumulative.config, &base.config));
        }
        if base.updates_processed > cumulative.updates_processed {
            cumulative.telem.incr(Counter::SnapshotAheadRejected);
            return Err(SketchError::SnapshotAhead {
                snapshot_updates: base.updates_processed,
                current_updates: cumulative.updates_processed,
            });
        }
        for other in [&cumulative.config, &slot.config] {
            if self.config != *other {
                return Err(incompatible(&self.config, other));
            }
        }
        let delta_updates = cumulative.updates_processed - base.updates_processed;
        let admitted = self.updates_processed + delta_updates;
        if slot.updates_processed > admitted {
            self.telem.incr(Counter::SnapshotAheadRejected);
            return Err(SketchError::SnapshotAhead {
                snapshot_updates: slot.updates_processed,
                current_updates: admitted,
            });
        }
        let (tables, buckets) = (self.config.num_tables(), self.config.buckets_per_table());
        let fresh = || LevelState::new(tables, buckets);
        let mut slide = EpochSlide::default();
        for (((c, b), w), s) in cumulative
            .levels
            .iter()
            .zip(&mut base.levels)
            .zip(&mut self.levels)
            .zip(&mut slot.levels)
        {
            match c {
                // The delta of a level the cumulative sketch holds is
                // always materialized, so a missing base, accumulator
                // or slot level is exactly an all-zero one.
                Some(c) => match LevelState::slide_epoch(
                    c,
                    b.get_or_insert_with(fresh),
                    w.get_or_insert_with(fresh),
                    s.get_or_insert_with(fresh),
                ) {
                    LevelSlide::Fused => slide.levels_slid += 1,
                    LevelSlide::Skipped => slide.levels_skipped += 1,
                },
                // Only a base or window from another history can hold
                // a level the cumulative sketch lacks: replay the
                // unfused level rules (a non-zero base level yields a
                // negated delta; an expiring level is subtracted,
                // materializing the accumulator only when non-zero).
                None => {
                    let delta = b.take().filter(|b| !b.is_zero()).map(|b| {
                        let mut d = fresh();
                        d.subtract(&b);
                        d
                    });
                    if let Some(d) = &delta {
                        w.get_or_insert_with(fresh).merge_from(d);
                    }
                    if let Some(e) = s.as_ref() {
                        match w {
                            Some(w) => w.subtract(e),
                            None if !e.is_zero() => {
                                let mut negated = fresh();
                                negated.subtract(e);
                                *w = Some(negated);
                            }
                            None => {}
                        }
                    }
                    *s = delta;
                }
            }
        }
        let delta_net = cumulative.net_updates - base.net_updates;
        self.updates_processed = admitted - slot.updates_processed;
        self.net_updates = self.net_updates + delta_net - slot.net_updates;
        self.telem.merge_from(&cumulative.telem);
        slot.updates_processed = delta_updates;
        slot.net_updates = delta_net;
        slot.telem.clone_from(&cumulative.telem);
        base.updates_processed = cumulative.updates_processed;
        base.net_updates = cumulative.net_updates;
        base.telem.clone_from(&cumulative.telem);
        Ok(slide)
    }

    /// Estimates the distinct-count frequency of a single `group` from
    /// the current distinct sample (a point query over the same sample
    /// the top-k estimate uses).
    ///
    /// For several point queries against the same sketch state, use
    /// [`estimate_group_frequencies`](Self::estimate_group_frequencies)
    /// (or hold a [`distinct_sample`](Self::distinct_sample) and query
    /// it via [`DistinctSample::group_frequency`]) — this method
    /// re-extracts the sample, a full `levels · r · s` scan, on every
    /// call.
    pub fn estimate_group_frequency(&self, group: u32, epsilon: f64) -> u64 {
        self.distinct_sample(epsilon)
            .group_frequency(self.config.group_by(), group)
    }

    /// Batched point query: estimates the distinct-count frequency of
    /// every group in `groups` from **one** distinct sample, returning
    /// the estimates in the same order. One sketch scan plus one
    /// aggregation pass regardless of `groups.len()`, against one scan
    /// *per group* for repeated
    /// [`estimate_group_frequency`](Self::estimate_group_frequency)
    /// calls; the estimates are identical because both read the same
    /// sample.
    pub fn estimate_group_frequencies(&self, groups: &[u32], epsilon: f64) -> Vec<u64> {
        let sample = self.distinct_sample(epsilon);
        let freqs = group_frequencies(&sample.keys, self.config.group_by());
        frequencies_for_groups(&freqs, groups, sample.scale())
    }

    /// Iterates over every currently-decodable singleton pair with its
    /// level — the raw material of the distinct sample, exposed for
    /// debugging and inspection. Shares the per-level scan (including
    /// the `level_of` cross-check) with [`distinct_sample`], so the two
    /// views can never disagree about what a level contains.
    ///
    /// Distinct pairs decodable in several tables of one level are
    /// yielded once. Order: descending level, ascending key.
    ///
    /// [`distinct_sample`]: Self::distinct_sample
    pub fn singletons(&self) -> Vec<(u32, FlowKey)> {
        let mut out = Vec::new();
        for level in (0..self.config.max_levels()).rev() {
            out.extend(self.level_singletons(level).into_iter().map(|k| (level, k)));
        }
        out
    }

    /// The `(occupied, singletons)` gauges of one first-level bucket
    /// (`None` when the level was never materialized) — the per-level
    /// unit under [`telemetry_snapshot`](Self::telemetry_snapshot),
    /// exposed so the differential suite can pin it against the
    /// paper's 65-counter signature.
    #[doc(hidden)]
    pub fn level_occupancy(&self, level: u32) -> Option<(u64, u64)> {
        self.levels[usize_from_u32(level)]
            .as_ref()
            .map(LevelState::occupancy)
    }

    /// Number of currently allocated (touched) first-level buckets.
    pub fn allocated_levels(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Heap bytes used by allocated counter storage.
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(LevelState::heap_bytes)
            .sum()
    }

    /// Read-only view of a level used by tests and the tracking layer.
    pub(crate) fn level_state(&self, level: usize) -> Option<&LevelState> {
        self.levels[level].as_ref()
    }

    /// Captures the complete persistent state of the sketch as plain
    /// data (see [`crate::state`]): the configuration, the update
    /// counters, and the slabs of every level with a non-zero slot. A
    /// level whose counters returned to zero is the same state as one
    /// never touched and is left out, so `to_state` equality is counter
    /// equality between two sketches, whichever levels each allocated.
    ///
    /// Hash functions are not captured; they re-derive from the
    /// configuration seed on restore.
    pub fn to_state(&self) -> SketchState {
        let mut levels = Vec::with_capacity(self.allocated_levels());
        for (index, state) in self.levels.iter().enumerate() {
            let Some(state) = state.as_ref().filter(|l| !l.is_zero()) else {
                continue;
            };
            levels.push(LevelSlabs {
                // Bounded by max_levels ≤ 64; the audited cast panics
                // on a logic error instead of mislabeling the level.
                level: u32_from_usize(index),
                totals: state.totals().to_vec(),
                lo_sums: state.lo_sums().to_vec(),
                hi_sums: state.hi_sums().to_vec(),
                fp_sums: state.fp_sums().to_vec(),
            });
        }
        SketchState {
            config: self.config.clone(),
            updates_processed: self.updates_processed,
            net_updates: self.net_updates,
            levels,
        }
    }

    /// Reconstructs a sketch from a captured [`SketchState`], validating
    /// every structural property before any level is installed.
    ///
    /// Restore + suffix replay is bit-identical to the uninterrupted
    /// run: counters are restored verbatim, hash functions re-derive
    /// deterministically from the configuration seed, and the basic
    /// sketch carries no other state. A level the state does not list
    /// stays unmaterialized until an update touches it; a listed level
    /// is installed as given, all-zero or not.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidState`] if a level index is out of
    /// range or not strictly ascending, or a slab's length disagrees
    /// with the configuration's `(r, s)` dimensions.
    pub fn from_state(state: SketchState) -> Result<Self, SketchError> {
        let mut sketch = Self::new(state.config);
        let max_levels = sketch.config.max_levels();
        let mut prev: Option<u32> = None;
        for slab in state.levels {
            if slab.level >= max_levels {
                return Err(SketchError::InvalidState {
                    reason: format!(
                        "level {} out of range (max_levels {max_levels})",
                        slab.level
                    ),
                });
            }
            if let Some(p) = prev {
                if p >= slab.level {
                    return Err(SketchError::InvalidState {
                        reason: format!("levels not strictly ascending at level {}", slab.level),
                    });
                }
            }
            prev = Some(slab.level);
            let level = LevelState::from_parts(
                sketch.config.num_tables(),
                sketch.config.buckets_per_table(),
                slab.totals,
                slab.lo_sums,
                slab.hi_sums,
                slab.fp_sums,
            )
            .map_err(|reason| SketchError::InvalidState {
                reason: format!("level {}: {reason}", slab.level),
            })?;
            sketch.levels[usize_from_u32(slab.level)] = Some(level);
        }
        sketch.updates_processed = state.updates_processed;
        sketch.net_updates = state.net_updates;
        Ok(sketch)
    }

    /// Assembles a telemetry snapshot of the sketch: per-level bucket
    /// occupancy and decodable-singleton gauges, read live from the
    /// counter arrays, plus the recorder's nonzero event counters and
    /// its latency and batch-size summaries (`None` until a batch or
    /// query has been timed).
    ///
    /// Two gauges watch the 4-byte totals' headroom, read from each
    /// level's totals slab: `counter_headroom_exceeded`, the bucket
    /// slots whose `|total|` has reached [`HEADROOM_TOTAL`] (2³⁰, half
    /// the wrap bound), and `counter_total_max_abs`, the largest
    /// `|total|`. Both are always present, so a wrap is never silent.
    ///
    /// This is a full scan of the allocated levels (`O(levels · r · s)`
    /// screened decodes), intended for periodic export, not the update
    /// path.
    ///
    /// [`HEADROOM_TOTAL`]: crate::signature::HEADROOM_TOTAL
    pub fn telemetry_snapshot(&self, label: &str) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new(label);
        snap.updates_processed = self.updates_processed;
        snap.net_updates = self.net_updates;
        let mut headroom_exceeded = 0u64;
        let mut total_max_abs = 0u32;
        for (index, state) in self.levels.iter().enumerate() {
            let Some(state) = state else { continue };
            let (exceeded, max_abs) = state.total_headroom();
            headroom_exceeded += exceeded;
            total_max_abs = total_max_abs.max(max_abs);
            let (occupied, singletons) = state.occupancy();
            let gauges = LevelGauges {
                level: u32_from_usize(index),
                occupied_buckets: occupied,
                decoded_singletons: singletons,
                tracked_singletons: 0,
                heap_len: 0,
            };
            if !gauges.is_empty() {
                snap.levels.push(gauges);
            }
        }
        snap.set_counter("counter_headroom_exceeded", headroom_exceeded);
        snap.set_counter("counter_total_max_abs", u64::from(total_max_abs));
        self.telem.fill_snapshot(&mut snap);
        snap
    }
}

impl Default for DistinctCountSketch {
    fn default() -> Self {
        Self::with_default_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DestAddr, GroupBy, SourceAddr};
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
    fn empty_sketch_returns_empty_estimates() {
        let sketch = DistinctCountSketch::with_default_config();
        let est = sketch.estimate_top_k(5, 0.25);
        assert!(est.entries.is_empty());
        assert_eq!(est.sample_size, 0);
        assert_eq!(sketch.estimate_distinct_pairs(0.25), 0);
        assert_eq!(sketch.allocated_levels(), 0);
        assert_eq!(sketch.heap_bytes(), 0);
    }

    #[test]
    fn heap_bytes_is_allocated_levels_times_level_bytes() {
        let config = small_config(11);
        let mut sketch = DistinctCountSketch::new(config.clone());
        for s in 0..300u32 {
            sketch.insert(SourceAddr(s), DestAddr(s % 5));
        }
        assert!(sketch.allocated_levels() > 1);
        assert_eq!(
            sketch.heap_bytes(),
            sketch.allocated_levels() * config.level_bytes()
        );
        assert_eq!(
            LevelState::new(config.num_tables(), config.buckets_per_table()).heap_bytes(),
            config.level_bytes()
        );
    }

    /// The headroom gauges count slots with `|total| ≥ 2³⁰` of either
    /// sign, and report the largest `|total|`, from restored state.
    #[test]
    fn headroom_gauge_counts_totals_at_two_to_the_thirty() {
        let mut sketch = DistinctCountSketch::new(small_config(12));
        sketch.insert(SourceAddr(1), DestAddr(2));
        let snap = sketch.telemetry_snapshot("fresh");
        assert_eq!(snap.counters.get("counter_headroom_exceeded"), Some(&0));
        assert_eq!(snap.counters.get("counter_total_max_abs"), Some(&1));

        let mut state = sketch.to_state();
        let totals = &mut state.levels[0].totals;
        totals.fill(0);
        totals[..3].copy_from_slice(&[1 << 30, -(1 << 30), (1 << 30) - 1]);
        let restored = DistinctCountSketch::from_state(state).unwrap();
        let snap = restored.telemetry_snapshot("restored");
        assert_eq!(snap.counters.get("counter_headroom_exceeded"), Some(&2));
        assert_eq!(snap.counters.get("counter_total_max_abs"), Some(&(1 << 30)));
    }

    #[test]
    fn small_stream_is_recovered_exactly() {
        // Fewer distinct pairs than the sample target: every pair is
        // recovered, the inference level is 0, and estimates are exact.
        let mut sketch = DistinctCountSketch::new(small_config(1));
        for s in 0..5u32 {
            sketch.insert(SourceAddr(s), DestAddr(100));
        }
        for s in 0..3u32 {
            sketch.insert(SourceAddr(s), DestAddr(200));
        }
        let est = sketch.estimate_top_k(2, 0.25);
        assert_eq!(est.sample_level, 0);
        assert_eq!(est.scale, 1);
        assert_eq!(est.groups(), vec![100, 200]);
        assert_eq!(est.frequency_of(100), Some(5));
        assert_eq!(est.frequency_of(200), Some(3));
    }

    #[test]
    fn deletes_cancel_inserts_exactly() {
        let mut with_noise = DistinctCountSketch::new(small_config(2));
        let mut clean = DistinctCountSketch::new(small_config(2));
        // Persistent flows in both.
        for s in 0..10u32 {
            with_noise.insert(SourceAddr(s), DestAddr(1));
            clean.insert(SourceAddr(s), DestAddr(1));
        }
        // Transient flows only in `with_noise`, later deleted.
        for s in 100..200u32 {
            with_noise.insert(SourceAddr(s), DestAddr(2));
        }
        for s in 100..200u32 {
            with_noise.delete(SourceAddr(s), DestAddr(2));
        }
        // The synopsis must be bit-identical to one that never saw the
        // deleted flows ("impervious to delete operations", §3), modulo
        // levels that were touched and fully reverted (allocated but
        // all-zero).
        for level in 0..64usize {
            match (with_noise.level_state(level), clean.level_state(level)) {
                (Some(a), Some(b)) => assert_eq!(a, b, "level {level} diverged"),
                (Some(a), None) => assert!(a.is_zero(), "level {level} has residue"),
                (None, Some(b)) => assert!(b.is_zero(), "level {level} missing"),
                (None, None) => {}
            }
        }
        let est = with_noise.estimate_top_k(2, 0.25);
        assert_eq!(est.groups(), vec![1]);
        assert_eq!(est.frequency_of(1), Some(10));
    }

    #[test]
    fn duplicate_inserts_count_once_for_distinct_frequency() {
        let mut sketch = DistinctCountSketch::new(small_config(3));
        for _ in 0..50 {
            sketch.insert(SourceAddr(7), DestAddr(9));
        }
        let est = sketch.estimate_top_k(1, 0.25);
        // 50 inserts of the same pair are one distinct source.
        assert_eq!(est.frequency_of(9), Some(1));
    }

    #[test]
    fn update_counters_track_stream() {
        let mut sketch = DistinctCountSketch::new(small_config(4));
        sketch.insert(SourceAddr(1), DestAddr(2));
        sketch.insert(SourceAddr(2), DestAddr(2));
        sketch.delete(SourceAddr(1), DestAddr(2));
        assert_eq!(sketch.updates_processed(), 3);
        assert_eq!(sketch.net_updates(), 1);
    }

    #[test]
    fn estimates_on_larger_stream_are_accurate() {
        // 5 heavy destinations (300 distinct sources each) plus 500
        // singleton flows. With s = 2048 the stopping rule targets a
        // ~160-element distinct sample, putting ~24 occurrences of each
        // heavy destination in the sample — enough for ~20% relative
        // error; we assert a generous 50%.
        let config = SketchConfig::builder()
            .buckets_per_table(2048)
            .seed(6)
            .build()
            .unwrap();
        let mut sketch = DistinctCountSketch::new(config);
        let mut exact: HashMap<u32, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for dest in 0..5u32 {
            for _ in 0..300 {
                sketch.insert(SourceAddr(rng.gen()), DestAddr(dest));
                *exact.entry(dest).or_insert(0) += 1;
            }
        }
        for i in 0..500u32 {
            sketch.insert(SourceAddr(rng.gen()), DestAddr(1000 + i));
        }
        let est = sketch.estimate_top_k(5, 0.25);
        assert_eq!(est.entries.len(), 5);
        for entry in &est.entries {
            let truth = exact[&entry.group] as f64;
            let got = entry.estimated_frequency as f64;
            let rel = (got - truth).abs() / truth;
            assert!(
                rel < 0.5,
                "group {}: est {} vs exact {} (rel {rel:.2})",
                entry.group,
                got,
                truth
            );
        }
    }

    #[test]
    fn distinct_pair_estimate_tracks_u() {
        let mut sketch = DistinctCountSketch::new(small_config(7));
        let u = 5000u32;
        for i in 0..u {
            sketch.insert(SourceAddr(i), DestAddr(i % 50));
        }
        let est = sketch.estimate_distinct_pairs(0.25) as f64;
        let rel = (est - f64::from(u)).abs() / f64::from(u);
        assert!(rel < 0.5, "estimated U = {est}, true = {u}");
    }

    #[test]
    fn merge_equals_single_sketch_over_union() {
        let mut a = DistinctCountSketch::new(small_config(8));
        let mut b = DistinctCountSketch::new(small_config(8));
        let mut combined = DistinctCountSketch::new(small_config(8));
        for s in 0..50u32 {
            a.insert(SourceAddr(s), DestAddr(1));
            combined.insert(SourceAddr(s), DestAddr(1));
        }
        for s in 50..80u32 {
            b.insert(SourceAddr(s), DestAddr(2));
            combined.insert(SourceAddr(s), DestAddr(2));
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.updates_processed(), combined.updates_processed());
        let merged_est = a.estimate_top_k(2, 0.25);
        let combined_est = combined.estimate_top_k(2, 0.25);
        assert_eq!(merged_est, combined_est);
    }

    #[test]
    fn merge_rejects_different_seeds() {
        let mut a = DistinctCountSketch::new(small_config(1));
        let b = DistinctCountSketch::new(small_config(2));
        let err = a.merge_from(&b).unwrap_err();
        assert!(matches!(err, SketchError::IncompatibleMerge { .. }));
    }

    #[test]
    fn source_orientation_counts_distinct_destinations() {
        let config = SketchConfig::builder()
            .buckets_per_table(64)
            .group_by(GroupBy::Source)
            .seed(9)
            .build()
            .unwrap();
        let mut sketch = DistinctCountSketch::new(config);
        // Source 5 scans 40 destinations; source 6 contacts 2.
        for d in 0..40u32 {
            sketch.insert(SourceAddr(5), DestAddr(d));
        }
        for d in 0..2u32 {
            sketch.insert(SourceAddr(6), DestAddr(d));
        }
        let est = sketch.estimate_top_k(1, 0.25);
        assert_eq!(est.entries[0].group, 5);
        assert_eq!(est.group_by, GroupBy::Source);
    }

    #[test]
    fn prefix_orientation_aggregates_subnet_spray() {
        // An attack spraying 64 hosts of one /24 with 8 sources each:
        // no host exceeds 8, but the prefix totals 512.
        let config = SketchConfig::builder()
            .buckets_per_table(1024)
            .group_by(GroupBy::DestinationPrefix { bits: 24 })
            .seed(31)
            .build()
            .unwrap();
        let mut sketch = DistinctCountSketch::new(config);
        let prefix = 0x0a00_1200u32;
        for host in 0..64u32 {
            for s in 0..8u32 {
                sketch.insert(SourceAddr(host * 100 + s), DestAddr(prefix + host));
            }
        }
        // Background: a single busy host elsewhere with 100 sources.
        for s in 0..100u32 {
            sketch.insert(SourceAddr(0x5000_0000 + s), DestAddr(0x0b00_0001));
        }
        let top = sketch.estimate_top_k(1, 0.25);
        assert_eq!(top.entries[0].group, prefix, "sprayed /24 must lead");
        let est = top.entries[0].estimated_frequency as f64;
        assert!((est - 512.0).abs() / 512.0 < 0.4, "estimate {est}");
    }

    #[test]
    fn threshold_query_filters() {
        let mut sketch = DistinctCountSketch::new(small_config(10));
        for s in 0..30u32 {
            sketch.insert(SourceAddr(s), DestAddr(1));
        }
        for s in 0..3u32 {
            sketch.insert(SourceAddr(s), DestAddr(2));
        }
        let est = sketch.estimate_threshold(10, 0.25);
        assert_eq!(est.groups(), vec![1]);
    }

    #[test]
    fn allocated_levels_stay_logarithmic() {
        let mut sketch = DistinctCountSketch::new(small_config(11));
        for i in 0..10_000u32 {
            sketch.insert(SourceAddr(i), DestAddr(i % 10));
        }
        // 10^4 pairs ≈ 2^13.3: expect ≈14 non-empty levels, certainly
        // far fewer than 64.
        let allocated = sketch.allocated_levels();
        assert!(
            (10..=20).contains(&allocated),
            "allocated levels = {allocated}"
        );
    }

    #[test]
    fn scale_factor_is_inclusion_probability_inverse() {
        // Regression for the pseudocode off-by-one (module docs of
        // `estimator`): with enough pairs to push the inference level
        // above 0, the scaled estimate must track the true frequency —
        // under the paper's literal `2^(B-1)` scaling it would sit near
        // half the truth.
        let mut sketch = DistinctCountSketch::new(small_config(12));
        let truth = 4000u32;
        for s in 0..truth {
            sketch.insert(SourceAddr(s), DestAddr(77));
        }
        let est = sketch.estimate_top_k(1, 0.25);
        assert!(est.sample_level > 0, "level = {}", est.sample_level);
        let got = est.frequency_of(77).unwrap() as f64;
        let rel = (got - f64::from(truth)).abs() / f64::from(truth);
        assert!(rel < 0.35, "estimate {got} vs truth {truth} (rel {rel:.2})");
    }

    #[test]
    fn difference_isolates_the_suffix_stream() {
        let mut sketch = DistinctCountSketch::new(small_config(20));
        for s in 0..50u32 {
            sketch.insert(SourceAddr(s), DestAddr(1));
        }
        let snapshot = sketch.clone();
        // 4 suffix pairs: strictly below the sample target, so the
        // difference resolves exactly at level 0.
        for s in 0..4u32 {
            sketch.insert(SourceAddr(1000 + s), DestAddr(2));
        }
        let recent = sketch.difference(&snapshot).unwrap();
        assert_eq!(recent.estimate_distinct_pairs(0.25), 4);
        let top = recent.estimate_top_k(1, 0.25);
        assert_eq!(top.entries[0].group, 2);
        assert_eq!(top.entries[0].estimated_frequency, 4);
        assert_eq!(recent.updates_processed(), 4);
        assert_eq!(recent.net_updates(), 4);
    }

    #[test]
    fn difference_of_identical_states_is_empty() {
        let mut sketch = DistinctCountSketch::new(small_config(21));
        for s in 0..40u32 {
            sketch.insert(SourceAddr(s), DestAddr(3));
        }
        let diff = sketch.difference(&sketch.clone()).unwrap();
        assert_eq!(diff.estimate_distinct_pairs(0.25), 0);
        assert!(diff.estimate_top_k(5, 0.25).entries.is_empty());
    }

    #[test]
    fn difference_equals_suffix_built_fresh() {
        let mut full = DistinctCountSketch::new(small_config(22));
        let mut suffix_only = DistinctCountSketch::new(small_config(22));
        for s in 0..100u32 {
            full.insert(SourceAddr(s), DestAddr(1));
        }
        let snapshot = full.clone();
        for s in 0..60u32 {
            full.insert(SourceAddr(5000 + s), DestAddr(4));
            suffix_only.insert(SourceAddr(5000 + s), DestAddr(4));
        }
        let diff = full.difference(&snapshot).unwrap();
        assert_eq!(
            diff.distinct_sample(0.25),
            suffix_only.distinct_sample(0.25)
        );
        assert_eq!(
            diff.estimate_top_k(3, 0.25),
            suffix_only.estimate_top_k(3, 0.25)
        );
    }

    #[test]
    fn difference_rejects_incompatible() {
        let a = DistinctCountSketch::new(small_config(1));
        let b = DistinctCountSketch::new(small_config(2));
        assert!(a.difference(&b).is_err());
    }

    #[test]
    fn group_frequency_point_query_matches_top_k() {
        let mut sketch = DistinctCountSketch::new(small_config(23));
        for s in 0..80u32 {
            sketch.insert(SourceAddr(s), DestAddr(6));
        }
        let top = sketch.estimate_top_k(1, 0.25);
        assert_eq!(
            sketch.estimate_group_frequency(6, 0.25),
            top.entries[0].estimated_frequency
        );
        assert_eq!(sketch.estimate_group_frequency(999, 0.25), 0);
    }

    #[test]
    fn distinct_sample_agrees_with_singletons_view() {
        // Both views are built on the same per-level scan; the sample
        // must equal the singleton enumeration restricted to levels at
        // or above the inference level.
        let mut sketch = DistinctCountSketch::new(small_config(41));
        for s in 0..800u32 {
            sketch.insert(SourceAddr(s), DestAddr(s % 13));
        }
        let sample = sketch.distinct_sample(0.25);
        let mut expected: Vec<FlowKey> = sketch
            .singletons()
            .into_iter()
            .filter(|&(level, _)| level >= sample.level)
            .map(|(_, k)| k)
            .collect();
        expected.sort_unstable();
        assert_eq!(sample.keys, expected);
    }

    #[test]
    fn batch_scratch_never_reallocates_across_chunks() {
        // Satellite of the batch-path fix: `update_batch` sizes its
        // scratch exactly once per call. The slabs are boxed slices, so
        // any reallocation would have to move them — pin the base
        // pointers before routing and assert they never change while a
        // multi-chunk batch streams through.
        let mut sketch = DistinctCountSketch::new(small_config(50));
        let updates: Vec<FlowUpdate> = (0..3 * BATCH_CHUNK + 17)
            .map(|i| FlowUpdate::insert(SourceAddr(i as u32), DestAddr(1)))
            .collect();
        let mut scratch = BatchScratch::new(updates.len(), sketch.config().num_tables());
        let slab_ptr = scratch.slab.as_ptr();
        let slab_len = scratch.slab.len();
        let cap = scratch.chunk_cap();
        assert_eq!(cap, BATCH_CHUNK, "long batches use full-size chunks");
        for chunk in updates.chunks(BATCH_CHUNK) {
            sketch.route_chunk(chunk, &mut scratch);
            assert_eq!(scratch.slab.as_ptr(), slab_ptr);
            assert_eq!(scratch.slab.len(), slab_len);
            assert_eq!(scratch.chunk_cap(), cap);
        }
    }

    #[test]
    fn update_batch_plans_are_bit_identical_around_the_cutoff() {
        // The auto-select cutoff is a pure performance knob: both the
        // scalar and routed plans must leave bit-identical state. Probe
        // one size on each side of BATCH_MIN_ROUTED plus the boundary
        // itself, with deletes mixed in.
        for n in [BATCH_MIN_ROUTED - 1, BATCH_MIN_ROUTED, BATCH_MIN_ROUTED + 1] {
            let updates: Vec<FlowUpdate> = (0..n)
                .map(|i| {
                    let key = (SourceAddr(i as u32 / 2), DestAddr(3));
                    if i % 4 == 3 {
                        FlowUpdate::delete(key.0, key.1)
                    } else {
                        FlowUpdate::insert(key.0, key.1)
                    }
                })
                .collect();
            let mut batched = DistinctCountSketch::new(small_config(51));
            let mut sequential = DistinctCountSketch::new(small_config(51));
            batched.update_batch(&updates);
            for &u in &updates {
                sequential.update(u);
            }
            assert_eq!(batched.to_state(), sequential.to_state(), "n = {n}");
        }
    }

    #[test]
    fn singletons_enumerates_decodable_pairs() {
        let mut sketch = DistinctCountSketch::new(small_config(40));
        for s in 0..10u32 {
            sketch.insert(SourceAddr(s), DestAddr(1));
        }
        let singles = sketch.singletons();
        // Small population: everything decodable, levels descending.
        assert_eq!(singles.len(), 10);
        for w in singles.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
        for &(level, key) in &singles {
            assert_eq!(sketch.level_of(key), level);
        }
    }
}
