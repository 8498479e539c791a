//! First-level bucket storage: `r` second-level hash tables of `s`
//! count-signature buckets each, held in one flat arena per level.
//!
//! Levels are allocated lazily — the geometric first-level hash sends a
//! `U`-pair stream into only ≈ `log₂ U` distinct levels, and the paper's
//! §6.1 space accounting ("approximately 23 non-empty first-level
//! buckets" at `U = 8·10⁶`) counts exactly those. The sketch mirrors
//! that by materializing a level the first time a pair lands in it.
//!
//! ## Arena layout
//!
//! Instead of `r·s` individually heap-allocated signatures, a level owns
//! exactly three slabs:
//!
//! * `counts`: one contiguous `Box<[i32]>` of `r·s·65` 4-byte counters
//!   (the paper's counter width; `signature.rs` explains why wrapping
//!   at 2³² decodes exactly). Bucket
//!   `k` of table `j` occupies the stride-indexed block
//!   `slot·65 .. (slot+1)·65` where `slot = j·s + k` — `counts[slot·65]`
//!   is the bucket's total, `counts[slot·65 + 1 + b]` its bit-location
//!   count for bit `b`.
//! * `key_sums`, `fp_sums`: parallel `Box<[u64]>` arrays of `r·s` screen
//!   sums, indexed by the same `slot`.
//! * `totals`: a derived `Box<[i32]>` mirror of `r·s` bucket totals —
//!   `totals[slot]` always equals `counts[slot·65]`. It is maintained
//!   by every write path (per-update apply, merge, subtract), rebuilt
//!   from the counter slab on restore, and never serialized. Its sole
//!   purpose is the wide screen pass below: with the totals contiguous,
//!   the empty-vs-occupied screen streams three small slabs and never
//!   strides over the 65×-larger counter slab.
//!
//! A bucket takes 280 bytes: 65 counters and its mirrored total at 4
//! bytes each, plus two 8-byte screen sums
//! ([`SketchConfig::signature_bytes`](crate::SketchConfig::signature_bytes)
//! and [`heap_bytes`](LevelState::heap_bytes) both derive from these
//! element sizes). One update touches one 260-byte counter block (4–5
//! cache lines, contiguous) plus two single words, reached through a
//! single pointer deref each — no per-bucket pointer chase. The
//! screens live in parallel arrays rather than interleaved with the
//! counters so the `O(1)` screen-only reject paths (`is_zero` fast
//! reject, occupancy scans) stream through dense `u64` arrays without
//! striding over 260 bytes of counters per bucket.
//!
//! Whole-level operations (`merge_from`, `subtract`, `is_zero`) become
//! single linear passes over the slabs that LLVM can auto-vectorize;
//! per-bucket logic borrows blocks as [`SigRef`]/[`SigMut`] views, so
//! the decode/screen algorithms in `signature.rs` are reused unchanged.
//!
//! ## The wide screen pass (DESIGN.md §16)
//!
//! Every whole-level read (`collect_singletons`, `occupancy`,
//! `is_zero`, and the tracking rebuild) goes through
//! [`for_each_screen_chunk`](LevelState::for_each_screen_chunk): a
//! fixed-width pass that folds 64 bucket slots at a time into a 64-bit
//! *occupancy mask* (bit `i` set iff slot `base + i` has a nonzero
//! total, key sum, or fingerprint sum), then visits only the set bits.
//! All three inputs — key sums, fingerprint sums, and the `totals`
//! mirror — are contiguous fixed-width array passes the vectorizer
//! handles; the pass never touches the counter slab for a bucket it
//! rejects. The totals **must** participate in the mask: `FlowKey(0,
//! 0)` packs to `0`, `fingerprint64(0) == 0`, so a bucket holding only
//! that key has both screen sums zero and is visible *only* through
//! its total. The
//! scalar per-bucket loops are retained as `_scalar` twins; they are
//! bit-identical on well-formed streams (`tests/read_equivalence.rs`).
//! The only divergence is `occupancy` on *ill-formed* streams (net
//! deletes without inserts): a bucket whose total and both sums are
//! zero but whose bit-location counters are not counts as occupied
//! under the scalar full scan and as empty under the mask — a state no
//! insert/delete-balanced stream can produce.
//!
//! ## Content ids (DESIGN.md §17.1)
//!
//! Each level carries one atomic *content id* word that names its slab
//! contents: two levels with the same id hold byte-for-byte equal
//! slabs. `0` is unnamed; [`ZERO_ID`] names an all-zero level (fresh
//! or zero-filled); every other id is drawn once from a process-wide
//! counter, lazily through `&self` the first time a slide or a clone
//! reads it. Every write path stores `0` (one plain store through
//! `&mut self`), and ids are never reused, so equal ids imply equal
//! content for any lineage. The epoch slide uses this to skip a level
//! whose base already names the cumulative level's content: its epoch
//! delta is exactly zero. The id is not a slab — it is never
//! serialized, and neither equality nor `heap_bytes` sees it.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::signature::{
    counter_slab_is_zero, merge_counter_slab, merge_counter_slab_scalar, merge_sum_slab,
    merge_sum_slab_scalar, slide_counter_slab, slide_sum_slab, subtract_counter_slab,
    subtract_counter_slab_scalar, subtract_sum_slab, subtract_sum_slab_scalar, sum_slab_is_zero,
    BucketState, SigMut, SigRef, COUNTER_BYTES, HEADROOM_TOTAL, SCREEN_SUM_BYTES, SIGNATURE_LEN,
};
use crate::types::{Delta, FlowKey};
use dcs_hash::cast::usize_from_u32;

/// Bucket slots folded per occupancy-mask chunk of the wide screen
/// pass — one mask bit per slot, so a `u64` mask fixes this at 64.
const SCREEN_LANES: usize = 64;

/// The content id of a level whose contents are not named yet.
const UNNAMED_ID: u64 = 0;

/// The content id of an all-zero level: freshly allocated or
/// zero-filled by a skipped slide.
const ZERO_ID: u64 = 1;

/// The next content id to hand out. Process-wide and never reused, so
/// an id names one content for the life of the process.
static NEXT_CONTENT_ID: AtomicU64 = AtomicU64::new(ZERO_ID + 1);

/// What [`LevelState::slide_epoch`] did to one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LevelSlide {
    /// The epoch changed the level: the fused four-slab pass ran.
    Fused,
    /// The base already named the cumulative level's content, so the
    /// epoch delta was zero: at most the expiring delta was shed.
    Skipped,
}

/// Counter storage for one first-level bucket: a flat counter slab plus
/// parallel screen-sum arrays (see the module docs for the layout).
#[derive(Debug)]
pub(crate) struct LevelState {
    /// Number of second-level tables (`r`).
    num_tables: usize,
    /// Buckets per table (`s`).
    buckets_per_table: usize,
    /// `r·s·65` counters, stride-indexed by bucket slot.
    counts: Box<[i32]>,
    /// `r·s` wrapping key sums, one per bucket slot.
    key_sums: Box<[u64]>,
    /// `r·s` wrapping fingerprint sums, one per bucket slot.
    fp_sums: Box<[u64]>,
    /// `r·s` bucket totals — a derived contiguous mirror of
    /// `counts[slot·65]`, maintained by every write path so the wide
    /// screen pass never strides over the counter slab (see the module
    /// docs). Never serialized; rebuilt in [`from_parts`](Self::from_parts).
    totals: Box<[i32]>,
    /// The content id (see the module docs): [`UNNAMED_ID`] after any
    /// write, named lazily by [`content_id`](Self::content_id).
    id: AtomicU64,
}

/// A clone names its source first, so it carries the same content id:
/// a cloned cumulative sketch still lets the slide skip its unchanged
/// levels.
impl Clone for LevelState {
    fn clone(&self) -> Self {
        let id = self.content_id();
        Self {
            num_tables: self.num_tables,
            buckets_per_table: self.buckets_per_table,
            counts: self.counts.clone(),
            key_sums: self.key_sums.clone(),
            fp_sums: self.fp_sums.clone(),
            totals: self.totals.clone(),
            id: AtomicU64::new(id),
        }
    }
}

/// Slab equality; the content id is a cache of it and does not take
/// part.
impl PartialEq for LevelState {
    fn eq(&self, other: &Self) -> bool {
        self.num_tables == other.num_tables
            && self.buckets_per_table == other.buckets_per_table
            && self.counts == other.counts
            && self.key_sums == other.key_sums
            && self.fp_sums == other.fp_sums
            && self.totals == other.totals
    }
}

impl Eq for LevelState {}

impl LevelState {
    /// Allocates an all-empty level with `r` tables of `s` buckets —
    /// three slab allocations regardless of `r·s`.
    pub(crate) fn new(num_tables: usize, buckets_per_table: usize) -> Self {
        let slots = num_tables * buckets_per_table;
        Self {
            num_tables,
            buckets_per_table,
            counts: vec![0; slots * SIGNATURE_LEN].into_boxed_slice(),
            key_sums: vec![0u64; slots].into_boxed_slice(),
            fp_sums: vec![0u64; slots].into_boxed_slice(),
            totals: vec![0; slots].into_boxed_slice(),
            id: AtomicU64::new(ZERO_ID),
        }
    }

    /// The level's content id, naming it first if it is unnamed: a
    /// fresh id from the process-wide counter is installed by
    /// compare-and-swap, so concurrent readers agree on one id.
    pub(crate) fn content_id(&self) -> u64 {
        let id = self.id.load(Ordering::Acquire);
        if id != UNNAMED_ID {
            return id;
        }
        let fresh = NEXT_CONTENT_ID.fetch_add(1, Ordering::AcqRel);
        match self
            .id
            .compare_exchange(UNNAMED_ID, fresh, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => fresh,
            Err(named) => named,
        }
    }

    /// Marks the contents as changed: the write paths' one plain store.
    #[inline]
    fn unname(&mut self) {
        *self.id.get_mut() = UNNAMED_ID;
    }

    /// Rebuilds a level from raw slabs, validating the lengths against
    /// the `(r, s)` dimensions — the single reconstruction path, used by
    /// the persistence state layer.
    pub(crate) fn from_parts(
        num_tables: usize,
        buckets_per_table: usize,
        counts: Vec<i32>,
        key_sums: Vec<u64>,
        fp_sums: Vec<u64>,
    ) -> Result<Self, String> {
        let slots = num_tables
            .checked_mul(buckets_per_table)
            .ok_or_else(|| "level dimensions overflow".to_string())?;
        let counter_len = slots
            .checked_mul(SIGNATURE_LEN)
            .ok_or_else(|| "level counter length overflows".to_string())?;
        if counts.len() != counter_len {
            return Err(format!(
                "counter slab length {} does not match {} slots × {} counters",
                counts.len(),
                slots,
                SIGNATURE_LEN
            ));
        }
        if key_sums.len() != slots || fp_sums.len() != slots {
            return Err(format!(
                "screen sum lengths {}/{} do not match {} slots",
                key_sums.len(),
                fp_sums.len(),
                slots
            ));
        }
        // The totals mirror is derived state: rebuild it from the
        // counter slab rather than trusting (or transporting) a copy.
        let totals: Box<[i32]> = counts.iter().step_by(SIGNATURE_LEN).copied().collect();
        Ok(Self {
            num_tables,
            buckets_per_table,
            counts: counts.into_boxed_slice(),
            key_sums: key_sums.into_boxed_slice(),
            fp_sums: fp_sums.into_boxed_slice(),
            totals,
            id: AtomicU64::new(UNNAMED_ID),
        })
    }

    /// The raw counter slab (`r·s·65` counters) — persistence view.
    pub(crate) fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// The raw key-sum slab (`r·s` words) — persistence view.
    pub(crate) fn key_sums(&self) -> &[u64] {
        &self.key_sums
    }

    /// The raw fingerprint-sum slab (`r·s` words) — persistence view.
    pub(crate) fn fp_sums(&self) -> &[u64] {
        &self.fp_sums
    }

    /// The flat slot index of bucket `bucket` in table `table`.
    #[inline]
    fn slot(&self, table: usize, bucket: usize) -> usize {
        debug_assert!(table < self.num_tables && bucket < self.buckets_per_table);
        table * self.buckets_per_table + bucket
    }

    /// A borrowed read view of one bucket's counters and screen sums.
    #[inline]
    pub(crate) fn sig_ref(&self, table: usize, bucket: usize) -> SigRef<'_> {
        let slot = self.slot(table, bucket);
        SigRef::new(
            &self.counts[slot * SIGNATURE_LEN..(slot + 1) * SIGNATURE_LEN],
            self.key_sums[slot],
            self.fp_sums[slot],
        )
    }

    /// A borrowed mutable view of one bucket's counters and screen sums.
    #[inline]
    fn sig_mut(&mut self, table: usize, bucket: usize) -> SigMut<'_> {
        self.unname();
        let slot = self.slot(table, bucket);
        SigMut::new(
            &mut self.counts[slot * SIGNATURE_LEN..(slot + 1) * SIGNATURE_LEN],
            &mut self.key_sums[slot],
            &mut self.fp_sums[slot],
        )
    }

    /// Applies an update to bucket `bucket` of table `table` (hashes the
    /// key's fingerprint itself; the sketch's hot paths use
    /// [`apply_with_fp`](Self::apply_with_fp) instead).
    #[cfg(test)]
    #[inline]
    pub(crate) fn apply(&mut self, table: usize, bucket: usize, key: FlowKey, delta: Delta) {
        self.apply_with_fp(
            table,
            bucket,
            key,
            delta,
            dcs_hash::mix::fingerprint64(key.packed()),
        );
    }

    /// Applies an update with the key's fingerprint precomputed, so the
    /// sketch hashes the key once per update instead of once per table.
    #[inline]
    pub(crate) fn apply_with_fp(
        &mut self,
        table: usize,
        bucket: usize,
        key: FlowKey,
        delta: Delta,
        fp: u64,
    ) {
        let slot = self.slot(table, bucket);
        self.sig_mut(table, bucket).apply_with_fp(key, delta, fp);
        // Keep the totals mirror current — one store into a word the
        // update just pulled into cache via the counter block.
        self.totals[slot] = self.counts[slot * SIGNATURE_LEN];
    }

    /// Decodes bucket `bucket` of table `table` exhaustively (all 65
    /// counters, no screen).
    #[inline]
    pub(crate) fn decode(&self, table: usize, bucket: usize) -> BucketState {
        self.sig_ref(table, bucket).decode()
    }

    /// Screened decode of bucket `bucket` of table `table` — `O(1)` for
    /// empty and colliding buckets.
    #[inline]
    pub(crate) fn decode_fast(&self, table: usize, bucket: usize) -> BucketState {
        self.sig_ref(table, bucket).decode_fast()
    }

    /// The occupancy mask of up to [`SCREEN_LANES`] slots starting at
    /// `base`: bit `i` is set iff slot `base + i` has a nonzero total,
    /// key sum, or fingerprint sum. The scalar form shared by the wide
    /// pass's remainder tail and its (unreachable) slice fallback.
    #[inline]
    fn screen_mask_scalar(&self, base: usize, lanes: usize) -> u64 {
        let mut mask = 0u64;
        for i in 0..lanes {
            let slot = base + i;
            let occupied =
                (self.totals[slot] != 0) | (self.key_sums[slot] != 0) | (self.fp_sums[slot] != 0);
            mask |= u64::from(occupied) << i;
        }
        mask
    }

    /// The wide screen pass: walks the bucket slots in
    /// [`SCREEN_LANES`]-wide chunks and hands `f` each chunk's base
    /// slot and occupancy mask (see the module docs). All three mask
    /// inputs — the screen-sum slabs and the contiguous `totals`
    /// mirror — are fixed-width array passes the vectorizer handles;
    /// the counter slab is never touched for rejected buckets.
    /// Folding the totals into the mask is mandatory for soundness:
    /// the packed key `0` is invisible to both screen sums.
    #[inline]
    pub(crate) fn for_each_screen_chunk(&self, mut f: impl FnMut(usize, u64)) {
        let slots = self.key_sums.len();
        let mut base = 0usize;
        let mut key_chunks = self.key_sums.chunks_exact(SCREEN_LANES);
        let mut fp_chunks = self.fp_sums.chunks_exact(SCREEN_LANES);
        let mut total_chunks = self.totals.chunks_exact(SCREEN_LANES);
        for ((ks, fs), ts) in key_chunks
            .by_ref()
            .zip(fp_chunks.by_ref())
            .zip(total_chunks.by_ref())
        {
            let mask = match (
                ks.first_chunk::<SCREEN_LANES>(),
                fs.first_chunk::<SCREEN_LANES>(),
                ts.first_chunk::<SCREEN_LANES>(),
            ) {
                (Some(ks), Some(fs), Some(ts)) => {
                    let mut mask = 0u64;
                    for i in 0..SCREEN_LANES {
                        mask |= u64::from((ks[i] | fs[i]) != 0 || ts[i] != 0) << i;
                    }
                    mask
                }
                // Unreachable (`chunks_exact` yields exact-length
                // slices), but a scalar fallback keeps this total
                // without panicking machinery.
                _ => self.screen_mask_scalar(base, SCREEN_LANES),
            };
            f(base, mask);
            base += SCREEN_LANES;
        }
        if base < slots {
            f(base, self.screen_mask_scalar(base, slots - base));
        }
    }

    /// Visits every bucket currently decoding to a singleton, in slot
    /// order (table-major — the same order as a nested table/bucket
    /// loop), with its net count. Only the occupied slots of each
    /// screen chunk are decoded; empty buckets never touch the
    /// screened-decode machinery at all.
    #[inline]
    pub(crate) fn for_each_singleton(&self, mut f: impl FnMut(FlowKey, i64)) {
        self.for_each_screen_chunk(|base, mut mask| {
            while mask != 0 {
                let slot = base + usize_from_u32(mask.trailing_zeros());
                mask &= mask - 1;
                let block = &self.counts[slot * SIGNATURE_LEN..(slot + 1) * SIGNATURE_LEN];
                let sig = SigRef::new(block, self.key_sums[slot], self.fp_sums[slot]);
                if let BucketState::Singleton { key, net_count } = sig.decode_fast() {
                    f(key, net_count);
                }
            }
        });
    }

    /// The paper's `GetdSample(X, b)` (Fig. 4): scans every second-level
    /// bucket, decoding singletons; distinct recovered keys are pushed
    /// into `out` (deduplicated by the caller's set semantics). Runs as
    /// the wide screen pass — empty buckets are rejected chunk-wise
    /// without per-bucket dispatch; occupied buckets go through the
    /// `O(1)` screened decode, which rejects collisions. The ordered
    /// set keeps sample iteration deterministic (lint L4).
    pub(crate) fn collect_singletons(&self, out: &mut std::collections::BTreeSet<FlowKey>) {
        self.for_each_singleton(|key, _net| {
            out.insert(key);
        });
    }

    /// Scalar reference twin of [`collect_singletons`](Self::collect_singletons):
    /// the pre-wide-pass per-bucket loop, kept for the equivalence
    /// suite (`tests/read_equivalence.rs`).
    pub(crate) fn collect_singletons_scalar(&self, out: &mut std::collections::BTreeSet<FlowKey>) {
        for (block, (&key_sum, &fp_sum)) in self
            .counts
            .chunks_exact(SIGNATURE_LEN)
            .zip(self.key_sums.iter().zip(self.fp_sums.iter()))
        {
            let sig = SigRef::new(block, key_sum, fp_sum);
            if let BucketState::Singleton { key, .. } = sig.decode_fast() {
                out.insert(key);
            }
        }
    }

    /// Adds another level's counters bucket-wise — four linear slab
    /// passes (counters are linear, so the slabs add element-wise,
    /// and the totals mirror merges like any other slab) through the
    /// wide fixed-width kernels.
    pub(crate) fn merge_from(&mut self, other: &LevelState) {
        debug_assert_eq!(self.num_tables, other.num_tables);
        debug_assert_eq!(self.buckets_per_table, other.buckets_per_table);
        self.unname();
        merge_counter_slab(&mut self.counts, &other.counts);
        merge_sum_slab(&mut self.key_sums, &other.key_sums);
        merge_sum_slab(&mut self.fp_sums, &other.fp_sums);
        merge_counter_slab(&mut self.totals, &other.totals);
    }

    /// Scalar reference twin of [`merge_from`](Self::merge_from).
    pub(crate) fn merge_from_scalar(&mut self, other: &LevelState) {
        debug_assert_eq!(self.num_tables, other.num_tables);
        debug_assert_eq!(self.buckets_per_table, other.buckets_per_table);
        self.unname();
        merge_counter_slab_scalar(&mut self.counts, &other.counts);
        merge_sum_slab_scalar(&mut self.key_sums, &other.key_sums);
        merge_sum_slab_scalar(&mut self.fp_sums, &other.fp_sums);
        merge_counter_slab_scalar(&mut self.totals, &other.totals);
    }

    /// Subtracts another level's counters bucket-wise — four linear
    /// slab passes through the wide fixed-width kernels.
    pub(crate) fn subtract(&mut self, other: &LevelState) {
        debug_assert_eq!(self.num_tables, other.num_tables);
        debug_assert_eq!(self.buckets_per_table, other.buckets_per_table);
        self.unname();
        subtract_counter_slab(&mut self.counts, &other.counts);
        subtract_sum_slab(&mut self.key_sums, &other.key_sums);
        subtract_sum_slab(&mut self.fp_sums, &other.fp_sums);
        subtract_counter_slab(&mut self.totals, &other.totals);
    }

    /// Scalar reference twin of [`subtract`](Self::subtract).
    pub(crate) fn subtract_scalar(&mut self, other: &LevelState) {
        debug_assert_eq!(self.num_tables, other.num_tables);
        debug_assert_eq!(self.buckets_per_table, other.buckets_per_table);
        self.unname();
        subtract_counter_slab_scalar(&mut self.counts, &other.counts);
        subtract_sum_slab_scalar(&mut self.key_sums, &other.key_sums);
        subtract_sum_slab_scalar(&mut self.fp_sums, &other.fp_sums);
        subtract_counter_slab_scalar(&mut self.totals, &other.totals);
    }

    /// Closes one epoch over this level: `d = cumulative − base;
    /// window += d − slot; base = cumulative; slot = d`. `slot` holds
    /// the expiring delta on entry (an all-zero level when nothing
    /// expires) and the closing epoch's delta on exit.
    ///
    /// When `base` already carries `cumulative`'s content id, the two
    /// are equal and `d` is zero, so the level is skipped: the window
    /// only sheds a non-zero expiring delta, and the slot is
    /// zero-filled. Otherwise one fused pass per slab (see
    /// `slide_kernel!`) does the whole step, walking each slab once
    /// where the unfused composition walks the level five times (two
    /// clones, two subtractions, one merge) and allocates two copies
    /// of it; `base` then takes `cumulative`'s id.
    pub(crate) fn slide_epoch(
        cumulative: &LevelState,
        base: &mut LevelState,
        window: &mut LevelState,
        slot: &mut LevelState,
    ) -> LevelSlide {
        let id = cumulative.content_id();
        if *base.id.get_mut() == id {
            if *slot.id.get_mut() != ZERO_ID {
                Self::subtract(window, slot);
                slot.zero_fill();
            }
            return LevelSlide::Skipped;
        }
        slide_counter_slab(
            &cumulative.counts,
            &mut base.counts,
            &mut window.counts,
            &mut slot.counts,
        );
        slide_sum_slab(
            &cumulative.key_sums,
            &mut base.key_sums,
            &mut window.key_sums,
            &mut slot.key_sums,
        );
        slide_sum_slab(
            &cumulative.fp_sums,
            &mut base.fp_sums,
            &mut window.fp_sums,
            &mut slot.fp_sums,
        );
        slide_counter_slab(
            &cumulative.totals,
            &mut base.totals,
            &mut window.totals,
            &mut slot.totals,
        );
        *base.id.get_mut() = id;
        window.unname();
        slot.unname();
        LevelSlide::Fused
    }

    /// Zeroes every slab in place; the level is then named [`ZERO_ID`].
    fn zero_fill(&mut self) {
        self.counts.fill(0);
        self.key_sums.fill(0);
        self.fp_sums.fill(0);
        self.totals.fill(0);
        *self.id.get_mut() = ZERO_ID;
    }

    /// Telemetry gauges for this level: `(occupied, singletons)` —
    /// buckets with any nonzero counter, and buckets currently decoding
    /// to a singleton, across all `r` tables. Occupied is the popcount
    /// of the wide pass's masks; only occupied buckets are dispatched
    /// to the screened decode. A full scan, so it belongs on the
    /// snapshot path, never the update path.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        let mut occupied = 0u64;
        let mut singletons = 0u64;
        self.for_each_screen_chunk(|base, mask| {
            occupied += u64::from(mask.count_ones());
            let mut rest = mask;
            while rest != 0 {
                let slot = base + usize_from_u32(rest.trailing_zeros());
                rest &= rest - 1;
                let block = &self.counts[slot * SIGNATURE_LEN..(slot + 1) * SIGNATURE_LEN];
                let sig = SigRef::new(block, self.key_sums[slot], self.fp_sums[slot]);
                if matches!(sig.decode_fast(), BucketState::Singleton { .. }) {
                    singletons += 1;
                }
            }
        });
        (occupied, singletons)
    }

    /// Scalar reference twin of [`occupancy`](Self::occupancy): the
    /// pre-wide-pass per-bucket `is_zero` loop. Bit-identical on
    /// well-formed streams; see the module docs for the one ill-formed
    /// state where the two definitions of "occupied" diverge.
    pub(crate) fn occupancy_scalar(&self) -> (u64, u64) {
        let mut occupied = 0u64;
        let mut singletons = 0u64;
        for (block, (&key_sum, &fp_sum)) in self
            .counts
            .chunks_exact(SIGNATURE_LEN)
            .zip(self.key_sums.iter().zip(self.fp_sums.iter()))
        {
            let sig = SigRef::new(block, key_sum, fp_sum);
            if sig.is_zero() {
                continue;
            }
            occupied += 1;
            if matches!(sig.decode_fast(), BucketState::Singleton { .. }) {
                singletons += 1;
            }
        }
        (occupied, singletons)
    }

    /// Whether every signature in the level is zero — three chunked
    /// OR-fold scans (the screen-sum arrays first: they are 65× smaller
    /// and almost always decide the answer). Exact — unlike the
    /// occupancy mask this checks every counter, so it agrees with
    /// [`is_zero_scalar`](Self::is_zero_scalar) on all states.
    pub(crate) fn is_zero(&self) -> bool {
        sum_slab_is_zero(&self.key_sums)
            && sum_slab_is_zero(&self.fp_sums)
            && counter_slab_is_zero(&self.counts)
    }

    /// Scalar reference twin of [`is_zero`](Self::is_zero).
    pub(crate) fn is_zero_scalar(&self) -> bool {
        self.key_sums.iter().all(|&v| v == 0)
            && self.fp_sums.iter().all(|&v| v == 0)
            && self.counts.iter().all(|&c| c == 0)
    }

    /// Headroom of the 4-byte totals: how many bucket slots have
    /// `|total| ≥` [`HEADROOM_TOTAL`], and the largest `|total|`. Reads
    /// the contiguous totals mirror (`r·s` words), never the counter
    /// slab, and nothing on the update path.
    pub(crate) fn total_headroom(&self) -> (u64, u32) {
        let mut exceeded = 0u64;
        let mut max_abs = 0u32;
        for &total in self.totals.iter() {
            let abs = total.unsigned_abs();
            exceeded += u64::from(abs >= HEADROOM_TOTAL);
            max_abs = max_abs.max(abs);
        }
        (exceeded, max_abs)
    }

    /// Heap bytes used by the level's slabs: `r·s·65` counters and the
    /// `r·s` totals mirror at 4 bytes, plus `2·r·s` 8-byte screen sums —
    /// `r·s·280` in total, the same element sizes
    /// [`SketchConfig::level_bytes`](crate::SketchConfig::level_bytes)
    /// multiplies out.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.counts.len() + self.totals.len()) * COUNTER_BYTES
            + (self.key_sums.len() + self.fp_sums.len()) * SCREEN_SUM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DestAddr, SourceAddr};
    use std::collections::BTreeSet;

    fn key(s: u32, d: u32) -> FlowKey {
        FlowKey::new(SourceAddr(s), DestAddr(d))
    }

    #[test]
    fn fresh_level_is_zero() {
        let level = LevelState::new(3, 8);
        assert!(level.is_zero());
        assert_eq!(level.decode(0, 0), BucketState::Empty);
        let mut sample = BTreeSet::new();
        level.collect_singletons(&mut sample);
        assert!(sample.is_empty());
    }

    #[test]
    fn collect_singletons_dedups_across_tables() {
        let mut level = LevelState::new(3, 4);
        let k = key(1, 2);
        // Same key singleton in all three tables.
        for j in 0..3 {
            level.apply(j, j, k, Delta::Insert);
        }
        let mut sample = BTreeSet::new();
        level.collect_singletons(&mut sample);
        assert_eq!(sample.len(), 1);
        assert!(sample.contains(&k));
    }

    #[test]
    fn collisions_are_skipped() {
        let mut level = LevelState::new(1, 2);
        level.apply(0, 0, key(1, 1), Delta::Insert);
        level.apply(0, 0, key(2, 2), Delta::Insert);
        level.apply(0, 1, key(3, 3), Delta::Insert);
        let mut sample = BTreeSet::new();
        level.collect_singletons(&mut sample);
        assert_eq!(sample, BTreeSet::from([key(3, 3)]));
    }

    #[test]
    fn merge_from_adds_counters() {
        let mut a = LevelState::new(1, 2);
        let mut b = LevelState::new(1, 2);
        a.apply(0, 0, key(1, 1), Delta::Insert);
        b.apply(0, 1, key(2, 2), Delta::Insert);
        a.merge_from(&b);
        let mut sample = BTreeSet::new();
        a.collect_singletons(&mut sample);
        assert_eq!(sample.len(), 2);
    }

    #[test]
    fn heap_bytes_counts_all_slab_bytes() {
        // r·s·65 four-byte counters + r·s four-byte totals mirror +
        // 2·r·s eight-byte screen sums = r·s·280 bytes.
        let level = LevelState::new(2, 3);
        assert_eq!(level.heap_bytes(), 2 * 3 * 280);
    }

    /// The headroom gauge reads the totals mirror: it counts slots with
    /// `|total| ≥ 2³⁰`, of either sign, and reports the largest.
    #[test]
    fn total_headroom_counts_slots_at_or_past_two_to_the_thirty() {
        let mut level = LevelState::new(1, 4);
        assert_eq!(level.total_headroom(), (0, 0));
        level
            .totals
            .copy_from_slice(&[1 << 30, -(1 << 30), (1 << 30) - 1, 7]);
        assert_eq!(level.total_headroom(), (2, 1 << 30));
    }

    /// `totals[slot] == counts[slot·65]` must hold after every write
    /// path: per-update applies (inserts and deletes), merges,
    /// subtracts, and the `from_parts` restore.
    #[test]
    fn totals_mirror_tracks_counter_slab_through_every_write_path() {
        let assert_mirror = |level: &LevelState, context: &str| {
            for (slot, &total) in level.totals.iter().enumerate() {
                assert_eq!(
                    total,
                    level.counts[slot * SIGNATURE_LEN],
                    "mirror diverged at slot {slot} ({context})"
                );
            }
        };

        let mut a = LevelState::new(2, 5);
        let mut b = LevelState::new(2, 5);
        for i in 0..40u32 {
            a.apply(
                usize_from_u32(i % 2),
                usize_from_u32(i % 5),
                key(i, i),
                Delta::Insert,
            );
            b.apply(
                usize_from_u32(i % 2),
                usize_from_u32((i + 1) % 5),
                key(i, 9),
                Delta::Insert,
            );
        }
        for i in 0..10u32 {
            a.apply(
                usize_from_u32(i % 2),
                usize_from_u32(i % 5),
                key(i, i),
                Delta::Delete,
            );
        }
        assert_mirror(&a, "after applies");

        a.merge_from(&b);
        assert_mirror(&a, "after wide merge");
        a.subtract_scalar(&b);
        assert_mirror(&a, "after scalar subtract");
        a.merge_from_scalar(&b);
        assert_mirror(&a, "after scalar merge");
        a.subtract(&b);
        assert_mirror(&a, "after wide subtract");

        let restored = LevelState::from_parts(
            2,
            5,
            a.counts.to_vec(),
            a.key_sums.to_vec(),
            a.fp_sums.to_vec(),
        )
        .unwrap();
        assert_mirror(&restored, "after from_parts");
        assert_eq!(restored, a);
    }

    /// Every write path unnames the level, so a named level carries a
    /// different id after any write; the slide hands the cumulative
    /// level's id to the base and `ZERO_ID` to a zero-filled slot; a
    /// clone carries its source's id; restores are unnamed; and two
    /// levels with the same history are still named apart.
    #[test]
    fn content_id_is_cleared_by_every_write_path() {
        let filled = |seed: u32| {
            let mut level = LevelState::new(2, 5);
            for i in 0..20u32 {
                level.apply(
                    usize_from_u32(i % 2),
                    usize_from_u32(i % 5),
                    key(seed + i, i),
                    Delta::Insert,
                );
            }
            level
        };
        let other = filled(1_000);
        type Write = fn(&mut LevelState, &LevelState);
        let writes: [(&str, Write); 7] = [
            ("insert", |l, _| l.apply(0, 1, key(3, 4), Delta::Insert)),
            ("delete", |l, _| l.apply(1, 2, key(0, 0), Delta::Delete)),
            ("apply_with_fp", |l, _| {
                let fp = dcs_hash::mix::fingerprint64(key(3, 4).packed());
                l.apply_with_fp(0, 3, key(3, 4), Delta::Insert, fp);
            }),
            ("merge_from", |l, o| l.merge_from(o)),
            ("merge_from_scalar", |l, o| l.merge_from_scalar(o)),
            ("subtract", |l, o| l.subtract(o)),
            ("subtract_scalar", |l, o| l.subtract_scalar(o)),
        ];
        for (name, write) in writes {
            let mut level = filled(0);
            let before = level.content_id();
            assert_ne!(before, UNNAMED_ID);
            assert_eq!(level.content_id(), before, "naming is stable");
            write(&mut level, &other);
            assert_eq!(*level.id.get_mut(), UNNAMED_ID, "{name} unnames");
            assert_ne!(level.content_id(), before, "{name} renames");
        }

        assert_eq!(LevelState::new(2, 5).content_id(), ZERO_ID);
        let a = filled(0);
        let b = filled(0);
        assert_eq!(a, b);
        assert_ne!(a.content_id(), b.content_id(), "same history, new id");
        let copy = a.clone();
        assert_eq!(copy.content_id(), a.content_id(), "a clone keeps the id");
        let restored = LevelState::from_parts(
            2,
            5,
            a.counts.to_vec(),
            a.key_sums.to_vec(),
            a.fp_sums.to_vec(),
        )
        .unwrap();
        assert_eq!(restored.id.load(Ordering::Acquire), UNNAMED_ID);

        // A changed level takes the fused pass: the base takes the
        // cumulative id, the window and slot are unnamed.
        let cumulative = filled(0);
        let (mut base, mut window, mut slot) = (
            LevelState::new(2, 5),
            LevelState::new(2, 5),
            LevelState::new(2, 5),
        );
        let slide = LevelState::slide_epoch(&cumulative, &mut base, &mut window, &mut slot);
        assert_eq!(slide, LevelSlide::Fused);
        assert_eq!(base.content_id(), cumulative.content_id());
        assert_eq!(*window.id.get_mut(), UNNAMED_ID);
        assert_eq!(*slot.id.get_mut(), UNNAMED_ID);
        assert_eq!(slot, cumulative, "the first delta is the whole level");

        // Unchanged: the non-zero expiring slot is shed and zero-filled.
        let mut expected_window = window.clone();
        expected_window.subtract(&slot);
        let slide = LevelState::slide_epoch(&cumulative, &mut base, &mut window, &mut slot);
        assert_eq!(slide, LevelSlide::Skipped);
        assert_eq!(window, expected_window);
        assert!(slot.is_zero());
        assert_eq!(slot.content_id(), ZERO_ID);
        assert_eq!(*window.id.get_mut(), UNNAMED_ID);

        // Unchanged with a zero slot: nothing is written.
        let window_id = window.content_id();
        let slide = LevelState::slide_epoch(&cumulative, &mut base, &mut window, &mut slot);
        assert_eq!(slide, LevelSlide::Skipped);
        assert_eq!(window.content_id(), window_id);
        assert_eq!(slot.content_id(), ZERO_ID);

        // A clone of the cumulative level is skipped too; an equal
        // level from another history is not.
        let slide = LevelState::slide_epoch(&cumulative.clone(), &mut base, &mut window, &mut slot);
        assert_eq!(slide, LevelSlide::Skipped);
        let slide = LevelState::slide_epoch(&filled(0), &mut base, &mut window, &mut slot);
        assert_eq!(slide, LevelSlide::Fused);
        assert_eq!(window, expected_window, "a zero delta changes nothing");
    }

    #[test]
    fn arena_bucket_isolation_matches_owned_signatures() {
        // Updates through the arena land in exactly the addressed
        // bucket's stride block, mirroring what owned signatures do.
        use crate::signature::CountSignature;
        let mut level = LevelState::new(2, 4);
        let mut mirror: Vec<Vec<CountSignature>> = vec![vec![CountSignature::new(); 4]; 2];
        let ops = [
            (0usize, 0usize, key(1, 2), Delta::Insert),
            (0, 0, key(1, 2), Delta::Insert),
            (1, 3, key(3, 4), Delta::Insert),
            (0, 0, key(1, 2), Delta::Delete),
            (1, 3, key(5, 6), Delta::Insert),
            (0, 2, key(7, 8), Delta::Insert),
        ];
        for (t, b, k, d) in ops {
            level.apply(t, b, k, d);
            mirror[t][b].apply(k, d);
        }
        for (t, row) in mirror.iter().enumerate() {
            for (b, owned) in row.iter().enumerate() {
                assert_eq!(level.decode(t, b), owned.decode(), "bucket ({t},{b})");
                assert_eq!(level.decode_fast(t, b), owned.decode_fast());
                assert_eq!(level.sig_ref(t, b).is_zero(), owned.is_zero());
            }
        }
    }

    /// `FlowKey(0, 0)` packs to 0 and `fingerprint64(0) == 0`, so both
    /// screen sums stay zero no matter how many copies the bucket
    /// holds — the wide pass must see it through the total alone.
    #[test]
    fn key_zero_singleton_survives_the_wide_screen() {
        let mut level = LevelState::new(2, 8);
        let zero = key(0, 0);
        level.apply(0, 3, zero, Delta::Insert);
        level.apply(0, 3, zero, Delta::Insert);
        level.apply(1, 5, zero, Delta::Insert);

        let mut wide = BTreeSet::new();
        level.collect_singletons(&mut wide);
        let mut scalar = BTreeSet::new();
        level.collect_singletons_scalar(&mut scalar);
        assert_eq!(wide, scalar);
        assert!(wide.contains(&zero));

        assert_eq!(level.occupancy(), level.occupancy_scalar());
        assert_eq!(level.occupancy(), (2, 2));
        assert!(!level.is_zero());
        assert!(!level.is_zero_scalar());

        let mut net_counts = Vec::new();
        level.for_each_singleton(|k, n| net_counts.push((k, n)));
        assert_eq!(net_counts, vec![(zero, 2), (zero, 1)]);
    }

    /// Wide and scalar read paths agree on populated levels across
    /// slot counts straddling the `SCREEN_LANES` chunk boundary
    /// (remainder tails of 0, 1, and `SCREEN_LANES - 1` slots).
    #[test]
    fn wide_reads_match_scalar_references_across_chunk_boundaries() {
        for buckets in [31usize, 32, 33, 63, 64, 65] {
            for tables in [1usize, 2, 3] {
                let mut level = LevelState::new(tables, buckets);
                let mut x = 0x51b5_4a32u32;
                for step in 0..(tables * buckets * 2) {
                    x = x.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
                    let t = step % tables;
                    let b = usize_from_u32(x % u32::try_from(buckets).unwrap());
                    let k = key(x, x.rotate_left(13));
                    level.apply(t, b, k, Delta::Insert);
                    // Revisit some buckets to manufacture collisions
                    // and, via delete, re-emptied buckets.
                    if step % 5 == 0 {
                        level.apply(t, b, key(x ^ 1, x), Delta::Insert);
                    }
                    if step % 7 == 0 {
                        level.apply(t, b, k, Delta::Delete);
                    }
                }
                let mut wide = BTreeSet::new();
                level.collect_singletons(&mut wide);
                let mut scalar = BTreeSet::new();
                level.collect_singletons_scalar(&mut scalar);
                assert_eq!(wide, scalar, "tables {tables} buckets {buckets}");
                assert_eq!(
                    level.occupancy(),
                    level.occupancy_scalar(),
                    "tables {tables} buckets {buckets}"
                );
                assert_eq!(level.is_zero(), level.is_zero_scalar());
            }
        }
    }

    /// Emptied levels look zero through both the chunked and scalar
    /// scans, and occupied ones don't.
    #[test]
    fn is_zero_agrees_with_scalar_after_inserts_and_deletes() {
        let mut level = LevelState::new(2, 64);
        assert!(level.is_zero() && level.is_zero_scalar());
        level.apply(1, 63, key(9, 9), Delta::Insert);
        assert!(!level.is_zero() && !level.is_zero_scalar());
        level.apply(1, 63, key(9, 9), Delta::Delete);
        assert!(level.is_zero() && level.is_zero_scalar());
    }

    /// Wide merge/subtract land on exactly the scalar twins' states.
    #[test]
    fn wide_merge_and_subtract_match_scalar_twins() {
        let mut a = LevelState::new(3, 43);
        let mut b = LevelState::new(3, 43);
        let mut x = 0x9e37u32;
        for step in 0..400 {
            x = x.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
            let level = if step % 2 == 0 { &mut a } else { &mut b };
            level.apply(
                usize_from_u32(x % 3),
                usize_from_u32(x.rotate_left(7) % 43),
                key(x, !x),
                if step % 9 == 0 {
                    Delta::Delete
                } else {
                    Delta::Insert
                },
            );
        }
        let mut wide = a.clone();
        wide.merge_from(&b);
        let mut scalar = a.clone();
        scalar.merge_from_scalar(&b);
        assert_eq!(wide, scalar);

        wide.subtract(&b);
        scalar.subtract_scalar(&b);
        assert_eq!(wide, scalar);
        assert_eq!(wide, a);
    }
}
