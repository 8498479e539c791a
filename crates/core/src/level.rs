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
//! A level owns four struct-of-arrays slabs of `r·s` words, one word of
//! each per bucket (`signature.rs` defines the words and their decode):
//!
//! * `totals: Box<[i32]>` — net pair counts;
//! * `lo_sums`, `hi_sums: Box<[i64]>` — exact sums of the keys' low and
//!   high 32-bit halves;
//! * `fp_sums: Box<[u64]>` — wrapping fingerprint sums.
//!
//! Bucket `k` of table `j` is slot `j·s + k` of every slab. A bucket
//! takes 28 bytes
//! ([`SketchConfig::signature_bytes`](crate::SketchConfig::signature_bytes)
//! and [`heap_bytes`](LevelState::heap_bytes) both derive from the
//! element sizes); one update writes one word in each slab. Whole-level
//! operations (`merge_from`, `subtract`, `is_zero`, the epoch slide)
//! are linear passes over the slabs that LLVM vectorizes.
//!
//! ## The screen pass (DESIGN.md §16)
//!
//! Every whole-level read (`collect_singletons`, `occupancy`, and the
//! tracking rebuild) goes through
//! [`for_each_screen_chunk`](LevelState::for_each_screen_chunk): a
//! fixed-width pass that folds 64 bucket slots at a time into a 64-bit
//! *occupancy mask* (bit `i` set iff slot `base + i` has any nonzero
//! word), then decodes only the set bits. The totals **must**
//! participate in the mask: `FlowKey(0, 0)` packs to `0` and
//! `fingerprint64(0) == 0`, so a bucket holding only that key is
//! visible *only* through its total.
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
    merge_slab, slab_is_zero, slide_slab, subtract_slab, BucketState, Change, CountSignature,
    HEADROOM_TOTAL, SUM_BYTES, TOTAL_BYTES,
};
use crate::types::FlowKey;
use dcs_hash::cast::usize_from_u32;

/// Bucket slots folded per occupancy-mask chunk of the screen pass —
/// one mask bit per slot, so a `u64` mask fixes this at 64.
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

/// Counter storage for one first-level bucket: four parallel slabs
/// (see the module docs for the layout).
#[derive(Debug)]
pub(crate) struct LevelState {
    /// Number of second-level tables (`r`).
    num_tables: usize,
    /// Buckets per table (`s`).
    buckets_per_table: usize,
    /// `r·s` bucket totals.
    totals: Box<[i32]>,
    /// `r·s` exact low-half key sums.
    lo_sums: Box<[i64]>,
    /// `r·s` exact high-half key sums.
    hi_sums: Box<[i64]>,
    /// `r·s` wrapping fingerprint sums.
    fp_sums: Box<[u64]>,
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
            totals: self.totals.clone(),
            lo_sums: self.lo_sums.clone(),
            hi_sums: self.hi_sums.clone(),
            fp_sums: self.fp_sums.clone(),
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
            && self.totals == other.totals
            && self.lo_sums == other.lo_sums
            && self.hi_sums == other.hi_sums
            && self.fp_sums == other.fp_sums
    }
}

impl Eq for LevelState {}

impl LevelState {
    /// Allocates an all-empty level with `r` tables of `s` buckets —
    /// four slab allocations regardless of `r·s`.
    pub(crate) fn new(num_tables: usize, buckets_per_table: usize) -> Self {
        let slots = num_tables * buckets_per_table;
        Self {
            num_tables,
            buckets_per_table,
            totals: vec![0; slots].into_boxed_slice(),
            lo_sums: vec![0; slots].into_boxed_slice(),
            hi_sums: vec![0; slots].into_boxed_slice(),
            fp_sums: vec![0; slots].into_boxed_slice(),
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
        totals: Vec<i32>,
        lo_sums: Vec<i64>,
        hi_sums: Vec<i64>,
        fp_sums: Vec<u64>,
    ) -> Result<Self, String> {
        let slots = num_tables
            .checked_mul(buckets_per_table)
            .ok_or_else(|| "level dimensions overflow".to_string())?;
        let lens = [totals.len(), lo_sums.len(), hi_sums.len(), fp_sums.len()];
        if lens.iter().any(|&len| len != slots) {
            return Err(format!(
                "slab lengths {lens:?} (totals, lo, hi, fp) do not match {slots} slots"
            ));
        }
        Ok(Self {
            num_tables,
            buckets_per_table,
            totals: totals.into_boxed_slice(),
            lo_sums: lo_sums.into_boxed_slice(),
            hi_sums: hi_sums.into_boxed_slice(),
            fp_sums: fp_sums.into_boxed_slice(),
            id: AtomicU64::new(UNNAMED_ID),
        })
    }

    /// The raw totals slab (`r·s` words) — persistence view.
    pub(crate) fn totals(&self) -> &[i32] {
        &self.totals
    }

    /// The raw low-half sum slab — persistence view.
    pub(crate) fn lo_sums(&self) -> &[i64] {
        &self.lo_sums
    }

    /// The raw high-half sum slab — persistence view.
    pub(crate) fn hi_sums(&self) -> &[i64] {
        &self.hi_sums
    }

    /// The raw fingerprint-sum slab — persistence view.
    pub(crate) fn fp_sums(&self) -> &[u64] {
        &self.fp_sums
    }

    /// The flat slot index of bucket `bucket` in table `table`.
    #[inline]
    fn slot(&self, table: usize, bucket: usize) -> usize {
        debug_assert!(table < self.num_tables && bucket < self.buckets_per_table);
        table * self.buckets_per_table + bucket
    }

    /// The signature in slot `slot`, read out by value.
    #[inline]
    fn at(&self, slot: usize) -> CountSignature {
        CountSignature {
            total: self.totals[slot],
            lo: self.lo_sums[slot],
            hi: self.hi_sums[slot],
            fp: self.fp_sums[slot],
        }
    }

    /// The signature of bucket `bucket` of table `table`.
    #[inline]
    pub(crate) fn signature(&self, table: usize, bucket: usize) -> CountSignature {
        self.at(self.slot(table, bucket))
    }

    /// Stores `sig` into bucket `bucket` of table `table`.
    #[inline]
    pub(crate) fn set_signature(&mut self, table: usize, bucket: usize, sig: CountSignature) {
        self.unname();
        let slot = self.slot(table, bucket);
        self.totals[slot] = sig.total;
        self.lo_sums[slot] = sig.lo;
        self.hi_sums[slot] = sig.hi;
        self.fp_sums[slot] = sig.fp;
    }

    /// Applies a raw update or a net change with the key's fingerprint
    /// precomputed, so the sketch hashes the key once per change instead
    /// of once per table.
    #[inline]
    pub(crate) fn apply_with_fp(
        &mut self,
        table: usize,
        bucket: usize,
        change: impl Change,
        fp: u64,
    ) {
        let sig = change.step(self.signature(table, bucket), fp);
        self.set_signature(table, bucket, sig);
    }

    /// The occupancy mask of up to [`SCREEN_LANES`] slots starting at
    /// `base`: bit `i` is set iff slot `base + i` has a nonzero word.
    /// The scalar form shared by the pass's remainder tail and its
    /// (unreachable) slice fallback.
    #[inline]
    fn screen_mask_scalar(&self, base: usize, lanes: usize) -> u64 {
        let mut mask = 0u64;
        for i in 0..lanes {
            mask |= u64::from(!self.at(base + i).is_zero()) << i;
        }
        mask
    }

    /// The screen pass: walks the bucket slots in [`SCREEN_LANES`]-wide
    /// chunks and hands `f` each chunk's base slot and occupancy mask
    /// (see the module docs). All four mask inputs are fixed-width
    /// array passes the vectorizer handles.
    #[inline]
    pub(crate) fn for_each_screen_chunk(&self, mut f: impl FnMut(usize, u64)) {
        let slots = self.totals.len();
        let mut base = 0usize;
        let mut total_chunks = self.totals.chunks_exact(SCREEN_LANES);
        let mut lo_chunks = self.lo_sums.chunks_exact(SCREEN_LANES);
        let mut hi_chunks = self.hi_sums.chunks_exact(SCREEN_LANES);
        let mut fp_chunks = self.fp_sums.chunks_exact(SCREEN_LANES);
        for (((ts, ls), hs), fs) in total_chunks
            .by_ref()
            .zip(lo_chunks.by_ref())
            .zip(hi_chunks.by_ref())
            .zip(fp_chunks.by_ref())
        {
            let mask = match (
                ts.first_chunk::<SCREEN_LANES>(),
                ls.first_chunk::<SCREEN_LANES>(),
                hs.first_chunk::<SCREEN_LANES>(),
                fs.first_chunk::<SCREEN_LANES>(),
            ) {
                (Some(ts), Some(ls), Some(hs), Some(fs)) => {
                    let mut mask = 0u64;
                    for i in 0..SCREEN_LANES {
                        let sums = (ls[i] | hs[i]) != 0 || fs[i] != 0;
                        mask |= u64::from(sums || ts[i] != 0) << i;
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

    /// Visits every occupied bucket's signature, in slot order
    /// (table-major — the same order as a nested table/bucket loop).
    #[inline]
    fn for_each_occupied(&self, mut f: impl FnMut(CountSignature)) {
        self.for_each_screen_chunk(|base, mut mask| {
            while mask != 0 {
                let slot = base + usize_from_u32(mask.trailing_zeros());
                mask &= mask - 1;
                f(self.at(slot));
            }
        });
    }

    /// Visits every bucket currently decoding to a singleton, in slot
    /// order, with its net count. Returns how many occupied buckets
    /// hold a state only an ill-formed stream can produce.
    #[inline]
    pub(crate) fn for_each_singleton(&self, mut f: impl FnMut(FlowKey, i64)) -> u64 {
        let mut ill_formed = 0u64;
        self.for_each_occupied(|sig| {
            ill_formed += u64::from(sig.is_ill_formed());
            if let BucketState::Singleton { key, net_count } = sig.decode() {
                f(key, net_count);
            }
        });
        ill_formed
    }

    /// The paper's `GetdSample(X, b)` (Fig. 4): decodes every occupied
    /// bucket and pushes the distinct recovered keys into `out`. The
    /// ordered set keeps sample iteration deterministic (lint L4).
    /// Returns the ill-formed bucket count of
    /// [`for_each_singleton`](Self::for_each_singleton).
    pub(crate) fn collect_singletons(&self, out: &mut std::collections::BTreeSet<FlowKey>) -> u64 {
        self.for_each_singleton(|key, _net| {
            out.insert(key);
        })
    }

    /// Adds another level's slabs element-wise — four linear passes
    /// (every word is a linear sum).
    pub(crate) fn merge_from(&mut self, other: &LevelState) {
        debug_assert_eq!(self.num_tables, other.num_tables);
        debug_assert_eq!(self.buckets_per_table, other.buckets_per_table);
        self.unname();
        merge_slab(&mut self.totals, &other.totals);
        merge_slab(&mut self.lo_sums, &other.lo_sums);
        merge_slab(&mut self.hi_sums, &other.hi_sums);
        merge_slab(&mut self.fp_sums, &other.fp_sums);
    }

    /// Subtracts another level's slabs element-wise.
    pub(crate) fn subtract(&mut self, other: &LevelState) {
        debug_assert_eq!(self.num_tables, other.num_tables);
        debug_assert_eq!(self.buckets_per_table, other.buckets_per_table);
        self.unname();
        subtract_slab(&mut self.totals, &other.totals);
        subtract_slab(&mut self.lo_sums, &other.lo_sums);
        subtract_slab(&mut self.hi_sums, &other.hi_sums);
        subtract_slab(&mut self.fp_sums, &other.fp_sums);
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
    /// [`slide_slab`]) does the whole step; `base` then takes
    /// `cumulative`'s id.
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
        let (c, b, w, s) = (cumulative, &mut *base, &mut *window, &mut *slot);
        slide_slab(&c.totals, &mut b.totals, &mut w.totals, &mut s.totals);
        slide_slab(&c.lo_sums, &mut b.lo_sums, &mut w.lo_sums, &mut s.lo_sums);
        slide_slab(&c.hi_sums, &mut b.hi_sums, &mut w.hi_sums, &mut s.hi_sums);
        slide_slab(&c.fp_sums, &mut b.fp_sums, &mut w.fp_sums, &mut s.fp_sums);
        *base.id.get_mut() = id;
        window.unname();
        slot.unname();
        LevelSlide::Fused
    }

    /// Zeroes every slab in place; the level is then named [`ZERO_ID`].
    fn zero_fill(&mut self) {
        self.totals.fill(0);
        self.lo_sums.fill(0);
        self.hi_sums.fill(0);
        self.fp_sums.fill(0);
        *self.id.get_mut() = ZERO_ID;
    }

    /// Telemetry gauges for this level: `(occupied, singletons)` —
    /// buckets with any nonzero word, and buckets currently decoding
    /// to a singleton, across all `r` tables. A full scan, so it belongs
    /// on the snapshot path, never the update path.
    pub(crate) fn occupancy(&self) -> (u64, u64) {
        let mut occupied = 0u64;
        let mut singletons = 0u64;
        self.for_each_occupied(|sig| {
            occupied += 1;
            singletons += u64::from(matches!(sig.decode(), BucketState::Singleton { .. }));
        });
        (occupied, singletons)
    }

    /// Whether every bucket of the level is zero — four chunked OR-fold
    /// scans.
    pub(crate) fn is_zero(&self) -> bool {
        slab_is_zero(&self.totals)
            && slab_is_zero(&self.lo_sums)
            && slab_is_zero(&self.hi_sums)
            && slab_is_zero(&self.fp_sums)
    }

    /// Headroom of the 4-byte totals: how many bucket slots have
    /// `|total| ≥` [`HEADROOM_TOTAL`], and the largest `|total|`. Reads
    /// the totals slab only, and nothing on the update path.
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

    /// Heap bytes used by the level's slabs: `r·s` 4-byte totals plus
    /// `3·r·s` 8-byte sums — `r·s·28` in total, the same element sizes
    /// [`SketchConfig::level_bytes`](crate::SketchConfig::level_bytes)
    /// multiplies out.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.totals.len() * TOTAL_BYTES
            + (self.lo_sums.len() + self.hi_sums.len() + self.fp_sums.len()) * SUM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Delta, DestAddr, FlowUpdate, SourceAddr};
    use std::collections::BTreeSet;

    fn key(s: u32, d: u32) -> FlowKey {
        FlowKey::new(SourceAddr(s), DestAddr(d))
    }

    impl LevelState {
        fn apply(&mut self, table: usize, bucket: usize, key: FlowKey, delta: Delta) {
            let fp = dcs_hash::mix::fingerprint64(key.packed());
            self.apply_with_fp(table, bucket, FlowUpdate { key, delta }, fp);
        }

        fn restored(&self) -> Self {
            Self::from_parts(
                self.num_tables,
                self.buckets_per_table,
                self.totals.to_vec(),
                self.lo_sums.to_vec(),
                self.hi_sums.to_vec(),
                self.fp_sums.to_vec(),
            )
            .unwrap()
        }
    }

    #[test]
    fn fresh_level_is_zero() {
        let level = LevelState::new(3, 8);
        assert!(level.is_zero());
        assert_eq!(level.signature(0, 0).decode(), BucketState::Empty);
        let mut sample = BTreeSet::new();
        level.collect_singletons(&mut sample);
        assert!(sample.is_empty());
    }

    #[test]
    fn collect_singletons_dedups_across_tables() {
        let mut level = LevelState::new(3, 4);
        let k = key(1, 2);
        for j in 0..3 {
            level.apply(j, j, k, Delta::Insert);
        }
        let mut sample = BTreeSet::new();
        level.collect_singletons(&mut sample);
        assert_eq!(sample, BTreeSet::from([k]));
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
        // r·s four-byte totals + 3·r·s eight-byte sums = r·s·28 bytes.
        let level = LevelState::new(2, 3);
        assert_eq!(level.heap_bytes(), 2 * 3 * 28);
    }

    /// The headroom gauge counts slots with `|total| ≥ 2³⁰`, of either
    /// sign, and reports the largest.
    #[test]
    fn total_headroom_counts_slots_at_or_past_two_to_the_thirty() {
        let mut level = LevelState::new(1, 4);
        assert_eq!(level.total_headroom(), (0, 0));
        level
            .totals
            .copy_from_slice(&[1 << 30, -(1 << 30), (1 << 30) - 1, 7]);
        assert_eq!(level.total_headroom(), (2, 1 << 30));
    }

    /// Updates through the arena land in exactly the addressed bucket,
    /// as they do on owned signatures.
    #[test]
    fn arena_buckets_match_owned_signatures() {
        let mut level = LevelState::new(2, 4);
        let mut mirror = [[CountSignature::new(); 4]; 2];
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
                assert_eq!(level.signature(t, b), *owned, "bucket ({t},{b})");
            }
        }
        assert_eq!(level.restored(), level);
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
        let writes: [(&str, Write); 4] = [
            ("insert", |l, _| l.apply(0, 1, key(3, 4), Delta::Insert)),
            ("delete", |l, _| l.apply(1, 2, key(0, 0), Delta::Delete)),
            ("merge_from", |l, o| l.merge_from(o)),
            ("subtract", |l, o| l.subtract(o)),
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
        assert_eq!(a.restored().id.load(Ordering::Acquire), UNNAMED_ID);

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

    /// `FlowKey(0, 0)` packs to 0 and `fingerprint64(0) == 0`, so all
    /// three sums stay zero no matter how many copies the bucket holds —
    /// the screen pass must see it through the total alone.
    #[test]
    fn key_zero_singleton_survives_the_screen() {
        let mut level = LevelState::new(2, 8);
        let zero = key(0, 0);
        level.apply(0, 3, zero, Delta::Insert);
        level.apply(0, 3, zero, Delta::Insert);
        level.apply(1, 5, zero, Delta::Insert);

        let mut sample = BTreeSet::new();
        level.collect_singletons(&mut sample);
        assert_eq!(sample, BTreeSet::from([zero]));
        assert_eq!(level.occupancy(), (2, 2));
        assert!(!level.is_zero());

        let mut net_counts = Vec::new();
        level.for_each_singleton(|k, n| net_counts.push((k, n)));
        assert_eq!(net_counts, vec![(zero, 2), (zero, 1)]);
    }

    /// The screen pass reads exactly what a per-bucket decode of every
    /// slot reads, across slot counts straddling the `SCREEN_LANES`
    /// chunk boundary (remainder tails of 0, 1, and `SCREEN_LANES - 1`
    /// slots), ill-formed buckets included.
    #[test]
    fn screened_reads_match_a_per_bucket_scan_across_chunk_boundaries() {
        for buckets in [31usize, 32, 33, 63, 64, 65] {
            for tables in [1usize, 2, 3] {
                let mut level = LevelState::new(tables, buckets);
                let mut x = 0x51b5_4a32u32;
                for step in 0..(tables * buckets * 2) {
                    x = x.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
                    let t = step % tables;
                    let b = usize_from_u32(x % u32::try_from(buckets).unwrap());
                    let k = key(x, x.rotate_left(13));
                    // Collisions, re-emptied buckets and, every 11th
                    // step, a delete with no insert (ill-formed).
                    if step % 11 == 0 {
                        level.apply(t, b, k, Delta::Delete);
                        continue;
                    }
                    level.apply(t, b, k, Delta::Insert);
                    if step % 5 == 0 {
                        level.apply(t, b, key(x ^ 1, x), Delta::Insert);
                    }
                    if step % 7 == 0 {
                        level.apply(t, b, k, Delta::Delete);
                    }
                }
                // Drive slot 0 negative, so every shape has one.
                for _ in 0..=level.at(0).total.max(0) {
                    level.apply(0, 0, key(7, 7), Delta::Delete);
                }
                let mut screened = BTreeSet::new();
                let ill_formed = level.collect_singletons(&mut screened);
                let every: Vec<CountSignature> =
                    (0..tables * buckets).map(|slot| level.at(slot)).collect();
                let scanned: BTreeSet<FlowKey> = every
                    .iter()
                    .filter_map(|sig| sig.decode().singleton_key())
                    .collect();
                assert_eq!(screened, scanned, "tables {tables} buckets {buckets}");
                let count = |f: fn(&CountSignature) -> bool| {
                    u64::try_from(every.iter().filter(|sig| f(sig)).count()).unwrap()
                };
                assert_eq!(ill_formed, count(|sig| sig.is_ill_formed()));
                assert!(ill_formed > 0);
                let singles = |sig: &CountSignature| sig.decode().singleton_key().is_some();
                assert_eq!(
                    level.occupancy(),
                    (count(|sig| !sig.is_zero()), count(singles))
                );
            }
        }
    }

    /// Emptied levels read zero, occupied ones don't.
    #[test]
    fn is_zero_tracks_inserts_and_deletes() {
        let mut level = LevelState::new(2, 64);
        assert!(level.is_zero());
        level.apply(1, 63, key(9, 9), Delta::Insert);
        assert!(!level.is_zero());
        level.apply(1, 63, key(9, 9), Delta::Delete);
        assert!(level.is_zero());
    }

    /// Merge then subtract of the same level is the identity, and a
    /// merge equals the level of the concatenated update streams.
    #[test]
    fn merge_and_subtract_are_linear() {
        let mut a = LevelState::new(3, 43);
        let mut b = LevelState::new(3, 43);
        let mut both = LevelState::new(3, 43);
        let mut x = 0x9e37u32;
        for step in 0..400 {
            x = x.wrapping_mul(747_796_405).wrapping_add(2_891_336_453);
            let (t, bucket) = (usize_from_u32(x % 3), usize_from_u32(x.rotate_left(7) % 43));
            let delta = if step % 9 == 0 {
                Delta::Delete
            } else {
                Delta::Insert
            };
            let level = if step % 2 == 0 { &mut a } else { &mut b };
            level.apply(t, bucket, key(x, !x), delta);
            both.apply(t, bucket, key(x, !x), delta);
        }
        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged, both);
        merged.subtract(&b);
        assert_eq!(merged, a);
    }
}
