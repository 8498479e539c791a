//! Count signatures: the per-bucket sums that make the sketch
//! delete-resilient and let singleton buckets be *decoded* back into the
//! unique pair they hold.
//!
//! The paper's signature (§4, §6.1) is an array of `2·log m + 1 = 65`
//! counters: a total and one bit-location count per key bit, from which
//! `ReturnSingleton` reads a key. Ours keeps four linear words per
//! bucket, 28 bytes in all — the decode idea of Invertible Bloom Lookup
//! Tables (Goodrich and Mitzenmacher, 2011):
//!
//! * `total: i32` — `Σ ±1`, the net number of pairs in the bucket;
//! * `lo: i64` — `Σ ±lo32(key)`, the keys' low halves summed exactly;
//! * `hi: i64` — `Σ ±hi32(key)`, the same over the high halves;
//! * `fp: u64` — `Σ ±fingerprint64(key)`, a wrapping sum.
//!
//! Every word is a net sum, so an insert followed by a delete of the
//! same pair leaves the bucket exactly as if the pair had never been
//! seen — the delete-resilience property everything else rests on. On a
//! well-formed stream `0 ≤ lo, hi ≤ total · (2³² − 1)`, so the half sums
//! never wrap while `|total| < 2³¹`; the [`HEADROOM_TOTAL`] gauge counts
//! the buckets that come within a factor of two of that bound.
//!
//! ## Decode
//!
//! A bucket holding `t` copies of one key has `lo = t·lo32(key)`,
//! `hi = t·hi32(key)` and `fp = t·fingerprint64(key)`.
//! [`CountSignature::decode`] inverts that: it divides both half sums by
//! the total and confirms the candidate with the fingerprint sum. A
//! bucket holding two or more distinct pairs passes that check with
//! probability ≈ 2⁻⁶⁴ (DESIGN.md §2 records this deviation from the
//! paper's deterministic bit test). A negative total, or a zero total
//! with residue, can only come from an ill-formed stream: it decodes to
//! `Collision` and the sketch counts it as `decode_ill_formed`.
//!
//! This module is the only place that performs arithmetic on bucket
//! state (lint **L1**): every mutation goes through
//! `wrapping_add`/`wrapping_sub`, so merge/subtract stay linear even at
//! the overflow boundary. The slab kernels the level layer uses for its
//! linear merge, subtract and slide passes live here for the same
//! reason.

use std::ops::{BitOr, BitXor};

use dcs_hash::cast::{high_u32, low_u32, wrapping_i32_from_i64, wrapping_u64_from_i64};
use dcs_hash::mix::fingerprint64;

use crate::types::{Delta, FlowKey, FlowUpdate, NetUpdate};

/// Bytes of a bucket's total: the paper's 4-byte counter.
pub const TOTAL_BYTES: usize = std::mem::size_of::<i32>();

/// Bytes of each of a bucket's three sums (low half, high half,
/// fingerprint).
pub const SUM_BYTES: usize = std::mem::size_of::<u64>();

/// Bytes of one bucket: the total plus three sums, 28 in all.
pub const BUCKET_BYTES: usize = TOTAL_BYTES + 3 * SUM_BYTES;

/// `|total|` at or above which a bucket is counted as short of
/// headroom: within a factor of two of the 2³¹ bound past which a
/// 4-byte total would wrap and the half sums could leave `i64`. The
/// telemetry snapshot reports the count of such buckets as
/// `counter_headroom_exceeded`.
pub const HEADROOM_TOTAL: u32 = 1 << 30;

/// What a count signature reveals about its bucket's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BucketState {
    /// No pairs currently map to the bucket (net).
    Empty,
    /// Exactly one distinct pair maps to the bucket.
    Singleton {
        /// The recovered pair.
        key: FlowKey,
        /// Its net multiplicity (≥ 1 on well-formed streams).
        net_count: i64,
    },
    /// Two or more distinct pairs map to the bucket — nothing can be
    /// recovered. Also reported for signatures that could only arise
    /// from ill-formed streams (negative net counts).
    Collision,
}

impl BucketState {
    /// Returns the recovered key if the bucket is a singleton —
    /// the paper's `ReturnSingleton` (Fig. 4), `null` mapped to `None`.
    pub fn singleton_key(self) -> Option<FlowKey> {
        match self {
            BucketState::Singleton { key, .. } => Some(key),
            _ => None,
        }
    }
}

/// One bucket's count signature: its total and three sums.
///
/// The sketch stores these words in four per-level slabs and reads a
/// bucket out by value; the owned form is also usable on its own.
///
/// # Examples
///
/// ```
/// use dcs_core::signature::{BucketState, CountSignature};
/// use dcs_core::{Delta, FlowKey};
///
/// let mut sig = CountSignature::new();
/// let key = FlowKey::from_packed(0xdead_beef);
/// sig.apply(key, Delta::Insert);
/// assert_eq!(sig.decode().singleton_key(), Some(key));
/// sig.apply(key, Delta::Delete);
/// assert_eq!(sig.decode(), BucketState::Empty);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CountSignature {
    /// `Σ ±1`.
    pub(crate) total: i32,
    /// `Σ ±lo32(key)`.
    pub(crate) lo: i64,
    /// `Σ ±hi32(key)`.
    pub(crate) hi: i64,
    /// `Σ ±fingerprint64(key)`, wrapping.
    pub(crate) fp: u64,
}

/// The key's two 32-bit halves, widened for the half sums.
#[inline]
fn halves(key: FlowKey) -> (i64, i64) {
    let packed = key.packed();
    (i64::from(low_u32(packed)), i64::from(high_u32(packed)))
}

/// `sum / t` when `t > 0` divides `sum` exactly into a 32-bit half.
#[inline]
fn exact_half(sum: i64, t: i64) -> Option<u32> {
    if t == 1 {
        return u32::try_from(sum).ok();
    }
    if sum % t != 0 {
        return None;
    }
    u32::try_from(sum / t).ok()
}

impl CountSignature {
    /// Creates an all-zero (empty) signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an update for `key`: the total moves by ±1 and the three
    /// sums by `±lo32(key)`, `±hi32(key)` and `±fingerprint64(key)`.
    #[inline]
    pub fn apply(&mut self, key: FlowKey, delta: Delta) {
        *self = self.after(key, delta, fingerprint64(key.packed()));
    }

    /// The signature after applying `(key, delta)`, with the key's
    /// fingerprint `fp` precomputed — the one place bucket state is
    /// stepped, by the update path and the tracking screen alike.
    #[inline]
    pub(crate) fn after(self, key: FlowKey, delta: Delta, fp: u64) -> Self {
        let (lo, hi) = halves(key);
        match delta {
            Delta::Insert => Self {
                total: self.total.wrapping_add(1),
                lo: self.lo.wrapping_add(lo),
                hi: self.hi.wrapping_add(hi),
                fp: self.fp.wrapping_add(fp),
            },
            Delta::Delete => Self {
                total: self.total.wrapping_sub(1),
                lo: self.lo.wrapping_sub(lo),
                hi: self.hi.wrapping_sub(hi),
                fp: self.fp.wrapping_sub(fp),
            },
        }
    }

    /// The signature after a net change of `net` copies of `key`, with
    /// the key's fingerprint `fp` precomputed: every word moves by `net`
    /// times the key's word, wrapping, which is where `|net|` steps of
    /// [`after`](Self::after) would leave it.
    #[inline]
    pub(crate) fn after_net(self, key: FlowKey, net: i64, fp: u64) -> Self {
        let (lo, hi) = halves(key);
        Self {
            total: self.total.wrapping_add(wrapping_i32_from_i64(net)),
            lo: self.lo.wrapping_add(net.wrapping_mul(lo)),
            hi: self.hi.wrapping_add(net.wrapping_mul(hi)),
            fp: self
                .fp
                .wrapping_add(wrapping_u64_from_i64(net).wrapping_mul(fp)),
        }
    }

    /// The net total number of pairs mapped to this bucket.
    #[inline]
    pub fn net_total(&self) -> i64 {
        i64::from(self.total)
    }

    /// Whether the signature is identically zero (exact, `O(1)`).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.total == 0 && (self.lo | self.hi) == 0 && self.fp == 0
    }

    /// Whether only an ill-formed stream can produce this state: a
    /// negative total, or a zero total with residue in a sum. Such a
    /// state decodes to `Collision` and is counted as
    /// `decode_ill_formed`.
    #[inline]
    pub fn is_ill_formed(&self) -> bool {
        self.total < 0 || (self.total == 0 && !self.is_zero())
    }

    /// Decodes the bucket's contents: `Empty` for an all-zero bucket,
    /// `Singleton` when both half sums divide exactly by a positive
    /// total and the fingerprint sum confirms the candidate, and
    /// `Collision` otherwise (including every ill-formed state).
    #[inline]
    pub fn decode(&self) -> BucketState {
        if self.total <= 0 {
            return if self.is_zero() {
                BucketState::Empty
            } else {
                BucketState::Collision
            };
        }
        let t = i64::from(self.total);
        let (Some(lo), Some(hi)) = (exact_half(self.lo, t), exact_half(self.hi, t)) else {
            return BucketState::Collision;
        };
        let key = u64::from(hi) << 32 | u64::from(lo);
        if u64::from(self.total.unsigned_abs()).wrapping_mul(fingerprint64(key)) != self.fp {
            return BucketState::Collision;
        }
        BucketState::Singleton {
            key: FlowKey::from_packed(key),
            net_count: t,
        }
    }

    /// Whether the bucket holds only `key` and still will after
    /// `(key, delta)`: it decodes to `Singleton { key, .. }` on both
    /// sides of the update. The tracking hot path's fast skip — three
    /// multiplies, no division and no fingerprint mixing, because the
    /// caller already holds the key's fingerprint `fp`. Exact: the
    /// three sums equal `t` times the key's words only for the
    /// singleton of `key` (no product below wraps, as `t < 2³¹`).
    #[inline]
    pub(crate) fn holds_only(&self, key: FlowKey, delta: Delta, fp: u64) -> bool {
        let stays = match delta {
            Delta::Insert => (1..i32::MAX).contains(&self.total),
            Delta::Delete => self.total >= 2,
        };
        if !stays {
            return false;
        }
        let (lo, hi) = halves(key);
        let t = i64::from(self.total);
        self.lo == t.wrapping_mul(lo)
            && self.hi == t.wrapping_mul(hi)
            && self.fp == u64::from(self.total.unsigned_abs()).wrapping_mul(fp)
    }
}

/// What the sketch's update plans apply: one raw update, or a pair's
/// net change over a stretch of the stream. Both step a bucket here, so
/// every counter mutation stays in this module.
pub(crate) trait Change: Copy {
    /// The pair the change is to.
    fn key(self) -> FlowKey;
    /// The change in the pair's count: `±1` for a raw update.
    fn net(self) -> i64;
    /// `sig` after the change, with the key's fingerprint `fp`.
    fn step(self, sig: CountSignature, fp: u64) -> CountSignature;
}

impl Change for FlowUpdate {
    #[inline]
    fn key(self) -> FlowKey {
        self.key
    }

    #[inline]
    fn net(self) -> i64 {
        self.delta.signum()
    }

    #[inline]
    fn step(self, sig: CountSignature, fp: u64) -> CountSignature {
        sig.after(self.key, self.delta, fp)
    }
}

impl Change for NetUpdate {
    #[inline]
    fn key(self) -> FlowKey {
        self.key
    }

    #[inline]
    fn net(self) -> i64 {
        self.delta
    }

    #[inline]
    fn step(self, sig: CountSignature, fp: u64) -> CountSignature {
        sig.after_net(self.key, self.delta, fp)
    }
}

/// A slab element: one of the four word types a level stores.
pub(crate) trait Word:
    Copy + Eq + Default + BitOr<Output = Self> + BitXor<Output = Self>
{
    /// Wrapping addition — the only way slab words add.
    fn add(self, other: Self) -> Self;
    /// Wrapping subtraction — the only way slab words subtract.
    fn sub(self, other: Self) -> Self;
}

macro_rules! word {
    ($($ty:ty),*) => {$(
        impl Word for $ty {
            #[inline(always)]
            fn add(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
            #[inline(always)]
            fn sub(self, other: Self) -> Self {
                self.wrapping_sub(other)
            }
        }
    )*};
}

word!(i32, i64, u64);

/// Lanes per fixed-width slab chunk in the zero-scan and slide kernels
/// below: the vectorizer gets a fixed-trip-count body over a
/// known-length array.
pub(crate) const SLAB_LANES: usize = 64;

/// Adds `src` into `dst` element-wise (wrapping). A plain fused loop:
/// at 28-byte buckets a zero-chunk skip measured 3–5% slower on every
/// merge and difference (DESIGN.md §16).
#[inline]
pub(crate) fn merge_slab<T: Word>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, b) in dst.iter_mut().zip(src) {
        *a = a.add(*b);
    }
}

/// Subtracts `src` from `dst` element-wise (wrapping).
#[inline]
pub(crate) fn subtract_slab<T: Word>(dst: &mut [T], src: &[T]) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, b) in dst.iter_mut().zip(src) {
        *a = a.sub(*b);
    }
}

/// Whether every word of the slab is zero: an OR-fold per
/// [`SLAB_LANES`]-wide chunk with a per-chunk exit, so the inner loop
/// stays branch-free.
#[inline]
pub(crate) fn slab_is_zero<T: Word>(slab: &[T]) -> bool {
    let mut chunks = slab.chunks_exact(SLAB_LANES);
    for chunk in chunks.by_ref() {
        let mut any = T::default();
        for v in chunk {
            any = any | *v;
        }
        if any != T::default() {
            return false;
        }
    }
    chunks.remainder().iter().all(|&v| v == T::default())
}

/// The fused epoch slide over one slab.
///
/// One pass over four equal-length slabs — cumulative `c`, epoch base
/// `b`, window accumulator `w`, and ring slot `s` (the expiring delta
/// on entry, the closing epoch's delta on exit) — computing per element
/// `d = c − b; w += d − s; b = c; s = d` with wrapping arithmetic, so
/// the result equals difference → merge → subtract → copy in any order.
/// [`SLAB_LANES`]-wide chunks where `c == b` and `s == 0` are skipped:
/// there `d = 0`, so no slab changes and no destination line is
/// written.
#[inline]
pub(crate) fn slide_slab<T: Word>(c: &[T], b: &mut [T], w: &mut [T], s: &mut [T]) {
    debug_assert!(c.len() == b.len() && c.len() == w.len() && c.len() == s.len());
    #[inline(always)]
    fn lane<T: Word>(c: T, b: &mut T, w: &mut T, s: &mut T) {
        let d = c.sub(*b);
        *w = w.add(d.sub(*s));
        *b = c;
        *s = d;
    }
    fn tail<T: Word>(c: &[T], b: &mut [T], w: &mut [T], s: &mut [T]) {
        for (((c, b), w), s) in c.iter().zip(b).zip(w).zip(s) {
            lane(*c, b, w, s);
        }
    }
    let mut c_chunks = c.chunks_exact(SLAB_LANES);
    let mut b_chunks = b.chunks_exact_mut(SLAB_LANES);
    let mut w_chunks = w.chunks_exact_mut(SLAB_LANES);
    let mut s_chunks = s.chunks_exact_mut(SLAB_LANES);
    for (((c, b), w), s) in c_chunks
        .by_ref()
        .zip(b_chunks.by_ref())
        .zip(w_chunks.by_ref())
        .zip(s_chunks.by_ref())
    {
        match (
            c.first_chunk::<SLAB_LANES>(),
            b.first_chunk_mut::<SLAB_LANES>(),
            w.first_chunk_mut::<SLAB_LANES>(),
            s.first_chunk_mut::<SLAB_LANES>(),
        ) {
            (Some(c), Some(b), Some(w), Some(s)) => {
                let mut moved = T::default();
                for j in 0..SLAB_LANES {
                    moved = moved | (c[j] ^ b[j]) | s[j];
                }
                if moved == T::default() {
                    continue;
                }
                for j in 0..SLAB_LANES {
                    lane(c[j], &mut b[j], &mut w[j], &mut s[j]);
                }
            }
            // Unreachable (`chunks_exact` yields exact-length slices),
            // but a slice-loop fallback keeps this total without
            // panicking machinery.
            _ => tail(c, b, w, s),
        }
    }
    tail(
        c_chunks.remainder(),
        b_chunks.into_remainder(),
        w_chunks.into_remainder(),
        s_chunks.into_remainder(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DestAddr, SourceAddr};

    fn key(s: u32, d: u32) -> FlowKey {
        FlowKey::new(SourceAddr(s), DestAddr(d))
    }

    fn singleton(key: FlowKey, net_count: i64) -> BucketState {
        BucketState::Singleton { key, net_count }
    }

    #[test]
    fn empty_signature_decodes_empty() {
        let sig = CountSignature::new();
        assert_eq!(sig.decode(), BucketState::Empty);
        assert!(sig.is_zero());
        assert!(!sig.is_ill_formed());
        assert_eq!(sig.net_total(), 0);
    }

    #[test]
    fn repeated_inserts_of_one_key_stay_singleton() {
        for k in [
            key(0xAABB_CCDD, 0x1122_3344),
            FlowKey::from_packed(0),
            FlowKey::from_packed(u64::MAX),
        ] {
            let mut sig = CountSignature::new();
            for n in 1..=7 {
                sig.apply(k, Delta::Insert);
                assert_eq!(sig.decode(), singleton(k, n));
            }
        }
    }

    #[test]
    fn distinct_keys_collide_even_one_bit_apart() {
        for (a, b) in [
            (key(1, 2), key(3, 4)),
            (FlowKey::from_packed(0b1000), FlowKey::from_packed(0b1001)),
            // Half sums 1+3 and 1+3 divide by 2 into the key (2, 2):
            // only the fingerprint rejects the candidate.
            (key(1, 1), key(3, 3)),
        ] {
            let mut sig = CountSignature::new();
            sig.apply(a, Delta::Insert);
            sig.apply(b, Delta::Insert);
            assert_eq!(sig.decode(), BucketState::Collision);
        }
    }

    #[test]
    fn delete_reverts_insert_exactly() {
        let mut sig = CountSignature::new();
        let resident = key(10, 20);
        sig.apply(resident, Delta::Insert);
        let reference = sig;
        let transient = key(77, 88);
        sig.apply(transient, Delta::Insert);
        assert_eq!(sig.decode(), BucketState::Collision);
        sig.apply(transient, Delta::Delete);
        assert_eq!(sig, reference, "signature must be impervious to deletes");
        assert_eq!(sig.decode(), singleton(resident, 1));
    }

    #[test]
    fn ill_formed_states_decode_to_collision_and_are_flagged() {
        let mut negative = CountSignature::new();
        negative.apply(key(1, 2), Delta::Delete);
        assert_eq!(negative.decode(), BucketState::Collision);
        assert!(negative.is_ill_formed());

        // Insert a, delete b: total 0 with residue in every sum.
        let mut residue = CountSignature::new();
        residue.apply(key(1, 2), Delta::Insert);
        residue.apply(key(3, 4), Delta::Delete);
        assert_eq!(residue.net_total(), 0);
        assert!(!residue.is_zero());
        assert_eq!(residue.decode(), BucketState::Collision);
        assert!(residue.is_ill_formed());

        let mut collision = CountSignature::new();
        collision.apply(key(1, 2), Delta::Insert);
        collision.apply(key(3, 4), Delta::Insert);
        assert!(!collision.is_ill_formed(), "a collision is well formed");
    }

    /// The key (0, 0) packs to 0 and fingerprints to 0: only the total
    /// tells its bucket from an empty one.
    #[test]
    fn all_zero_key_is_a_valid_singleton() {
        assert_eq!(fingerprint64(0), 0);
        let mut sig = CountSignature::new();
        let zero = FlowKey::from_packed(0);
        sig.apply(zero, Delta::Insert);
        sig.apply(zero, Delta::Insert);
        assert!(!sig.is_zero());
        assert_eq!(sig.decode(), singleton(zero, 2));
    }

    #[test]
    fn heap_bytes_is_a_total_and_three_sums() {
        assert_eq!(BUCKET_BYTES, 4 + 3 * 8);
    }

    /// A bucket pushed past `i32::MAX` and brought back lands on its
    /// exact prior state: every word wraps linearly.
    #[test]
    fn totals_wrap_linearly_at_the_i32_boundary() {
        let k = key(3, 5);
        let mut parked = CountSignature::new();
        parked.apply(k, Delta::Insert);
        parked.total = i32::MAX;
        let mut sig = parked;
        sig.apply(k, Delta::Insert);
        assert_eq!(sig.total, i32::MIN);
        sig.apply(k, Delta::Delete);
        assert_eq!(sig, parked);
    }

    /// A net change of `n` lands where `|n|` single steps do, across the
    /// 4-byte total's wrap too.
    #[test]
    fn a_net_change_equals_its_single_steps() {
        let k = key(0xdead_beef, 0x0a00_0001);
        let fp = fingerprint64(k.packed());
        let mut parked = CountSignature::new();
        parked.apply(k, Delta::Insert);
        parked.total = i32::MAX - 2;
        for start in [CountSignature::new(), parked] {
            for net in [-5i64, -1, 0, 1, 2, 7] {
                let delta = if net < 0 {
                    Delta::Delete
                } else {
                    Delta::Insert
                };
                let stepped = (0..net.unsigned_abs()).fold(start, |sig, _| sig.after(k, delta, fp));
                assert_eq!(start.after_net(k, net, fp), stepped, "net {net}");
            }
        }
        // 2³² steps of +1 leave the total where it was and add 2³²
        // copies to each sum.
        let big = 1i64 << 32;
        let moved = parked.after_net(k, big, fp);
        assert_eq!(moved.total, parked.total);
        assert_eq!(moved.lo, parked.lo + big * i64::from(low_u32(k.packed())));
    }

    /// `holds_only` fires exactly when the decode on both sides of the
    /// update is `Singleton { key, .. }`, on every prefix of random
    /// well-formed streams over a small key pool.
    #[test]
    fn holds_only_matches_the_decode_on_both_sides() {
        use rand::prelude::*;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool: Vec<FlowKey> = (0..4).map(|_| FlowKey::from_packed(rng.gen())).collect();
            let mut sig = CountSignature::new();
            let mut net = vec![0i64; pool.len()];
            for _ in 0..300 {
                let i = rng.gen_range(0..pool.len());
                let delta = if net[i] > 0 && rng.gen_bool(0.4) {
                    net[i] -= 1;
                    Delta::Delete
                } else {
                    net[i] += 1;
                    Delta::Insert
                };
                let k = pool[i];
                let fp = fingerprint64(k.packed());
                let after = sig.after(k, delta, fp);
                let both = sig.decode().singleton_key() == Some(k)
                    && after.decode().singleton_key() == Some(k);
                assert_eq!(sig.holds_only(k, delta, fp), both);
                sig = after;
            }
        }
    }

    /// Deterministic patterned fill that exercises wrap boundaries,
    /// sign changes, and long all-zero stretches (the zero-skip path).
    fn patterned(len: usize, salt: u64) -> Vec<u64> {
        let mut x = salt;
        (0..len)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match i % 7 {
                    0 => 0,
                    1 => u64::MAX - (x & 0xff),
                    3 if i % 130 < 65 => 0,
                    _ => x,
                }
            })
            .collect()
    }

    /// Lengths straddling the chunk boundaries of the slab kernels.
    const KERNEL_LENS: &[usize] = &[
        0,
        1,
        SLAB_LANES - 1,
        SLAB_LANES,
        SLAB_LANES + 1,
        4 * SLAB_LANES + 17,
        1009,
    ];

    #[test]
    fn merge_then_subtract_is_the_identity_across_wraps() {
        for &len in KERNEL_LENS {
            let src = patterned(len, 0x1e37_79b9_7f4a_7c15);
            let base = patterned(len, 0x51b5_4a32_d192_ed03);
            let mut slab = base.clone();
            merge_slab(&mut slab, &src);
            let sums: Vec<u64> = base
                .iter()
                .zip(&src)
                .map(|(a, b)| a.wrapping_add(*b))
                .collect();
            assert_eq!(slab, sums, "len {len}");
            subtract_slab(&mut slab, &src);
            assert_eq!(slab, base, "len {len}");
        }
    }

    #[test]
    fn slab_is_zero_sees_one_nonzero_word_anywhere() {
        for &len in KERNEL_LENS {
            let zeros = vec![0i64; len];
            assert!(slab_is_zero(&zeros), "len {len}");
            for hot in [0, len / 2, len.saturating_sub(1)] {
                if len == 0 {
                    continue;
                }
                let mut one = zeros.clone();
                one[hot] = -1;
                assert!(!slab_is_zero(&one), "len {len} hot {hot}");
            }
        }
    }

    #[test]
    fn slide_slab_equals_its_composition() {
        for &len in KERNEL_LENS {
            let c = patterned(len, 1);
            let mut b = patterned(len, 2);
            let mut w = patterned(len, 3);
            let mut s = patterned(len, 4);
            // Leave some chunks unchanged so the skip path runs.
            for i in (0..len).filter(|i| i % 200 < 64) {
                b[i] = c[i];
                s[i] = 0;
            }
            let d: Vec<u64> = c.iter().zip(&b).map(|(c, b)| c.wrapping_sub(*b)).collect();
            let expected_w: Vec<u64> = (0..len)
                .map(|i| w[i].wrapping_add(d[i]).wrapping_sub(s[i]))
                .collect();
            slide_slab(&c, &mut b, &mut w, &mut s);
            assert_eq!((b, w, s), (c.clone(), expected_w, d), "len {len}");
        }
    }
}
