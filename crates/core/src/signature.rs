//! Count signatures: the per-bucket counter arrays that make the sketch
//! delete-resilient and let singleton buckets be *decoded* back into the
//! unique pair they hold.
//!
//! A signature is the paper's array of `2·log m + 1 = 65` counters for a
//! second-level hash bucket: one **total element count** (net number of
//! pairs mapped to the bucket) and, for each bit position `j` of the
//! packed pair, a **bit-location count** (net number of mapped pairs with
//! `BIT_j = 1`). Both counts are *net* — an insert followed by a delete
//! of the same pair leaves the signature exactly as if the pair had never
//! been seen, which is the delete-resilience property everything else in
//! the sketch rests on.
//!
//! On top of the paper's counters, each signature carries two extra
//! *linear screening counters* — a wrapping key sum `Σ ±key` and a
//! wrapping fingerprint sum `Σ ±fingerprint64(key)` — that let
//! [`CountSignature::decode_fast`] reject non-singleton buckets in
//! `O(1)` instead of scanning all 65 counters, falling back to the full
//! bit verification only when the screen passes. See the documentation
//! of the crate-internal `ScreenClass` for the exact guarantees.
//!
//! ## Views over arena storage
//!
//! Since the flat-arena layout landed, the sketch's hot storage
//! (`crate::level::LevelState`) does not hold owned `CountSignature`
//! values: each level keeps one contiguous counter slab plus two
//! parallel screen-sum arrays, and borrows individual buckets through
//! `SigRef` / `SigMut`. All decode/screen/apply logic lives on the
//! views; the owned [`CountSignature`] (still the public type for
//! standalone use) delegates every operation through a view of
//! its own fields, so the two representations cannot drift.
//!
//! This module is also the only place allowed to perform arithmetic on
//! counter state (lint **L1**): every mutation goes through
//! `wrapping_add`/`wrapping_sub` so merge/subtract stay linear even at
//! the overflow boundary. The slab-wide helpers the level layer uses for
//! its linear merge/subtract passes live here for the same reason.
//!
//! ## 4-byte counters
//!
//! The 65 counters are `i32`, the paper's §6.1 accounting. Wrapping
//! sums are exact modulo 2³², and on a well-formed stream every bit
//! counter lies in `[0, total]` with the total bounded by the live
//! pairs in the bucket, so every decode matches an `i64` sketch's
//! whenever `|total| < 2³¹`. The screen and decode paths read counters
//! widened with `i64::from`; the [`HEADROOM_TOTAL`] gauge counts the
//! buckets that come within a factor of two of that bound.

use dcs_hash::cast::{low_u32, u64_from_i64, usize_from_u32};
use dcs_hash::mix::fingerprint64;

use crate::config::KEY_BITS;
use crate::types::{Delta, FlowKey};

/// The number of counters in a signature: one total + 64 bit locations.
pub const SIGNATURE_LEN: usize = usize_from_u32(KEY_BITS) + 1;

/// Bytes of one signature counter: the paper's 4-byte counters (see
/// the module docs for why wrapping at 2³² is safe).
pub const COUNTER_BYTES: usize = std::mem::size_of::<i32>();

/// Bytes of one linear screen sum (key sum or fingerprint sum).
pub const SCREEN_SUM_BYTES: usize = std::mem::size_of::<u64>();

/// `|total|` at or above which a bucket is counted as short of
/// headroom: within a factor of two of the 2³¹ bound past which a
/// 4-byte total would wrap. The telemetry snapshot reports the count of
/// such buckets as `counter_headroom_exceeded`.
pub const HEADROOM_TOTAL: u32 = 1 << 30;

/// The ±1 step an update adds to the counters it touches.
#[inline]
fn counter_step(delta: Delta) -> i32 {
    match delta {
        Delta::Insert => 1,
        Delta::Delete => -1,
    }
}

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

/// What the `O(1)` linear screen can tell about a signature.
///
/// The classification reads only the total count, the key sum, and the
/// fingerprint sum (plus at most `z = trailing_zeros(total)` bit
/// counters to complete the candidate). On well-formed streams:
///
/// * [`Empty`](ScreenClass::Empty) and [`Fail`](ScreenClass::Fail) are
///   *certain*: the bucket decodes to `Empty`/`Collision` respectively —
///   a true singleton always satisfies both sum equations, so failing
///   either rules it out without touching the 64 bit counters;
/// * [`Candidate`](ScreenClass::Candidate) is *one-sided*: if the
///   bucket really is a singleton, its key equals the recovered
///   candidate, but a collision can masquerade as a candidate (with
///   probability ≈ `2^-64` per state), so candidates must be confirmed
///   by the full bit verification before being reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScreenClass {
    /// Total and both sums are zero: an empty bucket.
    Empty,
    /// The screen proves the bucket is not a singleton.
    Fail,
    /// The screen passes; if the bucket is a singleton, this is its key.
    Candidate(u64),
}

/// Multiplicative inverse of odd `q` modulo `2^64` (Newton iteration —
/// each step doubles the number of correct low bits, and `q·q ≡ 1
/// (mod 8)` seeds three of them).
#[inline]
fn inverse_mod_pow2(q: u64) -> u64 {
    debug_assert!(q & 1 == 1, "inverse exists only for odd values");
    let mut inv = q;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
    }
    inv
}

/// Classifies `(total, key_sum, fp_sum)` in `O(1)`; `bit_count(j)`
/// supplies the `j`-th bit-location count, consulted only for the
/// `trailing_zeros(total)` topmost bits an even total leaves
/// undetermined.
fn classify(total: i64, key_sum: u64, fp_sum: u64, bit_count: impl Fn(u32) -> i64) -> ScreenClass {
    if total <= 0 {
        // A negative total, or a zero total with sum residue, can
        // only arise from ill-formed streams; neither is a
        // singleton.
        return if total == 0 && key_sum == 0 && fp_sum == 0 {
            ScreenClass::Empty
        } else {
            ScreenClass::Fail
        };
    }
    let t = u64_from_i64(total);
    // Fail-fast prefix: a singleton's bit counters are all 0 or
    // `total`, while a bucket colliding random keys has a counter
    // strictly in between almost immediately (probability ≥ 1/2 per
    // counter for two keys). Probing a short constant prefix
    // dispatches dense collisions before the modular-inverse candidate
    // recovery below. The eight probes accumulate one flag instead of
    // branching per counter: a fixed-width compare/or ladder with no
    // data-dependent exit, so the whole prefix issues as straight-line
    // (vectorizable) code and costs no branch misprediction on the
    // collision-heavy paths that dominate full-table scans.
    let mut prefix_fail = false;
    for j in 0..8 {
        let c = bit_count(j);
        prefix_fail |= c != 0 && c != total;
    }
    if prefix_fail {
        return ScreenClass::Fail;
    }
    // Write t = 2^z · q with q odd. A singleton holding `key` has
    // key_sum = t·key (mod 2^64), whose low z bits are zero.
    let z = t.trailing_zeros();
    if key_sum.trailing_zeros() < z {
        return ScreenClass::Fail;
    }
    let q = t >> z;
    // q == 1 (power-of-two totals, including the ubiquitous t = 1)
    // needs no modular inverse.
    let mut candidate = if q == 1 {
        key_sum >> z
    } else {
        (key_sum >> z).wrapping_mul(inverse_mod_pow2(q))
    };
    if z > 0 {
        // Only the low 64 − z candidate bits are determined by the
        // key sum; a true singleton's top bits are read off the bit
        // counters (counter == total exactly where the key has a
        // 1-bit). The fingerprint check below vouches for them.
        candidate &= u64::MAX >> z;
        for j in (KEY_BITS - z)..KEY_BITS {
            if bit_count(j) == total {
                candidate |= 1 << j;
            }
        }
    }
    if t.wrapping_mul(fingerprint64(candidate)) != fp_sum {
        return ScreenClass::Fail;
    }
    ScreenClass::Candidate(candidate)
}

/// A borrowed read view of one bucket's counters and screen sums.
///
/// The counter slice always has exactly [`SIGNATURE_LEN`] elements;
/// the two screen sums are copied out by value (they are single words
/// living in the level's parallel arrays). All decode/screen logic is
/// implemented here and reused verbatim by the owned
/// [`CountSignature`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigRef<'a> {
    /// `counts[0]` is the total element count; `counts[1 + j]` is the
    /// bit-location count for bit `j` of the packed pair.
    counts: &'a [i32],
    key_sum: u64,
    fp_sum: u64,
}

impl<'a> SigRef<'a> {
    /// Wraps a borrowed counter block and its screen sums.
    #[inline]
    pub(crate) fn new(counts: &'a [i32], key_sum: u64, fp_sum: u64) -> Self {
        debug_assert_eq!(counts.len(), SIGNATURE_LEN);
        Self {
            counts,
            key_sum,
            fp_sum,
        }
    }

    /// The net total number of pairs mapped to this bucket.
    #[inline]
    pub(crate) fn net_total(self) -> i64 {
        i64::from(self.counts[0])
    }

    /// The `j`-th counter widened to `i64` (`0` is the total, `1 + j`
    /// the bit-location count for bit `j`).
    #[inline]
    fn wide(self, j: usize) -> i64 {
        i64::from(self.counts[j])
    }

    /// Whether the signature is identically zero.
    ///
    /// The always-maintained screens give an `O(1)` fast reject: any
    /// occupied bucket has a nonzero total or (for zero-total residue
    /// states) a nonzero screen sum with overwhelming probability, so
    /// the 64-counter scan only runs for buckets that look empty.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        if self.counts[0] != 0 || self.key_sum != 0 || self.fp_sum != 0 {
            return false;
        }
        self.counts[1..].iter().all(|&c| c == 0)
    }

    /// The screen class of the current state.
    #[inline]
    pub(crate) fn screen_class(self) -> ScreenClass {
        classify(self.wide(0), self.key_sum, self.fp_sum, |j| {
            self.wide(1 + usize_from_u32(j))
        })
    }

    /// The screen class the signature *would* have after applying
    /// `(key, delta)`, computed without mutating anything — the tracking
    /// hot path compares this against [`screen_class`](Self::screen_class)
    /// to prove most updates cause no decode transition.
    #[inline]
    pub(crate) fn screen_class_after(self, key: FlowKey, delta: Delta, fp: u64) -> ScreenClass {
        // Stepped at counter width before widening, so the prediction
        // wraps exactly where the applied update would.
        let sign = counter_step(delta);
        let packed = key.packed();
        let (key_sum, fp_sum) = if sign >= 0 {
            (
                self.key_sum.wrapping_add(packed),
                self.fp_sum.wrapping_add(fp),
            )
        } else {
            (
                self.key_sum.wrapping_sub(packed),
                self.fp_sum.wrapping_sub(fp),
            )
        };
        let total = i64::from(self.counts[0].wrapping_add(sign));
        classify(total, key_sum, fp_sum, |j| {
            let bit_delta = if packed >> j & 1 == 1 { sign } else { 0 };
            i64::from(self.counts[1 + usize_from_u32(j)].wrapping_add(bit_delta))
        })
    }

    /// Whether both the current and the post-`(key, delta)` screen
    /// class are provably `Candidate(key)` — the dominant hot-path
    /// case of a repeated packet on a flow that (apparently) owns its
    /// bucket. Costs sixteen counter reads and two multiplies; no
    /// modular inverse and no fingerprint mixing, because the caller
    /// already holds both `key` and its fingerprint.
    ///
    /// Sound for the tracking skip rule: a `true` here implies
    /// [`screen_class`](Self::screen_class) and
    /// [`screen_class_after`](Self::screen_class_after) both return
    /// `Candidate(key.packed())` — the sums pin the candidate's low
    /// bits to `key`'s, and the verified top-byte counters pin the
    /// rest. Totals of 256 or more fall back to the general pair
    /// (their trailing-zero count could exceed the verified top byte),
    /// as does a delete that would empty the bucket.
    #[inline]
    pub(crate) fn skips_as_own_singleton(self, key: FlowKey, delta: Delta, fp: u64) -> bool {
        let total = self.wide(0);
        let sign = delta.signum();
        if !(1..256).contains(&total) || total.wrapping_add(sign) < 1 {
            return false;
        }
        let packed = key.packed();
        let t = u64_from_i64(total);
        if self.key_sum != t.wrapping_mul(packed) || self.fp_sum != t.wrapping_mul(fp) {
            return false;
        }
        // counter == total exactly where `key` has a 1-bit, over the
        // probe prefix (0..8) and the top byte — everything `classify`
        // consults, on both sides of the update, for totals below 256.
        // Branchless accumulation: sixteen identical multiply/compare/or
        // steps with no early exit, so the check compiles to a short
        // straight-line kernel (`total · bit` selects the expected value
        // without a branch; the multiply cannot overflow for totals
        // below 256 but stays `wrapping_` for L1 uniformity).
        let mut mismatch = false;
        for j in (0..8).chain(KEY_BITS - 8..KEY_BITS) {
            let expected = total.wrapping_mul(i64::from(packed >> j & 1 == 1));
            let c = self.wide(usize_from_u32(j) + 1);
            mismatch |= c != expected;
        }
        !mismatch
    }

    /// Screened decode: `O(1)` for empty and (with overwhelming
    /// probability) colliding buckets, falling back to the full
    /// 65-counter bit verification only when the screen passes.
    ///
    /// On well-formed streams this returns exactly what
    /// [`decode`](Self::decode) returns — the screen never rejects a
    /// true singleton (both sum equations hold identically for it), and
    /// a candidate is only reported after the bit verification decode
    /// would have performed anyway. On ill-formed streams `decode_fast`
    /// is at least as conservative: states whose sums betray residue
    /// are classified `Collision` even when the bit counters alone
    /// would spell out a phantom singleton.
    #[inline]
    pub(crate) fn decode_fast(self) -> BucketState {
        self.decode_class(self.screen_class())
    }

    /// Materializes an already-computed screen class of *this* state
    /// into a [`BucketState`] — lets callers that classified the
    /// signature themselves (the tracking hot path) skip
    /// re-classification.
    #[inline]
    pub(crate) fn decode_class(self, class: ScreenClass) -> BucketState {
        match class {
            ScreenClass::Empty => BucketState::Empty,
            ScreenClass::Fail => BucketState::Collision,
            ScreenClass::Candidate(candidate) => self.verify_candidate(candidate),
        }
    }

    /// Full bit verification of a screened candidate — the deterministic
    /// half of [`decode_fast`](Self::decode_fast).
    ///
    /// All 64 compares run unconditionally and fold into one flag: the
    /// screen has already filtered the overwhelmingly common non-matches,
    /// so a data-dependent early exit would save nothing on average while
    /// blocking vectorization of the fixed-width compare ladder
    /// (`total · bit` selects each expected value without a branch).
    fn verify_candidate(self, candidate: u64) -> BucketState {
        let total = self.wide(0);
        let mut mismatch = false;
        for (j, &c) in self.counts[1..].iter().enumerate() {
            let expected = total.wrapping_mul(i64::from(candidate >> j & 1 == 1));
            mismatch |= i64::from(c) != expected;
        }
        if mismatch {
            return BucketState::Collision;
        }
        BucketState::Singleton {
            key: FlowKey::from_packed(candidate),
            net_count: total,
        }
    }

    /// Decodes the bucket's contents — the paper's `ReturnSingleton`
    /// logic (Fig. 4): a bucket is a singleton iff every bit-location
    /// count is either `0` (all pairs have a 0-bit there) or equal to the
    /// total (all pairs have a 1-bit there); the pattern of which counts
    /// equal the total spells out the unique pair's binary signature.
    ///
    /// On well-formed streams (no pair's net count ever negative) the
    /// decode is sound: a bucket holding two or more distinct pairs can
    /// never masquerade as a singleton, because the pairs differ in some
    /// bit `j` and that bit's count then lies strictly between `0` and
    /// the total.
    #[inline]
    pub(crate) fn decode(self) -> BucketState {
        let total = self.wide(0);
        if total == 0 {
            // A zero total with nonzero bit counts can only arise from
            // ill-formed streams; classify it as a collision rather than
            // erasing information.
            return if self.is_zero() {
                BucketState::Empty
            } else {
                BucketState::Collision
            };
        }
        if total < 0 {
            return BucketState::Collision;
        }
        let mut packed = 0u64;
        for j in 0..KEY_BITS {
            let c = self.wide(1 + usize_from_u32(j));
            if c == total {
                packed |= 1 << j;
            } else if c != 0 {
                return BucketState::Collision;
            }
        }
        BucketState::Singleton {
            key: FlowKey::from_packed(packed),
            net_count: total,
        }
    }
}

/// A borrowed mutable view of one bucket's counters and screen sums.
///
/// The single mutation entry point of the whole sketch: every counter
/// write — owned signature or arena slab — funnels through
/// [`apply_with_fp`](Self::apply_with_fp) here, keeping lint L1's
/// wrapping-arithmetic guarantee in one file.
#[derive(Debug)]
pub(crate) struct SigMut<'a> {
    counts: &'a mut [i32],
    key_sum: &'a mut u64,
    fp_sum: &'a mut u64,
}

impl<'a> SigMut<'a> {
    /// Wraps mutable borrows of a counter block and its screen sums.
    #[inline]
    pub(crate) fn new(counts: &'a mut [i32], key_sum: &'a mut u64, fp_sum: &'a mut u64) -> Self {
        debug_assert_eq!(counts.len(), SIGNATURE_LEN);
        Self {
            counts,
            key_sum,
            fp_sum,
        }
    }

    /// Applies an update for `key`: the total count and every
    /// bit-location count where `key` has a 1-bit move by ±1, and the
    /// two screening sums move by `±key` / `±fingerprint64(key)`.
    ///
    /// The 64 bit-location counters update as a fixed-width pass rather
    /// than a popcount-dependent `trailing_zeros` loop: each counter
    /// adds `bit_mask & sign_word`, where `bit_mask` broadcasts bit `j`
    /// of the key to all 32 bits of a mask word (`wrapping_neg` of 0/1) and
    /// `sign_word` is `1` or the two's-complement image of `-1`
    /// (`u32::MAX`), so `wrapping_add_unsigned` lands on exactly the
    /// same wrapped value as a signed ±1. Same trip count for every
    /// key — no data-dependent branches — which lets the loop unroll
    /// and vectorize instead of serializing on the key's popcount.
    #[inline]
    pub(crate) fn apply_with_fp(&mut self, key: FlowKey, delta: Delta, fp: u64) {
        let sign = counter_step(delta);
        let packed = key.packed();
        self.counts[0] = self.counts[0].wrapping_add(sign);
        let sign_word = if sign >= 0 {
            *self.key_sum = self.key_sum.wrapping_add(packed);
            *self.fp_sum = self.fp_sum.wrapping_add(fp);
            1u32
        } else {
            *self.key_sum = self.key_sum.wrapping_sub(packed);
            *self.fp_sum = self.fp_sum.wrapping_sub(fp);
            u32::MAX
        };
        match self.counts[1..].first_chunk_mut::<BIT_COUNTERS>() {
            Some(bits) => apply_bit_counters(bits, packed, sign_word),
            // Unreachable (counts is always SIGNATURE_LEN long), but a
            // slice-loop fallback keeps this total without panicking
            // machinery in the hot path.
            None => {
                for (j, counter) in self.counts[1..].iter_mut().enumerate() {
                    let bit_mask = low_u32(packed >> j & 1).wrapping_neg();
                    *counter = counter.wrapping_add_unsigned(bit_mask & sign_word);
                }
            }
        }
    }
}

/// The number of bit-location counters in a signature (one per key bit).
const BIT_COUNTERS: usize = SIGNATURE_LEN - 1;

/// The fixed-width inner kernel of [`SigMut::apply_with_fp`]: adds
/// `bit_j(packed) · sign` to all 64 bit-location counters.
///
/// Kept as a named kernel over `&mut [i32; 64]` so the loop shape the
/// vectorizer sees is a fixed-trip-count pass over a known-length
/// array. When this body was a slice loop (`counts[1..]`) inlined into
/// each call site, the per-update path vectorized but the batched
/// `update_chunk` copy compiled scalar — LLVM's vectorizer gave up on
/// the offset slice inside the larger surrounding loop nest, silently
/// inverting the batch-vs-scalar cost per bucket (DESIGN.md §13). The
/// array-typed kernel lowers to AVX-512 masked adds (the packed key is
/// the 64-lane predicate) in every inlining context.
#[inline]
fn apply_bit_counters(counters: &mut [i32; BIT_COUNTERS], packed: u64, sign_word: u32) {
    for (j, counter) in counters.iter_mut().enumerate() {
        let bit_mask = low_u32(packed >> j & 1).wrapping_neg();
        *counter = counter.wrapping_add_unsigned(bit_mask & sign_word);
    }
}

/// Lanes per fixed-width slab chunk in the wide merge/subtract and
/// is-zero kernels below: four cache lines of counters, eight of screen
/// sums. Like [`apply_bit_counters`], it gives the vectorizer a
/// fixed-trip-count body over a known-length array.
pub(crate) const SLAB_LANES: usize = 64;

/// Slabs shorter than this run the scalar twin of each wide kernel.
///
/// Measured cutoff in the PR 6 auto-select mould (DESIGN.md §16 has
/// the numbers): on dense slabs the two forms are within a few percent
/// at every length (LLVM already auto-vectorizes the fused scalar
/// loop), so the wide kernel's win is entirely the zero-chunk skip —
/// measured 2.4–4.3× on slabs ≥ 4 chunks with 7/8 zero chunks, but a
/// 5–11% loss under ~4 chunks where the per-chunk zero-probe
/// bookkeeping cannot amortize. Re-measured at 4-byte counters: the
/// dense loss under 4 chunks persists (3–19%), so the cutoff stays.
/// The screen-sum slab of a `r = 2, s = 128` level sits exactly at
/// this boundary; `tests/read_equivalence.rs` pins bit-identity on both
/// sides of it.
pub const SLAB_WIDE_MIN: usize = 256;

/// Generates one wide/scalar pair of element-wise slab kernels.
///
/// The wide form walks the slabs in [`SLAB_LANES`]-wide fixed-width
/// chunks (array-typed bodies via `first_chunk`, with a non-panicking
/// slice fallback exactly like [`SigMut::apply_with_fp`]) and skips
/// chunks whose source is entirely zero — wrapping add/sub of zero is
/// the identity, so the skip is bit-invisible, and on the sparse high
/// levels of a merge it avoids touching the destination line at all.
/// Slabs under [`SLAB_WIDE_MIN`] dispatch to the scalar twin, which is
/// also retained as the reference path for `tests/read_equivalence.rs`.
macro_rules! slab_kernels {
    ($(#[$meta:meta])* $wide:ident, $scalar:ident, $ty:ty, $op:ident) => {
        $(#[$meta])*
        #[inline]
        pub(crate) fn $wide(dst: &mut [$ty], src: &[$ty]) {
            debug_assert_eq!(dst.len(), src.len());
            if dst.len() < SLAB_WIDE_MIN {
                return $scalar(dst, src);
            }
            let mut dst_chunks = dst.chunks_exact_mut(SLAB_LANES);
            let mut src_chunks = src.chunks_exact(SLAB_LANES);
            for (d, s) in dst_chunks.by_ref().zip(src_chunks.by_ref()) {
                match (d.first_chunk_mut::<SLAB_LANES>(), s.first_chunk::<SLAB_LANES>()) {
                    (Some(d), Some(s)) => {
                        let mut any: $ty = 0;
                        for v in s {
                            any |= *v;
                        }
                        if any == 0 {
                            continue;
                        }
                        for j in 0..SLAB_LANES {
                            d[j] = d[j].$op(s[j]);
                        }
                    }
                    // Unreachable (`chunks_exact` yields exact-length
                    // slices), but a slice-loop fallback keeps this
                    // total without panicking machinery.
                    _ => {
                        for (a, b) in d.iter_mut().zip(s) {
                            *a = a.$op(*b);
                        }
                    }
                }
            }
            for (a, b) in dst_chunks.into_remainder().iter_mut().zip(src_chunks.remainder()) {
                *a = a.$op(*b);
            }
        }

        /// Scalar reference twin of the wide kernel above; the two are
        /// bit-identical on every input.
        #[inline]
        pub(crate) fn $scalar(dst: &mut [$ty], src: &[$ty]) {
            debug_assert_eq!(dst.len(), src.len());
            for (a, b) in dst.iter_mut().zip(src) {
                *a = a.$op(*b);
            }
        }
    };
}

slab_kernels!(
    /// Adds `src` into `dst` element-wise with wrapping arithmetic — the
    /// linear-pass half of level merging over whole counter slabs.
    merge_counter_slab,
    merge_counter_slab_scalar,
    i32,
    wrapping_add
);

slab_kernels!(
    /// Subtracts `src` from `dst` element-wise with wrapping arithmetic.
    subtract_counter_slab,
    subtract_counter_slab_scalar,
    i32,
    wrapping_sub
);

slab_kernels!(
    /// Adds `src` into `dst` element-wise — the screen-sum arrays merge
    /// by the same linearity argument as the counters.
    merge_sum_slab,
    merge_sum_slab_scalar,
    u64,
    wrapping_add
);

slab_kernels!(
    /// Subtracts `src` from `dst` element-wise (wrapping).
    subtract_sum_slab,
    subtract_sum_slab_scalar,
    u64,
    wrapping_sub
);

/// Generates a chunked all-zero scan over one slab type.
///
/// An OR-fold over each [`SLAB_LANES`]-wide chunk with a per-chunk
/// early exit: a plain `.iter().all(|&v| v == 0)` exits per *element*,
/// which defeats vectorization, while folding a whole chunk before
/// testing keeps the inner loop branch-free.
macro_rules! slab_is_zero {
    ($(#[$meta:meta])* $name:ident, $ty:ty) => {
        $(#[$meta])*
        #[inline]
        pub(crate) fn $name(slab: &[$ty]) -> bool {
            let mut chunks = slab.chunks_exact(SLAB_LANES);
            for chunk in chunks.by_ref() {
                let mut any: $ty = 0;
                match chunk.first_chunk::<SLAB_LANES>() {
                    Some(c) => {
                        for v in c {
                            any |= *v;
                        }
                    }
                    // Unreachable, kept total (see `slab_kernels!`).
                    None => {
                        for v in chunk {
                            any |= *v;
                        }
                    }
                }
                if any != 0 {
                    return false;
                }
            }
            chunks.remainder().iter().all(|&v| v == 0)
        }
    };
}

slab_is_zero!(
    /// Whether every counter in the slab is zero (chunked OR-fold).
    counter_slab_is_zero,
    i32
);

slab_is_zero!(
    /// Whether every screen sum in the slab is zero (chunked OR-fold).
    sum_slab_is_zero,
    u64
);

/// Generates the fused epoch-slide kernel over one slab type.
///
/// One pass over four equal-length slabs — cumulative `c`, epoch base
/// `b`, window accumulator `w`, and ring slot `s` (the expiring delta
/// on entry, the closing epoch's delta on exit) — computing per element
/// `d = c − b; w += d − s; b = c; s = d` with wrapping arithmetic, so
/// the result equals difference → merge → subtract → copy in any order.
/// [`SLAB_LANES`]-wide chunks where `c == b` and `s == 0` are skipped:
/// there `d = 0`, so no slab changes and no destination line is
/// written.
macro_rules! slide_kernel {
    ($(#[$meta:meta])* $name:ident, $ty:ty) => {
        $(#[$meta])*
        #[inline]
        pub(crate) fn $name(c: &[$ty], b: &mut [$ty], w: &mut [$ty], s: &mut [$ty]) {
            debug_assert!(c.len() == b.len() && c.len() == w.len() && c.len() == s.len());
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
                        let mut moved: $ty = 0;
                        for j in 0..SLAB_LANES {
                            moved |= (c[j] ^ b[j]) | s[j];
                        }
                        if moved == 0 {
                            continue;
                        }
                        for j in 0..SLAB_LANES {
                            lane(c[j], &mut b[j], &mut w[j], &mut s[j]);
                        }
                    }
                    // Unreachable, kept total (see `slab_kernels!`).
                    _ => lanes(c, b, w, s),
                }
            }
            lanes(
                c_chunks.remainder(),
                b_chunks.into_remainder(),
                w_chunks.into_remainder(),
                s_chunks.into_remainder(),
            );

            #[inline(always)]
            fn lane(c: $ty, b: &mut $ty, w: &mut $ty, s: &mut $ty) {
                let d = c.wrapping_sub(*b);
                *w = w.wrapping_add(d.wrapping_sub(*s));
                *b = c;
                *s = d;
            }

            fn lanes(c: &[$ty], b: &mut [$ty], w: &mut [$ty], s: &mut [$ty]) {
                for (((c, b), w), s) in c.iter().zip(b).zip(w).zip(s) {
                    lane(*c, b, w, s);
                }
            }
        }
    };
}

slide_kernel!(
    /// The fused epoch slide over counter slabs (and the totals mirror).
    slide_counter_slab,
    i32
);

slide_kernel!(
    /// The fused epoch slide over screen-sum slabs.
    slide_sum_slab,
    u64
);

/// A second-level hash bucket's counter array (the owned form).
///
/// The sketch's arena storage borrows buckets as `SigRef`/`SigMut`
/// instead of holding `CountSignature` values; this owned type remains
/// the public unit for standalone signatures and delegates all logic
/// to the same view implementations.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CountSignature {
    /// `counts[0]` is the total element count; `counts[1 + j]` is the
    /// bit-location count for bit `j` of the packed pair.
    counts: Vec<i32>,
    /// Wrapping key sum `Σ ±key` over every update applied so far.
    ///
    /// For any state this sum is determined by the bit-location counts
    /// (`key_sum ≡ Σ_j 2^j · counts[1+j] (mod 2^64)`); keeping it
    /// explicitly makes the singleton screen a constant-time read.
    key_sum: u64,
    /// Wrapping fingerprint sum `Σ ±fingerprint64(key)`. Unlike the key
    /// sum this is *not* determined by the bit counts, which is exactly
    /// what lets it reject colliding buckets that happen to satisfy the
    /// key-sum equation.
    fp_sum: u64,
}

impl CountSignature {
    /// Creates an all-zero (empty) signature.
    pub fn new() -> Self {
        Self {
            counts: vec![0; SIGNATURE_LEN],
            key_sum: 0,
            fp_sum: 0,
        }
    }

    /// A read view over this signature's own storage.
    #[inline]
    pub(crate) fn view(&self) -> SigRef<'_> {
        SigRef::new(&self.counts, self.key_sum, self.fp_sum)
    }

    /// A mutable view over this signature's own storage.
    #[inline]
    fn view_mut(&mut self) -> SigMut<'_> {
        SigMut::new(&mut self.counts, &mut self.key_sum, &mut self.fp_sum)
    }

    /// Applies an update for `key` to the signature: the total count and
    /// every bit-location count where `key` has a 1-bit move by ±1, and
    /// the two screening sums move by `±key` / `±fingerprint64(key)`.
    #[inline]
    pub fn apply(&mut self, key: FlowKey, delta: Delta) {
        self.apply_with_fp(key, delta, fingerprint64(key.packed()));
    }

    /// [`apply`](Self::apply) with the key's fingerprint precomputed —
    /// the sketch hands one fingerprint to all `r` tables of an update.
    #[inline]
    pub(crate) fn apply_with_fp(&mut self, key: FlowKey, delta: Delta, fp: u64) {
        self.view_mut().apply_with_fp(key, delta, fp);
    }

    /// The net total number of pairs mapped to this bucket.
    #[inline]
    pub fn net_total(&self) -> i64 {
        self.view().net_total()
    }

    /// Whether the signature is identically zero. The screen sums and
    /// the total give an `O(1)` fast reject before the 65-counter scan.
    pub fn is_zero(&self) -> bool {
        self.view().is_zero()
    }

    /// The screen class of the current state.
    #[cfg(test)]
    #[inline]
    pub(crate) fn screen_class(&self) -> ScreenClass {
        self.view().screen_class()
    }

    /// The screen class the signature *would* have after applying
    /// `(key, delta)` — see [`SigRef::screen_class_after`].
    #[cfg(test)]
    #[inline]
    pub(crate) fn screen_class_after(&self, key: FlowKey, delta: Delta, fp: u64) -> ScreenClass {
        self.view().screen_class_after(key, delta, fp)
    }

    /// Hot-path fast skip — see [`SigRef::skips_as_own_singleton`].
    #[cfg(test)]
    #[inline]
    pub(crate) fn skips_as_own_singleton(&self, key: FlowKey, delta: Delta, fp: u64) -> bool {
        self.view().skips_as_own_singleton(key, delta, fp)
    }

    /// Screened decode — see `SigRef::decode_fast`.
    #[inline]
    pub fn decode_fast(&self) -> BucketState {
        self.view().decode_fast()
    }

    /// Exhaustive decode — see `SigRef::decode`.
    #[inline]
    pub fn decode(&self) -> BucketState {
        self.view().decode()
    }

    /// Adds another signature counter-wise (used by sketch merging).
    /// The screening sums are linear too, so they merge by wrapping
    /// addition.
    pub fn merge_from(&mut self, other: &CountSignature) {
        merge_counter_slab(&mut self.counts, &other.counts);
        self.key_sum = self.key_sum.wrapping_add(other.key_sum);
        self.fp_sum = self.fp_sum.wrapping_add(other.fp_sum);
    }

    /// Subtracts another signature counter-wise (used by sketch
    /// differencing — counters are linear, so subtracting a snapshot
    /// leaves exactly the updates that arrived after it).
    pub fn subtract(&mut self, other: &CountSignature) {
        subtract_counter_slab(&mut self.counts, &other.counts);
        self.key_sum = self.key_sum.wrapping_sub(other.key_sum);
        self.fp_sum = self.fp_sum.wrapping_sub(other.fp_sum);
    }

    /// Heap bytes used by this signature's counters, including the two
    /// inline screening sums.
    pub fn heap_bytes(&self) -> usize {
        self.counts.len() * COUNTER_BYTES + 2 * SCREEN_SUM_BYTES
    }
}

impl Default for CountSignature {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DestAddr, SourceAddr};

    fn key(s: u32, d: u32) -> FlowKey {
        FlowKey::new(SourceAddr(s), DestAddr(d))
    }

    #[test]
    fn empty_signature_decodes_empty() {
        let sig = CountSignature::new();
        assert_eq!(sig.decode(), BucketState::Empty);
        assert!(sig.is_zero());
        assert_eq!(sig.net_total(), 0);
    }

    #[test]
    fn single_insert_decodes_to_the_key() {
        let mut sig = CountSignature::new();
        let k = key(0xAABB_CCDD, 0x1122_3344);
        sig.apply(k, Delta::Insert);
        assert_eq!(
            sig.decode(),
            BucketState::Singleton {
                key: k,
                net_count: 1
            }
        );
    }

    #[test]
    fn repeated_inserts_of_same_key_stay_singleton() {
        let mut sig = CountSignature::new();
        let k = key(5, 9);
        for _ in 0..7 {
            sig.apply(k, Delta::Insert);
        }
        assert_eq!(
            sig.decode(),
            BucketState::Singleton {
                key: k,
                net_count: 7
            }
        );
    }

    #[test]
    fn two_distinct_keys_collide() {
        let mut sig = CountSignature::new();
        sig.apply(key(1, 2), Delta::Insert);
        sig.apply(key(3, 4), Delta::Insert);
        assert_eq!(sig.decode(), BucketState::Collision);
    }

    #[test]
    fn two_keys_differing_in_one_bit_collide() {
        let mut sig = CountSignature::new();
        let a = FlowKey::from_packed(0b1000);
        let b = FlowKey::from_packed(0b1001);
        sig.apply(a, Delta::Insert);
        sig.apply(b, Delta::Insert);
        assert_eq!(sig.decode(), BucketState::Collision);
    }

    #[test]
    fn delete_reverts_insert_exactly() {
        let mut sig = CountSignature::new();
        let resident = key(10, 20);
        sig.apply(resident, Delta::Insert);
        let reference = sig.clone();

        let transient = key(77, 88);
        sig.apply(transient, Delta::Insert);
        assert_eq!(sig.decode(), BucketState::Collision);
        sig.apply(transient, Delta::Delete);
        assert_eq!(sig, reference, "signature must be impervious to deletes");
        assert_eq!(sig.decode().singleton_key(), Some(resident));
    }

    #[test]
    fn collision_resolves_back_to_singleton_after_delete() {
        let mut sig = CountSignature::new();
        let a = key(1, 1);
        let b = key(2, 2);
        sig.apply(a, Delta::Insert);
        sig.apply(b, Delta::Insert);
        sig.apply(a, Delta::Delete);
        assert_eq!(
            sig.decode(),
            BucketState::Singleton {
                key: b,
                net_count: 1
            }
        );
    }

    #[test]
    fn all_zero_key_is_a_valid_singleton() {
        // The pair (0.0.0.0 -> 0.0.0.0) packs to 0: total count is the
        // only evidence, and the decode must report it, not Empty.
        let mut sig = CountSignature::new();
        let zero = FlowKey::from_packed(0);
        sig.apply(zero, Delta::Insert);
        assert_eq!(
            sig.decode(),
            BucketState::Singleton {
                key: zero,
                net_count: 1
            }
        );
    }

    #[test]
    fn all_ones_key_roundtrips() {
        let mut sig = CountSignature::new();
        let k = FlowKey::from_packed(u64::MAX);
        sig.apply(k, Delta::Insert);
        assert_eq!(sig.decode().singleton_key(), Some(k));
    }

    #[test]
    fn ill_formed_negative_total_reports_collision() {
        let mut sig = CountSignature::new();
        sig.apply(key(1, 2), Delta::Delete);
        assert_eq!(sig.decode(), BucketState::Collision);
    }

    #[test]
    fn ill_formed_zero_total_nonzero_bits_reports_collision() {
        // Insert a, delete b (a != b): total 0 but bit residue remains.
        let mut sig = CountSignature::new();
        sig.apply(key(1, 2), Delta::Insert);
        sig.apply(key(3, 4), Delta::Delete);
        assert_eq!(sig.net_total(), 0);
        assert!(!sig.is_zero());
        assert_eq!(sig.decode(), BucketState::Collision);
    }

    #[test]
    fn zero_total_screen_residue_is_not_zero() {
        // The O(1) fast reject must not misreport a zero-total residue
        // state: insert a, delete b leaves total == 0 but both screen
        // sums nonzero, so the fast path answers `false` before the
        // bit-counter scan even runs.
        let mut sig = CountSignature::new();
        sig.apply(key(9, 9), Delta::Insert);
        sig.apply(key(8, 8), Delta::Delete);
        assert_eq!(sig.net_total(), 0);
        assert!(!sig.is_zero());
        // And a genuinely reverted signature is zero again.
        let mut clean = CountSignature::new();
        clean.apply(key(9, 9), Delta::Insert);
        clean.apply(key(9, 9), Delta::Delete);
        assert!(clean.is_zero());
    }

    #[test]
    fn merge_from_adds_counterwise() {
        let mut a = CountSignature::new();
        let mut b = CountSignature::new();
        let k = key(9, 9);
        a.apply(k, Delta::Insert);
        b.apply(k, Delta::Insert);
        a.merge_from(&b);
        assert_eq!(
            a.decode(),
            BucketState::Singleton {
                key: k,
                net_count: 2
            }
        );
    }

    #[test]
    fn merge_of_disjoint_singletons_is_collision() {
        let mut a = CountSignature::new();
        let mut b = CountSignature::new();
        a.apply(key(1, 2), Delta::Insert);
        b.apply(key(3, 4), Delta::Insert);
        a.merge_from(&b);
        assert_eq!(a.decode(), BucketState::Collision);
    }

    #[test]
    fn heap_bytes_is_65_counters_plus_screen() {
        // 65 four-byte paper counters + key sum + fingerprint sum.
        assert_eq!(CountSignature::new().heap_bytes(), 65 * 4 + 2 * 8);
    }

    /// Counters wrap at 2³² exactly as an `i64` counter wraps modulo
    /// 2³²: a bucket pushed past `i32::MAX` and brought back lands on
    /// its exact prior state, and the predicted screen class wraps
    /// where the update itself does.
    #[test]
    fn counters_wrap_linearly_at_the_i32_boundary() {
        let k = key(3, 5);
        let fp = dcs_hash::mix::fingerprint64(k.packed());
        let mut parked = CountSignature::new();
        parked.apply(k, Delta::Insert);
        // Park the total and k's bit counters one step below the wrap.
        for c in parked.counts.iter_mut().filter(|c| **c == 1) {
            *c = i32::MAX;
        }
        let mut sig = parked.clone();
        let predicted = sig.screen_class_after(k, Delta::Insert, fp);
        sig.apply(k, Delta::Insert);
        assert_eq!(sig.counts[0], i32::MIN);
        assert_eq!(sig.net_total(), i64::from(i32::MIN));
        assert_eq!(predicted, sig.screen_class());
        sig.apply(k, Delta::Delete);
        assert_eq!(sig.counts, parked.counts);
    }

    #[test]
    fn decode_fast_matches_decode_on_well_formed_streams() {
        use rand::prelude::*;

        // Random well-formed op sequences over a small key pool: every
        // delete removes a key currently present, so per-key net counts
        // never go negative. decode_fast must agree with decode at every
        // prefix.
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool: Vec<FlowKey> = (0..6)
                .map(|i| key(rng.gen(), rng.gen::<u32>() ^ i))
                .collect();
            let mut sig = CountSignature::new();
            let mut live: Vec<FlowKey> = Vec::new();
            for _ in 0..400 {
                if !live.is_empty() && rng.gen_bool(0.45) {
                    let idx = rng.gen_range(0..live.len());
                    let k = live.swap_remove(idx);
                    sig.apply(k, Delta::Delete);
                } else {
                    let k = pool[rng.gen_range(0..pool.len())];
                    live.push(k);
                    sig.apply(k, Delta::Insert);
                }
                assert_eq!(sig.decode_fast(), sig.decode());
            }
        }
    }

    #[test]
    fn decode_fast_recovers_top_bits_for_even_totals() {
        // total = 4 = 2^2 → the key sum only pins the low 62 candidate
        // bits; the top 2 come from the bit counters. u64::MAX exercises
        // both of them being 1.
        let mut sig = CountSignature::new();
        let k = FlowKey::from_packed(u64::MAX);
        for _ in 0..4 {
            sig.apply(k, Delta::Insert);
        }
        assert_eq!(
            sig.decode_fast(),
            BucketState::Singleton {
                key: k,
                net_count: 4
            }
        );
    }

    #[test]
    fn screen_class_after_matches_post_apply_screen_class() {
        let ops = [
            (key(1, 2), Delta::Insert),
            (key(1, 2), Delta::Insert),
            (key(3, 4), Delta::Insert),
            (key(1, 2), Delta::Delete),
            (key(3, 4), Delta::Delete),
            (key(1, 2), Delta::Delete),
            (FlowKey::from_packed(u64::MAX), Delta::Insert),
            (FlowKey::from_packed(u64::MAX), Delta::Insert),
        ];
        let mut sig = CountSignature::new();
        for (k, d) in ops {
            let fp = dcs_hash::mix::fingerprint64(k.packed());
            let predicted = sig.screen_class_after(k, d, fp);
            sig.apply(k, d);
            assert_eq!(predicted, sig.screen_class());
        }
    }

    #[test]
    fn own_singleton_fast_skip_implies_candidate_pair() {
        // Positive case: a bucket owned by one key accepts repeats and
        // partial deletes via the fast skip, and the skip's claim —
        // both screen classes are Candidate(that key) — holds.
        let k = key(7, 9);
        let fp = dcs_hash::mix::fingerprint64(k.packed());
        let mut sig = CountSignature::new();
        for _ in 0..3 {
            sig.apply(k, Delta::Insert);
        }
        for delta in [Delta::Insert, Delta::Delete] {
            assert!(sig.skips_as_own_singleton(k, delta, fp));
            assert_eq!(sig.screen_class(), ScreenClass::Candidate(k.packed()));
            assert_eq!(
                sig.screen_class_after(k, delta, fp),
                ScreenClass::Candidate(k.packed())
            );
        }

        // A different key must not fast-skip (its sums don't match).
        let other = key(8, 9);
        let other_fp = dcs_hash::mix::fingerprint64(other.packed());
        assert!(!sig.skips_as_own_singleton(other, Delta::Insert, other_fp));

        // Deleting down to empty is a real transition — no skip.
        let mut one = CountSignature::new();
        one.apply(k, Delta::Insert);
        assert!(!one.skips_as_own_singleton(k, Delta::Delete, fp));

        // A colliding bucket never fast-skips.
        let mut collided = sig.clone();
        collided.apply(other, Delta::Insert);
        assert!(!collided.skips_as_own_singleton(k, Delta::Insert, fp));
        assert!(!collided.skips_as_own_singleton(other, Delta::Insert, other_fp));
    }

    #[test]
    fn own_singleton_fast_skip_agrees_with_classify_on_random_streams() {
        // Soundness invariant behind the hot-path skip: whenever
        // `skips_as_own_singleton` fires, the general classifier must
        // agree that both sides are Candidate(key) — on every prefix of
        // random well-formed streams, including high-bit keys that
        // exercise the top-byte counter checks.
        use rand::prelude::*;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool: Vec<FlowKey> = (0..4).map(|_| FlowKey::from_packed(rng.gen())).collect();
            let mut sig = CountSignature::new();
            let mut net: Vec<i64> = vec![0; pool.len()];
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
                let fp = dcs_hash::mix::fingerprint64(k.packed());
                if sig.skips_as_own_singleton(k, delta, fp) {
                    assert_eq!(sig.screen_class(), ScreenClass::Candidate(k.packed()));
                    assert_eq!(
                        sig.screen_class_after(k, delta, fp),
                        ScreenClass::Candidate(k.packed())
                    );
                }
                sig.apply(k, delta);
            }
        }
    }

    #[test]
    fn screening_sums_survive_merge_and_subtract() {
        let mut a = CountSignature::new();
        let mut b = CountSignature::new();
        a.apply(key(1, 2), Delta::Insert);
        b.apply(key(3, 4), Delta::Insert);
        b.apply(key(3, 4), Delta::Insert);

        let mut merged = a.clone();
        merged.merge_from(&b);
        let mut replay = CountSignature::new();
        replay.apply(key(1, 2), Delta::Insert);
        replay.apply(key(3, 4), Delta::Insert);
        replay.apply(key(3, 4), Delta::Insert);
        assert_eq!(merged, replay);

        merged.subtract(&a);
        assert_eq!(merged, b);
        assert_eq!(
            merged.decode_fast(),
            BucketState::Singleton {
                key: key(3, 4),
                net_count: 2
            }
        );
    }

    /// Deterministic patterned fill that exercises wrap boundaries,
    /// sign changes, and long all-zero stretches (the zero-skip path).
    fn patterned_i64(len: usize, salt: i64) -> Vec<i64> {
        let mut x = salt;
        (0..len)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                match i % 7 {
                    0 => 0,
                    1 => i64::MAX.wrapping_sub(x & 0xff),
                    2 => i64::MIN.wrapping_add(x & 0xff),
                    3 if i % 130 < 65 => 0,
                    _ => x,
                }
            })
            .collect()
    }

    /// Bit-preserving `i64 → u64` (the test patterns include negative
    /// values, which the audited widening helper rightly rejects).
    fn wrapped_u64(v: i64) -> u64 {
        u64::from_ne_bytes(v.to_ne_bytes())
    }

    /// The same patterns at counter width: the low 32 bits of each
    /// word, so the wrap boundaries land on `i32::MAX`/`i32::MIN`.
    fn patterned_counters(len: usize, salt: i64) -> Vec<i32> {
        patterned_i64(len, salt)
            .into_iter()
            .map(|v| i32::from_ne_bytes(low_u32(wrapped_u64(v)).to_ne_bytes()))
            .collect()
    }

    fn patterned_u64(len: usize, salt: i64) -> Vec<u64> {
        patterned_i64(len, salt)
            .into_iter()
            .map(wrapped_u64)
            .collect()
    }

    /// Lengths straddling every dispatch boundary of the wide kernels:
    /// empty, sub-chunk, exact chunks, chunk+remainder, the
    /// `SLAB_WIDE_MIN` cutoff ±1, and a multi-chunk slab.
    const KERNEL_LENS: &[usize] = &[
        0,
        1,
        SLAB_LANES - 1,
        SLAB_LANES,
        SLAB_LANES + 1,
        SLAB_WIDE_MIN - 1,
        SLAB_WIDE_MIN,
        SLAB_WIDE_MIN + 1,
        SLAB_WIDE_MIN + SLAB_LANES + 17,
        1009,
    ];

    #[test]
    fn wide_counter_kernels_match_scalar_twins() {
        for &len in KERNEL_LENS {
            let src = patterned_counters(len, 0x1e37_79b9_7f4a_7c15);
            let base = patterned_counters(len, 0x51b5_4a32_d192_ed03);
            for (wide, scalar) in [
                (
                    merge_counter_slab as fn(&mut [i32], &[i32]),
                    merge_counter_slab_scalar as fn(&mut [i32], &[i32]),
                ),
                (subtract_counter_slab, subtract_counter_slab_scalar),
            ] {
                let mut a = base.clone();
                let mut b = base.clone();
                wide(&mut a, &src);
                scalar(&mut b, &src);
                assert_eq!(a, b, "len {len}");
            }
        }
    }

    #[test]
    fn wide_sum_kernels_match_scalar_twins() {
        for &len in KERNEL_LENS {
            let src = patterned_u64(len, 0x1e37_79b9_7f4a_7c15);
            let base = patterned_u64(len, 0x51b5_4a32_d192_ed03);
            for (wide, scalar) in [
                (
                    merge_sum_slab as fn(&mut [u64], &[u64]),
                    merge_sum_slab_scalar as fn(&mut [u64], &[u64]),
                ),
                (subtract_sum_slab, subtract_sum_slab_scalar),
            ] {
                let mut a = base.clone();
                let mut b = base.clone();
                wide(&mut a, &src);
                scalar(&mut b, &src);
                assert_eq!(a, b, "len {len}");
            }
        }
    }

    #[test]
    fn zero_skip_source_chunks_leave_destination_untouched() {
        let len = SLAB_WIDE_MIN + SLAB_LANES;
        let src = vec![0; len];
        let base = patterned_counters(len, 0x2bcd_ef01_2345_6789);
        let mut merged = base.clone();
        merge_counter_slab(&mut merged, &src);
        assert_eq!(merged, base);
        let mut subtracted = base.clone();
        subtract_counter_slab(&mut subtracted, &src);
        assert_eq!(subtracted, base);
    }

    #[test]
    fn slab_is_zero_matches_elementwise_scan() {
        for &len in KERNEL_LENS {
            let zeros: Vec<i32> = vec![0; len];
            let unsigned_zeros = vec![0u64; len];
            assert!(counter_slab_is_zero(&zeros), "len {len}");
            assert!(sum_slab_is_zero(&unsigned_zeros), "len {len}");
            // A single nonzero element anywhere must be seen, including
            // in the remainder tail past the last full chunk.
            for hot in [0, len / 2, len.saturating_sub(1)] {
                if len == 0 {
                    continue;
                }
                let mut one = zeros.clone();
                one[hot] = 1;
                assert!(!counter_slab_is_zero(&one), "len {len} hot {hot}");
                let unsigned: Vec<u64> = one.iter().map(|&v| wrapped_u64(i64::from(v))).collect();
                assert!(!sum_slab_is_zero(&unsigned), "len {len} hot {hot}");
            }
        }
    }
}
