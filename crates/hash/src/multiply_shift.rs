//! Carter–Wegman style multiply-shift hashing.
//!
//! Dietzfelbinger's multiply-shift scheme `h(x) = (a·x + b) mod 2^64`
//! (taking high-order bits) is strongly universal (pairwise independent)
//! when `a, b` are drawn uniformly — exactly the independence the paper
//! assumes for the second-level hash functions `g_j`, whose collision
//! analysis (Lemma 4.1) only needs pairwise independence.

use crate::cast;
use crate::mix::mix64;

/// A pairwise-independent multiply-shift hash over `u64` keys.
///
/// The multiplier is forced odd so the map `x ↦ a·x + b (mod 2^64)` is a
/// bijection, preserving distinctness of keys before range reduction.
///
/// # Examples
///
/// ```
/// use dcs_hash::MultiplyShiftHash;
///
/// let g = MultiplyShiftHash::new(3);
/// let bucket = g.hash_to_range(0xdeadbeef, 128);
/// assert!(bucket < 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiplyShiftHash {
    multiplier: u64,
    addend: u64,
}

impl MultiplyShiftHash {
    /// Creates a hash function whose `(a, b)` parameters are derived
    /// deterministically from `seed`.
    pub fn new(seed: u64) -> Self {
        // `| 1` keeps the multiplier odd (invertible mod 2^64).
        let multiplier = mix64(seed, 0x5851_f42d_4c95_7f2d) | 1;
        let addend = mix64(seed, 0x1405_7b7e_f767_814f);
        Self { multiplier, addend }
    }

    /// Hashes `key` to a 64-bit value.
    #[inline]
    pub fn hash(&self, key: u64) -> u64 {
        // Finish with a mix so *all* output bits (not only high ones)
        // pass through an avalanche — the classic multiply-shift only
        // guarantees quality in the high bits.
        mix64(
            key.wrapping_mul(self.multiplier).wrapping_add(self.addend),
            self.multiplier,
        )
    }

    /// Hashes `key` into the range `[0, range)`.
    ///
    /// Uses Lemire's multiply-high reduction, which preserves uniformity
    /// (up to negligible bias for ranges ≪ 2⁶⁴) without a modulo.
    ///
    /// # Panics
    ///
    /// Panics if `range` is zero.
    #[inline]
    pub fn hash_to_range(&self, key: u64, range: usize) -> usize {
        cast::lemire_index(self.hash(key), range)
    }

    /// Hashes every key into `[0, range)`, writing
    /// `out[i] = self.hash_to_range(keys[i], range)` (widened to `u64`
    /// so callers can stripe the results through a homogeneous scratch
    /// slab).
    ///
    /// The batched form used by chunked sketch updates: one tight loop
    /// whose hash + Lemire-reduction body can unroll across keys.
    ///
    /// For ranges below `2³²` (every realistic table size) the Lemire
    /// reduction runs as [`cast::lemire_index_narrow`] — an exact
    /// half-word decomposition of the 128-bit product whose 32×32→64
    /// multiplies the auto-vectorizer can lower to `vpmuludq`, unlike
    /// the full 64×64→high-64 multiply, which has no vector form.
    /// Identical output to [`hash_to_range`](Self::hash_to_range) for
    /// every key, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or if `range` is zero.
    #[inline]
    pub fn hash_to_range_fill(&self, keys: &[u64], range: usize, out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "hash_to_range_fill length mismatch");
        if let Ok(narrow) = u32::try_from(cast::u64_from_usize(range)) {
            for (o, &k) in out.iter_mut().zip(keys) {
                *o = cast::u64_from_usize(cast::lemire_index_narrow(self.hash(k), narrow));
            }
        } else {
            for (o, &k) in out.iter_mut().zip(keys) {
                *o = cast::u64_from_usize(cast::lemire_index(self.hash(k), range));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_seed() {
        let a = MultiplyShiftHash::new(5);
        let b = MultiplyShiftHash::new(5);
        assert_eq!(a, b);
        assert_eq!(a.hash(77), b.hash(77));
    }

    #[test]
    fn different_seeds_differ() {
        let a = MultiplyShiftHash::new(5);
        let b = MultiplyShiftHash::new(6);
        assert_ne!(a.hash(77), b.hash(77));
    }

    #[test]
    fn injective_before_range_reduction() {
        let h = MultiplyShiftHash::new(11);
        let out: HashSet<u64> = (0..50_000u64).map(|k| h.hash(k)).collect();
        assert_eq!(out.len(), 50_000);
    }

    #[test]
    fn collision_rate_near_pairwise_independent_bound() {
        // For s buckets and n keys, expected colliding pairs ≈ C(n,2)/s.
        let s = 256usize;
        let n = 2048u64;
        let h = MultiplyShiftHash::new(21);
        let mut buckets = vec![0u32; s];
        for k in 0..n {
            buckets[h.hash_to_range(mix64(k, 9), s)] += 1;
        }
        let colliding_pairs: u64 = buckets
            .iter()
            .map(|&c| u64::from(c) * u64::from(c.saturating_sub(1)) / 2)
            .sum();
        let expected = n * (n - 1) / 2 / s as u64;
        assert!(
            colliding_pairs < expected * 2,
            "colliding pairs {colliding_pairs} vs expected {expected}"
        );
    }
}
