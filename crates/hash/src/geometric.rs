//! The first-level geometric hash `h : [m²] → {0, …, L-1}`.
//!
//! Following Flajolet–Martin, the paper implements the exponentially
//! decaying level distribution `Pr[h(x) = l] = 2^-(l+1)` by uniformly
//! randomizing the key and taking the position of the least-significant
//! set bit (`LSB`): half of all mixed values have `LSB = 0`, a quarter
//! have `LSB = 1`, and so on. This module wraps that construction with an
//! explicit level cap so callers can size their level arrays.

use crate::cast::i32_from_u32;
use crate::mix::mix64;

/// The geometric (Flajolet–Martin) level hash used as a sketch's
/// first-level partitioner.
///
/// Maps a 64-bit key to a level `l ∈ [0, max_level)` with
/// `Pr[l] = 2^-(l+1)` (the all-zero mixed value and any level overflow are
/// clamped to `max_level - 1`).
///
/// # Examples
///
/// ```
/// use dcs_hash::geometric::GeometricLevelHash;
///
/// let h = GeometricLevelHash::new(42, 64);
/// assert!(h.level(12345) < 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeometricLevelHash {
    seed: u64,
    max_level: u32,
}

impl GeometricLevelHash {
    /// Creates a level hash with `max_level` levels (`0..max_level`).
    ///
    /// # Panics
    ///
    /// Panics if `max_level` is zero or exceeds 64.
    pub fn new(seed: u64, max_level: u32) -> Self {
        assert!(
            (1..=64).contains(&max_level),
            "max_level must be in 1..=64, got {max_level}"
        );
        Self { seed, max_level }
    }

    /// Returns the level of `key`: the LSB position of the mixed key,
    /// clamped to `max_level - 1`.
    #[inline]
    pub fn level(&self, key: u64) -> u32 {
        let mixed = mix64(key, self.seed);
        // trailing_zeros of 0 is 64; min() clamps both that case and any
        // genuine deep level into the top bucket.
        mixed.trailing_zeros().min(self.max_level - 1)
    }

    /// Computes [`level`](Self::level) for every key, writing
    /// `out[i] = self.level(keys[i])`.
    ///
    /// The batched form used by the sketch's chunked update path: the
    /// seed and clamp are loop-invariant and the body is a fixed mix /
    /// count-trailing-zeros / min sequence per key, a shape the
    /// auto-vectorizer handles across consecutive keys.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline]
    pub fn levels_fill(&self, keys: &[u64], out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "levels_fill length mismatch");
        let cap = self.max_level - 1;
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = u64::from(mix64(k, self.seed).trailing_zeros().min(cap));
        }
    }

    /// Returns the number of levels.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Returns the seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability that a uniformly random key lands on `level`.
    ///
    /// Exact for `level < max_level - 1`; the top level absorbs the
    /// remaining tail mass `2^-(max_level-1)`.
    pub fn level_probability(&self, level: u32) -> f64 {
        if level + 1 < self.max_level {
            (0.5f64).powi(i32_from_u32(level) + 1)
        } else if level + 1 == self.max_level {
            (0.5f64).powi(i32_from_u32(level))
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_follow_geometric_distribution() {
        let h = GeometricLevelHash::new(7, 64);
        let n = 1 << 18;
        let mut counts = vec![0u64; 64];
        for k in 0..n {
            counts[h.level(k) as usize] += 1;
        }
        // Level l expects n / 2^(l+1); check the first few within 10%.
        for (l, &count) in counts.iter().enumerate().take(6) {
            let expected = n as f64 / 2f64.powi(l as i32 + 1);
            let got = count as f64;
            assert!(
                (got - expected).abs() < expected * 0.1,
                "level {l}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn level_is_deterministic_and_capped() {
        let h = GeometricLevelHash::new(3, 8);
        for k in 0..10_000u64 {
            let l = h.level(k);
            assert_eq!(l, h.level(k));
            assert!(l < 8);
        }
    }

    #[test]
    fn levels_fill_matches_scalar() {
        let h = GeometricLevelHash::new(17, 16);
        let keys: Vec<u64> = (0..511u64).map(|k| k.wrapping_mul(0x2545_f491)).collect();
        let mut out = vec![0u64; keys.len()];
        h.levels_fill(&keys, &mut out);
        for (&k, &l) in keys.iter().zip(&out) {
            assert_eq!(l, u64::from(h.level(k)));
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let h = GeometricLevelHash::new(3, 16);
        let total: f64 = (0..16).map(|l| h.level_probability(l)).sum();
        assert!((total - 1.0).abs() < 1e-12, "total = {total}");
        assert_eq!(h.level_probability(16), 0.0);
    }

    #[test]
    #[should_panic(expected = "max_level")]
    fn zero_levels_panics() {
        let _ = GeometricLevelHash::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "max_level")]
    fn too_many_levels_panics() {
        let _ = GeometricLevelHash::new(1, 65);
    }

    #[test]
    fn accessors_roundtrip() {
        let h = GeometricLevelHash::new(11, 32);
        assert_eq!(h.seed(), 11);
        assert_eq!(h.max_level(), 32);
    }
}
