//! Seeded hash-function families for distinct-count sketches.
//!
//! The Distinct-Count Sketch of Ganguly et al. (ICDCS 2007) needs three
//! kinds of hashing, all of which this crate provides without external
//! dependencies:
//!
//! * **Strong 64-bit mixers** ([`mix`]) — invertible finalizers in the
//!   SplitMix64/Murmur3 style, used to randomize the `[m²]` domain of
//!   source-destination address pairs before any structured hashing is
//!   applied (the paper's "function `f` that randomizes values of `[m²]`").
//! * **Pairwise-independent bucket hashes** ([`multiply_shift`]) — the
//!   second-level hash functions `g_j : [m²] → [s]` that scatter pairs
//!   across the inner hash tables.
//! * **The geometric level hash** ([`geometric`]) — the first-level hash
//!   `h : [m²] → {0, …, Θ(log m)}` with `Pr[h(x) = l] = 2^-(l+1)`,
//!   implemented (as in Flajolet–Martin) as the position of the
//!   least-significant set bit of a uniformly mixed word.
//!
//! All families are deterministic functions of an explicit [`seed`], so
//! sketches are reproducible and mergeable: two sketches built from the
//! same [`seed::SeedSequence`] share identical hash functions and can be
//! combined bucket-wise.
//!
//! # Examples
//!
//! ```
//! use dcs_hash::geometric::GeometricLevelHash;
//! use dcs_hash::seed::SeedSequence;
//!
//! let mut seeds = SeedSequence::new(42);
//! let h = GeometricLevelHash::new(seeds.next_seed(), 64);
//! let level = h.level(0xdead_beef);
//! assert!(level < 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod det;
pub mod geometric;
pub mod mix;
pub mod multiply_shift;
pub mod seed;

pub use geometric::GeometricLevelHash;
pub use mix::mix64;
pub use multiply_shift::MultiplyShiftHash;
pub use seed::SeedSequence;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_to_range_is_in_range() {
        let h = MultiplyShiftHash::new(1);
        for key in 0..1000u64 {
            assert!(h.hash_to_range(key, 7) < 7);
            assert!(h.hash_to_range(key, 128) < 128);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn hash_to_range_zero_panics() {
        let h = MultiplyShiftHash::new(1);
        let _ = h.hash_to_range(1, 0);
    }

    #[test]
    fn hash_to_range_fill_matches_scalar_on_both_reductions() {
        // 99 and 128 take the narrow (u32) Lemire path, u32::MAX is its
        // last range, and 2³²+1 takes the wide u128 path.
        let keys: Vec<u64> = (0..300u64).map(|k| k.wrapping_mul(0xdead_beef)).collect();
        let mut out = vec![0u64; keys.len()];
        let h = MultiplyShiftHash::new(4);
        let wide = cast::usize_from_u64((1u64 << 32) + 1);
        for range in [99, 128, cast::usize_from_u32(u32::MAX), wide] {
            h.hash_to_range_fill(&keys, range, &mut out);
            for (&k, &b) in keys.iter().zip(&out) {
                assert_eq!(
                    b,
                    cast::u64_from_usize(h.hash_to_range(k, range)),
                    "range {range}"
                );
            }
        }
    }

    #[test]
    fn hash_to_range_spreads_over_buckets() {
        let h = MultiplyShiftHash::new(99);
        let s = 128usize;
        let mut counts = vec![0u32; s];
        for key in 0..(s as u64 * 64) {
            counts[h.hash_to_range(key, s)] += 1;
        }
        // Each bucket expects 64 keys; allow generous slack.
        assert!(counts.iter().all(|&c| c > 16 && c < 192), "{counts:?}");
    }
}
