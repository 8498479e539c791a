//! Simple tabulation hashing.
//!
//! Tabulation hashing (Zobrist / Pătraşcu–Thorup) splits a 64-bit key
//! into 8 bytes and XORs together one random table entry per byte. It is
//! 3-independent and, by the Pătraşcu–Thorup analysis, gives
//! Chernoff-style concentration for bucket loads — stronger behaviour
//! than its formal independence suggests, which makes it a good drop-in
//! for the sketch's second-level hash functions when the strongest
//! empirical guarantees are wanted at the price of 16 KiB of tables per
//! function.

use crate::cast::{lemire_index, lemire_index_narrow, u64_from_usize, usize_from_u64};
use crate::mix::mix64;
use crate::Hash64;

const BYTES: usize = 8;
const TABLE: usize = 256;

/// Keys processed per chunk of the batched
/// [`hash_to_range_fill`](Hash64::hash_to_range_fill) override.
///
/// Tabulation hashing is load-bound: each key costs 8 data-dependent
/// table lookups, and evaluating keys one at a time serializes on each
/// lookup's latency. Walking a chunk of 8 keys byte-position-major —
/// outer loop over the byte index (so the table slice is loop-invariant),
/// inner loop over the chunk's keys — keeps 8 independent loads in
/// flight per position, letting the gathers pipeline instead of
/// serialize.
const GATHER_KEYS: usize = 8;

/// A simple tabulation hash over `u64` keys.
///
/// # Examples
///
/// ```
/// use dcs_hash::{Hash64, TabulationHash};
///
/// let h = TabulationHash::new(42);
/// assert_eq!(h.hash(7), h.hash(7));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u64; TABLE]; BYTES]>,
    seed: u64,
}

impl TabulationHash {
    /// Creates a tabulation hash whose tables are filled deterministically
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut tables = Box::new([[0u64; TABLE]; BYTES]);
        for (byte_index, table) in tables.iter_mut().enumerate() {
            for (entry_index, entry) in table.iter_mut().enumerate() {
                *entry = mix64(
                    (u64_from_usize(byte_index) << 32) | u64_from_usize(entry_index),
                    seed ^ TABLE_SALT,
                );
            }
        }
        Self { tables, seed }
    }

    /// Returns the seed this function was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Salt decorrelating tabulation tables from other families sharing a seed.
const TABLE_SALT: u64 = 0x7ab7_ab7a_b7ab_7ab7;

impl Hash64 for TabulationHash {
    #[inline]
    fn hash(&self, key: u64) -> u64 {
        let bytes = key.to_le_bytes();
        let mut acc = 0u64;
        for (i, &b) in bytes.iter().enumerate() {
            acc ^= self.tables[i][usize::from(b)];
        }
        acc
    }

    /// Batched fill with interleaved table gathers (`GATHER_KEYS` keys
    /// per chunk).
    /// Bit-identical to the trait-default key-at-a-time loop — same
    /// lookups, same XOR accumulation, same Lemire reduction — only the
    /// evaluation order across keys changes, and XOR is commutative.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or if `range` is zero.
    #[inline]
    fn hash_to_range_fill(&self, keys: &[u64], range: usize, out: &mut [u64]) {
        assert_eq!(keys.len(), out.len(), "hash_to_range_fill length mismatch");
        let narrow = u32::try_from(u64_from_usize(range)).ok();
        let mut key_chunks = keys.chunks_exact(GATHER_KEYS);
        let mut out_chunks = out.chunks_exact_mut(GATHER_KEYS);
        for (ks, os) in key_chunks.by_ref().zip(out_chunks.by_ref()) {
            match (
                ks.first_chunk::<GATHER_KEYS>(),
                os.first_chunk_mut::<GATHER_KEYS>(),
            ) {
                (Some(ks), Some(os)) => {
                    let mut acc = [0u64; GATHER_KEYS];
                    for (byte, table) in self.tables.iter().enumerate() {
                        let shift = byte * 8;
                        for i in 0..GATHER_KEYS {
                            acc[i] ^= table[usize_from_u64((ks[i] >> shift) & 0xff)];
                        }
                    }
                    match narrow {
                        Some(n) => {
                            for i in 0..GATHER_KEYS {
                                os[i] = u64_from_usize(lemire_index_narrow(acc[i], n));
                            }
                        }
                        None => {
                            for i in 0..GATHER_KEYS {
                                os[i] = u64_from_usize(lemire_index(acc[i], range));
                            }
                        }
                    }
                }
                // Unreachable (`chunks_exact` yields exact-length
                // slices), but a scalar fallback keeps this total
                // without panicking machinery.
                _ => {
                    for (o, &k) in os.iter_mut().zip(ks) {
                        *o = u64_from_usize(self.hash_to_range(k, range));
                    }
                }
            }
        }
        for (o, &k) in out_chunks
            .into_remainder()
            .iter_mut()
            .zip(key_chunks.remainder())
        {
            *o = u64_from_usize(match narrow {
                Some(n) => lemire_index_narrow(self.hash(k), n),
                None => lemire_index(self.hash(k), range),
            });
        }
    }
}

impl std::fmt::Debug for TabulationHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabulationHash")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = TabulationHash::new(1);
        let b = TabulationHash::new(1);
        let c = TabulationHash::new(2);
        assert_eq!(a.hash(123), b.hash(123));
        assert_ne!(a.hash(123), c.hash(123));
        assert_eq!(a.seed(), 1);
    }

    #[test]
    fn no_collisions_on_small_sample() {
        let h = TabulationHash::new(3);
        let out: HashSet<u64> = (0..50_000u64).map(|k| h.hash(k)).collect();
        assert!(out.len() > 49_990, "len = {}", out.len());
    }

    #[test]
    fn bucket_loads_are_balanced() {
        let h = TabulationHash::new(8);
        let s = 64usize;
        let mut counts = vec![0u32; s];
        for k in 0..(64u64 * 128) {
            counts[h.hash_to_range(k, s)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 48 && c < 256), "{counts:?}");
    }

    #[test]
    fn debug_is_nonempty() {
        let h = TabulationHash::new(1);
        assert!(!format!("{h:?}").is_empty());
    }

    /// The gathered fill must agree with the scalar path at every
    /// chunk-boundary length (empty, sub-chunk, exact multiples,
    /// chunk ± 1) for both the narrow and the wide Lemire reduction.
    #[test]
    fn gathered_fill_matches_scalar_at_chunk_boundaries() {
        let h = TabulationHash::new(77);
        let keys: Vec<u64> = (0..41u64)
            .map(|k| k.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (k << 56))
            .collect();
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 40, 41] {
            for range in [1usize, 99, 128, 1 << 20, (1 << 35)] {
                let mut out = vec![0u64; len];
                h.hash_to_range_fill(&keys[..len], range, &mut out);
                for (i, (&k, &b)) in keys[..len].iter().zip(&out).enumerate() {
                    assert_eq!(
                        b,
                        u64_from_usize(h.hash_to_range(k, range)),
                        "len {len} range {range} index {i}"
                    );
                }
            }
        }
    }
}
