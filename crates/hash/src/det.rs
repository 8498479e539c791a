//! Deterministic hash maps and sets for sketch bookkeeping.
//!
//! `std::collections::HashMap` with the default `RandomState` hasher is
//! seeded per process, so its iteration order changes from run to run.
//! The sketch's guarantees are *bit-identical* — merged sketches must
//! equal the union-stream sketch exactly, and the screened tracking path
//! must reproduce the unscreened one byte for byte — so any iteration
//! order leaking into results (sample rebuilds, invariant sweeps,
//! report ordering) is a reproducibility hazard. The repo-native linter
//! (lint L4) therefore forbids default-hashed maps in `crates/core` and
//! `crates/hash`; this module provides the sanctioned replacement: the
//! same `std` tables behind a fixed-seed [`Mix13State`] built on
//! [`stafford_mix13`], making every map identical across runs and
//! platforms while keeping O(1) hot-path lookups.
//!
//! This file is the single linter-exempt location allowed to name the
//! raw `std` table types.
//!
//! # Examples
//!
//! ```
//! use dcs_hash::det::DetHashMap;
//!
//! let mut samples: DetHashMap<u64, u32> = DetHashMap::default();
//! samples.insert(7, 1);
//! assert_eq!(samples.get(&7), Some(&1));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use crate::mix::stafford_mix13;

/// A `HashMap` with a fixed, process-independent hash state.
pub type DetHashMap<K, V> = HashMap<K, V, Mix13State>;

/// A `HashSet` with a fixed, process-independent hash state.
pub type DetHashSet<T> = HashSet<T, Mix13State>;

/// Fixed-seed [`BuildHasher`] on the Stafford mix13 finalizer.
///
/// The seed is an arbitrary odd constant (the golden-ratio word also
/// used by SplitMix64), the same in every process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix13State {
    seed: u64,
}

impl Mix13State {
    /// A state whose hash family is derived from `seed`.
    fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for Mix13State {
    fn default() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }
}

impl BuildHasher for Mix13State {
    type Hasher = Mix13Hasher;

    fn build_hasher(&self) -> Mix13Hasher {
        Mix13Hasher { state: self.seed }
    }
}

/// Streaming hasher folding each written word through [`stafford_mix13`].
///
/// Keys in this workspace are fixed-width integers (packed flow keys,
/// group numbers), so the per-word path is the hot one; the byte-slice
/// path exists for completeness and processes little-endian 8-byte
/// chunks.
#[derive(Debug, Clone)]
pub struct Mix13Hasher {
    state: u64,
}

impl Mix13Hasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = stafford_mix13(self.state ^ word);
    }
}

impl Hasher for Mix13Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        stafford_mix13(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Tag the tail with its length so "ab" and "ab\0" differ.
            let tag = crate::cast::u64_from_usize(rest.len()) << 56;
            self.fold(u64::from_le_bytes(word) ^ tag);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(low_half(v));
        self.fold(high_half(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(crate::cast::u64_from_usize(v));
    }
}

#[inline]
fn low_half(v: u128) -> u64 {
    u64::try_from(v & u128::from(u64::MAX)).unwrap_or(0)
}

#[inline]
fn high_half(v: u128) -> u64 {
    low_half(v >> 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(state: &Mix13State, value: &T) -> u64 {
        state.hash_one(value)
    }

    #[test]
    fn same_key_same_hash_across_builders() {
        let a = Mix13State::default();
        let b = Mix13State::default();
        assert_eq!(hash_of(&a, &42u64), hash_of(&b, &42u64));
        assert_eq!(hash_of(&a, &"flow"), hash_of(&b, &"flow"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Mix13State::with_seed(1);
        let b = Mix13State::with_seed(2);
        assert_ne!(hash_of(&a, &42u64), hash_of(&b, &42u64));
    }

    #[test]
    fn tail_length_disambiguates_byte_strings() {
        let s = Mix13State::default();
        assert_ne!(
            hash_of(&s, b"ab".as_slice()),
            hash_of(&s, b"ab\0".as_slice())
        );
    }

    #[test]
    fn map_iteration_is_stable_for_fixed_contents() {
        let build = || {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            for i in 0..1000 {
                m.insert(i * 7919, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn set_basic_operations() {
        let mut s: DetHashSet<u32> = DetHashSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(&3));
    }
}
