//! Deterministic derivation of independent seeds.

use crate::mix::derive_seed;

/// A deterministic stream of decorrelated 64-bit seeds.
///
/// A sketch needs one seed per hash function (`1` first-level geometric
/// hash plus `r` second-level bucket hashes). Deriving them all from a
/// single root seed keeps construction reproducible — two sketches built
/// with the same root seed are *mergeable* because their hash functions
/// coincide — while the mixing in [`derive_seed`] keeps the children
/// statistically independent.
///
/// # Examples
///
/// ```
/// use dcs_hash::seed::SeedSequence;
///
/// let mut a = SeedSequence::new(1);
/// let mut b = SeedSequence::new(1);
/// assert_eq!(a.next_seed(), b.next_seed()); // reproducible
/// assert_ne!(a.next_seed(), a.next_seed()); // but a stream, not a constant
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeedSequence {
    root: u64,
    index: u64,
}

impl SeedSequence {
    /// Creates a seed sequence rooted at `root`.
    pub fn new(root: u64) -> Self {
        Self { root, index: 0 }
    }

    /// Returns the next seed in the stream.
    pub fn next_seed(&mut self) -> u64 {
        let s = derive_seed(self.root, self.index);
        self.index += 1;
        s
    }

    /// Returns the root seed this sequence was created with.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Returns how many seeds have been drawn so far.
    pub fn drawn(&self) -> u64 {
        self.index
    }
}

impl Default for SeedSequence {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_from_different_roots_diverge() {
        let mut a = SeedSequence::new(1);
        let mut b = SeedSequence::new(2);
        let sa: Vec<u64> = (0..10).map(|_| a.next_seed()).collect();
        let sb: Vec<u64> = (0..10).map(|_| b.next_seed()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn seeds_within_stream_are_unique() {
        let mut s = SeedSequence::new(99);
        let drawn: HashSet<u64> = (0..10_000).map(|_| s.next_seed()).collect();
        assert_eq!(drawn.len(), 10_000);
        assert_eq!(s.drawn(), 10_000);
    }

    #[test]
    fn default_matches_root_zero() {
        let mut d = SeedSequence::default();
        let mut z = SeedSequence::new(0);
        assert_eq!(d.next_seed(), z.next_seed());
        assert_eq!(d.root(), 0);
    }
}
