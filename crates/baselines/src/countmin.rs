//! Count-Min sketch for volume (multiplicity) counting.
//!
//! The workhorse of volume-based heavy-hitter detection: `d` rows of `w`
//! counters, point queries answered by the row minimum, over-estimating
//! by at most `ε‖f‖₁` with probability `1 − δ` for `w = ⌈e/ε⌉`,
//! `d = ⌈ln(1/δ)⌉`. In this repository it plays the Estan–Varghese
//! "large flow" role: it counts *packets*, so a SYN flood of
//! single-packet half-open flows barely registers, while a legitimate
//! flash crowd moving real data looks enormous — the confusion the
//! paper's distinct-source metric resolves.

use dcs_hash::{MultiplyShiftHash, SeedSequence};

/// A Count-Min sketch over `u64` keys with `i64` counts.
///
/// Supports signed updates (volume can be decremented), but note that
/// unlike the Distinct-Count Sketch this tracks *multiplicity*, not
/// distinct counts.
///
/// # Examples
///
/// ```
/// use dcs_baselines::CountMinSketch;
///
/// let mut cm = CountMinSketch::new(4, 1024, 7);
/// for _ in 0..500 {
///     cm.add(42, 1);
/// }
/// assert!(cm.query(42) >= 500);
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: Vec<Vec<i64>>,
    hashes: Vec<MultiplyShiftHash>,
    width: usize,
    total: i64,
}

impl CountMinSketch {
    /// Creates a sketch with `depth` rows of `width` counters.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `width` is zero.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth > 0, "depth must be positive");
        assert!(width > 0, "width must be positive");
        let mut seeds = SeedSequence::new(seed);
        Self {
            rows: vec![vec![0; width]; depth],
            hashes: (0..depth)
                .map(|_| MultiplyShiftHash::new(seeds.next_seed()))
                .collect(),
            width,
            total: 0,
        }
    }

    /// Creates a sketch meeting the `(ε, δ)` guarantee
    /// (`w = ⌈e/ε⌉`, `d = ⌈ln(1/δ)⌉`).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` or `delta` is outside `(0, 1)`.
    pub fn with_guarantees(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(depth, width, seed)
    }

    /// Adds `count` (may be negative) to `key`.
    pub fn add(&mut self, key: u64, count: i64) {
        for (row, hash) in self.rows.iter_mut().zip(&self.hashes) {
            row[hash.hash_to_range(key, self.width)] += count;
        }
        self.total += count;
    }

    /// Point query: an upper bound on `key`'s total count (for
    /// non-negative streams).
    pub fn query(&self, key: u64) -> i64 {
        // `new` asserts depth > 0, so the minimum always exists; the
        // fallback is unreachable.
        self.rows
            .iter()
            .zip(&self.hashes)
            .map(|(row, hash)| row[hash.hash_to_range(key, self.width)])
            .min()
            .unwrap_or(0)
    }

    /// The total count across all updates (`‖f‖₁` for insert-only
    /// streams).
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Merges a compatible sketch (same shape and seed-derived hashes).
    ///
    /// # Panics
    ///
    /// Panics if shapes or hash functions differ.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "width mismatch");
        assert_eq!(self.rows.len(), other.rows.len(), "depth mismatch");
        assert_eq!(self.hashes, other.hashes, "hash mismatch");
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.total += other.total;
    }

    /// Heap bytes used by the counter rows.
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() * self.width * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_never_underestimates() {
        let mut cm = CountMinSketch::new(4, 256, 1);
        for key in 0..1000u64 {
            cm.add(key, i64::from((key % 10) as i32) + 1);
        }
        for key in 0..1000u64 {
            let truth = i64::from((key % 10) as i32) + 1;
            assert!(cm.query(key) >= truth, "key {key}");
        }
    }

    #[test]
    fn overestimate_is_bounded_by_guarantee() {
        let mut cm = CountMinSketch::with_guarantees(0.01, 0.01, 2);
        let n = 10_000u64;
        for key in 0..n {
            cm.add(key, 1);
        }
        // ε‖f‖₁ = 0.01 * 10_000 = 100; check a sample of keys.
        let mut violations = 0;
        for key in 0..100u64 {
            if cm.query(key) > 1 + 100 {
                violations += 1;
            }
        }
        assert!(violations <= 2, "violations = {violations}");
    }

    #[test]
    fn signed_updates_cancel() {
        let mut cm = CountMinSketch::new(3, 64, 3);
        cm.add(5, 10);
        cm.add(5, -10);
        assert_eq!(cm.total(), 0);
        assert!(cm.query(5) >= 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = CountMinSketch::new(3, 64, 4);
        let mut b = CountMinSketch::new(3, 64, 4);
        a.add(9, 5);
        b.add(9, 7);
        a.merge_from(&b);
        assert!(a.query(9) >= 12);
        assert_eq!(a.total(), 12);
    }

    #[test]
    #[should_panic(expected = "hash mismatch")]
    fn merge_rejects_different_seeds() {
        let mut a = CountMinSketch::new(3, 64, 1);
        let b = CountMinSketch::new(3, 64, 2);
        a.merge_from(&b);
    }

    #[test]
    fn guarantee_constructor_shapes() {
        let cm = CountMinSketch::with_guarantees(0.1, 0.05, 1);
        assert_eq!(cm.heap_bytes(), 3 * 28 * 8); // d=⌈ln 20⌉=3, w=⌈e/0.1⌉=28
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_panics() {
        let _ = CountMinSketch::new(0, 10, 1);
    }
}
