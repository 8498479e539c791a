//! Cascaded multigraph summary (Cormode–Muthukrishnan, PODS 2005 —
//! the paper's \[8\]).
//!
//! For multigraph degree estimation ("how many distinct neighbours does
//! node v have?"), \[8\] cascades two sketches: an outer Count-Min-style
//! array addressed by the *group* (destination), whose cells are
//! themselves *distinct counters* over the members (sources) that
//! landed there. A point query takes the minimum distinct estimate
//! across rows; hash collisions can only inflate it.
//!
//! The paper's §1 positions the Distinct-Count Sketch against this
//! construction on exactly one axis: cascaded summaries are
//! **insert-only** (their inner distinct counters are FM/HLL-style
//! registers that cannot forget), so they cannot implement the
//! half-open semantics that separates floods from flash crowds.

use dcs_hash::{MultiplyShiftHash, SeedSequence};

use crate::hyperloglog::HyperLogLog;

/// A cascaded Count-Min-of-HyperLogLog summary over `(group, member)`
/// pairs.
///
/// # Examples
///
/// ```
/// use dcs_baselines::cascaded::CascadedSummary;
///
/// let mut cs = CascadedSummary::new(3, 64, 8, 7);
/// for m in 0..5_000u64 {
///     cs.insert(42, m);
/// }
/// let est = cs.estimate(42);
/// assert!((3_000.0..8_000.0).contains(&est), "estimate = {est}");
/// ```
#[derive(Debug, Clone)]
pub struct CascadedSummary {
    /// `rows[d][w]`: inner distinct counter for outer cell `(d, w)`.
    rows: Vec<Vec<HyperLogLog>>,
    hashes: Vec<MultiplyShiftHash>,
    width: usize,
}

impl CascadedSummary {
    /// Creates a summary with `depth × width` outer cells, each holding
    /// a `2^precision`-register HyperLogLog.
    ///
    /// # Panics
    ///
    /// Panics if `depth` or `width` is zero, or `precision` is outside
    /// `4..=18`.
    pub fn new(depth: usize, width: usize, precision: u32, seed: u64) -> Self {
        assert!(depth > 0, "depth must be positive");
        assert!(width > 0, "width must be positive");
        let mut seeds = SeedSequence::new(seed);
        let hashes: Vec<MultiplyShiftHash> = (0..depth)
            .map(|_| MultiplyShiftHash::new(seeds.next_seed()))
            .collect();
        let inner_seed = seeds.next_seed();
        let rows = (0..depth)
            .map(|_| {
                (0..width)
                    .map(|_| HyperLogLog::new(precision, inner_seed))
                    .collect()
            })
            .collect();
        Self {
            rows,
            hashes,
            width,
        }
    }

    /// Records that `member` contacted `group` (idempotent per pair;
    /// **no deletion exists** — see the module docs).
    pub fn insert(&mut self, group: u32, member: u64) {
        for (row, hash) in self.rows.iter_mut().zip(&self.hashes) {
            let cell = hash.hash_to_range(u64::from(group), self.width);
            row[cell].add(member ^ (u64::from(group) << 32).rotate_left(7));
        }
    }

    /// Estimates the number of distinct members that contacted `group`
    /// (an overestimate under outer collisions: min across rows).
    pub fn estimate(&self, group: u32) -> f64 {
        self.rows
            .iter()
            .zip(&self.hashes)
            .map(|(row, hash)| row[hash.hash_to_range(u64::from(group), self.width)].estimate())
            .fold(f64::INFINITY, f64::min)
    }

    /// Heap bytes used by the inner counters.
    pub fn heap_bytes(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .map(HyperLogLog::heap_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_degree_within_hll_error() {
        let mut cs = CascadedSummary::new(4, 256, 10, 1);
        for m in 0..20_000u64 {
            cs.insert(7, m);
        }
        for m in 0..100u64 {
            cs.insert(8, m);
        }
        let heavy = cs.estimate(7);
        let light = cs.estimate(8);
        assert!(
            (heavy - 20_000.0).abs() / 20_000.0 < 0.15,
            "heavy = {heavy}"
        );
        assert!(light < 1_000.0, "light = {light}");
    }

    #[test]
    fn collisions_only_inflate() {
        // With a tiny outer width, groups collide; the min-across-rows
        // estimate for a light group may absorb a heavy group's mass
        // but never undercounts its own.
        let mut cs = CascadedSummary::new(2, 4, 8, 2);
        for m in 0..5_000u64 {
            cs.insert(1, m);
        }
        for m in 0..50u64 {
            cs.insert(2, m);
        }
        assert!(cs.estimate(2) >= 40.0);
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut cs = CascadedSummary::new(3, 64, 8, 3);
        for _ in 0..10 {
            for m in 0..500u64 {
                cs.insert(9, m);
            }
        }
        let est = cs.estimate(9);
        assert!((300.0..800.0).contains(&est), "estimate = {est}");
    }

    #[test]
    fn untouched_group_estimates_near_zero() {
        let mut cs = CascadedSummary::new(3, 1024, 8, 4);
        for m in 0..100u64 {
            cs.insert(1, m);
        }
        assert!(cs.estimate(999_999) < 10.0);
    }

    #[test]
    fn memory_is_fixed_by_shape() {
        let cs = CascadedSummary::new(3, 64, 8, 5);
        assert_eq!(cs.heap_bytes(), 3 * 64 * 256);
        let mut filled = cs.clone();
        for m in 0..10_000u64 {
            filled.insert(m as u32 % 100, m);
        }
        assert_eq!(filled.heap_bytes(), cs.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_panics() {
        let _ = CascadedSummary::new(0, 4, 8, 1);
    }
}
