//! Space accounting — the §6.1 storage analysis as code.
//!
//! The paper compares its synopses against the "naive, brute-force
//! scheme" that stores every distinct source-destination pair plus a
//! frequency count (12 bytes per pair in the paper's 4-byte-counter
//! accounting). These helpers reproduce that comparison for arbitrary
//! `U`, and are what the `table_space` bench binary prints.

use crate::config::SketchConfig;

/// A storage breakdown for one synopsis, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceReport {
    /// Bytes in count-signature counter slabs (each allocated level
    /// holds its `r·s` signatures in three flat arrays).
    pub counter_bytes: usize,
    /// Bytes in tracking structures (singleton sets + heaps); zero for
    /// a basic sketch.
    pub tracking_bytes: usize,
}

impl SpaceReport {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.counter_bytes + self.tracking_bytes
    }
}

/// Bytes the paper's brute-force scheme needs for `u` distinct pairs:
/// source (4) + destination (4) + frequency count (4) per pair.
pub fn brute_force_bytes(u: u64) -> u64 {
    u * 12
}

/// Predicted counter bytes for a sketch over `u` distinct pairs:
/// `⌈log₂ u⌉ + 1` non-empty levels (the geometric hash leaves deeper
/// levels empty with high probability) × `r·s` signatures ×
/// [`SketchConfig::signature_bytes`] (the paper's 65 four-byte counters
/// plus the 4-byte totals mirror of the wide screen pass, DESIGN.md
/// §16, plus the two 8-byte singleton-screen sums: 280 bytes).
///
/// This is the formula behind the paper's "23 non-empty first-level
/// buckets at `U = 8·10⁶` ⇒ ≈2.3 MB" calculation; the mirror and the
/// screen sums put ours at ≈2.47 MB.
pub fn predicted_sketch_bytes(config: &SketchConfig, u: u64) -> u64 {
    // Bit length of u: pairs spread over levels 0..⌈log₂ U⌉ with high
    // probability (deeper levels expect < 1 pair).
    let levels = if u == 0 {
        0
    } else {
        u64::from(64 - u.leading_zeros())
    };
    let levels = levels.min(u64::from(config.max_levels()));
    levels * dcs_hash::cast::u64_from_usize(config.level_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_matches_paper_at_8m() {
        // §6.1: U = 8·10⁶ ⇒ ≈96 MB.
        assert_eq!(brute_force_bytes(8_000_000), 96_000_000);
    }

    #[test]
    fn predicted_bytes_match_paper_level_count() {
        // §6.1: ≈23 non-empty levels at U = 8·10⁶ (2^23 ≈ 8.4M). With
        // the paper's r = 3, s = 128 and 280 bytes per bucket (65
        // four-byte counters + the 4-byte totals mirror + two 8-byte
        // screening sums): 23·3·128 buckets.
        let config = SketchConfig::paper_default();
        let bytes = predicted_sketch_bytes(&config, 8_000_000);
        let levels = bytes / config.level_bytes() as u64;
        assert_eq!(levels, 23);
        // 23 × 3 × 128 × 280 ≈ 2.47 MB (2.3 MB in the paper's
        // 65-counter accounting).
        assert_eq!(bytes, 23 * 3 * 128 * 280);
    }

    #[test]
    fn predicted_bytes_grow_logarithmically() {
        let config = SketchConfig::paper_default();
        let at_8m = predicted_sketch_bytes(&config, 8_000_000);
        let at_1b = predicted_sketch_bytes(&config, 1_000_000_000);
        // §6.1: growing U from 8·10⁶ to 10⁹ grows the sketch by ≈30/23
        // while brute force grows 125×.
        let ratio = at_1b as f64 / at_8m as f64;
        assert!((1.2..1.4).contains(&ratio), "ratio = {ratio}");
        assert_eq!(
            brute_force_bytes(1_000_000_000) / brute_force_bytes(8_000_000),
            125
        );
    }

    #[test]
    fn zero_pairs_need_no_space() {
        let config = SketchConfig::paper_default();
        assert_eq!(predicted_sketch_bytes(&config, 0), 0);
        assert_eq!(brute_force_bytes(0), 0);
    }

    #[test]
    fn report_totals() {
        let r = SpaceReport {
            counter_bytes: 100,
            tracking_bytes: 50,
        };
        assert_eq!(r.total(), 150);
    }
}
