//! Space accounting — the §6.1 storage analysis as code.
//!
//! The paper compares its synopses against the "naive, brute-force
//! scheme" that stores every distinct source-destination pair plus a
//! frequency count (12 bytes per pair in the paper's 4-byte-counter
//! accounting). These helpers reproduce that comparison for arbitrary
//! `U`, and are what the `table_space` bench binary prints.

use crate::config::{SketchConfig, KEY_BITS};
use dcs_hash::cast::{u64_from_usize, usize_from_u32};

/// Bytes of one bucket in the paper's §6.1 accounting: `2·log m + 1 =
/// 65` four-byte counters. The sketch stores 28 (see
/// [`SketchConfig::signature_bytes`]); Table 2's formula keeps 260.
pub const PAPER_SIGNATURE_BYTES: usize = (usize_from_u32(KEY_BITS) + 1) * 4;

/// A storage breakdown for one synopsis, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceReport {
    /// Bytes in count-signature slabs (each allocated level holds its
    /// `r·s` signatures in four flat arrays).
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

/// The number of non-empty levels predicted for `u` distinct pairs:
/// `⌈log₂ u⌉ + 1`, since the geometric hash leaves deeper levels empty
/// with high probability (they expect < 1 pair), capped at
/// `max_levels`.
fn predicted_levels(config: &SketchConfig, u: u64) -> u64 {
    let levels = if u == 0 {
        0
    } else {
        u64::from(64 - u.leading_zeros())
    };
    levels.min(u64::from(config.max_levels()))
}

/// Predicted counter bytes for a sketch over `u` distinct pairs:
/// the predicted non-empty levels × `r·s` signatures ×
/// [`SketchConfig::signature_bytes`] (28 bytes: a 4-byte total and
/// three 8-byte sums). At `U = 8·10⁶` that is ≈0.25 MB.
pub fn predicted_sketch_bytes(config: &SketchConfig, u: u64) -> u64 {
    predicted_levels(config, u) * u64_from_usize(config.level_bytes())
}

/// The same prediction in the paper's §6.1 accounting, with
/// [`PAPER_SIGNATURE_BYTES`] per bucket: the formula behind "23
/// non-empty first-level buckets at `U = 8·10⁶` ⇒ ≈2.3 MB".
pub fn paper_sketch_bytes(config: &SketchConfig, u: u64) -> u64 {
    let buckets = config.num_tables() * config.buckets_per_table();
    predicted_levels(config, u) * u64_from_usize(buckets * PAPER_SIGNATURE_BYTES)
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
        // §6.1: ≈23 non-empty levels at U = 8·10⁶ (2^23 ≈ 8.4M), with
        // the paper's r = 3, s = 128: 23·3·128 buckets, at 28 bytes
        // each here and 65 four-byte counters each in the paper.
        let config = SketchConfig::paper_default();
        let bytes = predicted_sketch_bytes(&config, 8_000_000);
        let levels = bytes / config.level_bytes() as u64;
        assert_eq!(levels, 23);
        assert_eq!(bytes, 23 * 3 * 128 * 28);
        // 23 × 3 × 128 × 260 ≈ 2.3 MB, the paper's figure.
        assert_eq!(PAPER_SIGNATURE_BYTES, 260);
        assert_eq!(paper_sketch_bytes(&config, 8_000_000), 23 * 3 * 128 * 260);
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
