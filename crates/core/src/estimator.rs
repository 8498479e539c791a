//! Shared estimation types and logic for `BaseTopk` / `TrackTopk`.
//!
//! Both estimators follow the same outline (Figs. 3 and 7): walk the
//! first-level buckets top-down accumulating the distinct sample until it
//! reaches the target size `(1+ε)·s/16`, then report the `k` most
//! frequent groups in the sample with frequencies scaled by the inverse
//! inclusion probability of the lowest level included.
//!
//! **Scaling note.** The paper's pseudocode decrements `b` after
//! ingesting level `b` and then scales by `2^b`, which taken literally is
//! a 2× under-scale: a sample drawn from levels `≥ B` includes each
//! distinct pair independently with probability `2^-B`
//! (`Σ_{l≥B} 2^-(l+1) = 2^-B`), so the unbiased scale factor is `2^B`
//! with `B` the *lowest level actually included*. We implement the
//! latter; `tests::scale_factor_is_inclusion_probability_inverse`
//! demonstrates the difference on exact counts.

use dcs_hash::cast::f64_from_u64;
use dcs_hash::det::DetHashMap;

use crate::types::FlowKey;
use crate::types::GroupBy;

/// One group (destination or source address, per the sketch's
/// [`GroupBy`]) with its estimated distinct-count frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopKEntry {
    /// The grouping address (destination for DDoS, source for scans).
    pub group: u32,
    /// The estimated frequency `f̂_v = 2^B · f_v^s`.
    pub estimated_frequency: u64,
    /// The group's raw occurrence frequency in the distinct sample.
    pub sample_frequency: u64,
}

impl TopKEntry {
    /// An approximate standard error for the frequency estimate.
    ///
    /// The sample count of a group with true frequency `f` at sampling
    /// rate `2^-B` is approximately `Poisson(f/2^B)`, so the scaled
    /// estimate's standard deviation is ≈ `2^B · √(f/2^B)`, estimated
    /// here with the observed sample count plugged in for its mean.
    /// Zero-count entries report an error of one scale unit.
    pub fn standard_error(&self, scale: u64) -> f64 {
        f64_from_u64(scale) * f64_from_u64(self.sample_frequency.max(1)).sqrt()
    }

    /// The relative standard error `σ/f̂ ≈ 1/√(sample count)`.
    pub fn relative_standard_error(&self) -> f64 {
        1.0 / f64_from_u64(self.sample_frequency.max(1)).sqrt()
    }
}

/// The result of a top-k estimation query.
///
/// Exposes the intermediate sampling state (level, sample size, scale)
/// alongside the entries so callers can assess estimate quality
/// (C-INTERMEDIATE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKEstimate {
    /// The approximate top-k groups, most frequent first. Ordering is
    /// deterministic: descending estimated frequency, ties broken by the
    /// larger group address.
    pub entries: Vec<TopKEntry>,
    /// Which end of the pair the groups are (destination or source).
    pub group_by: GroupBy,
    /// The lowest first-level bucket index included in the sample.
    pub sample_level: u32,
    /// The number of distinct pairs in the sample.
    pub sample_size: usize,
    /// The scale factor `2^sample_level` applied to sample frequencies.
    pub scale: u64,
}

impl TopKEstimate {
    /// Returns the estimated frequency for `group`, if it made the list.
    pub fn frequency_of(&self, group: u32) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.group == group)
            .map(|e| e.estimated_frequency)
    }

    /// Returns the groups in rank order.
    pub fn groups(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.group).collect()
    }

    /// Returns `(estimate, standard error)` for each entry in rank
    /// order — error bars for monitoring dashboards.
    pub fn with_error_bars(&self) -> Vec<(u32, u64, f64)> {
        self.entries
            .iter()
            .map(|e| (e.group, e.estimated_frequency, e.standard_error(self.scale)))
            .collect()
    }
}

impl std::fmt::Display for TopKEstimate {
    /// Renders a compact table: rank, group (as dotted quad), estimate,
    /// and the ±1σ Poisson error bar.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "top-{} by {} (sample {} @ level {}, scale {})",
            self.entries.len(),
            self.group_by,
            self.sample_size,
            self.sample_level,
            self.scale
        )?;
        for (rank, entry) in self.entries.iter().enumerate() {
            writeln!(
                f,
                "{:>3}. {:<15} ≈ {} ± {:.0}",
                rank + 1,
                std::net::Ipv4Addr::from(entry.group),
                entry.estimated_frequency,
                entry.standard_error(self.scale)
            )?;
        }
        Ok(())
    }
}

/// Aggregates a distinct sample of flow keys into per-group sample
/// frequencies.
pub(crate) fn group_frequencies<'a>(
    sample: impl IntoIterator<Item = &'a FlowKey>,
    group_by: GroupBy,
) -> DetHashMap<u32, u64> {
    let mut freqs: DetHashMap<u32, u64> = DetHashMap::default();
    for key in sample {
        *freqs.entry(group_by.group_of(*key)).or_insert(0) += 1;
    }
    freqs
}

/// Looks up a batch of point-query groups in pre-aggregated sample
/// frequencies and scales them — the tail of the batched
/// `estimate_group_frequencies` point query. Groups absent from the
/// sample estimate to zero, exactly as the one-at-a-time filter did.
pub(crate) fn frequencies_for_groups(
    freqs: &DetHashMap<u32, u64>,
    groups: &[u32],
    scale: u64,
) -> Vec<u64> {
    groups
        .iter()
        .map(|group| freqs.get(group).copied().unwrap_or(0) * scale)
        .collect()
}

/// Selects the top `k` groups from sample frequencies and scales them —
/// the tail of `BaseTopk` (Fig. 3, steps 8–9).
pub(crate) fn top_k_from_frequencies(
    freqs: &DetHashMap<u32, u64>,
    k: usize,
    group_by: GroupBy,
    sample_level: u32,
    sample_size: usize,
) -> TopKEstimate {
    let scale = 1u64 << sample_level;
    let mut ranked: Vec<(u64, u32)> = freqs.iter().map(|(&g, &f)| (f, g)).collect();
    // Descending by (frequency, group) — identical tie-break to the
    // tracking heap, so both estimators return identical rankings.
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    ranked.truncate(k);
    TopKEstimate {
        entries: ranked
            .into_iter()
            .map(|(f, g)| TopKEntry {
                group: g,
                estimated_frequency: f * scale,
                sample_frequency: f,
            })
            .collect(),
        group_by,
        sample_level,
        sample_size,
        scale,
    }
}

/// Filters sample frequencies by a scaled threshold — the footnote-3
/// variant ("tracking all destinations v with `f_v ≥ τ`").
pub(crate) fn threshold_from_frequencies(
    freqs: &DetHashMap<u32, u64>,
    tau: u64,
    group_by: GroupBy,
    sample_level: u32,
    sample_size: usize,
) -> TopKEstimate {
    let scale = 1u64 << sample_level;
    let mut ranked: Vec<(u64, u32)> = freqs
        .iter()
        .filter(|&(_, &f)| f * scale >= tau)
        .map(|(&g, &f)| (f, g))
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    TopKEstimate {
        entries: ranked
            .into_iter()
            .map(|(f, g)| TopKEntry {
                group: g,
                estimated_frequency: f * scale,
                sample_frequency: f,
            })
            .collect(),
        group_by,
        sample_level,
        sample_size,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DestAddr, SourceAddr};

    fn key(s: u32, d: u32) -> FlowKey {
        FlowKey::new(SourceAddr(s), DestAddr(d))
    }

    fn det_from<const N: usize>(pairs: [(u32, u64); N]) -> DetHashMap<u32, u64> {
        pairs.into_iter().collect()
    }

    #[test]
    fn group_frequencies_counts_by_destination() {
        let sample = vec![key(1, 10), key(2, 10), key(3, 20)];
        let freqs = group_frequencies(&sample, GroupBy::Destination);
        assert_eq!(freqs[&10], 2);
        assert_eq!(freqs[&20], 1);
    }

    #[test]
    fn group_frequencies_counts_by_source() {
        let sample = vec![key(1, 10), key(1, 20), key(3, 20)];
        let freqs = group_frequencies(&sample, GroupBy::Source);
        assert_eq!(freqs[&1], 2);
        assert_eq!(freqs[&3], 1);
    }

    #[test]
    fn top_k_scales_by_level() {
        let freqs = det_from([(10u32, 4u64), (20, 2), (30, 1)]);
        let est = top_k_from_frequencies(&freqs, 2, GroupBy::Destination, 3, 7);
        assert_eq!(est.scale, 8);
        assert_eq!(est.entries.len(), 2);
        assert_eq!(est.entries[0].group, 10);
        assert_eq!(est.entries[0].estimated_frequency, 32);
        assert_eq!(est.entries[0].sample_frequency, 4);
        assert_eq!(est.entries[1].group, 20);
        assert_eq!(est.frequency_of(10), Some(32));
        assert_eq!(est.frequency_of(99), None);
        assert_eq!(est.groups(), vec![10, 20]);
    }

    #[test]
    fn top_k_tie_break_is_larger_group_first() {
        let freqs = det_from([(10u32, 3u64), (20, 3), (30, 3)]);
        let est = top_k_from_frequencies(&freqs, 3, GroupBy::Destination, 0, 9);
        assert_eq!(est.groups(), vec![30, 20, 10]);
    }

    #[test]
    fn threshold_filters_scaled_estimates() {
        let freqs = det_from([(10u32, 4u64), (20, 2), (30, 1)]);
        // scale 4 -> estimates 16, 8, 4; tau 8 keeps two.
        let est = threshold_from_frequencies(&freqs, 8, GroupBy::Destination, 2, 7);
        assert_eq!(est.groups(), vec![10, 20]);
        assert_eq!(est.entries[1].estimated_frequency, 8);
    }

    #[test]
    fn standard_error_follows_poisson_scaling() {
        let entry = TopKEntry {
            group: 1,
            estimated_frequency: 400,
            sample_frequency: 100,
        };
        // scale 4: σ ≈ 4·√100 = 40; relative σ ≈ 1/√100 = 0.1.
        assert!((entry.standard_error(4) - 40.0).abs() < 1e-9);
        assert!((entry.relative_standard_error() - 0.1).abs() < 1e-9);
        // Zero-count entries are clamped, never NaN/zero.
        let empty = TopKEntry {
            group: 2,
            estimated_frequency: 0,
            sample_frequency: 0,
        };
        assert_eq!(empty.standard_error(8), 8.0);
        assert_eq!(empty.relative_standard_error(), 1.0);
    }

    #[test]
    fn error_bars_cover_all_entries() {
        let freqs = det_from([(10u32, 4u64), (20, 1)]);
        let est = top_k_from_frequencies(&freqs, 2, GroupBy::Destination, 2, 5);
        let bars = est.with_error_bars();
        assert_eq!(bars.len(), 2);
        assert_eq!(bars[0].0, 10);
        assert!((bars[0].2 - 4.0 * 2.0).abs() < 1e-9); // 2^2·√4
    }

    #[test]
    fn k_zero_returns_empty() {
        let freqs = det_from([(10u32, 4u64)]);
        let est = top_k_from_frequencies(&freqs, 0, GroupBy::Destination, 0, 1);
        assert!(est.entries.is_empty());
    }

    #[test]
    fn display_renders_ranked_table() {
        let freqs = det_from([(0x0a000001u32, 4u64), (0x0a000002, 2)]);
        let est = top_k_from_frequencies(&freqs, 2, GroupBy::Destination, 1, 6);
        let text = est.to_string();
        assert!(text.contains("10.0.0.1"), "{text}");
        assert!(text.contains("  1. "), "{text}");
        assert!(text.contains("± "), "{text}");
        assert!(text.contains("scale 2"), "{text}");
    }
}
