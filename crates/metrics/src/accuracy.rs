//! Top-k recall and average relative error (§6.1's metrics).

use std::collections::HashMap;

use dcs_core::TopKEstimate;

/// A combined accuracy measurement for one top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// `k` used for the query.
    pub k: usize,
    /// Fraction of the true top-k present in the approximate answer.
    pub recall: f64,
    /// Mean relative frequency error over the recall set (true top-k
    /// members found in the approximate answer); `0.0` when the recall
    /// set is empty.
    pub avg_relative_error: f64,
}

/// Computes the top-k recall: `|approx ∩ true| / k`.
///
/// `exact_top_k` is the true ranking (group, frequency), descending;
/// `approx_groups` are the groups the estimator returned. `k` is taken
/// from `exact_top_k`'s length.
///
/// # Examples
///
/// ```
/// use dcs_metrics::top_k_recall;
///
/// let exact = vec![(1u32, 100u64), (2, 90), (3, 80)];
/// let approx = vec![1u32, 3, 7];
/// assert!((top_k_recall(&exact, &approx) - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn top_k_recall(exact_top_k: &[(u32, u64)], approx_groups: &[u32]) -> f64 {
    if exact_top_k.is_empty() {
        return 1.0;
    }
    let truth: std::collections::HashSet<u32> = exact_top_k.iter().map(|&(g, _)| g).collect();
    let hits = approx_groups.iter().filter(|g| truth.contains(g)).count();
    hits as f64 / exact_top_k.len() as f64
}

/// Computes the average relative error over the recall set:
/// `mean(|f̂_v − f_v| / f_v)` for true top-k destinations `v` present in
/// the approximate answer. Returns `0.0` if the recall set is empty.
///
/// # Examples
///
/// ```
/// use dcs_metrics::average_relative_error;
///
/// let exact = vec![(1u32, 100u64), (2, 50)];
/// let approx = vec![(1u32, 90u64), (2, 60), (9, 5)];
/// // (|90−100|/100 + |60−50|/50) / 2 = (0.1 + 0.2) / 2
/// assert!((average_relative_error(&exact, &approx) - 0.15).abs() < 1e-12);
/// ```
pub fn average_relative_error(exact_top_k: &[(u32, u64)], approx: &[(u32, u64)]) -> f64 {
    let estimates: HashMap<u32, u64> = approx.iter().copied().collect();
    let mut total = 0.0;
    let mut count = 0usize;
    for &(group, truth) in exact_top_k {
        if truth == 0 {
            continue;
        }
        if let Some(&est) = estimates.get(&group) {
            total += (est as f64 - truth as f64).abs() / truth as f64;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Computes precision: the fraction of *reported* groups that belong to
/// the true top-k. Complements [`top_k_recall`] — recall asks "did we
/// find them?", precision asks "is what we reported real?".
///
/// # Examples
///
/// ```
/// use dcs_metrics::accuracy::precision;
///
/// let exact = vec![(1u32, 100u64), (2, 90)];
/// let approx = vec![1u32, 9];
/// assert!((precision(&exact, &approx) - 0.5).abs() < 1e-12);
/// ```
pub fn precision(exact_top_k: &[(u32, u64)], approx_groups: &[u32]) -> f64 {
    if approx_groups.is_empty() {
        return 1.0;
    }
    let truth: std::collections::HashSet<u32> = exact_top_k.iter().map(|&(g, _)| g).collect();
    let hits = approx_groups.iter().filter(|g| truth.contains(g)).count();
    hits as f64 / approx_groups.len() as f64
}

/// Kendall's τ-a rank correlation between the exact ranking and the
/// approximate ranking, over the groups present in both (returns 1.0
/// when fewer than two common groups exist).
///
/// τ = (concordant − discordant) / C(n, 2): +1 for identical order,
/// −1 for reversed, ~0 for unrelated.
pub fn kendall_tau(exact_top_k: &[(u32, u64)], approx_groups: &[u32]) -> f64 {
    let exact_rank: HashMap<u32, usize> = exact_top_k
        .iter()
        .enumerate()
        .map(|(i, &(g, _))| (g, i))
        .collect();
    let common: Vec<usize> = approx_groups
        .iter()
        .filter_map(|g| exact_rank.get(g).copied())
        .collect();
    let n = common.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            // approx order is i before j; exact order agrees iff
            // exact rank increases too.
            if common[i] < common[j] {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (n * (n - 1) / 2) as f64
}

/// Scores a [`TopKEstimate`] against exact ground truth.
pub fn score_estimate(exact_top_k: &[(u32, u64)], estimate: &TopKEstimate) -> AccuracyReport {
    let approx_groups = estimate.groups();
    let approx_pairs: Vec<(u32, u64)> = estimate
        .entries
        .iter()
        .map(|e| (e.group, e.estimated_frequency))
        .collect();
    AccuracyReport {
        k: exact_top_k.len(),
        recall: top_k_recall(exact_top_k, &approx_groups),
        avg_relative_error: average_relative_error(exact_top_k, &approx_pairs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{GroupBy, TopKEntry};

    #[test]
    fn perfect_answer_scores_perfectly() {
        let exact = vec![(1u32, 10u64), (2, 8)];
        let approx = vec![(1u32, 10u64), (2, 8)];
        assert_eq!(top_k_recall(&exact, &[1, 2]), 1.0);
        assert_eq!(average_relative_error(&exact, &approx), 0.0);
    }

    #[test]
    fn empty_truth_has_full_recall() {
        assert_eq!(top_k_recall(&[], &[1, 2]), 1.0);
    }

    #[test]
    fn disjoint_answer_scores_zero_recall() {
        let exact = vec![(1u32, 10u64)];
        assert_eq!(top_k_recall(&exact, &[9]), 0.0);
        // Recall set empty → ARE defined as 0.
        assert_eq!(average_relative_error(&exact, &[(9, 10)]), 0.0);
    }

    #[test]
    fn are_ignores_false_positives() {
        let exact = vec![(1u32, 100u64)];
        let approx = vec![(1u32, 150u64), (9, 1_000_000)];
        assert!((average_relative_error(&exact, &approx) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_truth_frequencies_are_skipped() {
        let exact = vec![(1u32, 0u64), (2, 10)];
        let approx = vec![(1u32, 5u64), (2, 10)];
        assert_eq!(average_relative_error(&exact, &approx), 0.0 + 0.0);
    }

    #[test]
    fn score_estimate_combines_both() {
        let estimate = dcs_core::TopKEstimate {
            entries: vec![
                TopKEntry {
                    group: 1,
                    estimated_frequency: 90,
                    sample_frequency: 9,
                },
                TopKEntry {
                    group: 7,
                    estimated_frequency: 80,
                    sample_frequency: 8,
                },
            ],
            group_by: GroupBy::Destination,
            sample_level: 0,
            sample_size: 17,
            scale: 1,
        };
        let exact = vec![(1u32, 100u64), (2, 95)];
        let report = score_estimate(&exact, &estimate);
        assert_eq!(report.k, 2);
        assert!((report.recall - 0.5).abs() < 1e-12);
        assert!((report.avg_relative_error - 0.1).abs() < 1e-12);
    }

    #[test]
    fn precision_counts_false_positives() {
        let exact = vec![(1u32, 10u64), (2, 9), (3, 8)];
        assert_eq!(precision(&exact, &[1, 2, 3]), 1.0);
        assert!((precision(&exact, &[1, 9, 8]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(precision(&exact, &[]), 1.0);
    }

    #[test]
    fn kendall_tau_orderings() {
        let exact = vec![(1u32, 10u64), (2, 9), (3, 8), (4, 7)];
        assert_eq!(kendall_tau(&exact, &[1, 2, 3, 4]), 1.0);
        assert_eq!(kendall_tau(&exact, &[4, 3, 2, 1]), -1.0);
        // One swap among four: 5 concordant, 1 discordant → 4/6.
        assert!((kendall_tau(&exact, &[2, 1, 3, 4]) - 4.0 / 6.0).abs() < 1e-12);
        // Unknown groups are ignored; fewer than two common → 1.0.
        assert_eq!(kendall_tau(&exact, &[99, 1]), 1.0);
    }
}
