//! Exponentially-decayed windowed scoring: recent epochs count for
//! more.
//!
//! A plain sliding window weights every retained epoch equally, so a
//! burst three epochs ago and a burst right now look the same until the
//! old one falls off the ring. Decayed scoring instead weights the
//! epoch aged `a` (age 0 = newest closed epoch) by `λ^a` with
//! `λ ∈ (0, 1]`: at `λ = 1` it degenerates to the plain window sum; at
//! small λ only the freshest epochs matter.
//!
//! **Bit-identity caveat.** Everywhere else in this codebase windowed
//! results are *bit-exact* linear sums of integer counters. Decayed
//! scores are not: the weights are `f64` and the weighted sum is not a
//! sketch operation, so scores are floating-point combinations of
//! per-epoch integer estimates. They are still fully deterministic —
//! fixed iteration order, no environment dependence — but a decayed
//! score has no recompute-from-snapshots integer reference to compare
//! against, and the equivalence suite (`tests/window_equivalence.rs`)
//! pins the λ = 1 degenerate ranking rather than cross-checking raw
//! scores. See DESIGN.md §17.3.
//!
//! Candidate selection is delegated to the window accumulator: a group
//! that is top-k under decay must appear in the *undecayed* top-k' for
//! a modestly larger k' (decay only shrinks contributions), so we
//! oversample the accumulator's top-k and re-score just those
//! candidates against each retained delta with the batched
//! [`dcs_core::DistinctCountSketch::estimate_group_frequencies`]
//! kernel.

use dcs_core::{TopKEntry, TopKEstimate};

use crate::window::SlidingWindow;

/// How many× beyond `k` the accumulator top-k is oversampled when
/// picking decay candidates.
const CANDIDATE_OVERSAMPLE: usize = 4;

/// Top-k groups over the window with per-epoch contributions scaled by
/// `lambda^age` (age 0 = newest retained epoch).
///
/// Entries carry the decayed score rounded to `u64` in
/// `estimated_frequency`; `sample_frequency` is taken from the
/// accumulator's undecayed estimate, so the Poisson error-bar helpers
/// describe the *undecayed* estimate quality, not the decayed score.
/// Ordering is deterministic: descending score, ties broken by the
/// larger group address (the estimator ranking convention).
///
/// `lambda` is assumed already validated to `(0, 1]` (see
/// [`crate::window::WindowPolicy::validate`]); out-of-range values
/// produce well-defined garbage rankings, not panics.
pub fn decayed_top_k(window: &SlidingWindow, lambda: f64, k: usize, epsilon: f64) -> TopKEstimate {
    let base = window
        .sketch()
        .estimate_top_k(k.saturating_mul(CANDIDATE_OVERSAMPLE).max(k), epsilon);
    let candidates = base.groups();
    if candidates.is_empty() || k == 0 {
        return TopKEstimate {
            entries: Vec::new(),
            ..base
        };
    }

    let mut scores = vec![0.0f64; candidates.len()];
    // Newest-first: ring order is oldest-first, so walk it reversed
    // with the weight decaying as age grows.
    let mut weight = 1.0f64;
    for delta in window.deltas().rev() {
        let frequencies = delta.estimate_group_frequencies(&candidates, epsilon);
        for (score, freq) in scores.iter_mut().zip(&frequencies) {
            *score += weight * (*freq as f64);
        }
        weight *= lambda;
    }

    let mut ranked: Vec<(f64, TopKEntry)> = base
        .entries
        .iter()
        .zip(scores)
        .map(|(entry, score)| {
            (
                score,
                TopKEntry {
                    group: entry.group,
                    estimated_frequency: score.max(0.0).round() as u64,
                    sample_frequency: entry.sample_frequency,
                },
            )
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| b.1.group.cmp(&a.1.group)));
    ranked.truncate(k);

    TopKEstimate {
        entries: ranked.into_iter().map(|(_, entry)| entry).collect(),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};

    fn config() -> SketchConfig {
        SketchConfig::builder()
            .buckets_per_table(512)
            .seed(13)
            .build()
            .unwrap()
    }

    fn delta(seed_base: u32, dest: u32, sources: u32) -> DistinctCountSketch {
        let mut d = DistinctCountSketch::new(config());
        for s in 0..sources {
            d.insert(SourceAddr(seed_base + s), DestAddr(dest));
        }
        d
    }

    #[test]
    fn lambda_one_matches_plain_window_ranking() {
        let mut window = SlidingWindow::new(config(), 4);
        for (epoch, (dest, sources)) in [(1u32, 300u32), (2, 150), (3, 80), (4, 40)]
            .into_iter()
            .enumerate()
        {
            window
                .roll(delta(epoch as u32 * 10_000, dest, sources))
                .unwrap();
        }
        let plain = window.top_k(3, 0.25);
        let decayed = decayed_top_k(&window, 1.0, 3, 0.25);
        assert_eq!(plain.groups(), decayed.groups());
    }

    #[test]
    fn strong_decay_promotes_the_recent_burst() {
        let mut window = SlidingWindow::new(config(), 3);
        // Old heavy hitter (dest 1), then quiet, then fresh burst
        // (dest 2) half its size.
        window.roll(delta(0, 1, 400)).unwrap();
        window.roll(delta(10_000, 3, 10)).unwrap();
        window.roll(delta(20_000, 2, 200)).unwrap();
        // Undecayed: dest 1 leads.
        assert_eq!(window.top_k(1, 0.25).groups(), vec![1]);
        // λ = 0.3: dest 1's 400 is two epochs old (weight 0.09 → 36),
        // dest 2's 200 is fresh (weight 1).
        let decayed = decayed_top_k(&window, 0.3, 2, 0.25);
        assert_eq!(decayed.entries[0].group, 2);
        assert!(
            decayed.entries[0].estimated_frequency > decayed.frequency_of(1).unwrap_or(0),
            "{decayed}"
        );
    }

    #[test]
    fn decayed_scores_are_deterministic() {
        let build = || {
            let mut window = SlidingWindow::new(config(), 3);
            window.roll(delta(0, 5, 120)).unwrap();
            window.roll(delta(5_000, 6, 90)).unwrap();
            window.roll(delta(9_000, 7, 60)).unwrap();
            window
        };
        let a = decayed_top_k(&build(), 0.7, 5, 0.25);
        let b = decayed_top_k(&build(), 0.7, 5, 0.25);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_window_yields_empty_estimate() {
        let window = SlidingWindow::new(config(), 2);
        let est = decayed_top_k(&window, 0.5, 4, 0.25);
        assert!(est.entries.is_empty());
    }
}
