//! The paper's synthetic workload (§6.1).
//!
//! "Our update-stream generation process is characterized by three key
//! parameters: the total number of distinct source-destination IP-address
//! pairs `U`, the number of distinct destinations `d`, and the Zipfian
//! skew parameter `z` that determines the distribution of distinct
//! source IP addresses across the `d` distinct destinations."
//!
//! We realize this by drawing, for each of the `U` pairs, a destination
//! rank from `Zipf(d, z)` and pairing it with a *fresh* source for that
//! destination (a bijectively-scrambled per-destination counter), so the
//! generated pairs are distinct by construction and each destination's
//! exact distinct-source frequency is known.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dcs_core::{DestAddr, FlowUpdate, SourceAddr};

use crate::zipf::Zipf;

/// Parameters of the paper's synthetic workload.
///
/// Paper defaults (§6.1): `U = 8·10⁶`, `d = 5·10⁴`,
/// `z ∈ {1.0, 1.5, 2.0, 2.5}`. Those sizes are minutes of work; tests
/// and quick runs use scaled-down values.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// `U`: total number of distinct source-destination pairs.
    pub distinct_pairs: u64,
    /// `d`: number of distinct destinations.
    pub num_destinations: u32,
    /// `z`: Zipfian skew of sources across destinations.
    pub skew: f64,
    /// RNG seed for destination draws and stream shuffling.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's default parameters (`U = 8M`, `d = 50k`, `z = 1.0`).
    pub fn paper_default() -> Self {
        Self {
            distinct_pairs: 8_000_000,
            num_destinations: 50_000,
            skew: 1.0,
            seed: 0,
        }
    }

    /// A laptop-scale version preserving the `U/d` ratio
    /// (`U = 200k`, `d = 1250`).
    pub fn scaled_default() -> Self {
        Self {
            distinct_pairs: 200_000,
            num_destinations: 1_250,
            skew: 1.0,
            seed: 0,
        }
    }
}

/// A generated paper workload: the insert stream plus exact ground
/// truth.
#[derive(Debug, Clone)]
pub struct PaperWorkload {
    config: WorkloadConfig,
    /// Exact distinct-source frequency of destination rank `i`
    /// (destination address = `DEST_BASE + i`).
    frequencies: Vec<u64>,
    updates: Vec<FlowUpdate>,
}

/// Destination addresses start here so they are disjoint from generated
/// source addresses in examples that mix roles.
pub const DEST_BASE: u32 = 0x0a00_0000;

use dcs_hash::mix::scramble_u32;

impl PaperWorkload {
    /// Generates the workload: draws destinations from `Zipf(d, z)`,
    /// pairs each with a fresh source, and shuffles the stream order.
    ///
    /// # Panics
    ///
    /// Panics if `distinct_pairs` is 0 or `num_destinations` is 0.
    pub fn generate(config: WorkloadConfig) -> Self {
        assert!(config.distinct_pairs > 0, "need at least one pair");
        assert!(config.num_destinations > 0, "need at least one destination");
        let zipf = Zipf::new(config.num_destinations as usize, config.skew);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut frequencies = vec![0u64; config.num_destinations as usize];
        let mut updates = Vec::with_capacity(config.distinct_pairs as usize);
        for _ in 0..config.distinct_pairs {
            let rank = zipf.sample(&mut rng);
            let source_index = frequencies[rank] as u32;
            frequencies[rank] += 1;
            // Fresh source for this destination: scrambled counter.
            let source = SourceAddr(scramble_u32(source_index));
            let dest = DestAddr(DEST_BASE + rank as u32);
            updates.push(FlowUpdate::insert(source, dest));
        }
        updates.shuffle(&mut rng);
        Self {
            config,
            frequencies,
            updates,
        }
    }

    /// The generating configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The insert stream, in shuffled order.
    pub fn updates(&self) -> &[FlowUpdate] {
        &self.updates
    }

    /// Consumes the workload, returning the update stream.
    pub fn into_updates(self) -> Vec<FlowUpdate> {
        self.updates
    }

    /// Exact distinct-source frequency of destination rank `rank`.
    pub fn frequency_of_rank(&self, rank: usize) -> u64 {
        self.frequencies.get(rank).copied().unwrap_or(0)
    }

    /// The destination address of rank `rank`.
    pub fn dest_of_rank(&self, rank: usize) -> DestAddr {
        DestAddr(DEST_BASE + rank as u32)
    }

    /// The exact top-`k` destinations `(address, frequency)`, descending
    /// frequency, ties broken by the larger address (matching the
    /// sketches' deterministic ordering).
    pub fn exact_top_k(&self, k: usize) -> Vec<(u32, u64)> {
        let mut ranked: Vec<(u64, u32)> = self
            .frequencies
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(rank, &f)| (f, DEST_BASE + rank as u32))
            .collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        ranked.truncate(k);
        ranked.into_iter().map(|(f, g)| (g, f)).collect()
    }

    /// Total number of distinct pairs (`U`).
    pub fn distinct_pairs(&self) -> u64 {
        self.config.distinct_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> WorkloadConfig {
        WorkloadConfig {
            distinct_pairs: 10_000,
            num_destinations: 100,
            skew: 1.0,
            seed: 7,
        }
    }

    #[test]
    fn generates_exactly_u_distinct_pairs() {
        let w = PaperWorkload::generate(small());
        assert_eq!(w.updates().len(), 10_000);
        let distinct: HashSet<u64> = w.updates().iter().map(|u| u.key.packed()).collect();
        assert_eq!(distinct.len(), 10_000, "pairs must be distinct");
        assert_eq!(w.distinct_pairs(), 10_000);
    }

    #[test]
    fn frequencies_sum_to_u_and_match_stream() {
        let w = PaperWorkload::generate(small());
        let total: u64 = (0..100).map(|r| w.frequency_of_rank(r)).sum();
        assert_eq!(total, 10_000);
        // Recount from the stream itself.
        let mut counted = vec![0u64; 100];
        for u in w.updates() {
            counted[(u.key.dest().0 - DEST_BASE) as usize] += 1;
        }
        for (rank, &count) in counted.iter().enumerate() {
            assert_eq!(count, w.frequency_of_rank(rank), "rank {rank}");
        }
    }

    #[test]
    fn rank_zero_is_heaviest_under_skew() {
        let w = PaperWorkload::generate(WorkloadConfig {
            skew: 2.0,
            ..small()
        });
        let f0 = w.frequency_of_rank(0);
        for rank in 1..100 {
            assert!(f0 >= w.frequency_of_rank(rank));
        }
        // z = 2: rank 0 holds ~1/ζ(2) ≈ 61% of mass.
        assert!(f0 > 5_000, "f0 = {f0}");
    }

    #[test]
    fn exact_top_k_is_sorted_and_consistent() {
        let w = PaperWorkload::generate(small());
        let top = w.exact_top_k(10);
        assert_eq!(top.len(), 10);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert_eq!(top[0].0, w.dest_of_rank(0).0);
        assert_eq!(top[0].1, w.frequency_of_rank(0));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperWorkload::generate(small());
        let b = PaperWorkload::generate(small());
        assert_eq!(a.updates(), b.updates());
        let c = PaperWorkload::generate(WorkloadConfig { seed: 8, ..small() });
        assert_ne!(a.updates(), c.updates());
    }

    #[test]
    fn scramble_is_bijective_on_sample() {
        let out: HashSet<u32> = (0..100_000u32).map(scramble_u32).collect();
        assert_eq!(out.len(), 100_000);
    }

    #[test]
    fn defaults_have_paper_parameters() {
        let p = WorkloadConfig::paper_default();
        assert_eq!(p.distinct_pairs, 8_000_000);
        assert_eq!(p.num_destinations, 50_000);
        let s = WorkloadConfig::scaled_default();
        assert_eq!(
            p.distinct_pairs / u64::from(p.num_destinations),
            s.distinct_pairs / u64::from(s.num_destinations)
        );
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn zero_destinations_panics() {
        let _ = PaperWorkload::generate(WorkloadConfig {
            num_destinations: 0,
            ..small()
        });
    }
}
