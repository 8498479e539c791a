//! The paper's 65-counter count signature, kept as a test oracle.
//!
//! The paper (§4, Fig. 4) stores per bucket a total and one
//! bit-location count per key bit, and `ReturnSingleton` reads a key
//! off the bit counts: a bucket is a singleton iff every bit count is
//! 0 or the total. The sketch stores four sums per bucket instead
//! (DESIGN.md §8). [`Oracle`] replays the same updates into the
//! paper's layout, addressed through the sketch's own public hashes,
//! and answers every read the way the sketch's query algorithm does,
//! so the differential suites can compare the two decodes bucket for
//! bucket and query for query.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use ddos_streams::core::signature::BucketState;
use ddos_streams::core::DistinctSample;
use ddos_streams::{Delta, DistinctCountSketch, FlowKey, FlowUpdate, SketchConfig, TopKEntry};

/// Counters per bucket: the total and 64 bit-location counts.
pub const SIGNATURE_LEN: usize = 65;

/// One bucket in the paper's layout, with exact `i64` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperSignature(pub [i64; SIGNATURE_LEN]);

impl Default for PaperSignature {
    fn default() -> Self {
        Self([0; SIGNATURE_LEN])
    }
}

impl PaperSignature {
    /// The total and every bit count where `key` has a 1-bit move by ±1.
    pub fn apply(&mut self, key: FlowKey, delta: Delta) {
        let step = delta.signum();
        self.0[0] += step;
        for j in 0..64 {
            if key.packed() >> j & 1 == 1 {
                self.0[1 + j] += step;
            }
        }
    }

    pub fn add(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }

    /// `ReturnSingleton` (Fig. 4): a positive total whose bit counts
    /// are each 0 or the total spells out the singleton's key.
    pub fn decode(&self) -> BucketState {
        let total = self.0[0];
        if total == 0 {
            return if self.is_zero() {
                BucketState::Empty
            } else {
                BucketState::Collision
            };
        }
        if total < 0 {
            return BucketState::Collision;
        }
        let mut packed = 0u64;
        for j in 0..64 {
            match self.0[1 + j] {
                c if c == total => packed |= 1 << j,
                0 => {}
                _ => return BucketState::Collision,
            }
        }
        BucketState::Singleton {
            key: FlowKey::from_packed(packed),
            net_count: total,
        }
    }
}

/// A sketch in the paper's layout: `r·s` signatures per touched level.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// An empty sketch of the same configuration, used only for its
    /// hashes.
    hashes: DistinctCountSketch,
    levels: BTreeMap<u32, Vec<PaperSignature>>,
}

impl Oracle {
    pub fn new(config: SketchConfig) -> Self {
        Self {
            hashes: DistinctCountSketch::new(config),
            levels: BTreeMap::new(),
        }
    }

    /// The oracle of `updates` applied in order.
    pub fn replay(config: SketchConfig, updates: &[FlowUpdate]) -> Self {
        let mut oracle = Self::new(config);
        for &update in updates {
            oracle.update(update);
        }
        oracle
    }

    pub fn config(&self) -> &SketchConfig {
        self.hashes.config()
    }

    fn slots(&self) -> usize {
        self.config().num_tables() * self.config().buckets_per_table()
    }

    pub fn update(&mut self, update: FlowUpdate) {
        let level = self.hashes.level_of(update.key);
        let s = self.config().buckets_per_table();
        let slots: Vec<usize> = (0..self.config().num_tables())
            .map(|table| table * s + self.hashes.bucket_of(table, update.key))
            .collect();
        let fresh = vec![PaperSignature::default(); self.slots()];
        let level = self.levels.entry(level).or_insert(fresh);
        for slot in slots {
            level[slot].apply(update.key, update.delta);
        }
    }

    pub fn merge_from(&mut self, other: &Self) {
        for (&level, theirs) in &other.levels {
            let fresh = vec![PaperSignature::default(); theirs.len()];
            let mine = self.levels.entry(level).or_insert(fresh);
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.add(b);
            }
        }
    }

    /// Subtracts `other` level by level, materializing a level only
    /// `other` holds unless it is all zero — the sketch's `difference`
    /// rule.
    pub fn subtract(&mut self, other: &Self) {
        for (&level, theirs) in &other.levels {
            if !self.levels.contains_key(&level) && theirs.iter().all(PaperSignature::is_zero) {
                continue;
            }
            let fresh = vec![PaperSignature::default(); theirs.len()];
            let mine = self.levels.entry(level).or_insert(fresh);
            for (a, b) in mine.iter_mut().zip(theirs) {
                for (x, y) in a.0.iter_mut().zip(b.0) {
                    *x -= y;
                }
            }
        }
    }

    /// The materialized levels and their `r·s` signatures, table-major.
    pub fn levels(&self) -> impl Iterator<Item = (u32, &[PaperSignature])> {
        self.levels.iter().map(|(&l, sigs)| (l, sigs.as_slice()))
    }

    /// The distinct keys decoded at `level` that hash to it, ascending.
    pub fn level_singletons(&self, level: u32) -> Vec<FlowKey> {
        let Some(sigs) = self.levels.get(&level) else {
            return Vec::new();
        };
        let keys: BTreeSet<FlowKey> = sigs
            .iter()
            .filter_map(|sig| sig.decode().singleton_key())
            .collect();
        keys.into_iter()
            .filter(|&k| self.hashes.level_of(k) == level)
            .collect()
    }

    /// Every decodable pair with its level: descending level, ascending
    /// key.
    pub fn singletons(&self) -> Vec<(u32, FlowKey)> {
        (0..self.config().max_levels())
            .rev()
            .flat_map(|l| self.level_singletons(l).into_iter().map(move |k| (l, k)))
            .collect()
    }

    /// `BaseTopk`'s sampling loop (Fig. 3, steps 1–6).
    pub fn distinct_sample(&self, epsilon: f64) -> DistinctSample {
        let target = self.config().target_sample_size(epsilon);
        let mut keys = Vec::new();
        let mut lowest = 0;
        for level in (0..self.config().max_levels()).rev() {
            keys.extend(self.level_singletons(level));
            if keys.len() >= target {
                lowest = level;
                break;
            }
        }
        keys.sort_unstable();
        DistinctSample {
            keys,
            level: lowest,
        }
    }

    /// The top `k` groups of the distinct sample, ranked by
    /// `(frequency, group)` descending and scaled (Fig. 3, steps 8–9).
    pub fn top_k(&self, k: usize, epsilon: f64) -> Vec<TopKEntry> {
        let sample = self.distinct_sample(epsilon);
        let mut freqs: BTreeMap<u32, u64> = BTreeMap::new();
        for key in &sample.keys {
            *freqs
                .entry(self.config().group_by().group_of(*key))
                .or_insert(0) += 1;
        }
        let mut ranked: Vec<(u64, u32)> = freqs.into_iter().map(|(g, f)| (f, g)).collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(f, g)| TopKEntry {
                group: g,
                estimated_frequency: f * sample.scale(),
                sample_frequency: f,
            })
            .collect()
    }

    /// `(occupied, singletons)` of one level, `None` if never touched.
    pub fn level_occupancy(&self, level: u32) -> Option<(u64, u64)> {
        let sigs = self.levels.get(&level)?;
        let occupied = sigs.iter().filter(|s| !s.is_zero()).count();
        let singletons = sigs
            .iter()
            .filter(|s| s.decode().singleton_key().is_some())
            .count();
        Some((occupied as u64, singletons as u64))
    }
}
