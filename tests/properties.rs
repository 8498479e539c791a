//! Cross-crate property-based tests of the invariants the paper's
//! lemmas rest on.

use proptest::prelude::*;
use std::collections::HashMap;

use ddos_streams::baselines::ExactDistinctTracker;
use ddos_streams::{
    Delta, DestAddr, DistinctCountSketch, FlowUpdate, GroupBy, SketchConfig, SourceAddr,
    TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(64)
        .seed(seed)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delete-resilience (§3): a sketch that saw extra pairs, all later
    /// deleted, answers identically to one that never saw them.
    #[test]
    fn deleted_pairs_leave_no_trace(
        seed in 0u64..100,
        keep in proptest::collection::hash_set((0u32..1000, 0u32..20), 1..60),
        churn in proptest::collection::hash_set((1000u32..2000, 0u32..20), 0..60),
    ) {
        let mut clean = DistinctCountSketch::new(config(seed));
        let mut noisy = DistinctCountSketch::new(config(seed));
        for &(s, d) in &keep {
            clean.insert(SourceAddr(s), DestAddr(d));
            noisy.insert(SourceAddr(s), DestAddr(d));
        }
        for &(s, d) in &churn {
            noisy.insert(SourceAddr(s), DestAddr(d));
        }
        for &(s, d) in &churn {
            noisy.delete(SourceAddr(s), DestAddr(d));
        }
        prop_assert_eq!(
            clean.distinct_sample(0.25),
            noisy.distinct_sample(0.25)
        );
        prop_assert_eq!(
            clean.estimate_top_k(5, 0.25),
            noisy.estimate_top_k(5, 0.25)
        );
    }

    /// Streams strictly below the sample target `(1+ε)s/16 = 5` are
    /// answered exactly: the sampling loop can never stop above level 0,
    /// every pair is recovered, and the scale is 1.
    #[test]
    fn small_streams_are_exact(
        seed in 0u64..100,
        pairs in proptest::collection::hash_set((0u32..100_000, 0u32..5), 1..5),
    ) {
        let mut sketch = DistinctCountSketch::new(config(seed));
        let mut exact = ExactDistinctTracker::new(GroupBy::Destination);
        for &(s, d) in &pairs {
            sketch.insert(SourceAddr(s), DestAddr(d));
            exact.insert(SourceAddr(s), DestAddr(d));
        }
        let est = sketch.estimate_top_k(5, 0.25);
        prop_assert_eq!(est.scale, 1, "tiny stream must resolve at level 0");
        let truth = exact.top_k(5);
        let approx: Vec<(u32, u64)> = est
            .entries
            .iter()
            .map(|e| (e.group, e.estimated_frequency))
            .collect();
        prop_assert_eq!(approx, truth);
    }

    /// Tracking and Basic agree after arbitrary well-formed streams.
    #[test]
    fn estimators_agree_on_well_formed_streams(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u32..200, 0u32..10, any::<bool>()), 1..300),
    ) {
        let mut basic = DistinctCountSketch::new(config(seed));
        let mut tracking = TrackingDcs::new(config(seed));
        let mut net: HashMap<(u32, u32), i64> = HashMap::new();
        for (s, d, del) in ops {
            let entry = net.entry((s, d)).or_insert(0);
            let update = if del && *entry > 0 {
                *entry -= 1;
                FlowUpdate::new(SourceAddr(s), DestAddr(d), Delta::Delete)
            } else {
                *entry += 1;
                FlowUpdate::new(SourceAddr(s), DestAddr(d), Delta::Insert)
            };
            basic.update(update);
            tracking.update(update);
        }
        prop_assert_eq!(
            basic.estimate_top_k(10, 0.25),
            tracking.track_top_k(10, 0.25)
        );
    }

    /// A monitor's clear-level estimates come from one batched point
    /// query on the basic sketch; on the same counters each equals the
    /// tracking heap's `track_group` (0 where it has no entry), for
    /// groups inside the sample, outside it, and never seen.
    #[test]
    fn batched_group_estimates_equal_track_group(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u32..200, 0u32..10, any::<bool>()), 1..600),
        epsilon in prop_oneof![Just(0.1), Just(0.25), Just(0.5)],
    ) {
        let mut tracking = TrackingDcs::new(config(seed));
        let mut net: HashMap<(u32, u32), i64> = HashMap::new();
        for (s, d, del) in ops {
            let entry = net.entry((s, d)).or_insert(0);
            let delta = if del && *entry > 0 {
                *entry -= 1;
                Delta::Delete
            } else {
                *entry += 1;
                Delta::Insert
            };
            tracking.update(FlowUpdate::new(SourceAddr(s), DestAddr(d), delta));
        }
        let groups: Vec<u32> = (0..16).collect();
        let batched = tracking.sketch().estimate_group_frequencies(&groups, epsilon);
        let tracked: Vec<u64> = groups
            .iter()
            .map(|&g| tracking.track_group(g, epsilon).unwrap_or(0))
            .collect();
        prop_assert_eq!(batched, tracked);
    }

    /// Merging a partition of a stream equals processing it whole.
    #[test]
    fn merge_of_partition_equals_whole(
        seed in 0u64..100,
        pairs in proptest::collection::hash_set((0u32..10_000, 0u32..30), 2..100,),
        split in any::<u64>(),
    ) {
        let mut whole = DistinctCountSketch::new(config(seed));
        let mut left = DistinctCountSketch::new(config(seed));
        let mut right = DistinctCountSketch::new(config(seed));
        for (i, &(s, d)) in pairs.iter().enumerate() {
            whole.insert(SourceAddr(s), DestAddr(d));
            if (split >> (i % 64)) & 1 == 0 {
                left.insert(SourceAddr(s), DestAddr(d));
            } else {
                right.insert(SourceAddr(s), DestAddr(d));
            }
        }
        left.merge_from(&right).unwrap();
        prop_assert_eq!(
            whole.estimate_top_k(5, 0.25),
            left.estimate_top_k(5, 0.25)
        );
    }

    /// Orientation soundness: each grouping axis reports only groups
    /// that exist on that axis, and (when the sample resolved at level
    /// 0, where it is a subset of the true distinct pairs) never
    /// overestimates a group's true frequency.
    #[test]
    fn orientation_soundness(
        seed in 0u64..100,
        pairs in proptest::collection::hash_set((0u32..500, 0u32..500), 1..100),
    ) {
        let dest_config = SketchConfig::builder()
            .buckets_per_table(64)
            .seed(seed)
            .group_by(GroupBy::Destination)
            .build()
            .unwrap();
        let src_config = SketchConfig::builder()
            .buckets_per_table(64)
            .seed(seed)
            .group_by(GroupBy::Source)
            .build()
            .unwrap();
        let mut by_dest = DistinctCountSketch::new(dest_config);
        let mut by_source = DistinctCountSketch::new(src_config);
        // Truth: frequency of each `b` value on its respective axis.
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for &(a, b) in &pairs {
            by_dest.insert(SourceAddr(a), DestAddr(b));
            // Swapped roles: the pair (b, a), grouped by source.
            by_source.insert(SourceAddr(b), DestAddr(a));
            *truth.entry(b).or_insert(0) += 1;
        }
        for est in [by_dest.estimate_top_k(5, 0.25), by_source.estimate_top_k(5, 0.25)] {
            for entry in &est.entries {
                let t = truth.get(&entry.group).copied();
                prop_assert!(t.is_some(), "phantom group {}", entry.group);
                if est.scale == 1 {
                    // Level-0 samples are subsets of the true pairs:
                    // counts can only undercount.
                    prop_assert!(
                        entry.estimated_frequency <= t.unwrap(),
                        "group {} overestimated: {} > {:?}",
                        entry.group,
                        entry.estimated_frequency,
                        t
                    );
                }
            }
        }
    }

    /// The tracked singleton structures always match a fresh scan.
    #[test]
    fn tracking_invariants_hold_after_random_streams(
        seed in 0u64..50,
        pairs in proptest::collection::vec((0u32..300, 0u32..8), 1..150),
    ) {
        let mut tracking = TrackingDcs::new(config(seed));
        let mut net: HashMap<(u32, u32), i64> = HashMap::new();
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let entry = net.entry((s, d)).or_insert(0);
            if i % 3 == 2 && *entry > 0 {
                *entry -= 1;
                tracking.delete(SourceAddr(s), DestAddr(d));
            } else {
                *entry += 1;
                tracking.insert(SourceAddr(s), DestAddr(d));
            }
        }
        tracking
            .check_tracking_invariants()
            .map_err(TestCaseError::fail)?;
    }
}

#[test]
fn well_formedness_matters_demonstration() {
    // An *ill-formed* stream (deleting something never inserted) can
    // corrupt decodes — this is the documented boundary of the
    // guarantees, pinned here so it stays documented.
    let mut sketch = DistinctCountSketch::new(config(1));
    sketch.delete(SourceAddr(1), DestAddr(1));
    // The sketch does not panic and keeps counting consistently…
    sketch.insert(SourceAddr(1), DestAddr(1));
    // …net zero for the pair: sample is empty again.
    assert_eq!(sketch.estimate_distinct_pairs(0.25), 0);
}
