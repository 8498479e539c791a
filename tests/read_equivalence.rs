//! The read side against its references, bit for bit.
//!
//! * Reads — singleton enumeration and occupancy gauges — must equal
//!   the paper's 65-counter signature (`tests/oracle`) on well-formed
//!   streams: every singleton and gauge, not just statistically close.
//! * Merge and difference must equal an element-wise wrapping sum or
//!   difference of the captured slabs, computed here.
//!
//! Shapes straddle the screen pass's `SCREEN_LANES = 64` chunk
//! (`r·s ∈ {62, 64, 66}` exercises the chunk tail) and the former
//! 256-slot kernel cutoff (`r·s ∈ {254, 256, 258}`).

mod oracle;

use ddos_streams::core::{LevelSlabs, SketchState};
use ddos_streams::{
    DestAddr, DistinctCountSketch, FlowUpdate, ScenarioBuilder, SketchConfig, SourceAddr,
};
use oracle::Oracle;

/// `(num_tables, buckets_per_table)` shapes straddling the chunk
/// boundaries.
const BOUNDARY_SHAPES: &[(usize, usize)] = &[
    // r·s around SCREEN_LANES = 64: one short chunk, one exact, one +tail.
    (2, 31),
    (2, 32),
    (2, 33),
    // r·s around 256: four chunks less one slot, exact, and +tail.
    (2, 127),
    (2, 128),
    (2, 129),
];

fn config(r: usize, s: usize, seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .num_tables(r)
        .buckets_per_table(s)
        .seed(seed)
        .build()
        .unwrap()
}

/// Every read of `sketch` must agree bit-for-bit with the oracle's.
fn assert_reads_equivalent(sketch: &DistinctCountSketch, oracle: &Oracle, context: &str) {
    assert_eq!(
        sketch.singletons(),
        oracle.singletons(),
        "singleton enumeration diverged ({context})"
    );
    for level in 0..sketch.config().max_levels() {
        assert_eq!(
            sketch.level_occupancy(level),
            oracle.level_occupancy(level),
            "occupancy diverged at level {level} ({context})"
        );
    }
}

/// A sketch and its oracle over the same updates.
fn both(config: SketchConfig, updates: &[FlowUpdate]) -> (DistinctCountSketch, Oracle) {
    let mut sketch = DistinctCountSketch::new(config.clone());
    for u in updates {
        sketch.update(*u);
    }
    (sketch, Oracle::replay(config, updates))
}

/// A fixed-seed attack scenario: background churn with deletions plus
/// a SYN flood.
fn attack() -> Vec<FlowUpdate> {
    ScenarioBuilder::new(17)
        .background(4_000, 60, 0.8)
        .syn_flood(0x0a00_0001, 600)
        .build()
        .updates()
        .to_vec()
}

/// Seeded well-formed random churn: deletes only remove live pairs, a
/// third of inserts repeat a live pair, and the all-zero flow key
/// `(0, 0)` — invisible to all three sums — is kept live throughout.
fn churn(seed: u64, updates: usize) -> Vec<FlowUpdate> {
    use rand::prelude::*;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![FlowUpdate::insert(SourceAddr(0), DestAddr(0))];
    let mut live: Vec<(u32, u32)> = Vec::new();
    for _ in 0..updates {
        let update = if !live.is_empty() && rng.gen_bool(0.4) {
            let i = rng.gen_range(0..live.len());
            let (s, d) = live.swap_remove(i);
            FlowUpdate::delete(SourceAddr(s), DestAddr(d))
        } else {
            let (s, d) = if !live.is_empty() && rng.gen_bool(0.33) {
                live[rng.gen_range(0..live.len())]
            } else {
                (rng.gen(), rng.gen_range(0..12))
            };
            live.push((s, d));
            FlowUpdate::insert(SourceAddr(s), DestAddr(d))
        };
        out.push(update);
    }
    out
}

/// `a` combined level by level with `b` through `op` on every slab
/// word: the reference merge (`wrapping_add`) and difference
/// (`wrapping_sub`). A level only `b` holds is combined with zeros,
/// and skipped when `skip_zero` and it is all zero (as a difference
/// never materializes a zero level).
fn combined(a: &SketchState, b: &SketchState, add: bool, skip_zero: bool) -> Vec<LevelSlabs> {
    let mut levels = a.levels.clone();
    for theirs in &b.levels {
        let zero = theirs.totals.iter().all(|&t| t == 0)
            && theirs
                .lo_sums
                .iter()
                .chain(&theirs.hi_sums)
                .all(|&v| v == 0)
            && theirs.fp_sums.iter().all(|&v| v == 0);
        let mine = match levels.iter_mut().find(|l| l.level == theirs.level) {
            Some(mine) => mine,
            None if skip_zero && zero => continue,
            None => {
                let n = theirs.totals.len();
                levels.push(LevelSlabs {
                    level: theirs.level,
                    totals: vec![0; n],
                    lo_sums: vec![0; n],
                    hi_sums: vec![0; n],
                    fp_sums: vec![0; n],
                });
                levels.last_mut().unwrap()
            }
        };
        for i in 0..mine.totals.len() {
            if add {
                mine.totals[i] = mine.totals[i].wrapping_add(theirs.totals[i]);
                mine.lo_sums[i] = mine.lo_sums[i].wrapping_add(theirs.lo_sums[i]);
                mine.hi_sums[i] = mine.hi_sums[i].wrapping_add(theirs.hi_sums[i]);
                mine.fp_sums[i] = mine.fp_sums[i].wrapping_add(theirs.fp_sums[i]);
            } else {
                mine.totals[i] = mine.totals[i].wrapping_sub(theirs.totals[i]);
                mine.lo_sums[i] = mine.lo_sums[i].wrapping_sub(theirs.lo_sums[i]);
                mine.hi_sums[i] = mine.hi_sums[i].wrapping_sub(theirs.hi_sums[i]);
                mine.fp_sums[i] = mine.fp_sums[i].wrapping_sub(theirs.fp_sums[i]);
            }
        }
    }
    levels.sort_by_key(|l| l.level);
    levels
}

#[test]
fn wide_reads_match_reference_on_attack_scenario() {
    for &(r, s) in BOUNDARY_SHAPES {
        let (sketch, oracle) = both(config(r, s, 23), &attack());
        assert_reads_equivalent(&sketch, &oracle, &format!("attack, r = {r}, s = {s}"));
    }
}

#[test]
fn wide_reads_match_reference_on_random_churn() {
    for seed in [3u64, 29, 71] {
        for &(r, s) in BOUNDARY_SHAPES {
            let (sketch, oracle) = both(config(r, s, seed), &churn(seed, 6_000));
            let context = format!("churn seed {seed}, r = {r}, s = {s}");
            assert_reads_equivalent(&sketch, &oracle, &context);
        }
    }
}

#[test]
fn wide_merge_matches_reference_merge_bit_for_bit() {
    for &(r, s) in BOUNDARY_SHAPES {
        // Same sketch seed (merge requires identical configs), two
        // different streams.
        let (a, mut oracle) = both(config(r, s, 23), &attack());
        let (b, oracle_b) = both(config(r, s, 23), &churn(29, 6_000));

        let mut merged = a.clone();
        merged.merge_from(&b).unwrap();
        let (sa, sb) = (a.to_state(), b.to_state());
        let reference = SketchState {
            config: sa.config.clone(),
            updates_processed: sa.updates_processed + sb.updates_processed,
            net_updates: sa.net_updates + sb.net_updates,
            levels: combined(&sa, &sb, true, false),
        };
        assert_eq!(
            merged.to_state(),
            reference,
            "merged state diverged (r = {r}, s = {s})"
        );
        oracle.merge_from(&oracle_b);
        assert_reads_equivalent(&merged, &oracle, &format!("post-merge, r = {r}, s = {s}"));
    }
}

#[test]
fn wide_difference_matches_reference_difference_bit_for_bit() {
    for &(r, s) in BOUNDARY_SHAPES {
        // Build the snapshot as a mid-stream clone so `difference`
        // subtracts a genuine earlier state with shared levels.
        let prefix = churn(3, 3_000);
        let (mut sketch, mut oracle) = both(config(r, s, 3), &prefix);
        let earlier_oracle = oracle.clone();
        let snapshot = sketch.clone();
        let flood: Vec<FlowUpdate> = ScenarioBuilder::new(17)
            .syn_flood(0x0a00_0001, 600)
            .build()
            .updates()
            .to_vec();
        for u in &flood {
            sketch.update(*u);
            oracle.update(*u);
        }

        let diff = sketch.difference(&snapshot).unwrap();
        let (full, earlier) = (sketch.to_state(), snapshot.to_state());
        let reference = SketchState {
            config: full.config.clone(),
            updates_processed: full.updates_processed - earlier.updates_processed,
            net_updates: full.net_updates - earlier.net_updates,
            levels: combined(&full, &earlier, false, true),
        };
        assert_eq!(
            diff.to_state(),
            reference,
            "difference state diverged (r = {r}, s = {s})"
        );
        oracle.subtract(&earlier_oracle);
        assert_reads_equivalent(
            &diff,
            &oracle,
            &format!("post-difference, r = {r}, s = {s}"),
        );
    }
}

#[test]
fn batched_point_queries_match_single_shot_queries() {
    let (sketch, _) = both(config(3, 256, 23), &attack());
    let groups: Vec<u32> = vec![0x0a00_0001, 0, 1, 7, 0xdead_beef, 42];

    let batched = sketch.estimate_group_frequencies(&groups, 0.25);
    assert_eq!(batched.len(), groups.len());

    let sample = sketch.distinct_sample(0.25);
    for (group, &batch_estimate) in groups.iter().zip(&batched) {
        assert_eq!(
            batch_estimate,
            sketch.estimate_group_frequency(*group, 0.25),
            "batched estimate diverged from single-shot for group {group:#x}"
        );
        assert_eq!(
            batch_estimate,
            sample.group_frequency(sketch.config().group_by(), *group),
            "batched estimate diverged from sample handle for group {group:#x}"
        );
    }
}

#[test]
fn zero_key_survives_every_read_path() {
    // FlowKey(0, 0) packs to 0 and fingerprints to 0, so all three sums
    // stay zero for a bucket holding only that key — the screen pass
    // must still report it via the bucket total.
    let updates = [FlowUpdate::insert(SourceAddr(0), DestAddr(0))];
    let (sketch, oracle) = both(config(2, 32, 5), &updates);
    assert_reads_equivalent(&sketch, &oracle, "zero key");
    assert!(
        !sketch.singletons().is_empty(),
        "the all-zero key vanished from the singleton enumeration"
    );
    assert_eq!(sketch.estimate_group_frequency(0, 0.25), 1);
    assert_eq!(sketch.estimate_group_frequencies(&[0], 0.25), vec![1]);
}
