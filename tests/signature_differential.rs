//! The 28-byte count signature against the paper's 65-counter one.
//!
//! The sketch decodes a bucket from its total and three sums; the
//! paper reads the key off 64 bit counters (`tests/oracle`). On
//! well-formed streams — insert/delete streams whose net counts never
//! go negative, and partitions of them whose parts may delete what
//! another part inserted — the two must return identical decodes,
//! distinct samples, top-k lists and group estimates. On ill-formed
//! streams they may disagree in exactly two ways, and every
//! disagreement is asserted to be one of them:
//!
//! * the bucket holds a state only an ill-formed stream can produce (a
//!   negative total, or a zero total with residue), which the sketch
//!   counts as `decode_ill_formed`; or
//! * the paper's bit test accepted a masquerade — bit counts that spell
//!   a key the bucket does not hold alone — which the fingerprint
//!   check rejected as a collision.
//!
//! The proptests run a few dozen cases; the `#[ignore]`d long runs
//! repeat them over many more seeds (CI runs them in release mode).

mod oracle;

use proptest::prelude::*;
use rand::prelude::*;

use ddos_streams::core::signature::{BucketState, CountSignature};
use ddos_streams::{Delta, DestAddr, DistinctCountSketch, FlowUpdate, SketchConfig, SourceAddr};
use oracle::{Oracle, PaperSignature};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .num_tables(3)
        .buckets_per_table(32)
        .max_levels(16)
        .seed(seed)
        .build()
        .unwrap()
}

/// A random well-formed stream over a small key pool: deletes remove
/// live pairs only, and repeats are frequent, so buckets see
/// collisions, multi-copy singletons and re-emptying.
fn well_formed(seed: u64, n: usize) -> Vec<FlowUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<(u32, u32)> = (0..n / 3 + 1)
        .map(|_| (rng.gen(), rng.gen_range(0..8)))
        .collect();
    let mut live: Vec<(u32, u32)> = Vec::new();
    (0..n)
        .map(|_| {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let (s, d) = live.swap_remove(rng.gen_range(0..live.len()));
                FlowUpdate::delete(SourceAddr(s), DestAddr(d))
            } else {
                let (s, d) = pool[rng.gen_range(0..pool.len())];
                live.push((s, d));
                FlowUpdate::insert(SourceAddr(s), DestAddr(d))
            }
        })
        .collect()
}

/// A random stream with deletes that have no matching insert: a
/// quarter of the updates delete a pool key whether or not it is live.
fn ill_formed(seed: u64, n: usize) -> Vec<FlowUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<(u32, u32)> = (0..n / 4 + 1)
        .map(|_| (rng.gen(), rng.gen_range(0..8)))
        .collect();
    (0..n)
        .map(|_| {
            let (s, d) = pool[rng.gen_range(0..pool.len())];
            let delta = if rng.gen_bool(0.25) {
                Delta::Delete
            } else {
                Delta::Insert
            };
            FlowUpdate::new(SourceAddr(s), DestAddr(d), delta)
        })
        .collect()
}

/// Every bucket of `sketch` paired with the oracle's, as
/// `(level, slot, compact signature, paper decode)`.
///
/// `to_state` lists only levels with a non-zero slot: every level it
/// lists must be one the oracle materialized, and every oracle level it
/// omits must be all-zero there. An omitted level's buckets pair with
/// the zero signature, so every bucket of every oracle level is still
/// compared.
fn bucket_pairs(
    sketch: &DistinctCountSketch,
    oracle: &Oracle,
) -> Vec<(u32, usize, CountSignature, BucketState)> {
    let state = sketch.to_state();
    let mut held = state.levels.iter().peekable();
    let mut out = Vec::new();
    for (level, paper) in oracle.levels() {
        let slabs = held.next_if(|slabs| slabs.level == level);
        assert!(
            slabs.is_some() || paper.iter().all(PaperSignature::is_zero),
            "to_state omits level {level}, which the oracle holds non-zero"
        );
        for (slot, sig) in paper.iter().enumerate() {
            let compact = slabs.map_or(CountSignature::default(), |s| s.signature(slot).unwrap());
            out.push((level, slot, compact, sig.decode()));
        }
    }
    assert_eq!(
        held.next().map(|slabs| slabs.level),
        None,
        "to_state lists a level the oracle never materialized"
    );
    out
}

/// The levels of `oracle` that hold a non-zero bucket.
fn nonzero_levels(oracle: &Oracle) -> Vec<u32> {
    oracle
        .levels()
        .filter(|(_, sigs)| !sigs.iter().all(PaperSignature::is_zero))
        .map(|(level, _)| level)
        .collect()
}

/// On a well-formed stream every query the sketch answers equals the
/// oracle's.
fn assert_identical(sketch: &DistinctCountSketch, oracle: &Oracle, context: &str) {
    // A well-formed bucket is zero in one layout exactly when it is
    // zero in the other, so both hold content at the same levels.
    assert_eq!(
        sketch
            .to_state()
            .levels
            .iter()
            .map(|l| l.level)
            .collect::<Vec<_>>(),
        nonzero_levels(oracle),
        "the two layouts materialized different levels ({context})"
    );
    for (level, slot, compact, paper) in bucket_pairs(sketch, oracle) {
        assert_eq!(
            compact.decode(),
            paper,
            "level {level} slot {slot} ({context})"
        );
        assert!(
            !compact.is_ill_formed(),
            "level {level} slot {slot} ({context})"
        );
    }
    for epsilon in [0.0, 0.25, 1.0] {
        let sample = sketch.distinct_sample(epsilon);
        assert_eq!(sample, oracle.distinct_sample(epsilon), "{context}");
        assert_eq!(
            sketch.estimate_top_k(5, epsilon).entries,
            oracle.top_k(5, epsilon),
            "{context}"
        );
        let groups: Vec<u32> = (0..10).collect();
        let paper_sample = oracle.distinct_sample(epsilon);
        let expected: Vec<u64> = groups
            .iter()
            .map(|&g| paper_sample.group_frequency(sketch.config().group_by(), g))
            .collect();
        assert_eq!(
            sketch.estimate_group_frequencies(&groups, epsilon),
            expected,
            "{context}"
        );
    }
    assert_eq!(sketch.singletons(), oracle.singletons(), "{context}");
}

fn check_well_formed(seed: u64, n: usize) {
    let updates = well_formed(seed, n);
    let mut sketch = DistinctCountSketch::new(config(seed));
    sketch.update_batch(&updates);
    let oracle = Oracle::replay(config(seed), &updates);
    assert_identical(&sketch, &oracle, &format!("seed {seed}, n {n}"));
}

/// The stream split across `owners.len()`-way parts by `owners`, each
/// part sketched alone — so a part may delete what another inserted —
/// then merged.
fn check_partition(seed: u64, n: usize, parts: usize, owners: &[usize]) {
    let updates = well_formed(seed, n);
    let mut sketches = vec![DistinctCountSketch::new(config(seed)); parts];
    let mut oracles = vec![Oracle::new(config(seed)); parts];
    for (update, owner) in updates.iter().zip(owners.iter().cycle()) {
        sketches[owner % parts].update(*update);
        oracles[owner % parts].update(*update);
    }
    let merged = DistinctCountSketch::merge_many(&config(seed), &sketches).unwrap();
    let mut oracle = Oracle::new(config(seed));
    for part in &oracles {
        oracle.merge_from(part);
    }
    assert_identical(&merged, &oracle, &format!("seed {seed}, {parts} parts"));
}

/// Classifies every disagreement on an ill-formed stream, and checks
/// that one full scan counts every ill-formed bucket once. Returns the
/// number of `(counted, masquerade)` disagreements.
fn check_ill_formed(config: SketchConfig, updates: &[FlowUpdate]) -> (usize, usize) {
    let seed = config.seed();
    let mut sketch = DistinctCountSketch::new(config.clone());
    sketch.update_batch(updates);
    let oracle = Oracle::replay(config, updates);
    let (mut counted, mut masquerades, mut ill) = (0, 0, 0u64);
    for (level, slot, compact, paper) in bucket_pairs(&sketch, &oracle) {
        ill += u64::from(compact.is_ill_formed());
        let decoded = compact.decode();
        if decoded == paper {
            continue;
        }
        if compact.is_ill_formed() {
            counted += 1;
        } else {
            assert!(
                matches!(paper, BucketState::Singleton { .. }) && decoded == BucketState::Collision,
                "seed {seed} level {level} slot {slot}: sketch {decoded:?}, paper {paper:?}"
            );
            masquerades += 1;
        }
    }
    let before = counter(&sketch);
    let _ = sketch.singletons();
    assert_eq!(counter(&sketch) - before, ill, "seed {seed}");
    (counted, masquerades)
}

fn counter(sketch: &DistinctCountSketch) -> u64 {
    let snap = sketch.telemetry_snapshot("differential");
    snap.counters.get("decode_ill_formed").copied().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn well_formed_streams_decode_identically(seed in 0u64..1_000_000, n in 1usize..1_500) {
        check_well_formed(seed, n);
    }

    #[test]
    fn partitions_of_well_formed_streams_decode_identically(
        seed in 0u64..1_000_000,
        n in 1usize..1_500,
        parts in 1usize..=5,
        owners in proptest::collection::vec(0usize..5, 1..64),
    ) {
        check_partition(seed, n, parts, &owners);
    }

    #[test]
    fn ill_formed_disagreements_are_counted_or_masquerades(
        seed in 0u64..1_000_000,
        n in 1usize..1_500,
    ) {
        check_ill_formed(config(seed), &ill_formed(seed, n));
    }
}

/// Both kinds of disagreement really occur. Random 64-bit keys almost
/// never produce either, so both are built in one bucket from `a` and
/// `b` with disjoint bits: inserting `a` and `b` and deleting `a | b`
/// leaves every bit count 0 and the total 1, which the paper decodes as
/// the key 0 (a masquerade); deleting the key 0 as well leaves an
/// all-zero paper signature, which the paper calls empty, over a
/// fingerprint residue the sketch counts.
#[test]
fn ill_formed_streams_show_both_kinds_of_disagreement() {
    let one_level = SketchConfig::builder()
        .num_tables(1)
        .buckets_per_table(2)
        .max_levels(1)
        .seed(5)
        .build()
        .unwrap();
    let hashes = DistinctCountSketch::new(one_level.clone());
    let update = |s: u32, delta| FlowUpdate::new(SourceAddr(s), DestAddr(0), delta);
    let bucket = |s: u32| hashes.bucket_of(0, update(s, Delta::Insert).key);
    let (a, b) = (1..64u32)
        .flat_map(|a| (a + 1..64).map(move |b| (a, b)))
        .find(|&(a, b)| a & b == 0 && [b, a | b, 0].iter().all(|&s| bucket(s) == bucket(a)))
        .expect("four small keys share one of two buckets");
    let mut updates = vec![
        update(a, Delta::Insert),
        update(b, Delta::Insert),
        update(a | b, Delta::Delete),
    ];
    assert_eq!(check_ill_formed(one_level.clone(), &updates), (0, 1));
    updates.push(update(0, Delta::Delete));
    assert_eq!(check_ill_formed(one_level, &updates), (1, 0));
}

#[test]
#[ignore = "long run; CI runs it in release mode"]
fn compact_signature_matches_its_oracle_long() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..400 {
        let (seed, n) = (rng.gen(), rng.gen_range(1..6_000));
        check_well_formed(seed, n);
        let owners: Vec<usize> = (0..rng.gen_range(1..64))
            .map(|_| rng.gen_range(0..5))
            .collect();
        check_partition(seed, n, rng.gen_range(1..=5), &owners);
        check_ill_formed(config(seed), &ill_formed(seed, n));
    }
}
