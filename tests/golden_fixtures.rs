//! Golden fixtures: committed byte-level baselines that pin down (a)
//! the checkpoint format and (b) the seeded hash families it depends
//! on. If either ever changes shape, these tests fail **before** a
//! deployed monitor discovers it cannot read last week's checkpoint.
//!
//! Three fixture classes live under `tests/fixtures/`:
//! * `*_v2.ckpt` — canonical checkpoint files for deterministic sample
//!   states in the current format. Drift check: re-encoding the same
//!   state today must be byte-identical to the committed file, and
//!   decoding the committed file must reproduce the state.
//! * `*_v1.ckpt` — the same states in format 1 (65 counters per
//!   bucket), frozen: they are never regenerated, and decoding them
//!   must still reproduce today's state exactly.
//! * `hash_vectors.txt` — golden input → output vectors for the
//!   geometric level hash and the multiply-shift bucket hash. The
//!   checkpoint format persists *only* the seed, so restore
//!   correctness requires that seeded hash construction never changes
//!   across versions — these vectors are that guarantee's tripwire.
//!
//! Regenerate intentionally with `UPDATE_FIXTURES=1 cargo test --test
//! golden_fixtures` and commit the diff (a format-version bump must
//! accompany any `.ckpt` change; the new format's files join the old
//! ones, which stay as decode fixtures).

use std::fmt::Write as _;
use std::path::PathBuf;

use ddos_streams::hash::{GeometricLevelHash, MultiplyShiftHash};
use ddos_streams::persist::{decode, encode, Checkpoint};
use ddos_streams::{
    Delta, DestAddr, DistinctCountSketch, FlowUpdate, SketchConfig, SourceAddr, TrackingDcs,
};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_FIXTURES").is_some_and(|v| v == "1")
}

/// Decodes a committed fixture file.
fn committed(name: &str) -> Checkpoint {
    decode(&std::fs::read(fixtures_dir().join(name)).unwrap()).unwrap()
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `UPDATE_FIXTURES=1`.
fn check_fixture(name: &str, actual: &[u8]) {
    let path = fixtures_dir().join(name);
    if updating() {
        std::fs::create_dir_all(fixtures_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("fixture {name} unreadable ({e}); regenerate with UPDATE_FIXTURES=1")
    });
    assert_eq!(
        committed, actual,
        "fixture {name} drifted: the serialized form changed. If intentional, \
         bump FORMAT_VERSION and regenerate with UPDATE_FIXTURES=1."
    );
}

/// The canonical sample state: fixed seed, fixed stream, both inserts
/// and deletes. Changing this function invalidates the fixtures.
fn canonical_tracking() -> TrackingDcs {
    // Small dimensions keep the committed fixtures compact.
    let mut sketch = TrackingDcs::new(fixture_config());
    for s in 0..500u32 {
        sketch.update(FlowUpdate::new(
            SourceAddr(s.wrapping_mul(2_654_435_761)),
            DestAddr(s % 9),
            Delta::Insert,
        ));
        if s % 5 == 0 {
            sketch.update(FlowUpdate::new(
                SourceAddr(s.wrapping_mul(2_654_435_761)),
                DestAddr(s % 9),
                Delta::Delete,
            ));
        }
    }
    sketch
}

/// The fixtures' configuration.
fn fixture_config() -> SketchConfig {
    SketchConfig::builder()
        .num_tables(2)
        .buckets_per_table(8)
        .max_levels(6)
        .seed(0xDC5_2007)
        .build()
        .unwrap()
}

#[test]
fn tracking_checkpoint_fixture_has_not_drifted() {
    let state = canonical_tracking().to_state();
    let checkpoint = Checkpoint::Tracking(state.clone());
    check_fixture("tracking_v2.ckpt", &encode(&checkpoint));
    if updating() {
        return;
    }
    // Both committed files decode back to exactly this state: the
    // current format in both directions, and format 1 converted.
    for name in ["tracking_v2.ckpt", "tracking_v1.ckpt"] {
        assert_eq!(committed(name), checkpoint, "{name}");
    }
    // And the restored sketch must answer queries identically.
    let restored = TrackingDcs::from_state(state).unwrap();
    assert_eq!(
        restored.track_top_k(5, 0.25),
        canonical_tracking().track_top_k(5, 0.25)
    );
}

#[test]
fn basic_checkpoint_fixture_has_not_drifted() {
    let mut sketch = DistinctCountSketch::new(fixture_config());
    for s in 0..300u32 {
        sketch.insert(SourceAddr(s.wrapping_mul(0x9E37_79B9)), DestAddr(s % 6));
    }
    let checkpoint = Checkpoint::Sketch(sketch.to_state());
    check_fixture("sketch_v2.ckpt", &encode(&checkpoint));
    if updating() {
        return;
    }
    for name in ["sketch_v2.ckpt", "sketch_v1.ckpt"] {
        assert_eq!(committed(name), checkpoint, "{name}");
    }
}

/// Golden vectors for the seeded hash families. A checkpoint stores
/// only `config.seed`; the full hash state is re-derived at restore
/// time, so any change to seeded construction or evaluation silently
/// breaks every existing checkpoint. This fixture turns "silently"
/// into a test failure.
fn hash_vector_text() -> String {
    let keys: [u64; 6] = [
        0,
        1,
        0xDEAD_BEEF,
        0x0123_4567_89AB_CDEF,
        u64::from(u32::MAX),
        u64::MAX,
    ];
    let seeds: [u64; 3] = [7, 0xDC5_2007, 0xFFFF_FFFF_FFFF_FFFF];
    let mut out = String::from(
        "# Golden vectors for the seeded hash families (dcs-hash).\n\
         # family seed key value\n",
    );
    for &seed in &seeds {
        let geometric = GeometricLevelHash::new(seed, 32);
        let multiply = MultiplyShiftHash::new(seed);
        for &key in &keys {
            writeln!(out, "geometric {seed} {key} {}", geometric.level(key)).unwrap();
            writeln!(out, "multiply_shift {seed} {key} {}", multiply.hash(key)).unwrap();
        }
    }
    out
}

#[test]
fn hash_golden_vectors_have_not_drifted() {
    check_fixture("hash_vectors.txt", hash_vector_text().as_bytes());
}

#[test]
fn fixture_directory_is_complete() {
    if updating() {
        return;
    }
    for name in [
        "tracking_v2.ckpt",
        "sketch_v2.ckpt",
        "tracking_v1.ckpt",
        "sketch_v1.ckpt",
        "hash_vectors.txt",
    ] {
        assert!(
            fixtures_dir().join(name).exists(),
            "missing fixture {name}; regenerate with UPDATE_FIXTURES=1"
        );
    }
}
