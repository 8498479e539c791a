//! The corruption matrix: every way a checkpoint file can be damaged
//! must surface as a typed `PersistError` — never a panic, and never a
//! partially-applied restore.
//!
//! Matrix axes:
//! * **Truncation** — the file cut at every section boundary, one byte
//!   before it, and one byte after it (simulating a torn write that
//!   the atomic-rename protocol should prevent but the decoder must
//!   still survive).
//! * **Bit flips** — seeded pseudo-random single-bit flips across the
//!   whole file; each must be caught by the magic check, the framing
//!   checks, a section CRC, or semantic validation.
//! * **Nesting** — forged documents nested far deeper than the grammar
//!   allows are refused from their headers, without recursion.
//! * **Round-trip** — proptest-driven encode → decode identity over
//!   randomized sketch contents.
//! * **Counter range** — a validly framed format-1 document whose 8-byte
//!   counter word lies outside the sketch's 4-byte totals is refused,
//!   never wrapped into range.
//! * **Update log** — the log beside a snapshot cut anywhere in its
//!   last record, bit-flipped in a middle record, starting past the
//!   snapshot, or left by another run: each record is applied or
//!   counted as dropped, never skipped silently or applied out of
//!   lineage.

use proptest::prelude::*;

use std::path::{Path, PathBuf};

use ddos_streams::core::SketchState;
use ddos_streams::netsim::{
    run_pipeline, CheckpointSidecar, PipelineConfig, TrafficDriver, WindowPolicy,
};
use ddos_streams::persist::log::{record_len, LOG_HEADER_LEN};
use ddos_streams::persist::{
    crc32, decode, encode, section_offsets, Checkpoint, CheckpointManager, LogReplay, PersistError,
    FORMAT_VERSION, MAGIC,
};
use ddos_streams::{
    Delta, DestAddr, DistinctCountSketch, EdgeRouter, FlowUpdate, SketchConfig, SketchError,
    SourceAddr, TcpSegment, TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    // Deliberately small: the exhaustive truncation test decodes every
    // prefix of the document, which is quadratic in its length, so the
    // sample must stay in the tens-of-KB range to run in seconds.
    SketchConfig::builder()
        .num_tables(2)
        .buckets_per_table(8)
        .max_levels(5)
        .seed(seed)
        .build()
        .unwrap()
}

fn sample_bytes(seed: u64) -> Vec<u8> {
    let mut sketch = TrackingDcs::new(config(seed));
    for s in 0..600u32 {
        sketch.insert(SourceAddr(s), DestAddr(s % 11));
        if s % 4 == 0 {
            sketch.delete(SourceAddr(s), DestAddr(s % 11));
        }
    }
    encode(&Checkpoint::Tracking(sketch.to_state()))
}

/// A tiny deterministic PRNG (xorshift64*) so the bit-flip sample is
/// reproducible without pulling in rand for index generation.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[test]
fn truncation_at_every_section_boundary_is_typed() {
    let bytes = sample_bytes(1);
    let boundaries = section_offsets(&bytes).unwrap();
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    for &boundary in &boundaries {
        for cut in [boundary.saturating_sub(1), boundary, boundary + 1] {
            if cut >= bytes.len() {
                continue;
            }
            let err = decode(&bytes[..cut]).expect_err("truncated decode must fail");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Corrupt { .. }
                        | PersistError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }
}

#[test]
fn truncation_at_every_single_byte_never_panics() {
    let bytes = sample_bytes(2);
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "decode of {cut}-byte prefix unexpectedly succeeded"
        );
    }
}

#[test]
fn seeded_random_bit_flips_are_all_detected() {
    let bytes = sample_bytes(3);
    let mut rng = XorShift(0x5eed_cafe);
    for _ in 0..500 {
        let bit = usize::try_from(rng.next()).unwrap_or(0) % (bytes.len() * 8);
        let (byte, shift) = (bit / 8, bit % 8);
        let mut flipped = bytes.clone();
        flipped[byte] ^= 1 << shift;
        assert!(
            decode(&flipped).is_err(),
            "single-bit flip at byte {byte} bit {shift} went undetected"
        );
    }
}

#[test]
fn every_bit_of_every_section_payload_is_crc_protected() {
    // Exhaustive over the payload regions (the framing regions are
    // covered structurally): flipping any payload bit must error.
    let bytes = sample_bytes(4);
    let boundaries = section_offsets(&bytes).unwrap();
    const FRAME: usize = 4 + 8 + 4; // tag + length + crc
    for window in boundaries.windows(2) {
        let payload_start = window[0] + FRAME;
        // Sample every 7th byte to keep runtime reasonable while still
        // touching every section.
        for byte in (payload_start..window[1]).step_by(7) {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x01;
            assert!(
                decode(&flipped).is_err(),
                "payload flip at byte {byte} went undetected"
            );
        }
    }
}

#[test]
fn failed_decode_leaves_no_partially_applied_state() {
    // A restore is decode-then-construct: if decode fails, there is no
    // object at all; if construction fails, `from_state` returned Err
    // and no sketch was built. Simulate the second half: a decoded
    // state mutated into inconsistency must be rejected wholesale.
    let mut sketch = TrackingDcs::new(config(5));
    for s in 0..300u32 {
        sketch.insert(SourceAddr(s), DestAddr(s % 7));
    }
    let mut state = sketch.to_state();
    // Duplicate level indices violate the strictly-ascending invariant.
    if state.sketch.levels.len() >= 2 {
        state.sketch.levels[1].level = state.sketch.levels[0].level;
    }
    assert!(matches!(
        TrackingDcs::from_state(state),
        Err(SketchError::InvalidState { .. })
    ));
}

#[test]
fn empty_and_tiny_inputs_are_typed_errors() {
    assert!(matches!(decode(&[]), Err(PersistError::Truncated { .. })));
    assert!(matches!(
        decode(b"DCS"),
        Err(PersistError::Truncated { .. })
    ));
    assert!(matches!(
        decode(b"NOTACKPT________________"),
        Err(PersistError::BadMagic { .. })
    ));
}

/// Regression: a sharded checkpoint whose per-shard update counts
/// overflow `u64` when summed must be rejected as `Incompatible`.
/// Before the `checked_add` fix, the sum saturated to `u64::MAX`, so a
/// corrupt document pairing saturating counts with a `u64::MAX` cursor
/// slipped past the cursor-consistency check and restored silently.
#[test]
fn sharded_counts_overflowing_u64_are_incompatible() {
    use ddos_streams::netsim::ShardedIngest;
    use ddos_streams::persist::ShardedCheckpoint;

    let mut shard = DistinctCountSketch::new(config(7));
    shard.update(FlowUpdate::new(SourceAddr(1), DestAddr(2), Delta::Insert));
    let mut forged = shard.to_state();
    forged.updates_processed = u64::MAX;
    let checkpoint = ShardedCheckpoint {
        updates_distributed: u64::MAX,
        shards: vec![forged.clone(), forged],
    };
    match ShardedIngest::from_checkpoint(checkpoint) {
        Err(PersistError::Incompatible { reason }) => {
            assert!(reason.contains("overflow"), "wrong reason: {reason}");
        }
        other => panic!("overflowing counts must be Incompatible, got {other:?}"),
    }
}

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and `b.len()` (zlib's
/// `crc32_combine`), so a deeply nested document gets a valid CRC at
/// every layer without re-hashing each layer's whole payload.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // Polynomials mod P in reflected bit order: x^k is bit 31 − k.
    fn mul_mod_p(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        for bit in (0..32).rev() {
            if a & (1 << bit) != 0 {
                product ^= b;
            }
            b = if b & 1 != 0 {
                (b >> 1) ^ 0xEDB8_8320
            } else {
                b >> 1
            };
        }
        product
    }
    let (mut shift, mut square) = (1u32 << 31, 1u32 << 23); // x^0, x^8
    let mut zero_bytes = len_b;
    while zero_bytes != 0 {
        if zero_bytes & 1 != 0 {
            shift = mul_mod_p(square, shift);
        }
        square = mul_mod_p(square, square);
        zero_bytes >>= 1;
    }
    mul_mod_p(shift, crc_a) ^ crc_b
}

/// A forged chain of `depth` tracking documents, each holding the next
/// in its `SKC` section (where the grammar allows only a sketch), around
/// an empty sketch document. Every layer's framing and CRCs are valid.
fn nested_tracking_chain(depth: usize) -> Vec<u8> {
    let leaf = encode(&Checkpoint::Sketch(
        DistinctCountSketch::new(config(1)).to_state(),
    ));
    let mut suffix = b"TRM\0".to_vec();
    suffix.extend_from_slice(&8u64.to_le_bytes());
    suffix.extend_from_slice(&crc32(&[0; 8]).to_le_bytes());
    suffix.extend_from_slice(&[0; 8]);
    let (mut len, mut crc) = (leaf.len(), crc32(&leaf));
    let mut prefixes = Vec::with_capacity(depth);
    for _ in 0..depth {
        let mut prefix = MAGIC.to_vec();
        prefix.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        prefix.push(2); // document kind: Tracking
        prefix.extend_from_slice(&2u32.to_le_bytes()); // SKC + TRM
        prefix.extend_from_slice(b"SKC\0");
        prefix.extend_from_slice(&u64::try_from(len).unwrap().to_le_bytes());
        prefix.extend_from_slice(&crc.to_le_bytes());
        crc = crc32_combine(
            crc32_combine(crc32(&prefix), crc, len),
            crc32(&suffix),
            suffix.len(),
        );
        len += prefix.len() + suffix.len();
        prefixes.push(prefix);
    }
    let mut bytes = Vec::with_capacity(len);
    for prefix in prefixes.iter().rev() {
        bytes.extend_from_slice(prefix);
    }
    bytes.extend_from_slice(&leaf);
    for _ in 0..depth {
        bytes.extend_from_slice(&suffix);
    }
    assert_eq!(bytes.len(), len);
    bytes
}

#[test]
fn deeply_nested_documents_are_corrupt_not_a_stack_overflow() {
    // One layer is a well-formed tracking document: the forgery is
    // valid framing, so only the nesting rule can refuse deeper ones.
    assert!(matches!(
        decode(&nested_tracking_chain(1)),
        Ok(Checkpoint::Tracking(_))
    ));
    for depth in [2, 3, 10_000] {
        match decode(&nested_tracking_chain(depth)) {
            Err(PersistError::Corrupt { context }) => {
                assert!(
                    context.contains("SKC section: embedded document has kind 2"),
                    "depth {depth}: {context}"
                );
            }
            other => panic!("depth {depth}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn pipeline_starts_fresh_from_a_deeply_nested_checkpoint() {
    let path = std::env::temp_dir().join(format!("dcs-corrupt-nested-{}.ckpt", std::process::id()));
    std::fs::write(&path, nested_tracking_chain(10_000)).unwrap();
    let mut driver = TrafficDriver::new(5);
    driver.syn_flood(DestAddr(4), 300);
    let report = run_pipeline(
        vec![driver.into_segments()],
        PipelineConfig {
            sketch: config(1),
            checkpoint: Some(CheckpointSidecar {
                path: path.clone(),
                every: 100,
            }),
            ..PipelineConfig::default()
        },
    );
    remove_checkpoint(&path);
    assert!(!report.restored_from_checkpoint);
    assert!(
        report.checkpoints_written > 0,
        "the fresh run checkpoints again"
    );
}

#[test]
fn pipeline_starts_fresh_from_a_window_ring_that_does_not_sum() {
    let path = std::env::temp_dir().join(format!("dcs-corrupt-ring-{}.ckpt", std::process::id()));
    let run = || {
        let mut driver = TrafficDriver::new(5);
        driver.syn_flood(DestAddr(4), 300);
        run_pipeline(
            vec![driver.into_segments()],
            PipelineConfig {
                sketch: config(1),
                evaluate_every: 50,
                window: Some(WindowPolicy::Sliding { epochs: 2 }),
                checkpoint: Some(CheckpointSidecar {
                    path: path.clone(),
                    every: 100,
                }),
                ..PipelineConfig::default()
            },
        )
    };
    assert!(!run().restored_from_checkpoint);
    let Checkpoint::Window(mut doc) = decode(&std::fs::read(&path).unwrap()).unwrap() else {
        panic!("a windowed direct pipeline saves window documents");
    };
    assert!(!doc.deltas.is_empty());
    // The intact document resumes; the same document with its oldest
    // delta claiming one update the accumulator never saw does not.
    assert!(run().restored_from_checkpoint);
    doc.deltas[0].updates_processed += 1;
    std::fs::write(&path, encode(&Checkpoint::Window(doc))).unwrap();
    let report = run();
    remove_checkpoint(&path);
    assert!(!report.restored_from_checkpoint);
    assert!(report.checkpoints_written > 0);
}

/// Removes a checkpoint and the update log beside it.
fn remove_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(CheckpointManager::new(path).log_path());
    let _ = std::fs::remove_file(path);
}

fn log_path(path: &Path) -> PathBuf {
    CheckpointManager::new(path).log_path()
}

/// Updates the log tests append, `RECORD` per record.
const RECORD: u32 = 10;

fn record(index: u32) -> Vec<FlowUpdate> {
    (index * RECORD..(index + 1) * RECORD)
        .map(|s| {
            let delta = if s % 4 == 3 {
                Delta::Delete
            } else {
                Delta::Insert
            };
            FlowUpdate::new(SourceAddr(s / 2), DestAddr(s % 7), delta)
        })
        .collect()
}

/// Saves a snapshot of a 600-update sketch at `path` and appends
/// `records` records after it; returns the state after each record
/// (index 0: the snapshot's).
fn logged_checkpoint(path: &Path, records: u32) -> Vec<SketchState> {
    remove_checkpoint(path);
    let mut sketch = DistinctCountSketch::new(config(3));
    for s in 0..600u32 {
        sketch.insert(SourceAddr(s + 10_000), DestAddr(s % 11));
    }
    let mut manager = CheckpointManager::new(path);
    manager
        .save(&Checkpoint::Sketch(sketch.to_state()))
        .unwrap();
    let mut states = vec![sketch.to_state()];
    for index in 0..records {
        manager.append(&record(index)).unwrap();
        sketch.update_batch(&record(index));
        states.push(sketch.to_state());
    }
    states
}

/// Restores the snapshot at `path` and replays its update log.
fn recover(path: &Path) -> (DistinctCountSketch, LogReplay) {
    let mut manager = CheckpointManager::new(path);
    let Some(Checkpoint::Sketch(state)) = manager.try_load().unwrap() else {
        panic!("a sketch snapshot");
    };
    let mut sketch = DistinctCountSketch::from_state(state).unwrap();
    let from = sketch.updates_processed();
    let replay = manager
        .replay_log(from, |batch| sketch.apply_net(batch))
        .unwrap();
    (sketch, replay)
}

#[test]
fn update_log_cut_anywhere_in_its_last_record_drops_exactly_that_record() {
    let path =
        std::env::temp_dir().join(format!("dcs-corrupt-log-cut-{}.ckpt", std::process::id()));
    let states = logged_checkpoint(&path, 4);
    let full = std::fs::read(log_path(&path)).unwrap();
    let last = full.len() - usize::try_from(record_len(RECORD as usize)).unwrap();
    for cut in last..full.len() {
        std::fs::write(log_path(&path), &full[..cut]).unwrap();
        let (sketch, replay) = recover(&path);
        assert_eq!(replay.replayed, 3, "cut at {cut}");
        assert_eq!(replay.dropped, u64::from(cut > last), "cut at {cut}");
        assert_eq!(sketch.to_state(), states[3], "cut at {cut}");
        if cut > last {
            assert!(matches!(
                replay.problem,
                Some(PersistError::Truncated { .. })
            ));
        }
        // The torn tail is cut off, so the next append extends record 3.
        assert_eq!(std::fs::read(log_path(&path)).unwrap(), &full[..last]);
    }
    remove_checkpoint(&path);
}

#[test]
fn a_flipped_bit_in_a_middle_record_stops_the_replay_there() {
    let path =
        std::env::temp_dir().join(format!("dcs-corrupt-log-flip-{}.ckpt", std::process::id()));
    let states = logged_checkpoint(&path, 5);
    let mut log = std::fs::read(log_path(&path)).unwrap();
    let record_bytes = usize::try_from(record_len(RECORD as usize)).unwrap();
    let third = usize::try_from(LOG_HEADER_LEN).unwrap() + 2 * record_bytes;
    log[third + record_bytes / 2] ^= 0x10;
    std::fs::write(log_path(&path), &log).unwrap();
    let (sketch, replay) = recover(&path);
    assert_eq!((replay.replayed, replay.dropped), (2, 3));
    assert!(matches!(
        replay.problem,
        Some(PersistError::ChecksumMismatch { .. })
    ));
    assert_eq!(sketch.to_state(), states[2]);
    remove_checkpoint(&path);
}

/// Everything one `run_pipeline` router thread exports for `feed`.
fn router_exports(feed: &[TcpSegment]) -> Vec<FlowUpdate> {
    let mut router = EdgeRouter::new(0, None);
    router.observe_all(feed);
    let last_ts = feed.last().map_or(0, |s| s.timestamp);
    router.flush_expired(last_ts.saturating_add(1_000_000));
    router.drain_exports()
}

fn flood_feed(seed: u64) -> Vec<TcpSegment> {
    let mut driver = TrafficDriver::new(seed);
    driver.syn_flood(DestAddr(4), 300);
    driver.into_segments()
}

fn checkpointed(sketch: SketchConfig, path: &Path) -> PipelineConfig {
    PipelineConfig {
        sketch,
        batch_size: 64,
        evaluate_every: 100,
        checkpoint: Some(CheckpointSidecar {
            path: path.to_path_buf(),
            every: 100,
        }),
        ..PipelineConfig::default()
    }
}

#[test]
fn a_log_that_starts_past_its_snapshot_is_refused() {
    let path =
        std::env::temp_dir().join(format!("dcs-corrupt-log-gap-{}.ckpt", std::process::id()));
    let states = logged_checkpoint(&path, 3);
    // An older snapshot than the one the log extends: its records start
    // 600 updates past it.
    let mut older = DistinctCountSketch::new(config(3));
    older.insert(SourceAddr(1), DestAddr(1));
    std::fs::write(&path, encode(&Checkpoint::Sketch(older.to_state()))).unwrap();
    let log = std::fs::read(log_path(&path)).unwrap();
    let (sketch, replay) = recover(&path);
    assert_eq!((replay.replayed, replay.dropped), (0, 3));
    assert!(matches!(
        replay.problem,
        Some(PersistError::Incompatible { .. })
    ));
    assert_eq!(sketch.to_state(), older.to_state());
    assert_ne!(states[0], older.to_state());

    // The pipeline resumes the snapshot alone, with a warning.
    std::fs::write(log_path(&path), &log).unwrap();
    let feed = flood_feed(6);
    let report = run_pipeline(vec![feed.clone()], checkpointed(config(3), &path));
    assert!(report.restored_from_checkpoint);
    older.update_batch(&router_exports(&feed));
    assert_eq!(
        report.monitor.sketch().sketch().to_state(),
        older.to_state()
    );
    let (resumed, replay) = recover(&path);
    assert_eq!(resumed.to_state(), older.to_state());
    assert_eq!(replay.dropped, 0);
    remove_checkpoint(&path);
}

#[test]
fn a_fresh_start_after_a_refused_snapshot_never_replays_the_old_log() {
    let path =
        std::env::temp_dir().join(format!("dcs-corrupt-log-fresh-{}.ckpt", std::process::id()));
    for why in ["a corrupt snapshot", "another configuration's snapshot"] {
        logged_checkpoint(&path, 3);
        let sketch = if why == "a corrupt snapshot" {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 1;
            std::fs::write(&path, bytes).unwrap();
            config(3)
        } else {
            config(4)
        };
        let feed = flood_feed(7);
        let report = run_pipeline(vec![feed.clone()], checkpointed(sketch.clone(), &path));
        assert!(!report.restored_from_checkpoint, "{why}");
        let mut fresh = DistinctCountSketch::new(sketch);
        fresh.update_batch(&router_exports(&feed));
        assert_eq!(
            report.monitor.sketch().sketch().to_state(),
            fresh.to_state(),
            "{why}"
        );
        // What the run left behind is its own history only.
        let (resumed, replay) = recover(&path);
        assert_eq!(resumed.to_state(), fresh.to_state(), "{why}");
        assert_eq!(
            (replay.replayed, replay.skipped, replay.dropped),
            (0, 0, 0),
            "{why}"
        );
    }
    remove_checkpoint(&path);
}

/// `bytes` (a format-1 document) with the first counter of its first
/// `LVL` section — the total of bucket slot 0 — set to `word`, and
/// that section's CRC recomputed, so only the counter range is wrong.
fn with_first_counter(mut bytes: Vec<u8>, word: i64) -> Vec<u8> {
    // Sections: CFG, MET, then the levels.
    let offsets = section_offsets(&bytes).unwrap();
    let (start, end) = (offsets[2], offsets[3]);
    assert_eq!(&bytes[start..start + 4], b"LVL\0");
    // Frame: tag(4) + length(8) + crc(4); payload: level(4) + count(8).
    let payload = start + 16;
    bytes[payload + 12..payload + 20].copy_from_slice(&word.to_le_bytes());
    let crc = crc32(&bytes[payload..end]);
    bytes[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// A committed format-1 fixture. Format 2 stores each total in four
/// bytes, so only a format-1 file can carry a counter word outside
/// `i32`.
fn v1_fixture(name: &str) -> Vec<u8> {
    std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name),
    )
    .unwrap()
}

/// The configuration of the committed fixtures.
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
fn a_counter_outside_i32_is_refused_not_wrapped() {
    let bytes = v1_fixture("sketch_v1.ckpt");
    // The widest in-range words still decode, to exactly those totals.
    for word in [i64::from(i32::MAX), i64::from(i32::MIN)] {
        let Checkpoint::Sketch(state) = decode(&with_first_counter(bytes.clone(), word)).unwrap()
        else {
            panic!("a sketch document decodes to a sketch");
        };
        assert_eq!(i64::from(state.levels[0].totals[0]), word);
    }
    // One past either end, and 2³² + 1 (which an `as i32` would wrap to
    // a plausible total of 1), are refused — in a top-level sketch
    // document and nested inside a tracking one alike.
    let tracking_bytes = v1_fixture("tracking_v1.ckpt");
    for word in [1 << 31, -(1 << 31) - 1, (1 << 32) + 1] {
        match decode(&with_first_counter(bytes.clone(), word)) {
            Err(PersistError::CounterOutOfRange { context, value }) => {
                assert_eq!(value, word);
                assert_eq!(context, "level counter slab");
            }
            other => panic!("counter {word}: expected CounterOutOfRange, got {other:?}"),
        }
        let nested = decode(&with_nested_first_counter(&tracking_bytes, word));
        assert!(
            matches!(nested, Err(PersistError::CounterOutOfRange { value, .. }) if value == word),
            "nested counter {word}: {nested:?}"
        );
    }

    // The pipeline starts fresh, with a warning, from such a snapshot.
    let path =
        std::env::temp_dir().join(format!("dcs-corrupt-counter-{}.ckpt", std::process::id()));
    remove_checkpoint(&path);
    std::fs::write(&path, with_first_counter(bytes, (1 << 32) + 1)).unwrap();
    let feed = flood_feed(8);
    let report = run_pipeline(vec![feed.clone()], checkpointed(fixture_config(), &path));
    assert!(!report.restored_from_checkpoint);
    let mut fresh = DistinctCountSketch::new(fixture_config());
    fresh.update_batch(&router_exports(&feed));
    assert_eq!(
        report.monitor.sketch().sketch().to_state(),
        fresh.to_state()
    );
    remove_checkpoint(&path);
}

/// A format-1 level's key sum is determined by its bit counters, so a
/// validly framed file whose key sum disagrees with them is refused as
/// corrupt rather than converted.
#[test]
fn a_format_1_key_sum_that_disagrees_with_its_bit_counters_is_corrupt() {
    let mut bytes = v1_fixture("sketch_v1.ckpt");
    let offsets = section_offsets(&bytes).unwrap();
    let (start, end) = (offsets[2], offsets[3]);
    assert_eq!(&bytes[start..start + 4], b"LVL\0");
    // Payload: level(4), counter count(8), 65 eight-byte counters per
    // bucket, key-sum count(8), key sums.
    let payload = start + 16;
    let counters = u64::from_le_bytes(bytes[payload + 4..payload + 12].try_into().unwrap());
    let first_key_sum = payload + 12 + 8 * counters as usize + 8;
    bytes[first_key_sum] ^= 1;
    let crc = crc32(&bytes[payload..end]);
    bytes[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        decode(&bytes),
        Err(PersistError::Corrupt { context }) if context.contains("disagrees with its bit counters")
    ));
}

/// A tracking document whose nested sketch (its `SKC` section) has the
/// first counter set to `word`, with both layers' CRCs recomputed.
fn with_nested_first_counter(bytes: &[u8], word: i64) -> Vec<u8> {
    let offsets = section_offsets(bytes).unwrap();
    // Sections: SKC (the nested sketch document), TRM, TRK*.
    let (start, end) = (offsets[0], offsets[1]);
    assert_eq!(&bytes[start..start + 4], b"SKC\0");
    let payload = start + 16;
    let nested = with_first_counter(bytes[payload..end].to_vec(), word);
    assert_eq!(nested.len(), end - payload);
    let mut out = bytes.to_vec();
    out[payload..end].copy_from_slice(&nested);
    let crc = crc32(&nested);
    out[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Encode → decode is the identity for arbitrary well-formed
    /// streams, for both document kinds that carry live sketch state.
    #[test]
    fn roundtrip_identity(seed in 0u64..1_000, n in 1usize..800) {
        let mut basic = DistinctCountSketch::new(config(seed));
        let mut tracking = TrackingDcs::new(config(seed));
        for i in 0..n {
            let s = u32::try_from(i).unwrap();
            let update = FlowUpdate::new(SourceAddr(s), DestAddr(s % 13), Delta::Insert);
            basic.update(update);
            tracking.update(update);
        }
        let b = Checkpoint::Sketch(basic.to_state());
        prop_assert_eq!(&decode(&encode(&b)).unwrap(), &b);
        let t = Checkpoint::Tracking(tracking.to_state());
        prop_assert_eq!(&decode(&encode(&t)).unwrap(), &t);
    }

    /// Random truncations of a valid file always produce a typed error.
    #[test]
    fn random_truncations_never_panic(seed in 0u64..50, frac in 0.0f64..1.0) {
        let bytes = sample_bytes(seed + 100);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }
}
