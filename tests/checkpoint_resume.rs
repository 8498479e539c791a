//! Kill-and-resume equivalence for the checkpoint layer.
//!
//! The recovery contract rides on sketch linearity: a sketch restored
//! from a checkpoint taken at stream position `p` and then fed updates
//! `p..n` must be **bit-identical** — same slabs, same heap slot order,
//! same top-k — to a sketch that processed all `n` updates without
//! interruption. These tests kill runs at deliberately awkward offsets
//! (mid-`update_batch` chunk, one update in, one update before the
//! end, across a window epoch close) and check exact state equality
//! after the restored run replays its suffix, going through real
//! checkpoint files on disk each time. The tests after those drive
//! `run_pipeline` itself across a restart: from the legacy tracking
//! and sharded documents earlier pipelines saved, from the documents
//! it saves today in every ingest mode, from a retired kind, and from
//! a snapshot plus the update log a crash leaves behind.

use std::path::{Path, PathBuf};

use ddos_streams::netsim::sharded::ShardedIngest;
use ddos_streams::netsim::window::WindowPolicy;
use ddos_streams::netsim::{
    run_pipeline, CheckpointSidecar, DetectionReport, Monitor, PipelineConfig, TelemetrySidecar,
    TrafficDriver,
};
use ddos_streams::persist::{
    decode, encode, section_offsets, Checkpoint, CheckpointManager, PersistError,
};
use ddos_streams::{
    AlarmPolicy, Delta, DestAddr, DistinctCountSketch, EdgeRouter, FlowUpdate, SketchConfig,
    SourceAddr, TcpSegment, TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(64)
        .seed(seed)
        .build()
        .unwrap()
}

/// A deterministic insert/delete stream: mostly inserts across a skewed
/// set of destinations, with every third source completing its
/// handshake (insert + later delete) so the delete path is exercised.
fn stream(n: u32) -> Vec<FlowUpdate> {
    let mut updates = Vec::new();
    for s in 0..n {
        let dest = DestAddr(s % 17);
        updates.push(FlowUpdate::new(SourceAddr(s), dest, Delta::Insert));
        if s % 3 == 0 && s >= 30 {
            let done = s - 30;
            updates.push(FlowUpdate::new(
                SourceAddr(done),
                DestAddr(done % 17),
                Delta::Delete,
            ));
        }
    }
    updates
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dcs-resume-{tag}-{}.ckpt", std::process::id()))
}

/// Round-trips a checkpoint through an actual file (encode → atomic
/// write → read → decode), so every equivalence test below also covers
/// the on-disk path, not just in-memory state capture.
fn through_disk(tag: &str, checkpoint: &Checkpoint) -> Checkpoint {
    let path = temp_path(tag);
    let mut manager = CheckpointManager::new(&path);
    manager.save(checkpoint).unwrap();
    let restored = manager.load().unwrap();
    let _ = std::fs::remove_file(&path);
    restored
}

/// Cut points chosen to land everywhere interesting relative to the
/// sketch's internal `BATCH_CHUNK = 1024` batching: first update, a
/// mid-chunk offset, an exact chunk boundary, one past it, and the
/// penultimate update.
fn cut_points(len: usize) -> Vec<usize> {
    vec![1, 500, 1024, 1025, len - 1]
}

#[test]
fn basic_sketch_restore_plus_replay_is_bit_identical() {
    let updates = stream(4_000);
    let mut full = DistinctCountSketch::new(config(1));
    full.update_batch(&updates);
    for cut in cut_points(updates.len()) {
        let mut prefix = DistinctCountSketch::new(config(1));
        prefix.update_batch(&updates[..cut]);
        let saved = through_disk("basic", &Checkpoint::Sketch(prefix.to_state()));
        drop(prefix); // the "crash"
        let Checkpoint::Sketch(state) = saved else {
            panic!("wrong document kind");
        };
        let mut resumed = DistinctCountSketch::from_state(state).unwrap();
        resumed.update_batch(&updates[cut..]);
        assert_eq!(
            resumed.to_state(),
            full.to_state(),
            "cut at {cut}: slabs diverged"
        );
    }
}

#[test]
fn tracking_restore_preserves_heap_order_and_top_k() {
    let updates = stream(4_000);
    let mut full = TrackingDcs::new(config(2));
    full.update_batch(&updates);
    for cut in cut_points(updates.len()) {
        let mut prefix = TrackingDcs::new(config(2));
        prefix.update_batch(&updates[..cut]);
        let saved = through_disk("tracking", &Checkpoint::Tracking(prefix.to_state()));
        drop(prefix);
        let Checkpoint::Tracking(state) = saved else {
            panic!("wrong document kind");
        };
        let mut resumed = TrackingDcs::from_state(state).unwrap();
        resumed.update_batch(&updates[cut..]);
        // Bit-identical state covers slabs, singleton multisets, *and*
        // the exact heap slot arrangement (tie-breaking depends on it).
        assert_eq!(
            resumed.to_state(),
            full.to_state(),
            "cut at {cut}: tracking state diverged"
        );
        assert_eq!(
            resumed.track_top_k(10, 0.25),
            full.track_top_k(10, 0.25),
            "cut at {cut}: top-k diverged"
        );
        resumed.check_tracking_invariants().unwrap();
    }
}

#[test]
fn restore_mid_stream_then_immediate_checkpoint_is_stable() {
    // Checkpoint → restore → checkpoint again with no updates in
    // between must produce byte-identical files (no state is lost or
    // invented by a round trip).
    let updates = stream(2_000);
    let mut sketch = TrackingDcs::new(config(3));
    sketch.update_batch(&updates[..1_234]);
    let first = ddos_streams::persist::encode(&Checkpoint::Tracking(sketch.to_state()));
    let Checkpoint::Tracking(state) = ddos_streams::persist::decode(&first).unwrap() else {
        panic!("wrong document kind");
    };
    let restored = TrackingDcs::from_state(state).unwrap();
    let second = ddos_streams::persist::encode(&Checkpoint::Tracking(restored.to_state()));
    assert_eq!(first, second);
}

/// Feeds `updates` (starting at absolute stream position `from`) to a
/// windowed monitor that closes an epoch every 1500 updates.
fn feed_rotating(wm: &mut Monitor, updates: &[FlowUpdate], from: usize) {
    let mut offset = 0;
    while offset < updates.len() {
        let until_epoch_end = 1_500 - (from + offset) % 1_500;
        let take = until_epoch_end.min(updates.len() - offset);
        wm.ingest(&updates[offset..offset + take]);
        offset += take;
        if take == until_epoch_end {
            wm.evaluate().unwrap();
        }
    }
}

#[test]
fn epoch_window_survives_a_kill_across_rotations() {
    let updates = stream(6_000);
    let policy = WindowPolicy::Sliding { epochs: 3 };
    let monitor = || Monitor::new(config(4), AlarmPolicy::default(), Some(policy.clone())).unwrap();
    let mut full = monitor();
    feed_rotating(&mut full, &updates, 0);
    let full_doc = full.checkpoint().unwrap();
    assert!(matches!(full_doc, Checkpoint::Window(_)));
    // Kill at several points: mid-epoch, immediately after an epoch
    // closes (the ring just changed), and immediately before one.
    for cut in [700usize, 3_000, 2_999, 4_501] {
        let mut prefix = monitor();
        feed_rotating(&mut prefix, &updates[..cut], 0);
        let saved = through_disk("window", &prefix.checkpoint().unwrap());
        drop(prefix);
        let mut resumed = Monitor::from_checkpoint(
            saved,
            &config(4),
            AlarmPolicy::default(),
            Some(policy.clone()),
        )
        .unwrap();
        feed_rotating(&mut resumed, &updates[cut..], cut);
        assert_eq!(
            resumed.checkpoint().unwrap(),
            full_doc,
            "cut at {cut}: window state diverged"
        );
        assert_eq!(
            resumed.top_k(5).unwrap(),
            full.top_k(5).unwrap(),
            "cut at {cut}: windowed query diverged"
        );
    }
}

#[test]
fn sharded_ingest_restores_every_shard_bit_identically() {
    let updates = stream(20_000);
    let mut full = ShardedIngest::new(config(5), 4);
    full.ingest(&updates);
    // 5000 is mid-chunk (chunk = 4096 updates), 8192 is a boundary.
    for cut in [5_000usize, 8_192, 1] {
        let mut prefix = ShardedIngest::new(config(5), 4);
        prefix.ingest(&updates[..cut]);
        let saved = through_disk("sharded", &Checkpoint::Sharded(prefix.checkpoint()));
        drop(prefix);
        let Checkpoint::Sharded(checkpoint) = saved else {
            panic!("wrong document kind");
        };
        let mut resumed = ShardedIngest::from_checkpoint(checkpoint).unwrap();
        resumed.ingest(&updates[cut..]);
        // Per-shard slab equality, not just merged-query equality.
        assert_eq!(
            resumed.checkpoint(),
            full.checkpoint(),
            "cut at {cut}: a shard diverged"
        );
        assert_eq!(
            resumed.merged().unwrap().track_top_k(5, 0.25),
            full.merged().unwrap().track_top_k(5, 0.25),
            "cut at {cut}: merged top-k diverged"
        );
    }
}

#[test]
fn per_shard_checkpoint_files_restore_independently() {
    // Deployment variant: each shard persists to its *own* file (as
    // independent workers would), and recovery reassembles the sharded
    // checkpoint from the per-shard documents plus the saved cursor.
    let updates = stream(12_000);
    let mut full = ShardedIngest::new(config(6), 3);
    full.ingest(&updates);

    let cut = 7_777usize; // mid-chunk
    let mut prefix = ShardedIngest::new(config(6), 3);
    prefix.ingest(&updates[..cut]);
    let checkpoint = prefix.checkpoint();
    let cursor = checkpoint.updates_distributed;
    let mut paths = Vec::new();
    for (i, shard_state) in checkpoint.shards.iter().enumerate() {
        let path = temp_path(&format!("per-shard-{i}"));
        let mut manager = CheckpointManager::new(&path);
        manager
            .save(&Checkpoint::Sketch(shard_state.clone()))
            .unwrap();
        paths.push(path);
    }
    drop(prefix);
    drop(checkpoint);

    // Recovery: read the shard files back in shard order.
    let mut shards = Vec::new();
    for path in &paths {
        let Checkpoint::Sketch(state) = CheckpointManager::new(path).load().unwrap() else {
            panic!("wrong document kind");
        };
        shards.push(state);
    }
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    let reassembled = ddos_streams::persist::ShardedCheckpoint {
        updates_distributed: cursor,
        shards,
    };
    let mut resumed = ShardedIngest::from_checkpoint(reassembled).unwrap();
    resumed.ingest(&updates[cut..]);
    assert_eq!(resumed.checkpoint(), full.checkpoint());
}

/// Everything one `run_pipeline` router thread exports for `feed`, in
/// order: observed segments, then the shutdown timeout flush.
fn router_exports(feed: &[TcpSegment]) -> Vec<FlowUpdate> {
    let mut router = EdgeRouter::new(0, None);
    router.observe_all(feed);
    let last_ts = feed.last().map_or(0, |s| s.timestamp);
    router.flush_expired(last_ts.saturating_add(1_000_000));
    router.drain_exports()
}

fn mixed_feed(seed: u64) -> Vec<TcpSegment> {
    let mut driver = TrafficDriver::new(seed);
    driver
        .legitimate_sessions(DestAddr(3), 400)
        .syn_flood(DestAddr(4), 900)
        .flash_crowd(DestAddr(5), 600);
    driver.into_segments()
}

/// Removes a checkpoint and the update log beside it.
fn remove_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(CheckpointManager::new(path).log_path());
    let _ = std::fs::remove_file(path);
}

/// A pipeline configuration checkpointing to `path`.
fn checkpointed(config: SketchConfig, path: &std::path::Path, every: u64) -> PipelineConfig {
    PipelineConfig {
        sketch: config,
        batch_size: 128,
        evaluate_every: 500,
        checkpoint: Some(CheckpointSidecar {
            path: path.to_path_buf(),
            every,
        }),
        ..PipelineConfig::default()
    }
}

#[test]
fn pipeline_resumes_a_legacy_tracking_checkpoint() {
    // The committed kind-2 fixture is a tracking document in the format
    // earlier pipelines saved; its configuration is the fixture's own.
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tracking_v1.ckpt");
    let Checkpoint::Tracking(legacy) = CheckpointManager::new(&fixture).load().unwrap() else {
        panic!("the fixture is a tracking document");
    };
    let config = legacy.sketch.config.clone();
    let path = temp_path("pipeline-legacy");
    std::fs::copy(&fixture, &path).unwrap();

    let feed = mixed_feed(41);
    let report = run_pipeline(vec![feed.clone()], checkpointed(config, &path, 1_000));
    let rewritten = CheckpointManager::new(&path).load().unwrap();
    remove_checkpoint(&path);
    assert!(report.restored_from_checkpoint);

    let mut expected = TrackingDcs::from_state(legacy).unwrap().into_sketch();
    expected.update_batch(&router_exports(&feed));
    assert_eq!(
        report.monitor.sketch().sketch().to_state(),
        expected.to_state()
    );
    // From then on the pipeline saves sketch documents.
    assert_eq!(rewritten, Checkpoint::Sketch(expected.to_state()));
}

/// A format-1 sketch snapshot with an update log beside it (the log's
/// format did not change with the snapshot's) resumes in a pipeline:
/// the snapshot converts exactly, the log replays on top, and the run
/// continues from there.
#[test]
fn pipeline_resumes_a_format_1_snapshot_with_its_log() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sketch_v1.ckpt");
    let path = temp_path("pipeline-v1-log");
    remove_checkpoint(&path);
    std::fs::copy(&fixture, &path).unwrap();
    let mut manager = CheckpointManager::new(&path);
    let Checkpoint::Sketch(legacy) = manager.load().unwrap() else {
        panic!("the fixture is a sketch document");
    };
    let mut expected = DistinctCountSketch::from_state(legacy.clone()).unwrap();
    let logged: Vec<FlowUpdate> = (0..50u32)
        .map(|s| FlowUpdate::insert(SourceAddr(0x0b00_0000 + s), DestAddr(3)))
        .collect();
    manager
        .replay_log(legacy.updates_processed, |_| {})
        .unwrap();
    manager.append(&logged).unwrap();
    expected.update_batch(&logged);

    let feed = mixed_feed(43);
    let report = run_pipeline(
        vec![feed.clone()],
        checkpointed(legacy.config, &path, 1_000),
    );
    remove_checkpoint(&path);
    assert!(report.restored_from_checkpoint);
    expected.update_batch(&router_exports(&feed));
    assert_eq!(
        report.monitor.sketch().sketch().to_state(),
        expected.to_state()
    );
}

#[test]
fn pipeline_sketch_checkpoint_kill_and_resume_is_bit_identical() {
    let feed = mixed_feed(42);
    // Kill points inside the attack: the first run ends ("dies") right
    // after its final checkpoint and the second resumes from that file.
    for cut in [1_000usize, feed.len() / 2, feed.len() - 1] {
        let path = temp_path(&format!("pipeline-kill-{cut}"));
        remove_checkpoint(&path);
        let cfg = checkpointed(config(7), &path, 700);
        let (before, after) = feed.split_at(cut);
        let first = run_pipeline(vec![before.to_vec()], cfg.clone());
        assert!(!first.restored_from_checkpoint);
        assert!(matches!(
            CheckpointManager::new(&path).load().unwrap(),
            Checkpoint::Sketch(_)
        ));
        let second = run_pipeline(vec![after.to_vec()], cfg);
        remove_checkpoint(&path);
        assert!(second.restored_from_checkpoint, "cut at {cut}");

        // Uninterrupted: one sketch over both runs' exports. (A cut
        // between a SYN and its ACK changes what the routers export, so
        // the reference replays those exports, not the raw feed.)
        let mut uninterrupted = DistinctCountSketch::new(config(7));
        uninterrupted.update_batch(&router_exports(before));
        uninterrupted.update_batch(&router_exports(after));
        assert_eq!(
            second.monitor.sketch().sketch().to_state(),
            uninterrupted.to_state(),
            "cut at {cut}: the resumed sketch diverged"
        );
    }
}

/// A pipeline that evaluates every 500 updates and, given `window`,
/// judges over that window instead of the all-time sketch.
fn two_phase_config(
    path: &std::path::Path,
    shards: Option<usize>,
    window: Option<WindowPolicy>,
) -> PipelineConfig {
    PipelineConfig {
        policy: AlarmPolicy {
            absolute_threshold: 200,
            ..AlarmPolicy::default()
        },
        ingest_shards: shards,
        window,
        ..checkpointed(config(8), path, 700)
    }
}

#[test]
fn pipeline_checkpoints_are_the_same_bytes_in_every_ingest_mode() {
    // The merged sketch of any partition of the stream is the direct
    // sketch, so a two-phase run writes the same final checkpoint file
    // whether each phase ingests inline or through sharded workers —
    // the window ring included — and judges the same alarms.
    let feed = mixed_feed(43);
    let (before, after) = feed.split_at(feed.len() / 2);
    let phases = [
        (None, None),
        (Some(1), Some(1)),
        (Some(3), Some(3)),
        (None, Some(3)),
        (Some(3), None),
    ];
    for window in [None, Some(WindowPolicy::Sliding { epochs: 3 })] {
        let mut reference: Option<(Vec<u8>, Vec<u8>, Vec<_>)> = None;
        for (first_shards, second_shards) in phases {
            let path = temp_path("pipeline-modes");
            remove_checkpoint(&path);
            let first = run_pipeline(
                vec![before.to_vec()],
                two_phase_config(&path, first_shards, window.clone()),
            );
            assert!(!first.restored_from_checkpoint);
            let second = run_pipeline(
                vec![after.to_vec()],
                two_phase_config(&path, second_shards, window.clone()),
            );
            let bytes = std::fs::read(&path).unwrap();
            let log = std::fs::read(CheckpointManager::new(&path).log_path()).ok();
            remove_checkpoint(&path);
            assert!(second.restored_from_checkpoint);
            let kind = decode(&bytes).unwrap().kind_name();
            assert_eq!(kind, if window.is_some() { "window" } else { "sketch" });
            // A windowed monitor writes no log; an all-time one leaves
            // just the log header after its shutdown snapshot.
            assert_eq!(log.is_some(), window.is_none());
            let log = log.unwrap_or_default();
            let alarms = [first.alarms, second.alarms].concat();
            match &reference {
                None => reference = Some((bytes, log, alarms)),
                Some((expected, expected_log, expected_alarms)) => {
                    let modes = (first_shards, second_shards, &window);
                    assert!(bytes == *expected, "{modes:?}: checkpoint bytes differ");
                    assert!(log == *expected_log, "{modes:?}: log bytes differ");
                    assert_eq!(alarms, *expected_alarms, "{modes:?}: alarms differ");
                }
            }
        }
    }
}

#[test]
fn pipeline_resumes_a_legacy_sharded_checkpoint() {
    // A kind-4 document as earlier sharded pipelines saved it: the
    // engine's ring-drained shards plus the routing cursor.
    let prefix = stream(3_000);
    let mut engine = ShardedIngest::new(config(9), 3);
    engine.ingest(&prefix);
    let legacy = Checkpoint::Sharded(engine.checkpoint());
    drop(engine);
    let feed = mixed_feed(44);
    let mut expected = DistinctCountSketch::new(config(9));
    expected.update_batch(&prefix);
    expected.update_batch(&router_exports(&feed));

    for shards in [None, Some(2)] {
        let path = temp_path("pipeline-legacy-sharded");
        CheckpointManager::new(&path).save(&legacy).unwrap();
        let cfg = PipelineConfig {
            ingest_shards: shards,
            ..checkpointed(config(9), &path, 1_000)
        };
        let report = run_pipeline(vec![feed.clone()], cfg);
        let rewritten = CheckpointManager::new(&path).load().unwrap();
        remove_checkpoint(&path);
        assert!(report.restored_from_checkpoint, "shards {shards:?}");
        assert_eq!(
            report.monitor.sketch().sketch().to_state(),
            expected.to_state(),
            "shards {shards:?}"
        );
        // From then on the pipeline saves the merged sketch itself.
        assert_eq!(rewritten, Checkpoint::Sketch(expected.to_state()));
    }
}

#[test]
fn retired_epoch_document_kind_is_refused_and_the_pipeline_starts_fresh() {
    // Kind 3 was the retired epoch-ring document. Its byte is never
    // reused: a file that carries it is corrupt, not some other kind.
    let mut sketch = DistinctCountSketch::new(config(10));
    sketch.update_batch(&stream(500));
    let mut bytes = encode(&Checkpoint::Sketch(sketch.to_state()));
    // The kind byte follows the 8-byte magic and the 4-byte version.
    bytes[12] = 3;
    assert!(matches!(
        decode(&bytes),
        Err(PersistError::Corrupt { context }) if context.contains("kind 3")
    ));

    let path = temp_path("pipeline-kind-3");
    std::fs::write(&path, &bytes).unwrap();
    let feed = mixed_feed(45);
    let report = run_pipeline(vec![feed.clone()], checkpointed(config(10), &path, 1_000));
    let rewritten = CheckpointManager::new(&path).load().unwrap();
    remove_checkpoint(&path);
    assert!(!report.restored_from_checkpoint);
    let mut fresh = DistinctCountSketch::new(config(10));
    fresh.update_batch(&router_exports(&feed));
    assert_eq!(rewritten, Checkpoint::Sketch(fresh.to_state()));
}

/// Restores the snapshot at `path` and replays its update log, with the
/// manager that adopted the pair: its appends extend it.
fn recover(
    path: &Path,
) -> (
    DistinctCountSketch,
    ddos_streams::persist::LogReplay,
    CheckpointManager,
) {
    let mut manager = CheckpointManager::new(path);
    let Some(Checkpoint::Sketch(state)) = manager.try_load().unwrap() else {
        panic!("a sketch snapshot");
    };
    let mut sketch = DistinctCountSketch::from_state(state).unwrap();
    let from = sketch.updates_processed();
    let replay = manager
        .replay_log(from, |batch| sketch.apply_net(batch))
        .unwrap();
    assert_eq!(replay.dropped, 0, "{:?}", replay.problem);
    (sketch, replay, manager)
}

/// Runs `feed` as one pipeline phase whose shutdown snapshot fails,
/// because a directory occupies the snapshot's temporary file. The
/// files are then what a crash after the phase's last boundary leaves:
/// the snapshot the phase resumed from, and one log record per
/// boundary since.
fn run_without_shutdown_snapshot(
    feed: &[TcpSegment],
    config: PipelineConfig,
    path: &Path,
) -> DetectionReport {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".tmp");
    let blocker = path.with_file_name(name);
    std::fs::create_dir_all(blocker.join("occupied")).unwrap();
    let report = run_pipeline(vec![feed.to_vec()], config);
    std::fs::remove_dir_all(&blocker).unwrap();
    report
}

#[test]
fn pipeline_crash_without_shutdown_snapshot_recovers_bit_identically() {
    let feed = mixed_feed(46);
    let (first, rest) = feed.split_at(feed.len() / 3);
    let every = 300;
    for shards in [None, Some(2)] {
        for cut in [rest.len() / 4, rest.len() / 2, rest.len() - 1] {
            let (middle, last) = rest.split_at(cut);
            let exports = [first, middle, last].map(router_exports);
            let stream = exports.concat();
            let uninterrupted = |len: usize| {
                let mut sketch = DistinctCountSketch::new(config(11));
                sketch.update_batch(&stream[..len]);
                sketch.to_state()
            };
            let path = temp_path(&format!("pipeline-crash-{cut}-{shards:?}"));
            remove_checkpoint(&path);
            let cfg = PipelineConfig {
                ingest_shards: shards,
                ..checkpointed(config(11), &path, every)
            };
            run_pipeline(vec![first.to_vec()], cfg.clone());
            let crashed = run_without_shutdown_snapshot(middle, cfg.clone(), &path);
            assert!(crashed.restored_from_checkpoint);
            let boundaries = exports[1].len() as u64 / every;
            assert_eq!(
                crashed.checkpoints_written, boundaries,
                "every boundary appends"
            );
            let durable = exports[0].len() + usize::try_from(boundaries * every).unwrap();
            let modes = (cut, shards);
            let (recovered, replay, _) = recover(&path);
            assert_eq!(replay.replayed, boundaries, "{modes:?}");
            assert_eq!(recovered.to_state(), uninterrupted(durable), "{modes:?}");

            if boundaries > 0 {
                // A crash between a snapshot's rename and the log's
                // truncation: the new snapshot covers the first record.
                let covered = exports[0].len() + usize::try_from(every).unwrap();
                let snapshot = Checkpoint::Sketch(uninterrupted(covered));
                std::fs::write(&path, encode(&snapshot)).unwrap();
                let (recovered, replay, _) = recover(&path);
                assert_eq!((replay.skipped, replay.replayed), (1, boundaries - 1));
                assert_eq!(recovered.to_state(), uninterrupted(durable), "{modes:?}");
            }

            // The next run resumes the snapshot plus the log; what the
            // crashed phase ingested after its last boundary is lost.
            let resumed = run_pipeline(vec![last.to_vec()], cfg);
            remove_checkpoint(&path);
            assert!(resumed.restored_from_checkpoint);
            let mut expected = DistinctCountSketch::from_state(uninterrupted(durable)).unwrap();
            expected.update_batch(&exports[2]);
            assert_eq!(
                resumed.monitor.sketch().sketch().to_state(),
                expected.to_state(),
                "{modes:?}"
            );
        }
    }
}

#[test]
fn a_crash_before_the_log_cut_is_durable_restores_the_snapshot() {
    // A save syncs the snapshot's rename but not the log's truncation,
    // which the next append's sync makes durable. A crash in between
    // leaves the pre-save log, or a zero-length one, beside the new
    // snapshot: the restore must still equal the uninterrupted replay,
    // and the restored pair must take further appends.
    let updates = stream(4_000);
    let uninterrupted = |len: usize| {
        let mut sketch = DistinctCountSketch::new(config(12));
        sketch.update_batch(&updates[..len]);
        sketch.to_state()
    };
    for pre_save_log in [true, false] {
        let path = temp_path(&format!("crash-window-{pre_save_log}"));
        remove_checkpoint(&path);
        let mut manager = CheckpointManager::new(&path);
        manager
            .save(&Checkpoint::Sketch(uninterrupted(1_000)))
            .unwrap();
        for chunk in updates[1_000..4_000].chunks(1_000) {
            manager.append(chunk).unwrap();
        }
        let log = std::fs::read(manager.log_path()).unwrap();
        manager
            .save(&Checkpoint::Sketch(uninterrupted(4_500)))
            .unwrap();
        let left = if pre_save_log { &log[..] } else { &[] };
        std::fs::write(manager.log_path(), left).unwrap();
        drop(manager);

        let (recovered, replay, mut restored) = recover(&path);
        let skipped = if pre_save_log { 3 } else { 0 };
        assert_eq!((replay.skipped, replay.replayed), (skipped, 0));
        assert_eq!(recovered.to_state(), uninterrupted(4_500));

        let tail = updates[4_500..].chunks(700);
        let appended = tail.len() as u64;
        for chunk in tail {
            restored.append(chunk).unwrap();
        }
        let (recovered, replay, _) = recover(&path);
        remove_checkpoint(&path);
        assert_eq!((replay.skipped, replay.replayed), (skipped, appended));
        assert_eq!(recovered.to_state(), uninterrupted(updates.len()));
    }
}

#[test]
fn an_empty_run_over_a_clean_shutdown_checkpoint_only_restores() {
    // What `pipeline_bench`'s `restart_ckpt` times as `setup_s`: a
    // restart with nothing to ingest restores, writes no checkpoint and
    // leaves both files as the clean shutdown left them.
    let path = temp_path("empty-restart");
    remove_checkpoint(&path);
    let telemetry = path.with_extension("telemetry.jsonl");
    let cfg = PipelineConfig {
        telemetry: Some(TelemetrySidecar {
            path: telemetry.clone(),
            every: 300,
        }),
        ..checkpointed(config(13), &path, 300)
    };
    let first = run_pipeline(vec![mixed_feed(47)], cfg.clone());
    assert!(first.checkpoints_written > 1);
    empty_restarts_only_restore(&cfg, &path, first.updates_ingested);
    remove_checkpoint(&path);
    let _ = std::fs::remove_file(&telemetry);
}

/// The checkpoint and the update log at `path`.
fn checkpoint_files(path: &Path) -> (Vec<u8>, Vec<u8>) {
    let log = CheckpointManager::new(path).log_path();
    (std::fs::read(path).unwrap(), std::fs::read(log).unwrap())
}

/// Two empty runs over the clean-shutdown checkpoint at `path`, which
/// holds `ingested` updates: each restores it, writes no checkpoint and
/// leaves both files as they were.
fn empty_restarts_only_restore(cfg: &PipelineConfig, path: &Path, ingested: u64) {
    let shutdown = checkpoint_files(path);
    for _ in 0..2 {
        let empty = run_pipeline(vec![Vec::new()], cfg.clone());
        assert!(empty.restored_from_checkpoint);
        assert_eq!(empty.checkpoints_written, 0);
        assert_eq!(empty.updates_ingested, 0);
        assert_eq!(empty.monitor.sketch().updates_processed(), ingested);
        assert!(
            checkpoint_files(path) == shutdown,
            "an empty restart rewrote its files"
        );
    }
}

#[test]
fn a_clean_shutdown_with_a_half_open_timeout_saves_no_level() {
    // With a half-open timeout the routers' shutdown flush expires every
    // flow they still hold, so the all-time sketch ends exactly zero and
    // its snapshot is the configuration and counters alone. An empty
    // restart over it restores, writes nothing and leaves both files as
    // they were.
    let path = temp_path("empty-restart-timeout");
    remove_checkpoint(&path);
    let cfg = PipelineConfig {
        half_open_timeout: Some(300),
        ..checkpointed(config(14), &path, 300)
    };
    let first = run_pipeline(vec![mixed_feed(48)], cfg.clone());
    assert!(first.checkpoints_written > 1);
    assert!(first.updates_ingested > 0);
    let (snapshot, _) = checkpoint_files(&path);
    let Checkpoint::Sketch(state) = decode(&snapshot).unwrap() else {
        panic!("an all-time monitor saves a sketch document");
    };
    assert!(
        state.levels.is_empty(),
        "{} levels saved",
        state.levels.len()
    );
    assert_eq!(state.updates_processed, first.updates_ingested);
    // Section by section: the header, then `CFG` and `MET` and no `LVL`.
    let offsets = section_offsets(&snapshot).unwrap();
    let tags: Vec<&[u8]> = offsets[..offsets.len() - 1]
        .iter()
        .map(|&at| &snapshot[at..at + 4])
        .collect();
    assert_eq!(tags, [&b"CFG\0"[..], &b"MET\0"[..]]);
    empty_restarts_only_restore(&cfg, &path, first.updates_ingested);
    remove_checkpoint(&path);
}

/// Kill and resume over a feed of completed handshakes, in the direct and
/// the sharded mode. The monitor folds each boundary to its net changes,
/// so most of a boundary's updates cancel before the sketch or the log
/// sees them: the log's records hold far fewer entries than the updates
/// they cover, yet the restore equals the uninterrupted replay, and so
/// does the run that resumes from it.
#[test]
fn a_handshake_feed_killed_and_resumed_recovers_bit_identically() {
    // About one session a tick, each completing two ticks after its
    // SYN, and a flood whose SYNs never complete.
    let mut driver = TrafficDriver::new(47);
    for round in 0..30u32 {
        driver.legitimate_sessions(DestAddr(6 + round % 2), 100);
        if round == 12 {
            driver.syn_flood(DestAddr(8), 150);
        }
        driver.advance_clock(100);
    }
    let feed = driver.into_segments();
    let (first, rest) = feed.split_at(feed.len() / 4);
    let (middle, last) = rest.split_at(rest.len() / 2);
    let exports = [first, middle, last].map(router_exports);
    let stream = exports.concat();
    let uninterrupted = |len: usize| {
        let mut sketch = DistinctCountSketch::new(config(13));
        sketch.update_batch(&stream[..len]);
        sketch.to_state()
    };
    let every = 200;
    for shards in [None, Some(2)] {
        let path = temp_path(&format!("handshake-kill-{shards:?}"));
        remove_checkpoint(&path);
        let cfg = PipelineConfig {
            ingest_shards: shards,
            ..checkpointed(config(13), &path, every)
        };
        run_pipeline(vec![first.to_vec()], cfg.clone());
        let crashed = run_without_shutdown_snapshot(middle, cfg.clone(), &path);
        assert!(crashed.restored_from_checkpoint);
        let boundaries = exports[1].len() as u64 / every;
        assert!(boundaries >= 5, "{boundaries} boundaries");
        assert_eq!(
            crashed.checkpoints_written, boundaries,
            "every boundary appends"
        );
        let (recovered, replay, _) = recover(&path);
        let covered = boundaries * every;
        assert_eq!(replay.replayed, boundaries, "{shards:?}");
        assert!(
            replay.entries * 4 < covered,
            "{} entries for {covered} updates",
            replay.entries
        );
        let durable = exports[0].len() + usize::try_from(covered).unwrap();
        assert_eq!(recovered.to_state(), uninterrupted(durable), "{shards:?}");

        let resumed = run_pipeline(vec![last.to_vec()], cfg);
        remove_checkpoint(&path);
        assert!(resumed.restored_from_checkpoint);
        let mut expected = DistinctCountSketch::from_state(uninterrupted(durable)).unwrap();
        expected.update_batch(&exports[2]);
        assert_eq!(
            resumed.monitor.sketch().sketch().to_state(),
            expected.to_state(),
            "{shards:?}"
        );
    }
}
