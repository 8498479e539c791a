//! Checkpoint cost profile: encoded size and save/load latency as the
//! stream grows.
//!
//! The sample is a tracking document (kind 2): the materialized levels'
//! four slabs at 28 bytes per bucket, as in memory, plus 12 bytes per
//! tracked singleton and heap slot. In memory those tracking entries
//! cost twice that and more, and `heap_bytes` counts the maps' and
//! heaps' spare capacity too, so the file is smaller than the tracking
//! sketch's heap: 0.56–0.75× at the quick scale's sizes. This binary
//! measures, for several stream lengths:
//!
//! * encoded checkpoint bytes vs in-memory sketch bytes,
//! * `encode` of the sample (framing, slab copies and every section
//!   CRC),
//! * load latency in two stages: reading the file and `decode` (CRC
//!   walk plus parsing). Rebuilding the live sketch from the decoded
//!   state is checked for exactness but not timed.
//! * the update log that spares most boundaries the full save: one
//!   boundary's append of 12 000 distinct inserts, folded to their net
//!   changes as the pipeline folds them (encode and CRC, append,
//!   `fdatasync`), after a kind-1 snapshot of the sketch, and the
//!   worst-case restore — that snapshot plus as many records as the
//!   log holds before a restore would pass its replay budget
//!   (`LOG_ENTRY_BUDGET` entries) and a new snapshot is due (read,
//!   decode, rebuild, replay every record),
//! * the snapshot then due, written as a pipeline writes it: the kind-1
//!   document's durable write (write-temp + fsync + rename + directory
//!   fsync) and the cut of the full log beside it.
//!
//! One line gives the log bytes of a boundary shaped like a handshake:
//! pairs that open and, 50 updates later, complete, so that only the
//! last 50 are still open when the boundary closes. Folded, its record
//! holds those 50 entries; written update by update it would hold all.
//!
//! A second table covers streams whose deletes cancel what they
//! inserted: the kind-1 snapshot of a sketch that saw the largest
//! size's pairs inserted and then none, half or all of them deleted
//! again. All deleted is a clean shutdown under a half-open timeout,
//! where the routers' flush deletes every pair still held. A snapshot
//! keeps only levels with a non-zero slot, so that one holds no level.
//!
//! It also leaves a canonical `results/sample.ckpt` behind — CI uploads
//! it as an artifact so any build's checkpoint output can be inspected
//! (and decoded by any other build of the same format version).
//!
//! Run: `cargo run -p dcs-bench --release --bin checkpoint_size [--scale full]`

use std::time::{Duration, Instant};

use std::path::Path;

use dcs_bench::{emit_record, Scale};
use dcs_core::{
    DestAddr, DistinctCountSketch, FlowUpdate, NetBatch, SketchConfig, SourceAddr, TrackingDcs,
    UpdateFold,
};
use dcs_metrics::{ExperimentRecord, Table};
use dcs_persist::log::record_len;
use dcs_persist::manager::LOG_ENTRY_BUDGET;
use dcs_persist::{decode, encode, Checkpoint, CheckpointManager};
use dcs_streamgen::{PaperWorkload, WorkloadConfig};

/// Updates per checkpoint boundary in the update-log stages.
const BOUNDARY: usize = 12_000;

fn kb(bytes: u64) -> String {
    format!("{:.1} KB", bytes as f64 / 1e3)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, returning its result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// `updates` folded to their net changes, as the pipeline folds a
/// boundary.
fn folded(updates: &[FlowUpdate]) -> NetBatch {
    let mut fold = UpdateFold::new();
    let mut batch = NetBatch::default();
    fold.absorb(updates, &mut batch);
    fold.flush(&mut batch);
    batch
}

/// A boundary shaped like a handshake: pair `i` opens, and completes 50
/// updates later, so the last 50 pairs are still open at its end.
fn handshake_boundary() -> Vec<FlowUpdate> {
    const OPEN: u32 = 50;
    let pairs = u32::try_from(BOUNDARY / 2).expect("a boundary fits u32");
    let pair = |i: u32| (SourceAddr(0x0a00_0000 + i), DestAddr(0xc0a8_0001));
    let mut updates = Vec::with_capacity(BOUNDARY);
    for i in 0..pairs {
        let (s, d) = pair(i);
        updates.push(FlowUpdate::insert(s, d));
        if i >= OPEN {
            let (s, d) = pair(i - OPEN);
            updates.push(FlowUpdate::delete(s, d));
        }
    }
    updates
}

/// The update-log stages for `sketch` in directory `dir`: saves its
/// kind-1 snapshot, times one boundary's append, fills the log until
/// the next record would pass the restore's replay budget, times the
/// restore of the snapshot plus every record, and then times the
/// durable write of the snapshot now due, over the full log. Returns
/// the three times and the records replayed.
fn log_stages(sketch: &DistinctCountSketch, dir: &Path) -> (Duration, Duration, Duration, u64) {
    let path = dir.join("monitor.ckpt");
    let mut manager = CheckpointManager::new(&path);
    manager
        .save(&Checkpoint::Sketch(sketch.to_state()))
        .expect("save snapshot");
    // More fresh pairs than the log can hold, cut into boundaries.
    let workload = PaperWorkload::generate(WorkloadConfig {
        distinct_pairs: LOG_ENTRY_BUDGET + BOUNDARY as u64,
        num_destinations: 1_000,
        skew: 1.0,
        seed: 4,
    });
    let mut boundaries = workload.updates().chunks(BOUNDARY).map(folded);
    let first = boundaries.next().expect("at least one boundary");
    let (appended, append_t) = timed(|| manager.append_net(&first));
    appended.expect("append a boundary");
    let mut expected = sketch.clone();
    expected.apply_net(&first);
    for boundary in boundaries {
        if !manager.can_append(boundary.entries.len()) {
            break;
        }
        manager.append_net(&boundary).expect("append a boundary");
        expected.apply_net(&boundary);
    }
    let ((restored, replayed), restore_t) = timed(|| {
        let mut restorer = CheckpointManager::new(&path);
        let Some(Checkpoint::Sketch(state)) = restorer.try_load().expect("load snapshot") else {
            unreachable!("just saved a sketch document");
        };
        let mut restored = DistinctCountSketch::from_state(state).expect("restore snapshot");
        let from = restored.updates_processed();
        let replay = restorer
            .replay_log(from, |batch| restored.apply_net(batch))
            .expect("replay the log");
        (restored, replay.replayed)
    });
    assert_eq!(
        restored.to_state(),
        expected.to_state(),
        "snapshot plus log must restore exactly"
    );
    assert_eq!(replayed, manager.log_records());
    let due = encode(&Checkpoint::Sketch(expected.to_state()));
    let (saved, save_t) = timed(|| manager.save_encoded(&due));
    saved.expect("save the snapshot due");
    assert_eq!(manager.log_records(), 0, "the save cut the log");
    (append_t, restore_t, save_t, replayed)
}

/// One cancelled-stream row: the share of inserted pairs deleted again,
/// the snapshot's levels and bytes, and its encode and decode times.
struct CancelledRow {
    deleted: f64,
    levels: usize,
    bytes: u64,
    encode: Duration,
    decode: Duration,
}

/// The cancelled-stream rows over `inserts`: one sketch per share of
/// the pairs deleted again (none, every second one, all), each saved as
/// a kind-1 snapshot that must decode to its own state.
fn cancelled_rows(config: &SketchConfig, inserts: &[FlowUpdate]) -> Vec<CancelledRow> {
    [(0.0, None), (0.5, Some(2)), (1.0, Some(1))]
        .into_iter()
        .map(|(deleted, every)| {
            let mut sketch = DistinctCountSketch::new(config.clone());
            sketch.update_batch(inserts);
            if let Some(every) = every {
                let deletes: Vec<FlowUpdate> = inserts
                    .iter()
                    .step_by(every)
                    .map(|u| u.inverted())
                    .collect();
                sketch.update_batch(&deletes);
            }
            let state = sketch.to_state();
            let levels = state.levels.len();
            let checkpoint = Checkpoint::Sketch(state);
            let (encoded, encode) = timed(|| encode(&checkpoint));
            let (decoded, decode) = timed(|| decode(&encoded));
            assert!(
                decoded.expect("decode a cancelled snapshot") == checkpoint,
                "a cancelled snapshot must decode exactly"
            );
            CancelledRow {
                deleted,
                levels,
                bytes: encoded.len() as u64,
                encode,
                decode,
            }
        })
        .collect()
}

fn main() {
    let scale = Scale::from_args();
    let sizes: &[u64] = match scale {
        Scale::Quick => &[10_000, 100_000, 400_000],
        Scale::Full => &[10_000, 100_000, 1_000_000, 8_000_000],
    };
    println!("checkpoint size/latency — scale {}", scale.label());

    let config = SketchConfig::builder().seed(3).build().expect("valid");
    let results_dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(results_dir) {
        eprintln!("warning: cannot create results dir: {e}");
    }
    let sample_path = results_dir.join("sample.ckpt");
    let log_dir = std::env::temp_dir().join(format!("checkpoint_size_{}", std::process::id()));
    std::fs::create_dir_all(&log_dir).expect("create a temporary directory");

    let mut table = Table::new(vec![
        "U".into(),
        "checkpoint".into(),
        "sketch heap".into(),
        "ratio".into(),
        "encode".into(),
        "read".into(),
        "decode".into(),
        "append".into(),
        "log records".into(),
        "worst restore".into(),
        "snapshot write + log cut".into(),
    ]);
    let stages = [
        "encode_ms",
        "read_ms",
        "decode_ms",
        "append_ms",
        "restore_worst_ms",
        "snapshot_write_log_cut_ms",
    ];
    let mut series_u = Vec::new();
    let mut series_bytes = Vec::new();
    let mut series_log_records = Vec::new();
    let mut series_stage_ms: [Vec<f64>; 6] = Default::default();
    let mut cancelled = Vec::new();

    for &u in sizes {
        let workload = PaperWorkload::generate(WorkloadConfig {
            distinct_pairs: u,
            num_destinations: (u / 160).max(10) as u32,
            skew: 1.0,
            seed: 3,
        });
        let mut sketch = TrackingDcs::new(config.clone());
        sketch.update_batch(workload.updates());
        if Some(&u) == sizes.last() {
            cancelled = cancelled_rows(&config, workload.updates());
        }

        let mut manager = CheckpointManager::new(&sample_path);
        let checkpoint = Checkpoint::Tracking(sketch.to_state());
        let (encoded, encode_t) = timed(|| encode(&checkpoint));
        let bytes = manager
            .save_encoded(&encoded)
            .expect("save sample checkpoint");
        let (read, read_t) = timed(|| std::fs::read(&sample_path));
        let read = read.expect("read sample checkpoint");
        let (decoded, decode_t) = timed(|| decode(&read));
        let Checkpoint::Tracking(state) = decoded.expect("decode sample checkpoint") else {
            unreachable!("just saved a tracking document");
        };
        let rebuilt = TrackingDcs::from_state(state).expect("restore sample checkpoint");
        assert_eq!(
            rebuilt.to_state(),
            sketch.to_state(),
            "restore must be exact"
        );

        let (append_t, restore_t, save_t, log_records) = log_stages(sketch.sketch(), &log_dir);

        let heap = sketch.heap_bytes() as u64;
        let stage_ms = [
            ms(encode_t),
            ms(read_t),
            ms(decode_t),
            ms(append_t),
            ms(restore_t),
            ms(save_t),
        ];
        let mut row = vec![
            u.to_string(),
            kb(bytes),
            kb(heap),
            format!("{:.2}", bytes as f64 / heap as f64),
        ];
        let cell = |t: &f64| format!("{t:.2} ms");
        row.extend(stage_ms[..4].iter().map(cell));
        row.push(log_records.to_string());
        row.extend(stage_ms[4..].iter().map(cell));
        table.row(row);
        series_u.push(u as f64);
        series_bytes.push(bytes as f64);
        series_log_records.push(log_records as f64);
        for (series, t) in series_stage_ms.iter_mut().zip(stage_ms) {
            series.push(t);
        }
    }

    let _ = std::fs::remove_dir_all(&log_dir);

    println!("\ncheckpoint cost profile:");
    print!("{}", table.render());
    println!("sample checkpoint left at {}", sample_path.display());

    let handshake = handshake_boundary();
    let net = folded(&handshake);
    let (raw_bytes, net_bytes) = (record_len(handshake.len()), record_len(net.entries.len()));
    println!(
        "\nhandshake-shaped boundary: {} updates fold to {} entries; log record {} B folded, {} B update by update",
        handshake.len(),
        net.entries.len(),
        net_bytes,
        raw_bytes
    );

    let mut cancelled_table = Table::new(vec![
        "pairs deleted".into(),
        "levels".into(),
        "snapshot".into(),
        "encode".into(),
        "decode".into(),
    ]);
    let us = |d: Duration| format!("{:.1} µs", d.as_secs_f64() * 1e6);
    for row in &cancelled {
        cancelled_table.row(vec![
            format!("{:.0}%", row.deleted * 100.0),
            row.levels.to_string(),
            format!("{} B", row.bytes),
            us(row.encode),
            us(row.decode),
        ]);
    }
    let largest = sizes.last().copied().unwrap_or_default();
    println!("\ncancelled streams (kind-1 snapshot, U = {largest}):");
    print!("{}", cancelled_table.render());

    let mut record = ExperimentRecord::new("checkpoint_size")
        .parameter("scale", scale.label())
        .parameter("format_version", i64::from(dcs_persist::FORMAT_VERSION))
        .with_series("u", series_u)
        .with_series("checkpoint_bytes", series_bytes)
        .with_series("log_records", series_log_records)
        .parameter("handshake_updates", handshake.len() as u64)
        .parameter("handshake_record_bytes", net_bytes)
        .parameter("handshake_raw_record_bytes", raw_bytes)
        .parameter("cancelled_u", largest)
        .with_series(
            "cancelled_deleted_share",
            cancelled.iter().map(|r| r.deleted).collect(),
        )
        .with_series(
            "cancelled_levels",
            cancelled.iter().map(|r| r.levels as f64).collect(),
        )
        .with_series(
            "cancelled_snapshot_bytes",
            cancelled.iter().map(|r| r.bytes as f64).collect(),
        )
        .with_series(
            "cancelled_encode_ms",
            cancelled.iter().map(|r| ms(r.encode)).collect(),
        )
        .with_series(
            "cancelled_decode_ms",
            cancelled.iter().map(|r| ms(r.decode)).collect(),
        );
    for (name, series) in stages.into_iter().zip(series_stage_ms) {
        record = record.with_series(name, series);
    }
    if let Some(path) = emit_record(&record) {
        println!("wrote {}", path.display());
    }
}
