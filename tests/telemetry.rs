//! Integration tests for the telemetry layer: snapshot contents after
//! scripted insert/delete churn, JSONL schema conformance, the
//! snapshot-ahead rejection counter, and the recorder's accounting
//! (counters and batch/query timings, no clock on single updates).

use dcs_core::{
    DestAddr, DistinctCountSketch, FlowUpdate, SketchConfig, SketchError, SourceAddr, TrackingDcs,
    BATCH_MIN_ROUTED,
};
use dcs_telemetry::{validate_line, JsonlExporter, TelemetrySnapshot};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(256)
        .seed(seed)
        .build()
        .expect("valid config")
}

/// Scripted churn: 600 inserts across 3 destinations, then 150 paired
/// deletions. Net distinct pairs: 450.
fn churned_tracking() -> TrackingDcs {
    let mut sketch = TrackingDcs::new(config(17));
    for s in 0..600u32 {
        sketch.insert(SourceAddr(s), DestAddr(s % 3));
    }
    for s in 0..150u32 {
        sketch.delete(SourceAddr(s), DestAddr(s % 3));
    }
    sketch
}

#[test]
fn tracking_snapshot_gauges_match_sketch_state() {
    let sketch = churned_tracking();
    let snap = sketch.telemetry_snapshot("churn");

    assert_eq!(snap.label, "churn");
    assert_eq!(snap.updates_processed, 750);
    assert_eq!(snap.net_updates, 450);
    assert!(!snap.levels.is_empty(), "churn populates levels");

    // Levels arrive strictly ascending, and the tracking gauges agree
    // with the sketch's own per-level singleton accounting.
    let mut prev = None;
    for gauges in &snap.levels {
        assert!(prev.is_none_or(|p| p < gauges.level), "ascending levels");
        prev = Some(gauges.level);
        assert_eq!(
            gauges.tracked_singletons,
            sketch.num_singletons(gauges.level) as u64,
            "level {}",
            gauges.level
        );
    }
    let tracked_total: u64 = snap.levels.iter().map(|g| g.tracked_singletons).sum();
    assert!(tracked_total > 0, "churn leaves live singletons");

    // Deletion churn exercises the heap adjust path, whose bookkeeping
    // lives on the tracking structures rather than in the recorder.
    assert_eq!(
        snap.counters.get("heap_adjust").copied(),
        Some(sketch.heap_adjusts())
    );
    assert!(sketch.heap_adjusts() > 0);
    // Clean paired deletions never clamp.
    assert!(!snap.counters.contains_key("heap_underflow_clamp"));
    assert!(!snap.counters.contains_key("heap_overflow_clamp"));
    assert_eq!(sketch.heap_overflows(), 0);
}

#[test]
fn snapshot_serializes_to_valid_jsonl() {
    let sketch = churned_tracking();
    let line = sketch.telemetry_snapshot("jsonl").to_jsonl();
    validate_line(&line).expect("snapshot conforms to its own schema");

    // Round-trip through the exporter too.
    let path = std::env::temp_dir().join(format!("dcs_telemetry_it_{}.jsonl", std::process::id()));
    let mut exporter = JsonlExporter::create(&path).expect("create sidecar");
    exporter
        .append(&sketch.telemetry_snapshot("first"))
        .expect("append");
    exporter
        .append(&sketch.telemetry_snapshot("second"))
        .expect("append");
    let contents = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in &lines {
        validate_line(line).expect("exported line validates");
    }
    // The exporter stamps monotonically increasing sequence numbers.
    assert!(lines[0].contains("\"sequence\":0"));
    assert!(lines[1].contains("\"sequence\":1"));
}

#[test]
fn difference_rejects_snapshot_ahead_of_sketch() {
    let mut sketch = DistinctCountSketch::new(config(23));
    for s in 0..100u32 {
        sketch.insert(SourceAddr(s), DestAddr(1));
    }
    let snapshot = sketch.clone();
    for s in 100..120u32 {
        sketch.insert(SourceAddr(s), DestAddr(2));
    }

    // Forward direction still works.
    let recent = sketch.difference(&snapshot).expect("valid window");
    assert_eq!(recent.updates_processed(), 20);

    // The swapped direction is a hard error, not a silent clamp to an
    // empty window (the pre-fix behavior under saturating_sub).
    match snapshot.difference(&sketch) {
        Err(SketchError::SnapshotAhead {
            snapshot_updates,
            current_updates,
        }) => {
            assert_eq!(snapshot_updates, 120);
            assert_eq!(current_updates, 100);
        }
        other => panic!("expected SnapshotAhead, got {other:?}"),
    }

    // The rejection leaves counter evidence.
    let snap = snapshot.telemetry_snapshot("rejected");
    assert_eq!(snap.counters.get("snapshot_ahead_rejected"), Some(&1));
}

#[test]
fn recorder_fills_counters_and_latencies() {
    // Screen/decode counters live on the *tracking* hot path
    // (`screened_apply`), so exercise a TrackingDcs here, fed through
    // `update_batch` (single updates are never timed).
    let updates: Vec<_> = (0..500u32)
        .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 5)))
        .collect();
    let mut sketch = TrackingDcs::new(config(29));
    sketch.update_batch(&updates);
    let _ = sketch.track_top_k(3, 0.25);
    let snap = sketch.telemetry_snapshot("recorded");

    let screen_total: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("screen_"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        screen_total > 0,
        "screen counters recorded: {:?}",
        snap.counters
    );
    let update = snap.update_latency.as_ref().expect("update latency");
    assert_eq!(update.count, 500);
    assert!(update.max_micros >= update.p50_micros);
    let query = snap.query_latency.as_ref().expect("query latency");
    assert_eq!(query.count, 1);

    validate_line(&snap.to_jsonl()).expect("recorded snapshot validates");
}

#[test]
fn fresh_snapshot_is_minimal_and_valid() {
    let snap = TelemetrySnapshot::new("fresh");
    assert_eq!(snap.updates_processed, 0);
    assert!(snap.levels.is_empty());
    validate_line(&snap.to_jsonl()).expect("minimal snapshot validates");
}

#[test]
fn update_batch_records_each_update_once_and_each_batch_once() {
    // Batch accounting must not double-count whichever plan
    // `update_batch` auto-selects: exactly one amortized latency sample
    // per update and exactly one batch-size observation per call.
    // Exercise both sides of the dispatch cutoff, plus the per-update
    // path for contrast, on both sketch flavors.
    let small = BATCH_MIN_ROUTED - 1; // scalar-loop plan
    let large = 3 * BATCH_MIN_ROUTED; // routed plan
    let updates: Vec<_> = (0..large as u32)
        .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 7)))
        .collect();

    let mut sketch = DistinctCountSketch::new(config(31));
    sketch.update_batch(&updates[..small]);
    sketch.update_batch(&updates);
    let snap = sketch.telemetry_snapshot("batched");
    let latency = snap.update_latency.expect("latency recorded");
    assert_eq!(
        latency.count,
        (small + large) as u64,
        "one amortized latency sample per update across both plans"
    );
    let batches = snap.batch_size.expect("batch sizes recorded");
    assert_eq!(batches.count, 2, "one size observation per call");
    assert_eq!(batches.max, large as u64);

    // The per-update path reads no clock: no latency sample and no
    // batch-size observation.
    let mut sketch = DistinctCountSketch::new(config(31));
    for u in &updates {
        sketch.update(*u);
    }
    let snap = sketch.telemetry_snapshot("per-update");
    assert_eq!(snap.updates_processed, large as u64);
    assert!(snap.update_latency.is_none(), "single updates are untimed");
    assert!(snap.batch_size.is_none(), "no batch was ever ingested");

    // Same contract on the tracking flavor (its update_batch wraps the
    // screened path, whose counters single updates still bump).
    let mut sketch = TrackingDcs::new(config(31));
    sketch.update_batch(&updates[..small]);
    sketch.update_batch(&updates);
    let snap = sketch.telemetry_snapshot("tracking-batched");
    assert_eq!(
        snap.update_latency.expect("recorded").count,
        (small + large) as u64
    );
    assert_eq!(snap.batch_size.expect("recorded").count, 2);

    let mut sketch = TrackingDcs::new(config(31));
    for u in &updates {
        sketch.update(*u);
    }
    let snap = sketch.telemetry_snapshot("tracking-per-update");
    assert!(snap.update_latency.is_none(), "single updates are untimed");
    assert!(snap.counters.keys().any(|name| name.starts_with("screen_")));
}

#[test]
fn windowed_monitor_snapshot_counts_levels_slid_and_skipped() {
    use ddos_streams::netsim::window::WindowPolicy;
    use ddos_streams::netsim::Monitor;
    use ddos_streams::AlarmPolicy;

    let window = WindowPolicy::Sliding { epochs: 4 };
    let mut monitor = Monitor::new(config(43), AlarmPolicy::default(), Some(window)).unwrap();
    let gauges = |monitor: &Monitor| {
        let snap = monitor.telemetry_snapshot("window");
        validate_line(&snap.to_jsonl()).expect("windowed snapshot validates");
        (
            snap.counters["window_levels_slid"],
            snap.counters["window_levels_skipped"],
        )
    };
    assert_eq!(gauges(&monitor), (0, 0), "no slide yet");

    // A wide first epoch materializes the high levels; the small
    // epochs after it only change the low ones. Every level the
    // cumulative sketch holds is either slid or skipped at each slide.
    let mut levels_seen = 0u64;
    for epoch in 0..6u32 {
        let sources = if epoch == 0 { 4_000 } else { 10 };
        let updates: Vec<FlowUpdate> = (0..sources)
            .map(|s| FlowUpdate::insert(SourceAddr(epoch << 16 | s), DestAddr(s % 5)))
            .collect();
        monitor.ingest(&updates);
        monitor.evaluate().unwrap();
        levels_seen += monitor.cumulative().unwrap().allocated_levels() as u64;
    }
    let (slid, skipped) = gauges(&monitor);
    assert_eq!(slid + skipped, levels_seen);
    assert!(slid > 0 && skipped > 0, "slid {slid}, skipped {skipped}");
}
