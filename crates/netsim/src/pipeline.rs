//! A concurrent router → monitor pipeline.
//!
//! Deployment shape for the architecture of Fig. 1: several edge
//! routers, each on its own thread, convert their packet feeds into
//! flow updates and ship them over a bounded channel to one central
//! monitor, which runs on the thread that called [`run_pipeline`]. The
//! monitor feeds a [`Monitor`] — a basic Distinct-Count Sketch of its
//! own, or the per-worker partials of a [`crate::ShardedIngest`] engine
//! — and judges the alarm rules against the sketch's `BaseTopk` view
//! (Fig. 3), or against a sliding window of it: every
//! [`PipelineConfig::evaluate_every`] updates, or in traffic time at
//! every [`PipelineConfig::evaluate_every_ticks`] boundary. For the
//! latter the router sends an in-band marker down the channel, behind
//! the exports of every segment before the boundary. The loop itself
//! only cuts the stream at evaluation, telemetry and checkpoint
//! boundaries and runs the two sidecars.
//!
//! Between two boundaries the loop folds the updates into one net change
//! per pair ([`UpdateFold`]) and hands the sketch only that at the
//! boundary, so a handshake that opens and completes in between costs
//! the sketch nothing. The sketch is linear, so every judgment sees the
//! counters raw ingest would have built, bit for bit; the same net
//! changes are the update log's records (DESIGN.md §18, "Folding an
//! interval").
//!
//! The Tracking DCS (§5) is deliberately not on the ingest path: it
//! makes every update dearer so that queries are cheap, and at
//! evaluation cadence `BaseTopk` returns the same ranking for far less
//! (DESIGN.md §18). The final sketch is wrapped in a
//! [`dcs_core::TrackingDcs`] once, at shutdown, and handed back in
//! [`DetectionReport::monitor`].

use std::path::PathBuf;
use std::sync::mpsc::{self, SyncSender};
use std::thread;
use std::time::Instant;

use dcs_core::{FlowUpdate, NetBatch, SketchConfig, UpdateFold};
use dcs_persist::CheckpointManager;
use dcs_telemetry::{JsonlExporter, LogHistogram, TelemetrySnapshot};

use crate::monitor::{Alarm, AlarmPolicy, DdosMonitor, Monitor};
use crate::packet::TcpSegment;
use crate::router::EdgeRouter;
use crate::window::WindowPolicy;

/// Where and how often the monitor exports telemetry snapshots.
#[derive(Debug, Clone)]
pub struct TelemetrySidecar {
    /// JSONL file the snapshots are appended to (truncated at start).
    pub path: PathBuf,
    /// Snapshot every this many ingested updates (a final snapshot is
    /// always written at shutdown regardless).
    pub every: u64,
}

impl TelemetrySidecar {
    /// A sidecar next to a results file, snapshotting every `every`
    /// updates. See [`dcs_telemetry::sidecar_path`] for the naming rule.
    pub fn beside(results_path: &std::path::Path, every: u64) -> Self {
        Self {
            path: dcs_telemetry::sidecar_path(results_path),
            every,
        }
    }
}

/// Where and how often the monitor writes crash-recovery
/// checkpoints (see `dcs_persist`).
#[derive(Debug, Clone)]
pub struct CheckpointSidecar {
    /// Snapshot file, atomically replaced whenever a full snapshot is
    /// written. An all-time monitor keeps its update log beside it, at
    /// this path with `.log` appended, and most boundaries only append
    /// to that. If a valid, configuration-compatible snapshot already
    /// exists at startup, the monitor resumes from it, plus the log's
    /// records, instead of starting empty.
    pub path: PathBuf,
    /// Checkpoint every this many ingested updates. At shutdown a
    /// snapshot is written unless the one on disk already holds every
    /// update and the log is empty.
    pub every: u64,
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Sketch configuration for the central monitor.
    pub sketch: SketchConfig,
    /// Alarm policy for the central monitor.
    pub policy: AlarmPolicy,
    /// Updates per export batch from each router.
    pub batch_size: usize,
    /// Evaluate alarms every this many ingested updates.
    pub evaluate_every: u64,
    /// `Some(n)`: evaluate alarms in traffic time instead, at every
    /// multiple of `n` ticks that the feed's timestamps reach, empty
    /// intervals included, over the exports of every segment before
    /// the boundary. Takes a single router feed. Telemetry and
    /// checkpoint boundaries stay counted in updates. `None` (default):
    /// [`Self::evaluate_every`] sets the cadence.
    pub evaluate_every_ticks: Option<u64>,
    /// Router half-open timeout in ticks (`None` disables).
    pub half_open_timeout: Option<u64>,
    /// Optional telemetry JSONL sidecar written by the monitor.
    pub telemetry: Option<TelemetrySidecar>,
    /// Optional crash-recovery checkpoint written by the monitor.
    pub checkpoint: Option<CheckpointSidecar>,
    /// `Some(n)`: the monitor feeds a [`crate::ShardedIngest`] engine
    /// with `n` persistent workers instead of sketching inline, judging
    /// alarms against merged snapshots at evaluation boundaries.
    /// `None` (default): single-threaded monitor sketch. The mode does
    /// not change what is saved: the merged sketch equals the direct
    /// one under any routing, so both write the same checkpoint bytes,
    /// and a checkpoint from either resumes in either with the
    /// configured shard count.
    pub ingest_shards: Option<usize>,
    /// `Some(policy)`: alarms are judged over a sliding (or decayed)
    /// window of evaluation epochs instead of the all-time sketch —
    /// every [`Self::evaluate_every`] boundary closes one epoch and
    /// slides the window in O(1). Checkpoints then persist the full
    /// window document (kind 5), so a resumed run's ring is
    /// bit-identical to an uninterrupted one's. `None` (default):
    /// all-time judgment, saved as a sketch document (kind 1) that the
    /// update log extends between snapshots.
    pub window: Option<WindowPolicy>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            sketch: SketchConfig::paper_default(),
            policy: AlarmPolicy::default(),
            batch_size: 1024,
            evaluate_every: 10_000,
            evaluate_every_ticks: None,
            half_open_timeout: None,
            telemetry: None,
            checkpoint: None,
            ingest_shards: None,
            window: None,
        }
    }
}

/// The outcome of a pipeline run.
#[derive(Debug)]
pub struct DetectionReport {
    /// Every alarm raised during the run, in evaluation order.
    pub alarms: Vec<Alarm>,
    /// The traffic tick of each judgment, in order, so alarm `a` fired
    /// at `judged_at[a.evaluation - 1]`. A tick-cadence judgment
    /// records its boundary. An update-count judgment records the
    /// newest timestamp the monitor's batches carry, and the final one
    /// the newest any router observed.
    pub judged_at: Vec<u64>,
    /// Total flow updates the monitor ingested.
    pub updates_ingested: u64,
    /// Total segments observed across all routers.
    pub segments_observed: u64,
    /// Checkpoints successfully written during the run, log appends
    /// and snapshots alike (0 when no [`PipelineConfig::checkpoint`]
    /// sidecar was configured).
    pub checkpoints_written: u64,
    /// Whether the monitor resumed from an existing checkpoint file
    /// rather than starting with an empty sketch.
    pub restored_from_checkpoint: bool,
    /// The final monitor state: baselines, plus a tracking sketch built
    /// once from the run's final basic sketch.
    pub monitor: DdosMonitor,
}

impl DetectionReport {
    /// The set of destinations that raised at least one alarm.
    pub fn alarmed_destinations(&self) -> Vec<u32> {
        let mut dests: Vec<u32> = self.alarms.iter().map(|a| a.dest).collect();
        dests.sort_unstable();
        dests.dedup();
        dests
    }

    /// The tick of the first judgment that alarmed on `dest`, if any.
    pub fn first_alarm_at(&self, dest: u32) -> Option<u64> {
        let alarm = self.alarms.iter().find(|a| a.dest == dest)?;
        let judgment = usize::try_from(alarm.evaluation - 1).ok()?;
        self.judged_at.get(judgment).copied()
    }
}

/// What a router thread sends the monitor.
enum Shipment {
    /// Exported updates, stamped with the router's clock: the newest
    /// timestamp it had observed.
    Batch(Vec<FlowUpdate>, u64),
    /// Tick cadence: the feed reached this boundary, and every export
    /// of the segments before it has been shipped.
    Mark(u64),
}

/// The boundary that is never reached: the next mark under update
/// cadence, and after the last representable one.
const NEVER: u64 = u64::MAX;

/// Tick cadence, on a segment stamped `now` that reaches the `next`
/// boundary: ships the router's pending exports, then one mark per
/// boundary up to `now`. Returns the next boundary past `now`, or
/// `None` when the monitor has hung up.
#[cold]
fn ship_marks(
    router: &mut EdgeRouter,
    tx: &SyncSender<Shipment>,
    now: u64,
    mut next: u64,
    every: u64,
) -> Option<u64> {
    if router.pending_exports() > 0 {
        tx.send(Shipment::Batch(router.drain_exports(), router.clock()))
            .ok()?;
    }
    while now >= next && next != NEVER {
        tx.send(Shipment::Mark(next)).ok()?;
        next = next.checked_add(every).unwrap_or(NEVER);
    }
    Some(next)
}

/// Checkpoint bookkeeping the monitor folds into its telemetry
/// snapshots.
#[derive(Debug, Default)]
struct CheckpointStats {
    /// Durable boundary writes: log appends and snapshots.
    written: u64,
    bytes_last: u64,
    bytes_written: u64,
    latency: LogHistogram,
    /// The restore's update-log records replayed and dropped, and its
    /// wall time.
    replayed: u64,
    dropped: u64,
    restore_ns: u64,
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The monitor's telemetry snapshot plus the fold's counter:
/// `ingest_updates_folded`, the raw updates minus the net entries the
/// sketch ingested. The sketch's own update histogram times those net
/// entries.
fn pipeline_snapshot(monitor: &Monitor, folding: &Folding, label: &str) -> TelemetrySnapshot {
    let mut snap = monitor.telemetry_snapshot(label);
    snap.set_counter("ingest_updates_folded", folding.folded_away);
    snap
}

/// Appends one prepared snapshot (extended with checkpoint counters
/// when checkpointing is active), disabling the exporter on I/O failure
/// so a full disk degrades to a warning rather than a panic or a flood
/// of repeated errors.
fn export_snapshot(
    exporter: &mut Option<JsonlExporter>,
    mut snap: TelemetrySnapshot,
    ckpt: Option<(&CheckpointStats, &CheckpointManager)>,
) {
    if let Some(exp) = exporter {
        if let Some((stats, manager)) = ckpt {
            snap.set_counter("checkpoints_written", stats.written);
            snap.set_counter("checkpoint_snapshots_written", manager.saves());
            snap.set_counter("checkpoint_bytes_last", stats.bytes_last);
            snap.set_counter("checkpoint_bytes_written", stats.bytes_written);
            snap.set_counter("checkpoint_log_bytes", manager.log_bytes());
            snap.set_counter("checkpoint_log_records_replayed", stats.replayed);
            snap.set_counter("checkpoint_log_records_dropped", stats.dropped);
            snap.set_counter("checkpoint_restore_ns", stats.restore_ns);
            snap.set_counter(
                "checkpoint_save_p50_ns",
                stats.latency.quantile_ns(0.5) as u64,
            );
            snap.set_counter(
                "checkpoint_save_p99_ns",
                stats.latency.quantile_ns(0.99) as u64,
            );
        }
        if let Err(e) = exp.append(&snap) {
            eprintln!(
                "telemetry sidecar {}: {e}; disabling export",
                exp.path().display()
            );
            *exporter = None;
        }
    }
}

/// Resumes the monitor from the snapshot file, if there is one (see
/// [`Monitor::from_checkpoint`]), and an all-time monitor also from the
/// update log beside it. Any problem with the snapshot — a missing file
/// aside — degrades to a fresh start (`None`) with a warning on stderr:
/// a monitor must never refuse to boot because its own recovery file is
/// damaged or stale. A fresh start leaves the files alone; its first
/// checkpoint is a snapshot, which truncates the log, so no record of
/// another run's history is ever applied.
fn resume_from(
    manager: &mut CheckpointManager,
    sketch: &SketchConfig,
    policy: AlarmPolicy,
    window: Option<WindowPolicy>,
    stats: &mut CheckpointStats,
) -> Option<Monitor> {
    let started = Instant::now();
    let reason = match manager.try_load() {
        Ok(None) => return None,
        Ok(Some(doc)) => match Monitor::from_checkpoint(doc, sketch, policy, window) {
            Ok(mut monitor) => {
                if monitor.window().is_none() {
                    replay_log(manager, &mut monitor, stats);
                }
                stats.restore_ns = nanos_since(started);
                return Some(monitor);
            }
            Err(e) => e.to_string(),
        },
        Err(e) => format!("unreadable ({e})"),
    };
    eprintln!(
        "checkpoint {}: {reason}; starting fresh",
        manager.path().display()
    );
    None
}

/// Replays the update log onto an all-time monitor just restored from
/// the snapshot beside it (DESIGN.md §12, "Update log"). Dropped
/// records are counted and reported on stderr, never skipped silently;
/// a log that cannot be read is reported too, and the next checkpoint
/// is then a snapshot.
fn replay_log(manager: &mut CheckpointManager, monitor: &mut Monitor, stats: &mut CheckpointStats) {
    let from = monitor.updates_processed();
    match manager.replay_log(from, |batch| monitor.ingest_net(batch)) {
        Ok(replay) => {
            stats.replayed = replay.replayed;
            stats.dropped = replay.dropped;
            if let Some(problem) = replay.problem {
                eprintln!(
                    "update log {}: dropped {} record(s) after replaying {} ({problem})",
                    manager.log_path().display(),
                    replay.dropped,
                    replay.replayed
                );
            }
        }
        Err(e) => eprintln!(
            "update log {}: {e}; the next checkpoint is a snapshot",
            manager.log_path().display()
        ),
    }
}

/// Judges the alarm rules at a boundary, appending what fires and the
/// judgment's traffic tick `at`. An evaluation error — unreachable with
/// one shared configuration — skips this judgment with a warning, so
/// the detection run carries on.
fn evaluate_into(
    monitor: &mut Monitor,
    alarms: &mut Vec<Alarm>,
    judged_at: &mut Vec<u64>,
    at: u64,
) {
    match monitor.evaluate() {
        Ok(raised) => {
            alarms.extend(raised);
            judged_at.push(at);
        }
        Err(e) => eprintln!("alarm evaluation failed: {e}; skipping this judgment"),
    }
}

/// The monitor loop's fold: the updates since the last boundary, folded
/// to their net changes, and an all-time monitor's net changes since its
/// last durable checkpoint write.
#[derive(Debug, Default)]
struct Folding {
    fold: UpdateFold,
    /// The interval's net changes so far: what the fold evicted.
    interval: NetBatch,
    /// The net changes since the last durable write: the next
    /// update-log record.
    pending: NetBatch,
    /// Raw updates minus the net entries the sketch ingested.
    folded_away: u64,
}

impl Folding {
    /// Folds `chunk` into the interval.
    fn absorb(&mut self, chunk: &[FlowUpdate]) {
        self.fold.absorb(chunk, &mut self.interval);
    }

    /// Closes the interval at a boundary: the monitor ingests its net
    /// changes and, when `logged`, they join the pending log record.
    fn settle(&mut self, monitor: &mut Monitor, logged: bool) {
        if self.interval.covered == 0 {
            return;
        }
        self.fold.flush(&mut self.interval);
        monitor.ingest_net(&self.interval);
        self.folded_away += self.interval.covered - self.interval.entries.len() as u64;
        if logged {
            self.pending.extend_from(&self.interval);
        }
        self.interval.clear();
    }
}

/// Makes the monitor's state durable at a checkpoint boundary, timing
/// the write and disabling checkpointing on failure (same degradation
/// contract as the telemetry exporter: warn once, carry on). `pending`
/// holds the net changes since the last durable write. They are
/// appended to the update log as one record while
/// [`CheckpointManager::can_append`] allows: an all-time snapshot of
/// this run is on disk, and a restore stays within its replay budget.
/// Otherwise, and at `shutdown` when anything is pending or logged, the
/// monitor's whole state is saved as a snapshot, which truncates the
/// log. A sharded merge failure — unreachable with one shared
/// configuration — skips the save with a warning and keeps `pending`.
fn write_checkpoint(
    manager: &mut Option<CheckpointManager>,
    monitor: &mut Monitor,
    pending: &mut NetBatch,
    stats: &mut CheckpointStats,
    shutdown: bool,
) {
    let Some(mgr) = manager else {
        return;
    };
    let appendable = mgr.can_append(pending.entries.len());
    if shutdown && appendable && pending.covered == 0 && mgr.log_records() == 0 {
        return;
    }
    let snapshot = if appendable && !shutdown {
        None
    } else {
        match monitor.checkpoint() {
            Ok(checkpoint) => Some(checkpoint),
            Err(e) => {
                eprintln!("sharded merge failed during checkpoint: {e}");
                return;
            }
        }
    };
    let started = Instant::now();
    let written = match &snapshot {
        Some(checkpoint) => mgr.save(checkpoint),
        None => mgr.append_net(pending),
    };
    pending.clear();
    match written {
        Ok(bytes) => {
            stats.latency.record(nanos_since(started));
            stats.written += 1;
            stats.bytes_last = bytes;
            stats.bytes_written = stats.bytes_written.saturating_add(bytes);
        }
        Err(e) => {
            eprintln!(
                "checkpoint {}: write failed ({e}); disabling checkpointing",
                mgr.path().display()
            );
            *manager = None;
        }
    }
}

/// Runs the pipeline: one spawned thread per router feed, and the
/// monitor on the calling thread.
///
/// Each element of `router_feeds` is the packet feed of one edge
/// router, in time order. The routers start first, so the monitor's
/// restore overlaps their work. Returns after all feeds are exhausted,
/// the channel has drained, the routers are joined, and a final alarm
/// evaluation and the shutdown checkpoint have run. When
/// [`PipelineConfig::telemetry`] is set, the monitor also appends
/// periodic [`dcs_telemetry::TelemetrySnapshot`]s (and one final
/// `pipeline_final` snapshot) to the configured JSONL sidecar.
///
/// A segment stamped earlier than one before it is observed as it
/// comes, and under tick cadence it judges no boundary again.
///
/// # Panics
///
/// Panics with "invalid pipeline window policy" if
/// [`PipelineConfig::window`] is set to a policy that fails
/// [`WindowPolicy::validate`] (zero-length window, decay factor outside
/// `(0, 1]`), and with "tick cadence takes a single router feed" if
/// [`PipelineConfig::evaluate_every_ticks`] is set with several feeds —
/// caller configuration errors, not runtime conditions. Both checks run
/// before any router thread starts.
///
/// Once the channel closes, the routers are joined in feed order and the
/// first router panic is re-raised with its own payload, before the
/// final evaluation and the shutdown checkpoint. A monitor panic unwinds
/// on the calling thread and drops the receiver, so a router blocked on
/// the full channel returns instead of waiting forever.
///
/// # Examples
///
/// ```
/// use dcs_core::DestAddr;
/// use dcs_netsim::{run_pipeline, PipelineConfig, TrafficDriver};
///
/// let mut driver = TrafficDriver::new(1);
/// driver.syn_flood(DestAddr(0x0a000001), 2_000);
/// let report = run_pipeline(vec![driver.into_segments()], PipelineConfig::default());
/// assert!(report.alarmed_destinations().contains(&0x0a000001));
///
/// // Judged every 10 ticks instead, the report says when it fired.
/// let mut driver = TrafficDriver::new(1);
/// driver.advance_clock(500);
/// driver.syn_flood(DestAddr(0x0a000001), 2_000);
/// let config = PipelineConfig {
///     evaluate_every_ticks: Some(10),
///     ..PipelineConfig::default()
/// };
/// let report = run_pipeline(vec![driver.into_segments()], config);
/// assert!(report.first_alarm_at(0x0a000001).is_some_and(|tick| tick > 500));
/// ```
pub fn run_pipeline(router_feeds: Vec<Vec<TcpSegment>>, config: PipelineConfig) -> DetectionReport {
    // The one window-policy check, before any thread starts.
    let fresh = Monitor::new(
        config.sketch.clone(),
        config.policy.clone(),
        config.window.clone(),
    )
    .unwrap_or_else(|e| panic!("invalid pipeline window policy: {e}"));
    assert!(
        config.evaluate_every_ticks.is_none() || router_feeds.len() <= 1,
        "tick cadence takes a single router feed, not {}",
        router_feeds.len()
    );
    let tick_every = config.evaluate_every_ticks.map_or(NEVER, |t| t.max(1));
    let (update_tx, update_rx) = mpsc::sync_channel::<Shipment>(64);

    // Each router thread returns how many segments it observed and its
    // final clock.
    let mut router_handles = Vec::new();
    for (index, feed) in router_feeds.into_iter().enumerate() {
        let tx = update_tx.clone();
        let batch_size = config.batch_size.max(1);
        let timeout = config.half_open_timeout;
        router_handles.push(thread::spawn(move || {
            let mut router = EdgeRouter::new(index as u32, timeout);
            let last_ts = feed.last().map_or(0, |s| s.timestamp);
            // Under update cadence no timestamp passes `NEVER`'s check,
            // so a segment costs one compare.
            let mut next_mark = tick_every;
            for segment in &feed {
                if segment.timestamp >= next_mark {
                    match ship_marks(&mut router, &tx, segment.timestamp, next_mark, tick_every) {
                        Some(next) => next_mark = next,
                        None => return (router.segments_observed(), router.clock()),
                    }
                }
                router.observe(segment);
                if router.pending_exports() >= batch_size {
                    let batch = Shipment::Batch(router.drain_exports(), router.clock());
                    if tx.send(batch).is_err() {
                        return (router.segments_observed(), router.clock());
                    }
                }
            }
            let clock = router.clock();
            router.flush_expired(last_ts.saturating_add(1_000_000));
            let tail = router.drain_exports();
            if !tail.is_empty() {
                let _ = tx.send(Shipment::Batch(tail, clock));
            }
            (router.segments_observed(), clock)
        }));
    }
    drop(update_tx);

    let PipelineConfig {
        sketch,
        policy,
        evaluate_every,
        evaluate_every_ticks,
        telemetry: sidecar,
        checkpoint: ckpt_sidecar,
        ingest_shards,
        window,
        ..
    } = config;
    let evaluate_every = match evaluate_every_ticks {
        Some(_) => NEVER,
        None => evaluate_every.max(1),
    };
    let mut ckpt_manager = ckpt_sidecar
        .as_ref()
        .map(|c| CheckpointManager::new(&c.path));
    let mut ckpt_stats = CheckpointStats::default();
    let restored = ckpt_manager
        .as_mut()
        .and_then(|m| resume_from(m, &sketch, policy, window, &mut ckpt_stats));
    let restored_from_checkpoint = restored.is_some();
    let mut monitor = restored.unwrap_or(fresh).with_shards(ingest_shards);
    let logged = monitor.window().is_none();
    let mut folding = Folding::default();
    // A failed sidecar must not kill the detection run: report on
    // stderr and carry on without telemetry.
    let mut exporter = sidecar.as_ref().and_then(|s| {
        JsonlExporter::create(&s.path)
            .map_err(|e| eprintln!("telemetry sidecar {}: {e}", s.path.display()))
            .ok()
    });
    let snapshot_every = sidecar.map_or(u64::MAX, |s| s.every.max(1));
    let checkpoint_every = ckpt_sidecar.map_or(u64::MAX, |c| c.every.max(1));
    let mut alarms = Vec::new();
    let mut judged_at = Vec::new();
    // The newest timestamp the received batches carry.
    let mut clock = 0u64;
    let mut ingested = 0u64;
    let mut next_eval = evaluate_every;
    let mut next_snapshot = snapshot_every;
    let mut next_checkpoint = checkpoint_every;
    for shipment in update_rx {
        let batch = match shipment {
            Shipment::Batch(batch, stamp) => {
                clock = clock.max(stamp);
                batch
            }
            Shipment::Mark(boundary) => {
                folding.settle(&mut monitor, logged && ckpt_manager.is_some());
                evaluate_into(&mut monitor, &mut alarms, &mut judged_at, boundary);
                continue;
            }
        };
        // Fold the batch in sub-chunks that stop exactly at the next
        // evaluation/snapshot/checkpoint boundary, so alarms, snapshots,
        // and checkpoints fire at the same ingested counts as a
        // per-update loop, each over the interval's net changes.
        let mut offset = 0usize;
        while offset < batch.len() {
            let remaining = batch.len() - offset;
            let until_boundary = next_eval
                .saturating_sub(ingested)
                .min(next_snapshot.saturating_sub(ingested))
                .min(next_checkpoint.saturating_sub(ingested));
            let take = usize::try_from(until_boundary)
                .unwrap_or(remaining)
                .min(remaining);
            folding.absorb(&batch[offset..offset + take]);
            offset += take;
            ingested += take as u64;
            if ingested >= next_eval.min(next_snapshot).min(next_checkpoint) {
                folding.settle(&mut monitor, logged && ckpt_manager.is_some());
            }
            if ingested >= next_eval {
                evaluate_into(&mut monitor, &mut alarms, &mut judged_at, clock);
                next_eval += evaluate_every;
            }
            if ingested >= next_snapshot {
                if exporter.is_some() {
                    export_snapshot(
                        &mut exporter,
                        pipeline_snapshot(&monitor, &folding, "pipeline"),
                        ckpt_manager.as_ref().map(|m| (&ckpt_stats, m)),
                    );
                }
                next_snapshot += snapshot_every;
            }
            if ingested >= next_checkpoint {
                write_checkpoint(
                    &mut ckpt_manager,
                    &mut monitor,
                    &mut folding.pending,
                    &mut ckpt_stats,
                    false,
                );
                next_checkpoint += checkpoint_every;
            }
        }
    }

    // The channel closed, so every router has returned or panicked; a
    // panic is re-raised with its own payload (as `ingest_sharded` does).
    let mut segments_observed = 0;
    for handle in router_handles {
        match handle.join() {
            Ok((segments, router_clock)) => {
                segments_observed += segments;
                clock = clock.max(router_clock);
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    folding.settle(&mut monitor, logged && ckpt_manager.is_some());
    evaluate_into(&mut monitor, &mut alarms, &mut judged_at, clock);
    // One final snapshot so a clean shutdown resumes without a log.
    write_checkpoint(
        &mut ckpt_manager,
        &mut monitor,
        &mut folding.pending,
        &mut ckpt_stats,
        true,
    );
    if exporter.is_some() {
        export_snapshot(
            &mut exporter,
            pipeline_snapshot(&monitor, &folding, "pipeline_final"),
            ckpt_manager.as_ref().map(|m| (&ckpt_stats, m)),
        );
    }
    DetectionReport {
        alarms,
        judged_at,
        updates_ingested: ingested,
        segments_observed,
        checkpoints_written: ckpt_stats.written,
        restored_from_checkpoint,
        monitor: monitor.into_tracking_monitor(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficDriver;
    use dcs_core::DestAddr;

    fn config(absolute: u64) -> PipelineConfig {
        PipelineConfig {
            sketch: SketchConfig::builder()
                .buckets_per_table(256)
                .seed(3)
                .build()
                .unwrap(),
            policy: AlarmPolicy {
                absolute_threshold: absolute,
                ..AlarmPolicy::default()
            },
            batch_size: 64,
            evaluate_every: 500,
            evaluate_every_ticks: None,
            half_open_timeout: None,
            telemetry: None,
            checkpoint: None,
            ingest_shards: None,
            window: None,
        }
    }

    #[test]
    fn single_router_flood_is_detected() {
        let mut driver = TrafficDriver::new(1);
        driver.legitimate_sessions(DestAddr(0x0a000001), 100);
        driver.syn_flood(DestAddr(0x0a000002), 1_000);
        let report = run_pipeline(vec![driver.into_segments()], config(300));
        assert!(report.alarmed_destinations().contains(&0x0a00_0002));
        assert!(!report.alarmed_destinations().contains(&0x0a00_0001));
        assert!(report.updates_ingested > 1_000);
        assert!(report.segments_observed > 1_000);
    }

    #[test]
    fn distributed_flood_across_routers_is_aggregated() {
        // Each router alone sees 200 attack sources (below threshold
        // 450); the central monitor sees all 600. s = 1024 keeps the
        // estimator's sampling error well under the 150-source margin.
        let mut cfg = config(450);
        cfg.sketch = SketchConfig::builder()
            .buckets_per_table(1024)
            .seed(3)
            .build()
            .unwrap();
        let feeds: Vec<_> = (0..3u32)
            .map(|i| {
                let mut driver = TrafficDriver::new(100 + u64::from(i))
                    .with_source_base(0x2000_0000 + i * 0x0100_0000);
                driver.syn_flood(DestAddr(0x0a000009), 200);
                driver.into_segments()
            })
            .collect();
        let report = run_pipeline(feeds, cfg);
        assert!(report.alarmed_destinations().contains(&0x0a00_0009));
        assert_eq!(report.updates_ingested, 600);
    }

    #[test]
    fn flash_crowd_alone_is_not_alarmed() {
        let mut driver = TrafficDriver::new(2);
        driver.flash_crowd(DestAddr(0x0a000003), 1_000);
        let report = run_pipeline(vec![driver.into_segments()], config(300));
        assert!(report.alarmed_destinations().is_empty());
    }

    #[test]
    fn empty_feeds_produce_empty_report() {
        let report = run_pipeline(vec![], config(10));
        assert!(report.alarms.is_empty());
        assert_eq!(report.updates_ingested, 0);
        assert_eq!(report.monitor.sketch().updates_processed(), 0);
    }

    /// A feed of `sources` flood SYNs, for runs whose outcome does not
    /// matter.
    fn flood_feed(sources: u32) -> Vec<TcpSegment> {
        let mut driver = TrafficDriver::new(90);
        driver.syn_flood(DestAddr(0x0a00_0010), sources);
        driver.into_segments()
    }

    #[test]
    #[should_panic(expected = "invalid pipeline window policy")]
    fn zero_epoch_window_is_refused_before_the_run() {
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Sliding { epochs: 0 });
        run_pipeline(vec![flood_feed(200)], cfg);
    }

    #[test]
    #[should_panic(expected = "invalid pipeline window policy")]
    fn decay_factor_above_one_is_refused_before_the_run() {
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Decayed {
            epochs: 3,
            lambda: 1.5,
        });
        run_pipeline(vec![flood_feed(200)], cfg);
    }

    #[test]
    fn telemetry_sidecar_is_written_and_valid() {
        let mut driver = TrafficDriver::new(5);
        driver.syn_flood(DestAddr(0x0a000007), 800);
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_telemetry_{}.jsonl",
            std::process::id()
        ));
        let mut cfg = config(300);
        cfg.telemetry = Some(TelemetrySidecar {
            path: path.clone(),
            every: 400,
        });
        let report = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(report.alarmed_destinations().contains(&0x0a00_0007));
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = contents.lines().collect();
        // Periodic snapshots plus the final one.
        assert!(
            lines.len() >= 2,
            "expected >= 2 snapshots, got {}",
            lines.len()
        );
        for line in &lines {
            dcs_telemetry::validate_line(line).unwrap();
        }
        let last = lines.last().unwrap();
        assert!(last.contains("\"label\":\"pipeline_final\""));
        assert_monitor_gauges(last);
    }

    /// The monitor's three gauges and the sketch's two counter-headroom
    /// gauges, present in every mode.
    fn assert_monitor_gauges(line: &str) {
        for gauge in [
            "\"monitor_evaluations\"",
            "\"monitor_baselines\"",
            "\"monitor_active_alarms\"",
            "\"counter_headroom_exceeded\":0",
            "\"counter_total_max_abs\"",
        ] {
            assert!(line.contains(gauge), "{gauge} missing from {line}");
        }
    }

    #[test]
    fn checkpoint_sidecar_roundtrips_across_runs() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_checkpoint_{}.ckpt",
            std::process::id()
        ));
        remove_checkpoint(&path);
        let mut cfg = config(300);
        cfg.checkpoint = Some(CheckpointSidecar {
            path: path.clone(),
            every: 250,
        });
        let mut driver = TrafficDriver::new(9);
        driver.syn_flood(DestAddr(0x0a000008), 600);
        let first = run_pipeline(vec![driver.into_segments()], cfg.clone());
        assert!(!first.restored_from_checkpoint);
        // Periodic saves plus the final shutdown save.
        assert!(
            first.checkpoints_written >= 2,
            "{}",
            first.checkpoints_written
        );
        let first_count = first.monitor.sketch().updates_processed();

        // Second run resumes from the final checkpoint of the first.
        let mut driver = TrafficDriver::new(10).with_source_base(0x3000_0000);
        driver.syn_flood(DestAddr(0x0a000008), 100);
        let second = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(second.restored_from_checkpoint);
        assert_eq!(
            second.monitor.sketch().updates_processed(),
            first_count + second.updates_ingested
        );
        remove_checkpoint(&path);
    }

    /// Removes a checkpoint and the update log beside it.
    fn remove_checkpoint(path: &std::path::Path) {
        let _ = std::fs::remove_file(CheckpointManager::new(path).log_path());
        let _ = std::fs::remove_file(path);
    }

    /// The value of counter `name` in a sidecar line.
    fn counter(line: &str, name: &str) -> u64 {
        line.split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from {line}"))
    }

    #[test]
    fn checkpoint_counters_reach_the_telemetry_sidecar() {
        let dir = std::env::temp_dir().join(format!(
            "dcs_pipeline_checkpoint_telemetry_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = config(300);
        cfg.checkpoint = Some(CheckpointSidecar {
            path: dir.join("monitor.ckpt"),
            every: 100,
        });
        cfg.telemetry = Some(TelemetrySidecar {
            path: dir.join("monitor.telemetry.jsonl"),
            every: 100,
        });
        // A fresh run snapshots at its first boundary and at shutdown,
        // and appends in between; a restored run only at shutdown.
        for (restored, snapshots) in [(false, 2), (true, 1)] {
            let report = run_pipeline(vec![flood_feed(600)], cfg.clone());
            assert_eq!(report.restored_from_checkpoint, restored);
            let contents = std::fs::read_to_string(dir.join("monitor.telemetry.jsonl")).unwrap();
            for line in contents.lines() {
                dcs_telemetry::validate_line(line).unwrap();
            }
            let last = contents.lines().last().unwrap();
            assert_eq!(
                counter(last, "checkpoints_written"),
                report.checkpoints_written
            );
            assert_eq!(counter(last, "checkpoint_snapshots_written"), snapshots);
            assert!(report.checkpoints_written > snapshots, "boundaries append");
            assert_eq!(counter(last, "checkpoint_log_bytes"), 12, "only the header");
            assert_eq!(counter(last, "checkpoint_log_records_replayed"), 0);
            assert_eq!(counter(last, "checkpoint_log_records_dropped"), 0);
            assert_eq!(counter(last, "checkpoint_restore_ns") > 0, restored);
            assert!(
                counter(last, "checkpoint_bytes_written") > counter(last, "checkpoint_bytes_last")
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn folded_updates_reach_the_telemetry_sidecar() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_folded_telemetry_{}.jsonl",
            std::process::id()
        ));
        let mut cfg = config(300);
        cfg.telemetry = Some(TelemetrySidecar {
            path: path.clone(),
            every: 400,
        });
        // A crowd's handshakes complete, so most of its updates cancel
        // within an interval; the flood's SYNs never do.
        let mut driver = TrafficDriver::new(12);
        driver
            .flash_crowd(DestAddr(0x0a00_0003), 1_000)
            .syn_flood(DestAddr(0x0a00_0002), 400);
        let report = run_pipeline(vec![driver.into_segments()], cfg);
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let last = contents.lines().last().unwrap();
        let folded = counter(last, "ingest_updates_folded");
        assert!(folded > 1_000, "{folded} folded");
        assert!(folded + 400 <= report.updates_ingested);
        assert_eq!(
            report.monitor.sketch().updates_processed(),
            report.updates_ingested
        );
    }

    #[test]
    fn incompatible_checkpoint_degrades_to_fresh_start() {
        let path =
            std::env::temp_dir().join(format!("dcs_pipeline_badckpt_{}.ckpt", std::process::id()));
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let mut cfg = config(300);
        cfg.checkpoint = Some(CheckpointSidecar {
            path: path.clone(),
            every: 10_000,
        });
        let mut driver = TrafficDriver::new(11);
        driver.syn_flood(DestAddr(0x0a00000a), 500);
        let report = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(!report.restored_from_checkpoint);
        assert!(report.alarmed_destinations().contains(&0x0a00_000a));
        remove_checkpoint(&path);
    }

    #[test]
    fn final_monitor_state_is_inspectable() {
        let mut driver = TrafficDriver::new(3);
        driver.syn_flood(DestAddr(0x0a000004), 500);
        let report = run_pipeline(vec![driver.into_segments()], config(100));
        let top = report.monitor.top_k(1);
        assert_eq!(top.entries[0].group, 0x0a00_0004);
    }

    #[test]
    fn sharded_mode_detects_flood_and_matches_direct_sketch() {
        let mut driver = TrafficDriver::new(21);
        driver.legitimate_sessions(DestAddr(0x0a000001), 100);
        driver.syn_flood(DestAddr(0x0a000002), 1_000);
        let feed = driver.into_segments();
        let direct = run_pipeline(vec![feed.clone()], config(300));
        let mut cfg = config(300);
        cfg.ingest_shards = Some(3);
        let sharded = run_pipeline(vec![feed], cfg);
        assert!(sharded.alarmed_destinations().contains(&0x0a00_0002));
        assert!(!sharded.alarmed_destinations().contains(&0x0a00_0001));
        assert_eq!(sharded.updates_ingested, direct.updates_ingested);
        // The merged final sketch answers identically to the direct
        // run's over the same update stream.
        assert_eq!(
            sharded.monitor.sketch().updates_processed(),
            direct.monitor.sketch().updates_processed()
        );
        assert_eq!(sharded.monitor.top_k(10), direct.monitor.top_k(10));
        // Same judgments at the same boundaries.
        assert_eq!(sharded.alarms, direct.alarms);
    }

    #[test]
    fn sharded_checkpoint_roundtrips_across_runs() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_sharded_ckpt_{}.ckpt",
            std::process::id()
        ));
        remove_checkpoint(&path);
        let mut cfg = config(300);
        cfg.ingest_shards = Some(2);
        cfg.checkpoint = Some(CheckpointSidecar {
            path: path.clone(),
            every: 250,
        });
        let mut driver = TrafficDriver::new(31);
        driver.syn_flood(DestAddr(0x0a00000b), 600);
        let first = run_pipeline(vec![driver.into_segments()], cfg.clone());
        assert!(!first.restored_from_checkpoint);
        assert!(first.checkpoints_written >= 2);
        let first_count = first.monitor.sketch().updates_processed();

        let mut driver = TrafficDriver::new(32).with_source_base(0x4000_0000);
        driver.syn_flood(DestAddr(0x0a00000b), 100);
        let second = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(second.restored_from_checkpoint);
        assert_eq!(
            second.monitor.sketch().updates_processed(),
            first_count + second.updates_ingested
        );
        remove_checkpoint(&path);
    }

    #[test]
    fn sharded_mode_writes_engine_telemetry() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_sharded_telemetry_{}.jsonl",
            std::process::id()
        ));
        let mut cfg = config(300);
        cfg.ingest_shards = Some(2);
        cfg.telemetry = Some(TelemetrySidecar {
            path: path.clone(),
            every: 400,
        });
        let mut driver = TrafficDriver::new(41);
        driver.syn_flood(DestAddr(0x0a00000c), 800);
        let report = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(report.alarmed_destinations().contains(&0x0a00_000c));
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = contents.lines().collect();
        assert!(lines.len() >= 2, "expected >= 2 snapshots");
        for line in &lines {
            dcs_telemetry::validate_line(line).unwrap();
        }
        let last = lines.last().unwrap();
        assert!(last.contains("\"label\":\"pipeline_final\""));
        assert!(last.contains("\"sharded_queue_depth\""));
        assert!(last.contains("\"sharded_merge_p50_ns\""));
        assert_monitor_gauges(last);
    }

    #[test]
    fn windowed_pipeline_detects_flood() {
        let mut driver = TrafficDriver::new(51);
        driver.legitimate_sessions(DestAddr(0x0a000001), 100);
        driver.syn_flood(DestAddr(0x0a000002), 1_000);
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Sliding { epochs: 3 });
        let report = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(report.alarmed_destinations().contains(&0x0a00_0002));
        assert!(!report.alarmed_destinations().contains(&0x0a00_0001));
    }

    #[test]
    fn windowed_pipeline_checkpoint_roundtrips_across_runs() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_window_ckpt_{}.ckpt",
            std::process::id()
        ));
        remove_checkpoint(&path);
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Sliding { epochs: 2 });
        cfg.checkpoint = Some(CheckpointSidecar {
            path: path.clone(),
            every: 250,
        });
        let mut driver = TrafficDriver::new(61);
        driver.syn_flood(DestAddr(0x0a00000d), 600);
        let first = run_pipeline(vec![driver.into_segments()], cfg.clone());
        assert!(!first.restored_from_checkpoint);
        assert!(first.checkpoints_written >= 2);
        let first_count = first.monitor.sketch().updates_processed();

        let mut driver = TrafficDriver::new(62).with_source_base(0x5000_0000);
        driver.syn_flood(DestAddr(0x0a00000d), 100);
        let second = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(second.restored_from_checkpoint);
        assert_eq!(
            second.monitor.sketch().updates_processed(),
            first_count + second.updates_ingested
        );
        remove_checkpoint(&path);
    }

    #[test]
    fn windowed_checkpoint_policy_mismatch_degrades_to_fresh_start() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_window_badckpt_{}.ckpt",
            std::process::id()
        ));
        remove_checkpoint(&path);
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Sliding { epochs: 2 });
        cfg.checkpoint = Some(CheckpointSidecar {
            path: path.clone(),
            every: 10_000,
        });
        let mut driver = TrafficDriver::new(63);
        driver.syn_flood(DestAddr(0x0a00000e), 600);
        let first = run_pipeline(vec![driver.into_segments()], cfg.clone());
        assert!(!first.restored_from_checkpoint);

        // Same file, different ring capacity: the document is rejected
        // and the run starts fresh instead of refusing to boot.
        cfg.window = Some(WindowPolicy::Sliding { epochs: 4 });
        let mut driver = TrafficDriver::new(64).with_source_base(0x6000_0000);
        driver.syn_flood(DestAddr(0x0a00000e), 500);
        let second = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(!second.restored_from_checkpoint);
        assert!(second.alarmed_destinations().contains(&0x0a00_000e));
        remove_checkpoint(&path);
    }

    #[test]
    fn sharded_windowed_pipeline_matches_direct_windowed_alarms() {
        let mut driver = TrafficDriver::new(71);
        driver.legitimate_sessions(DestAddr(0x0a000001), 100);
        driver.syn_flood(DestAddr(0x0a000002), 1_000);
        let feed = driver.into_segments();
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Sliding { epochs: 2 });
        let direct = run_pipeline(vec![feed.clone()], cfg.clone());
        cfg.ingest_shards = Some(3);
        let sharded = run_pipeline(vec![feed], cfg);
        assert!(direct.alarmed_destinations().contains(&0x0a00_0002));
        // The sharded engine ingests the identical stream and windows
        // close at the identical boundaries, so judgments agree.
        assert_eq!(sharded.alarms, direct.alarms);
    }

    #[test]
    fn windowed_telemetry_carries_window_gauges() {
        let path = std::env::temp_dir().join(format!(
            "dcs_pipeline_window_telemetry_{}.jsonl",
            std::process::id()
        ));
        let mut cfg = config(300);
        cfg.window = Some(WindowPolicy::Decayed {
            epochs: 3,
            lambda: 0.5,
        });
        cfg.telemetry = Some(TelemetrySidecar {
            path: path.clone(),
            every: 400,
        });
        let mut driver = TrafficDriver::new(81);
        driver.syn_flood(DestAddr(0x0a00000f), 800);
        let report = run_pipeline(vec![driver.into_segments()], cfg);
        assert!(report.alarmed_destinations().contains(&0x0a00_000f));
        let contents = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = contents.lines().collect();
        for line in &lines {
            dcs_telemetry::validate_line(line).unwrap();
        }
        let last = lines.last().unwrap();
        assert!(last.contains("\"window_epochs_held\""));
        assert!(last.contains("\"window_epochs_capacity\":3"));
        assert!(last.contains("\"window_epochs_rotated\""));
        assert!(last.contains("\"window_levels_slid\""));
        assert!(last.contains("\"window_levels_skipped\""));
        let heap = last
            .split("\"window_heap_bytes\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u64>().ok());
        assert!(heap.is_some_and(|bytes| bytes > 0), "{last}");
    }
}
