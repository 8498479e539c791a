//! `run_pipeline` recomposed on one thread from the layers' public
//! functions.
//!
//! [`replay`] calls the same functions, in the same order and at the
//! same update counts, as `crates/netsim/src/pipeline.rs` does for one
//! router feed. The only difference is that each router batch goes
//! straight to the monitor side instead of through the channel, which
//! with one router changes no result. Every call sits in a span, so a
//! traced replay attributes its wall time to layers; an untraced
//! replay is the single-threaded baseline of the same job.
//!
//! The replay covers the configurations the workloads use: direct or
//! sharded ingest, with or without a window, and checkpoint restore in
//! direct all-time mode. Where the pipeline degrades to a warning (a
//! failed merge, save or export), the replay panics: in a benchmark
//! these are failures, not conditions to carry on through.

use std::fs;
use std::time::Instant;

use dcs_core::{Delta, FlowUpdate, TrackingDcs};
use dcs_netsim::{
    Alarm, DdosMonitor, EdgeRouter, EpochWindow, PipelineConfig, ShardedIngest, TcpSegment,
};
use dcs_persist::{Checkpoint, CheckpointManager};
use dcs_telemetry::{JsonlExporter, LogHistogram, TelemetrySnapshot};

use crate::trace::{span, Tracer};
use crate::workload::VICTIM;

/// What a replay produced, over all its phases.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Every alarm, in evaluation order.
    pub alarms: Vec<Alarm>,
    /// Updates ingested.
    pub updates: u64,
    /// Segments observed.
    pub segments: u64,
    /// Per phase: whether the monitor resumed from a checkpoint.
    pub restored: Vec<bool>,
    /// Update position of the victim's first `+1`.
    pub victim_first_insert: Option<u64>,
    /// Update position of the first evaluation that alarmed on the
    /// victim.
    pub victim_alarm_at: Option<u64>,
    /// Flows the router still tracks at the end of the last phase.
    pub live_flows_end: usize,
    /// Heap bytes of the epoch window at the end (0 without one).
    pub window_heap_bytes: usize,
    /// Encoded size of every checkpoint saved.
    pub save_bytes: Vec<u64>,
    /// Bytes in the telemetry sidecar at the end of each phase, summed.
    pub telemetry_bytes: u64,
    /// `monitor.sketch().heap_bytes()` at the end.
    pub state_bytes: usize,
}

impl Replayed {
    /// Updates between the victim's first `+1` and the first
    /// evaluation that alarmed on it.
    pub fn detect_delay(&self) -> Option<u64> {
        Some(self.victim_alarm_at? - self.victim_first_insert?)
    }
}

/// Replays each phase's feed through its own monitor, as consecutive
/// `run_pipeline` calls with `config` would.
pub fn replay(
    phases: &[Vec<TcpSegment>],
    config: &PipelineConfig,
    tracer: &mut Tracer,
) -> Replayed {
    let mut out = Replayed::default();
    span!(tracer, "replay", {
        for feed in phases {
            replay_phase(feed, config, tracer, &mut out);
        }
    });
    out
}

fn replay_phase(
    feed: &[TcpSegment],
    config: &PipelineConfig,
    tracer: &mut Tracer,
    out: &mut Replayed,
) {
    let batch_size = config.batch_size.max(1);
    let mut sink = span!(
        tracer,
        "setup.monitor",
        Sink::new(config, out.updates, tracer)
    );
    let mut router = EdgeRouter::new(0, config.half_open_timeout);
    let mut next = 0;
    while next < feed.len() {
        span!(tracer, "router.observe", {
            while next < feed.len() {
                router.observe(&feed[next]);
                next += 1;
                if router.pending_exports() >= batch_size {
                    break;
                }
            }
        });
        if router.pending_exports() >= batch_size {
            let batch = span!(tracer, "router.drain_exports", router.drain_exports());
            sink.consume(&batch, tracer);
        }
    }
    let last_ts = feed.last().map_or(0, |s| s.timestamp);
    span!(
        tracer,
        "router.flush_expired",
        router.flush_expired(last_ts.saturating_add(1_000_000))
    );
    let tail = span!(tracer, "router.drain_exports", router.drain_exports());
    if !tail.is_empty() {
        sink.consume(&tail, tracer);
    }
    sink.finish(tracer);

    out.updates += sink.ingested;
    out.segments += router.segments_observed();
    out.restored.push(sink.restored);
    out.victim_first_insert = out.victim_first_insert.or(sink.victim_first_insert);
    out.victim_alarm_at = out.victim_alarm_at.or(sink.victim_alarm_at);
    out.live_flows_end = router.tracker().live_flows();
    out.window_heap_bytes = sink.window.as_ref().map_or(0, EpochWindow::heap_bytes);
    out.state_bytes = sink.monitor.sketch().heap_bytes();
    out.alarms.append(&mut sink.alarms);
    out.save_bytes.append(&mut sink.save_bytes);
    if let Some(sidecar) = &config.telemetry {
        out.telemetry_bytes += fs::metadata(&sidecar.path).map_or(0, |m| m.len());
    }
    span!(tracer, "setup.teardown", drop(sink));
}

/// The monitor thread's state and boundary logic.
struct Sink {
    engine: Option<ShardedIngest>,
    monitor: DdosMonitor,
    window: Option<EpochWindow>,
    manager: Option<CheckpointManager>,
    exporter: Option<JsonlExporter>,
    restored: bool,
    saves: u64,
    save_bytes: Vec<u64>,
    save_latency: LogHistogram,
    alarms: Vec<Alarm>,
    /// Updates ingested by earlier phases.
    offset: u64,
    ingested: u64,
    eval_every: u64,
    snapshot_every: u64,
    checkpoint_every: u64,
    next_eval: u64,
    next_snapshot: u64,
    next_checkpoint: u64,
    victim_first_insert: Option<u64>,
    victim_alarm_at: Option<u64>,
}

impl Sink {
    fn new(config: &PipelineConfig, offset: u64, tracer: &mut Tracer) -> Self {
        let sketch = &config.sketch;
        let policy = &config.policy;
        let window = config.window.as_ref().map(|policy| {
            EpochWindow::new(sketch.clone(), policy.clone()).expect("valid window policy")
        });
        let manager = config
            .checkpoint
            .as_ref()
            .map(|c| CheckpointManager::new(&c.path));
        assert!(
            manager.is_none() || (config.ingest_shards.is_none() && window.is_none()),
            "the replay restores direct all-time checkpoints only"
        );
        let (engine, monitor, restored) = match (config.ingest_shards, &manager) {
            (Some(shards), _) => (
                Some(ShardedIngest::new(sketch.clone(), shards.max(1))),
                DdosMonitor::new(sketch.clone(), policy.clone()),
                false,
            ),
            (None, Some(manager)) => {
                let (monitor, restored) =
                    span!(tracer, "persist.restore", restore(manager, config));
                (None, monitor, restored)
            }
            (None, None) => (
                None,
                DdosMonitor::new(sketch.clone(), policy.clone()),
                false,
            ),
        };
        let exporter = config.telemetry.as_ref().map(|t| {
            span!(
                tracer,
                "telemetry.create",
                JsonlExporter::create(&t.path).expect("telemetry sidecar opens")
            )
        });
        let eval_every = config.evaluate_every.max(1);
        let snapshot_every = config
            .telemetry
            .as_ref()
            .map_or(u64::MAX, |t| t.every.max(1));
        let checkpoint_every = config
            .checkpoint
            .as_ref()
            .map_or(u64::MAX, |c| c.every.max(1));
        Self {
            engine,
            monitor,
            window,
            manager,
            exporter,
            restored,
            saves: 0,
            save_bytes: Vec::new(),
            save_latency: LogHistogram::new(),
            alarms: Vec::new(),
            offset,
            ingested: 0,
            eval_every,
            snapshot_every,
            checkpoint_every,
            next_eval: eval_every,
            next_snapshot: snapshot_every,
            next_checkpoint: checkpoint_every,
            victim_first_insert: None,
            victim_alarm_at: None,
        }
    }

    /// One router batch, cut at the next evaluation, snapshot and
    /// checkpoint boundary exactly as the pipeline's monitor loop cuts
    /// it.
    fn consume(&mut self, batch: &[FlowUpdate], tracer: &mut Tracer) {
        let mut offset = 0usize;
        while offset < batch.len() {
            let remaining = batch.len() - offset;
            let until_boundary = self
                .next_eval
                .saturating_sub(self.ingested)
                .min(self.next_snapshot.saturating_sub(self.ingested))
                .min(self.next_checkpoint.saturating_sub(self.ingested));
            let take = usize::try_from(until_boundary)
                .unwrap_or(remaining)
                .min(remaining);
            let chunk = &batch[offset..offset + take];
            if self.victim_first_insert.is_none() {
                if let Some(at) = chunk
                    .iter()
                    .position(|u| u.delta == Delta::Insert && u.key.dest().0 == VICTIM)
                {
                    self.victim_first_insert = Some(self.offset + self.ingested + at as u64);
                }
            }
            match &mut self.engine {
                Some(engine) => span!(tracer, "sharded.ingest", engine.ingest(chunk)),
                None => span!(tracer, "ingest.batch", self.monitor.ingest_batch(chunk)),
            }
            offset += take;
            self.ingested += take as u64;
            if self.ingested >= self.next_eval {
                self.evaluate(tracer);
                self.next_eval += self.eval_every;
            }
            if self.ingested >= self.next_snapshot {
                if self.exporter.is_some() {
                    self.export("pipeline", tracer);
                }
                self.next_snapshot += self.snapshot_every;
            }
            if self.ingested >= self.next_checkpoint {
                if self.manager.is_some() {
                    self.checkpoint(tracer);
                }
                self.next_checkpoint += self.checkpoint_every;
            }
        }
    }

    /// The pipeline's `evaluate_boundary`.
    fn evaluate(&mut self, tracer: &mut Tracer) {
        let k = self.monitor.policy().watch_top_k;
        let epsilon = self.monitor.policy().epsilon;
        let alarms = match (&mut self.engine, &mut self.window) {
            (Some(engine), window) => {
                let view = span!(tracer, "sharded.merged", engine.merged())
                    .expect("shards share one configuration");
                match window {
                    Some(w) => {
                        span!(tracer, "window.advance", w.advance(view.sketch()))
                            .expect("the merged view only grows");
                        let top = span!(tracer, "window.top_k", w.top_k(k, epsilon));
                        span!(tracer, "monitor.evaluate", self.monitor.evaluate_top(&top))
                    }
                    None => span!(
                        tracer,
                        "monitor.evaluate",
                        self.monitor.evaluate_snapshot(&view)
                    ),
                }
            }
            (None, Some(w)) => {
                span!(
                    tracer,
                    "window.advance",
                    w.advance(self.monitor.sketch().sketch())
                )
                .expect("the monitor's sketch only grows");
                let top = span!(tracer, "window.top_k", w.top_k(k, epsilon));
                span!(tracer, "monitor.evaluate", self.monitor.evaluate_top(&top))
            }
            (None, None) => span!(tracer, "monitor.evaluate", self.monitor.evaluate()),
        };
        if self.victim_alarm_at.is_none() && alarms.iter().any(|a| a.dest == VICTIM) {
            self.victim_alarm_at = Some(self.offset + self.ingested);
        }
        self.alarms.extend(alarms);
    }

    /// The pipeline's `boundary_snapshot` plus `export_snapshot`.
    fn export(&mut self, label: &str, tracer: &mut Tracer) {
        let mut snap: TelemetrySnapshot = span!(tracer, "telemetry.snapshot", {
            let mut snap = match &self.engine {
                Some(engine) => {
                    let mut snap = engine.telemetry_snapshot(label);
                    snap.set_counter("monitor_evaluations", self.monitor.evaluations());
                    snap
                }
                None => self.monitor.telemetry_snapshot(label),
            };
            if let Some(w) = &self.window {
                let ring = w.window();
                snap.set_counter("window_epochs_held", ring.len() as u64);
                snap.set_counter("window_epochs_capacity", ring.epochs() as u64);
                snap.set_counter("window_epochs_rotated", ring.epochs_rotated());
            }
            snap
        });
        span!(tracer, "telemetry.append", {
            if self.manager.is_some() {
                snap.set_counter("checkpoints_written", self.saves);
                snap.set_counter(
                    "checkpoint_bytes_last",
                    self.save_bytes.last().copied().unwrap_or(0),
                );
                snap.set_counter(
                    "checkpoint_save_p50_ns",
                    self.save_latency.quantile_ns(0.5) as u64,
                );
                snap.set_counter(
                    "checkpoint_save_p99_ns",
                    self.save_latency.quantile_ns(0.99) as u64,
                );
            }
            self.exporter
                .as_mut()
                .expect("export() runs with an exporter")
                .append(&snap)
                .expect("telemetry sidecar writes");
        });
    }

    /// The pipeline's `boundary_checkpoint` plus `write_checkpoint`.
    fn checkpoint(&mut self, tracer: &mut Tracer) {
        let doc = span!(
            tracer,
            "persist.snapshot",
            match (&mut self.engine, &self.window) {
                (Some(engine), _) => Checkpoint::Sharded(engine.checkpoint()),
                (None, Some(w)) => Checkpoint::Window(w.to_checkpoint(self.monitor.sketch())),
                (None, None) => Checkpoint::Tracking(self.monitor.sketch().to_state()),
            }
        );
        let manager = self
            .manager
            .as_mut()
            .expect("checkpoint() runs with a manager");
        let started = Instant::now();
        let bytes = span!(tracer, "persist.save", manager.save(&doc)).expect("checkpoint saves");
        self.save_latency
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.saves += 1;
        self.save_bytes.push(bytes);
    }

    /// The pipeline's shutdown: a last evaluation, checkpoint and
    /// snapshot, and the merged sketch handed to the monitor.
    fn finish(&mut self, tracer: &mut Tracer) {
        self.evaluate(tracer);
        if self.manager.is_some() {
            self.checkpoint(tracer);
        }
        if self.exporter.is_some() {
            self.export("pipeline_final", tracer);
        }
        if let Some(engine) = &mut self.engine {
            let view = span!(tracer, "sharded.merged", engine.merged())
                .expect("shards share one configuration");
            self.monitor.adopt_sketch(view);
        }
    }
}

/// The pipeline's `restore_monitor`, for a checkpoint this benchmark
/// wrote itself.
fn restore(manager: &CheckpointManager, config: &PipelineConfig) -> (DdosMonitor, bool) {
    match manager.try_load().expect("checkpoint file reads") {
        None => (
            DdosMonitor::new(config.sketch.clone(), config.policy.clone()),
            false,
        ),
        Some(Checkpoint::Tracking(state)) => {
            assert!(
                state.sketch.config == config.sketch,
                "checkpoint was written with this configuration"
            );
            let sketch = TrackingDcs::from_state(state).expect("checkpoint state is valid");
            (
                DdosMonitor::with_sketch(sketch, config.policy.clone()),
                true,
            )
        }
        Some(other) => panic!("checkpoint holds a {} document", other.kind_name()),
    }
}
