//! The DDoS MONITOR of Fig. 1: a sketch plus the alarm rules judged
//! over it.
//!
//! The paper's monitor "can readily identify (in real time) signs of
//! potential DDoS activity in the network (e.g., by comparing against
//! 'baseline' profiles of network activity created over longer periods
//! of time)" (§2). This module supplies both halves — per-destination
//! EWMA baselines with absolute and relative alarm thresholds, judged
//! over a sketch of the flow-update streams.
//!
//! [`Monitor`] is that box for every caller that judges a stream: a
//! basic cumulative [`DistinctCountSketch`], optionally an
//! [`EpochWindow`] over it, and the alarm judge, judged at a cadence
//! into alarms ([`Monitor::evaluate`]) or raise/clear transitions
//! ([`Monitor::evaluate_events`], which `dcsmon replay` prints).
//! [`DdosMonitor`] pairs the same judge with an incremental
//! [`TrackingDcs`]; it is left only as the pipeline report's final
//! monitor and the tracking reference of the equivalence checks
//! (DESIGN.md §18).

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use dcs_core::{
    DistinctCountSketch, FlowUpdate, NetBatch, SketchConfig, SketchError, TopKEstimate, TrackingDcs,
};
use dcs_persist::{Checkpoint, PersistError};
use dcs_telemetry::TelemetrySnapshot;

use crate::sharded::ShardedIngest;
use crate::window::{EpochWindow, WindowPolicy};

/// Alarm thresholds and baseline smoothing.
#[derive(Debug, Clone, PartialEq)]
pub struct AlarmPolicy {
    /// Estimated distinct-source frequency that always raises an alarm.
    pub absolute_threshold: u64,
    /// Alarm when the estimate exceeds `ratio × baseline` (and the
    /// baseline has warmed up).
    pub ratio_over_baseline: f64,
    /// The ratio rule only applies to estimates at least this large —
    /// a floor that keeps statistical noise around tiny baselines from
    /// raising alarms.
    pub min_frequency_for_ratio: u64,
    /// EWMA smoothing factor `α ∈ (0, 1]` for baseline updates.
    pub ewma_alpha: f64,
    /// How many of the top destinations each evaluation inspects.
    pub watch_top_k: usize,
    /// Relative-accuracy parameter handed to the sketch's estimator.
    pub epsilon: f64,
    /// Hysteresis: a raised alarm clears only once the estimate drops
    /// below `clear_fraction × absolute_threshold` (prevents flapping
    /// when an estimate oscillates around the threshold).
    pub clear_fraction: f64,
}

impl Default for AlarmPolicy {
    fn default() -> Self {
        Self {
            absolute_threshold: 1_000,
            ratio_over_baseline: 8.0,
            min_frequency_for_ratio: 50,
            ewma_alpha: 0.2,
            watch_top_k: 10,
            epsilon: 0.25,
            clear_fraction: 0.5,
        }
    }
}

/// A raised alarm for one destination.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// The destination address under suspected attack.
    pub dest: u32,
    /// The sketch's estimated distinct-source (half-open) frequency.
    pub estimated_frequency: u64,
    /// The destination's EWMA baseline at evaluation time.
    pub baseline: f64,
    /// Why the alarm fired.
    pub reason: AlarmReason,
    /// Evaluation sequence number (monotone per monitor).
    pub evaluation: u64,
}

/// Which rule fired an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmReason {
    /// The estimate crossed the absolute threshold.
    AbsoluteThreshold,
    /// The estimate exceeded `ratio × baseline`.
    BaselineRatio,
}

/// A transition in a destination's alarm state.
#[derive(Debug, Clone, PartialEq)]
pub enum AlarmEvent {
    /// The destination entered the alarmed state.
    Raised(Alarm),
    /// A previously-alarmed destination dropped below the clear level.
    Cleared {
        /// The destination whose alarm cleared.
        dest: u32,
        /// Its estimate at clear time.
        estimated_frequency: u64,
        /// Evaluation sequence number.
        evaluation: u64,
    },
}

/// The alarm rules and the state they carry between evaluations —
/// policy, EWMA baselines, the hysteresis set, and the evaluation
/// counter — apart from any sketch. A [`Monitor`] pairs one with its
/// basic sketch or window, and hands it over as a [`DdosMonitor`] at
/// shutdown.
#[derive(Debug)]
pub(crate) struct AlarmJudge {
    policy: AlarmPolicy,
    baselines: HashMap<u32, f64>,
    /// Destinations currently in the alarmed state (for hysteresis),
    /// ordered so that clears come out in ascending destination order.
    active_alarms: BTreeSet<u32>,
    evaluations: u64,
}

impl AlarmJudge {
    /// A judge with no history: empty baselines, nothing alarmed.
    pub(crate) fn new(policy: AlarmPolicy) -> Self {
        Self {
            policy,
            baselines: HashMap::new(),
            active_alarms: BTreeSet::new(),
            evaluations: 0,
        }
    }

    /// Judges a top-k view against the alarm rules, updating baselines
    /// (after judgment, so a surge is compared against the calm profile
    /// that preceded it) and the evaluation counter.
    pub(crate) fn judge_top(&mut self, top: &TopKEstimate) -> Vec<Alarm> {
        self.evaluations += 1;
        let mut alarms = Vec::new();
        for entry in &top.entries {
            let baseline = self.baselines.get(&entry.group).copied().unwrap_or(0.0);
            let estimate = entry.estimated_frequency;
            let reason = if estimate >= self.policy.absolute_threshold {
                Some(AlarmReason::AbsoluteThreshold)
            } else if baseline > 0.0
                && estimate >= self.policy.min_frequency_for_ratio
                && estimate as f64 >= self.policy.ratio_over_baseline * baseline
            {
                Some(AlarmReason::BaselineRatio)
            } else {
                None
            };
            if let Some(reason) = reason {
                alarms.push(Alarm {
                    dest: entry.group,
                    estimated_frequency: estimate,
                    baseline,
                    reason,
                    evaluation: self.evaluations,
                });
            }
            // EWMA update after judgment.
            let alpha = self.policy.ewma_alpha;
            let next = alpha * estimate as f64 + (1.0 - alpha) * baseline;
            self.baselines.insert(entry.group, next);
        }
        alarms
    }

    /// Turns one evaluation's alarms into transitions (see
    /// [`Monitor::evaluate_events`]), estimating every alarmed
    /// destination from one distinct sample of `view`.
    fn transitions(&mut self, raised: Vec<Alarm>, view: &DistinctCountSketch) -> Vec<AlarmEvent> {
        let mut events: Vec<AlarmEvent> = raised
            .into_iter()
            .filter(|alarm| self.active_alarms.insert(alarm.dest))
            .map(AlarmEvent::Raised)
            .collect();
        if self.active_alarms.is_empty() {
            return events;
        }
        let active: Vec<u32> = self.active_alarms.iter().copied().collect();
        let estimates = view.estimate_group_frequencies(&active, self.policy.epsilon);
        let clear_level =
            (self.policy.absolute_threshold as f64 * self.policy.clear_fraction) as u64;
        for (dest, estimated_frequency) in active.into_iter().zip(estimates) {
            if estimated_frequency < clear_level {
                self.active_alarms.remove(&dest);
                events.push(AlarmEvent::Cleared {
                    dest,
                    estimated_frequency,
                    evaluation: self.evaluations,
                });
            }
        }
        events
    }

    /// Adds the judge's gauges to a snapshot of whichever sketch it
    /// judges: `monitor_evaluations`, `monitor_baselines`, and
    /// `monitor_active_alarms`.
    pub(crate) fn stamp_gauges(&self, snap: &mut TelemetrySnapshot) {
        snap.set_counter("monitor_evaluations", self.evaluations);
        snap.set_counter(
            "monitor_baselines",
            u64::try_from(self.baselines.len()).unwrap_or(u64::MAX),
        );
        snap.set_counter(
            "monitor_active_alarms",
            u64::try_from(self.active_alarms.len()).unwrap_or(u64::MAX),
        );
    }
}

/// The alarm judge over an incrementally maintained [`TrackingDcs`]:
/// the type of the pipeline report's final monitor
/// (`DetectionReport::monitor`, built once from the final sketch) and
/// of the tracking reference that the equivalence tests and the
/// `pipeline_bench` replay judge beside [`Monitor`]. A caller that
/// judges a stream runs a [`Monitor`] (DESIGN.md §18).
#[derive(Debug)]
pub struct DdosMonitor {
    sketch: TrackingDcs,
    judge: AlarmJudge,
}

impl DdosMonitor {
    /// Creates a monitor with the given sketch configuration and policy.
    pub fn new(config: SketchConfig, policy: AlarmPolicy) -> Self {
        Self::with_sketch(TrackingDcs::new(config), policy)
    }

    /// Creates a monitor around an already-populated sketch — the
    /// restore path after a crash. Baselines and alarm hysteresis are
    /// *not* part of a checkpoint (they are advisory smoothing state,
    /// re-warmed within a few evaluations), so they start empty.
    pub fn with_sketch(sketch: TrackingDcs, policy: AlarmPolicy) -> Self {
        Self::from_parts(sketch, AlarmJudge::new(policy))
    }

    /// A monitor over `sketch` that carries on `judge`'s baselines,
    /// hysteresis, and evaluation count.
    pub(crate) fn from_parts(sketch: TrackingDcs, judge: AlarmJudge) -> Self {
        Self { sketch, judge }
    }

    /// Ingests a slice of flow updates through the sketch's batched
    /// fast path ([`TrackingDcs::update_batch`]).
    pub fn ingest_batch(&mut self, updates: &[FlowUpdate]) {
        self.sketch.update_batch(updates);
    }

    /// The current top-k view (without alarm evaluation).
    pub fn top_k(&self, k: usize) -> TopKEstimate {
        self.sketch.track_top_k(k, self.judge.policy.epsilon)
    }

    /// Evaluates the alarm rules against the current top destinations,
    /// updating baselines, and returns any alarms raised.
    ///
    /// Destinations are judged *before* their baseline absorbs the new
    /// observation, so a sudden surge is compared against the calm
    /// profile that preceded it.
    pub fn evaluate(&mut self) -> Vec<Alarm> {
        let policy = &self.judge.policy;
        let top = self.sketch.track_top_k(policy.watch_top_k, policy.epsilon);
        self.judge.judge_top(&top)
    }

    /// Evaluates the alarm rules against an *external* sketch snapshot
    /// — e.g. the merged view of a sharded ingest engine — instead of
    /// the monitor's own sketch. Baselines, hysteresis state, and the
    /// evaluation counter advance exactly as [`Self::evaluate`] would.
    pub fn evaluate_snapshot(&mut self, sketch: &TrackingDcs) -> Vec<Alarm> {
        let policy = &self.judge.policy;
        let top = sketch.track_top_k(policy.watch_top_k, policy.epsilon);
        self.judge.judge_top(&top)
    }

    /// Evaluates the alarm rules against an externally-computed top-k
    /// view — e.g. an [`EpochWindow`]'s, which comes from a window
    /// accumulator (or a decayed rescoring of one) rather than from any
    /// single sketch. Baselines, hysteresis state, and the evaluation
    /// counter advance exactly as [`Self::evaluate`] would.
    pub fn evaluate_top(&mut self, top: &TopKEstimate) -> Vec<Alarm> {
        self.judge.judge_top(top)
    }

    /// The monitor's sketch (read-only).
    pub fn sketch(&self) -> &TrackingDcs {
        &self.sketch
    }

    /// Replaces the monitor's sketch with an externally-built one —
    /// e.g. a sharded engine's final merged sketch, so a caller driving
    /// the engine can inspect it the usual way. Baselines, hysteresis,
    /// and the evaluation counter are kept.
    pub fn adopt_sketch(&mut self, sketch: TrackingDcs) {
        self.sketch = sketch;
    }

    /// The alarm policy.
    pub fn policy(&self) -> &AlarmPolicy {
        &self.judge.policy
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.judge.evaluations
    }

    /// Assembles a telemetry snapshot of the monitor: the tracking
    /// sketch's snapshot (see [`TrackingDcs::telemetry_snapshot`])
    /// extended with the monitor's own gauges — evaluation count,
    /// baselines held, and destinations currently in the alarmed state.
    pub fn telemetry_snapshot(&self, label: &str) -> TelemetrySnapshot {
        let mut snap = self.sketch.telemetry_snapshot(label);
        self.judge.stamp_gauges(&mut snap);
        snap
    }
}

/// Where a [`Monitor`]'s cumulative sketch lives: owned inline
/// (direct), or split across a sharded engine's workers and merged on
/// demand. Judgment, windows and checkpoints see one basic sketch
/// either way.
#[derive(Debug)]
enum Cumulative {
    Direct(DistinctCountSketch),
    Sharded(ShardedIngest),
}

impl Cumulative {
    fn ingest(&mut self, updates: &[FlowUpdate]) {
        match self {
            Self::Direct(sketch) => sketch.update_batch(updates),
            Self::Sharded(engine) => engine.ingest(updates),
        }
    }

    fn ingest_net(&mut self, batch: &NetBatch) {
        match self {
            Self::Direct(sketch) => sketch.apply_net(batch),
            Self::Sharded(engine) => engine.ingest_net(batch),
        }
    }

    /// The cumulative sketch now: borrowed when direct; flushed and
    /// merged when sharded (a merge error is unreachable with one
    /// shared configuration).
    fn sketch(&mut self) -> Result<Cow<'_, DistinctCountSketch>, SketchError> {
        match self {
            Self::Direct(sketch) => Ok(Cow::Borrowed(sketch)),
            Self::Sharded(engine) => engine.merged_sketch().map(Cow::Owned),
        }
    }
}

/// The DDoS monitor judged at a cadence: one basic cumulative sketch,
/// an optional epoch window over it, and the alarm rules. The sketch
/// is owned inline; `run_pipeline` moves it onto a [`ShardedIngest`]
/// engine when `ingest_shards` is set.
///
/// [`ingest`](Self::ingest) only updates the basic sketch (DESIGN.md
/// §18). [`evaluate`](Self::evaluate) judges the alarm rules against
/// the sketch's `BaseTopk` view or, when windowed, first closes an
/// epoch — the window slides in O(1) — and judges the windowed view.
/// Checkpoints are the same document in every ingest mode: a sketch
/// (kind 1), or a window (kind 5) when windowed.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowUpdate, SketchConfig, SourceAddr};
/// use dcs_netsim::{AlarmPolicy, Monitor, WindowPolicy};
///
/// let policy = AlarmPolicy { absolute_threshold: 100, ..AlarmPolicy::default() };
/// let window = Some(WindowPolicy::Sliding { epochs: 3 });
/// let mut monitor = Monitor::new(SketchConfig::paper_default(), policy, window)?;
/// let flood: Vec<FlowUpdate> = (0..500u32)
///     .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(80)))
///     .collect();
/// monitor.ingest(&flood);
/// let alarms = monitor.evaluate()?; // closes the epoch, slides, judges
/// assert!(alarms.iter().any(|a| a.dest == 80));
/// # Ok::<(), dcs_core::SketchError>(())
/// ```
#[derive(Debug)]
pub struct Monitor {
    cumulative: Cumulative,
    window: Option<EpochWindow>,
    judge: AlarmJudge,
}

impl Monitor {
    /// An empty monitor judging the all-time sketch (`window` `None`)
    /// or a window of evaluation epochs.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidConfig`] when `window` fails
    /// [`WindowPolicy::validate`].
    pub fn new(
        config: SketchConfig,
        policy: AlarmPolicy,
        window: Option<WindowPolicy>,
    ) -> Result<Self, SketchError> {
        let window = window
            .map(|wp| EpochWindow::new(config.clone(), wp))
            .transpose()?;
        Ok(Self {
            cumulative: Cumulative::Direct(DistinctCountSketch::new(config)),
            window,
            judge: AlarmJudge::new(policy),
        })
    }

    /// Resumes a monitor from a checkpoint document. A windowed monitor
    /// resumes a window document (kind 5), whose ring, accumulator and
    /// epoch base come back bit-exactly. An all-time monitor resumes a
    /// sketch document (kind 1), or the tracking (kind 2) or sharded
    /// (kind 4) documents earlier versions wrote, reduced to the one
    /// sketch they hold. Alarm baselines start empty and re-warm.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Incompatible`] when the document is of
    /// the wrong kind for `window`, its sketches were built with a
    /// configuration other than `config`, or (see
    /// [`EpochWindow::from_checkpoint`] and
    /// [`ShardedIngest::from_checkpoint`]) its parts do not fit
    /// together; propagates [`PersistError::State`] when an embedded
    /// state fails validation.
    pub fn from_checkpoint(
        doc: Checkpoint,
        config: &SketchConfig,
        policy: AlarmPolicy,
        window: Option<WindowPolicy>,
    ) -> Result<Self, PersistError> {
        let kind = doc.kind_name();
        let wrong_kind = |wanted: &str| PersistError::Incompatible {
            reason: format!("holds a {kind} document, not {wanted}"),
        };
        let (sketch, window) = match (doc, window) {
            (Checkpoint::Window(doc), Some(wp)) => {
                let (window, current) = EpochWindow::from_checkpoint(doc, wp)?;
                (current.into_sketch(), Some(window))
            }
            (_, Some(_)) => return Err(wrong_kind("a window")),
            (Checkpoint::Sketch(state), None) => (DistinctCountSketch::from_state(state)?, None),
            (Checkpoint::Tracking(state), None) => {
                (TrackingDcs::from_state(state)?.into_sketch(), None)
            }
            (doc, None) => match ShardedIngest::merged_document(doc) {
                Some(merged) => (merged?, None),
                None => return Err(wrong_kind("a sketch")),
            },
        };
        if sketch.config() != config {
            return Err(PersistError::Incompatible {
                reason: "sketch configuration differs from the monitor's".into(),
            });
        }
        Ok(Self {
            cumulative: Cumulative::Direct(sketch),
            window,
            judge: AlarmJudge::new(policy),
        })
    }

    /// Moves the cumulative sketch into a sharded engine of `shards`
    /// workers (`None`: ingest stays inline), shard 0 starting from the
    /// sketch so far. By linearity the merged view is unchanged.
    pub(crate) fn with_shards(self, shards: Option<usize>) -> Self {
        let cumulative = match (self.cumulative, shards) {
            (Cumulative::Direct(sketch), Some(n)) => {
                Cumulative::Sharded(ShardedIngest::starting_from(sketch, n.max(1)))
            }
            (cumulative, _) => cumulative,
        };
        Self { cumulative, ..self }
    }

    /// Ingests flow updates into the cumulative basic sketch (the
    /// window only reads it when an epoch closes).
    pub fn ingest(&mut self, updates: &[FlowUpdate]) {
        self.cumulative.ingest(updates);
    }

    /// Ingests a batch of net changes ([`dcs_core::UpdateFold`] makes
    /// them), advancing the stream position by the updates it covers:
    /// the cumulative sketch ends as [`ingest`](Self::ingest) of those
    /// updates would leave it.
    pub fn ingest_net(&mut self, batch: &NetBatch) {
        self.cumulative.ingest_net(batch);
    }

    /// Judges the alarm rules and returns any alarms raised. All-time,
    /// the cumulative sketch's top destinations are judged. Windowed,
    /// this first closes an epoch: the cumulative sketch is differenced
    /// against the epoch base, the window slides in O(1), and its
    /// policy-weighted top-k is judged. Baselines absorb the view after
    /// judgment, so a surge is compared against the calm profile that
    /// preceded it.
    ///
    /// # Errors
    ///
    /// Propagates a sharded merge failure (see
    /// [`ShardedIngest::merged_sketch`]) or a failed slide (see
    /// [`EpochWindow::advance`]), both unreachable under this type's
    /// invariants (one shared configuration, a base that only trails
    /// the cumulative sketch). Nothing is judged then, and the window
    /// and the judge are left as they were.
    pub fn evaluate(&mut self) -> Result<Vec<Alarm>, SketchError> {
        self.judge_view(|_, alarms, _| alarms)
    }

    /// Evaluates as [`evaluate`](Self::evaluate) does, but returns
    /// raise/clear *transitions*: a destination raises once and stays
    /// silently alarmed until its estimate drops below `clear_fraction ×
    /// absolute_threshold`, so operators see one event per attack edge.
    /// Raises come in the judged top-k's order, clears in ascending
    /// destination order. Clear estimates come from one
    /// [`DistinctCountSketch::estimate_group_frequencies`] call on the
    /// sketch the judged view came from: the cumulative sketch, or the
    /// window accumulator when windowed. A `Decayed` window judges a
    /// λ-weighted rescoring of that accumulator, but clears read its
    /// plain, undecayed estimates.
    ///
    /// # Errors
    ///
    /// As [`evaluate`](Self::evaluate); nothing is judged then.
    pub fn evaluate_events(&mut self) -> Result<Vec<AlarmEvent>, SketchError> {
        self.judge_view(|judge, alarms, view| judge.transitions(alarms, view))
    }

    /// Judges the view [`evaluate`](Self::evaluate) describes and hands
    /// the alarms to `then`, with the judge and the sketch the view was
    /// estimated from.
    fn judge_view<T>(
        &mut self,
        then: impl FnOnce(&mut AlarmJudge, Vec<Alarm>, &DistinctCountSketch) -> T,
    ) -> Result<T, SketchError> {
        let sketch = self.cumulative.sketch()?;
        let (k, epsilon) = (self.judge.policy.watch_top_k, self.judge.policy.epsilon);
        let (top, view) = match &mut self.window {
            Some(w) => {
                w.advance(&sketch)?;
                (w.top_k(k, epsilon), w.window().sketch())
            }
            None => (sketch.estimate_top_k(k, epsilon), &*sketch),
        };
        let alarms = self.judge.judge_top(&top);
        Ok(then(&mut self.judge, alarms, view))
    }

    /// Destinations currently in the alarmed state, ascending: those
    /// [`evaluate_events`](Self::evaluate_events) raised and has not
    /// cleared.
    pub fn active_alarms(&self) -> Vec<u32> {
        self.judge.active_alarms.iter().copied().collect()
    }

    /// The top-k view the monitor judges, without judging it: the last
    /// closed epochs' window when windowed (the open epoch joins at the
    /// next [`evaluate`](Self::evaluate)), the cumulative sketch's
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates a sharded merge failure (see
    /// [`ShardedIngest::merged_sketch`]).
    pub fn top_k(&mut self, k: usize) -> Result<TopKEstimate, SketchError> {
        let epsilon = self.judge.policy.epsilon;
        Ok(match &self.window {
            Some(w) => w.top_k(k, epsilon),
            None => self.cumulative.sketch()?.estimate_top_k(k, epsilon),
        })
    }

    /// The cumulative sketch of everything ingested: borrowed when
    /// direct, flushed and merged when sharded.
    ///
    /// # Errors
    ///
    /// Propagates a sharded merge failure (see
    /// [`ShardedIngest::merged_sketch`]).
    pub fn cumulative(&mut self) -> Result<Cow<'_, DistinctCountSketch>, SketchError> {
        self.cumulative.sketch()
    }

    /// Updates ingested, restored ones included: the stream position a
    /// checkpoint of the monitor stands at.
    pub fn updates_processed(&self) -> u64 {
        match &self.cumulative {
            Cumulative::Direct(sketch) => sketch.updates_processed(),
            Cumulative::Sharded(engine) => engine.updates_distributed(),
        }
    }

    /// The epoch window, when the monitor is windowed.
    pub fn window(&self) -> Option<&EpochWindow> {
        self.window.as_ref()
    }

    /// The alarm policy.
    pub fn policy(&self) -> &AlarmPolicy {
        &self.judge.policy
    }

    /// The checkpoint document of the monitor's state, the same in
    /// either ingest mode: the cumulative sketch (kind 1), or when
    /// windowed the full window document (kind 5) — ring, accumulator,
    /// epoch base, and the cumulative sketch as a tracking state built
    /// here — so a resumed monitor's windowed judgments stay
    /// bit-identical to an uninterrupted one's. A sharded engine is
    /// flushed and merged first, so the document never records an
    /// in-flight update.
    ///
    /// # Errors
    ///
    /// Propagates a sharded merge failure (see
    /// [`ShardedIngest::merged_sketch`]).
    pub fn checkpoint(&mut self) -> Result<Checkpoint, SketchError> {
        let sketch = self.cumulative.sketch()?;
        Ok(match &self.window {
            Some(w) => {
                Checkpoint::Window(w.to_checkpoint(&TrackingDcs::from_sketch(sketch.into_owned())))
            }
            None => Checkpoint::Sketch(sketch.to_state()),
        })
    }

    /// A telemetry snapshot of the monitor: the cumulative sketch's
    /// gauges — when sharded, those of the shards merged as they stand,
    /// plus the engine's `sharded_*` counters (queue depth, merge
    /// latency, cursors) — and the judge's and the window's gauges in
    /// either mode.
    pub fn telemetry_snapshot(&self, label: &str) -> TelemetrySnapshot {
        let mut snap = match &self.cumulative {
            Cumulative::Direct(sketch) => sketch.telemetry_snapshot(label),
            Cumulative::Sharded(engine) => engine.telemetry_snapshot(label),
        };
        self.judge.stamp_gauges(&mut snap);
        if let Some(w) = &self.window {
            w.stamp_gauges(&mut snap);
        }
        snap
    }

    /// The shutdown hand-over: a [`DdosMonitor`] over tracking
    /// structures built once from the final cumulative sketch, carrying
    /// on the judge's baselines, hysteresis and evaluation count. A
    /// sharded merge failure — unreachable with one shared
    /// configuration — leaves an empty sketch and a warning.
    pub(crate) fn into_tracking_monitor(self) -> DdosMonitor {
        let sketch = match self.cumulative {
            Cumulative::Direct(sketch) => sketch,
            Cumulative::Sharded(mut engine) => engine.merged_sketch().unwrap_or_else(|e| {
                eprintln!("sharded merge failed at shutdown: {e}");
                DistinctCountSketch::new(engine.config().clone())
            }),
        };
        DdosMonitor::from_parts(TrackingDcs::from_sketch(sketch), self.judge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, SourceAddr};

    fn config(seed: u64) -> SketchConfig {
        SketchConfig::builder()
            .buckets_per_table(256)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn monitor(absolute: u64) -> Monitor {
        let policy = AlarmPolicy {
            absolute_threshold: absolute,
            ..AlarmPolicy::default()
        };
        Monitor::new(config(5), policy, None).unwrap()
    }

    /// `sources` half-open (`insert`) or completed (`delete`) flows to
    /// `dest`.
    fn flows(
        make: fn(SourceAddr, DestAddr) -> FlowUpdate,
        sources: std::ops::Range<u32>,
        dest: u32,
    ) -> Vec<FlowUpdate> {
        sources
            .map(|s| make(SourceAddr(s), DestAddr(dest)))
            .collect()
    }

    #[test]
    fn quiet_network_raises_no_alarms() {
        let mut m = monitor(100);
        m.ingest(&flows(FlowUpdate::insert, 0..10, 1));
        assert!(m.evaluate().unwrap().is_empty());
        assert_eq!(m.judge.evaluations, 1);
    }

    #[test]
    fn flood_crosses_absolute_threshold() {
        let mut m = monitor(100);
        m.ingest(&flows(FlowUpdate::insert, 0..400, 80));
        let alarms = m.evaluate().unwrap();
        let alarm = alarms.iter().find(|a| a.dest == 80).expect("alarm for 80");
        assert_eq!(alarm.reason, AlarmReason::AbsoluteThreshold);
        assert!(alarm.estimated_frequency >= 100);
    }

    #[test]
    fn completed_handshakes_suppress_alarms() {
        let mut m = monitor(100);
        for s in 0..400u32 {
            m.ingest(&[
                FlowUpdate::insert(SourceAddr(s), DestAddr(443)),
                FlowUpdate::delete(SourceAddr(s), DestAddr(443)),
            ]);
        }
        assert!(m.evaluate().unwrap().is_empty());
    }

    #[test]
    fn baseline_ratio_fires_on_surge_after_warmup() {
        let policy = AlarmPolicy {
            absolute_threshold: u64::MAX, // isolate the ratio rule
            ratio_over_baseline: 4.0,
            min_frequency_for_ratio: 50,
            ewma_alpha: 1.0, // baseline = last observation
            watch_top_k: 5,
            epsilon: 0.25,
            clear_fraction: 0.5,
        };
        let mut m = Monitor::new(config(6), policy, None).unwrap();
        // Warm-up: modest steady state for destination 9.
        m.ingest(&flows(FlowUpdate::insert, 0..20, 9));
        assert!(m.evaluate().unwrap().is_empty());
        let warm = m
            .judge
            .baselines
            .get(&9)
            .copied()
            .expect("baseline recorded");
        assert!(warm > 0.0);
        // Surge: 20 → 600 half-open sources.
        m.ingest(&flows(FlowUpdate::insert, 20..600, 9));
        let alarms = m.evaluate().unwrap();
        let alarm = alarms.iter().find(|a| a.dest == 9).expect("surge alarm");
        assert_eq!(alarm.reason, AlarmReason::BaselineRatio);
        assert_eq!(alarm.evaluation, 2);
    }

    #[test]
    fn top_k_view_matches_sketch() {
        let mut m = monitor(1_000_000);
        m.ingest(&flows(FlowUpdate::insert, 0..50, 3));
        let view = m.top_k(1).unwrap();
        assert_eq!(view.entries[0].group, 3);
        assert_eq!(m.updates_processed(), 50);
        assert_eq!(m.policy().watch_top_k, 10);
    }

    #[test]
    fn hysteresis_raises_once_and_clears_once() {
        let mut m = monitor(100);
        m.ingest(&flows(FlowUpdate::insert, 0..400, 80));
        let first = m.evaluate_events().unwrap();
        assert!(matches!(first.as_slice(), [AlarmEvent::Raised(a)] if a.dest == 80));
        assert_eq!(m.active_alarms(), vec![80]);
        // Still attacked: no repeated Raised event.
        assert!(m.evaluate_events().unwrap().is_empty());
        // Attack subsides below clear level (50% of 100 = 50).
        m.ingest(&flows(FlowUpdate::delete, 0..380, 80));
        let cleared = m.evaluate_events().unwrap();
        assert!(matches!(
            cleared.as_slice(),
            [AlarmEvent::Cleared { dest: 80, .. }]
        ));
        assert!(m.active_alarms().is_empty());
    }

    #[test]
    fn hysteresis_holds_between_thresholds() {
        // Estimate between clear level and threshold: alarm neither
        // re-raises nor clears.
        let mut m = monitor(100);
        m.ingest(&flows(FlowUpdate::insert, 0..400, 80));
        assert_eq!(m.evaluate_events().unwrap().len(), 1);
        // Drop to ~75: above 50 (clear), below 100 (raise).
        m.ingest(&flows(FlowUpdate::delete, 0..325, 80));
        assert!(m.evaluate_events().unwrap().is_empty());
        assert_eq!(m.active_alarms(), vec![80]);
    }

    #[test]
    fn windowed_alarm_clears_once_the_flood_leaves_the_window() {
        // Clears read the window accumulator: after one quiet epoch the
        // one-epoch window is empty, though the cumulative sketch still
        // holds every flood source.
        let policy = AlarmPolicy {
            absolute_threshold: 100,
            ..AlarmPolicy::default()
        };
        let window = Some(WindowPolicy::Sliding { epochs: 1 });
        let mut m = Monitor::new(config(5), policy, window).unwrap();
        m.ingest(&flows(FlowUpdate::insert, 0..400, 80));
        let raised = m.evaluate_events().unwrap();
        assert!(matches!(raised.as_slice(), [AlarmEvent::Raised(a)] if a.dest == 80));
        let cleared = m.evaluate_events().unwrap();
        assert!(matches!(
            cleared.as_slice(),
            [AlarmEvent::Cleared { dest: 80, .. }]
        ));
        assert!(m.cumulative().unwrap().estimate_group_frequency(80, 0.25) >= 100);
    }

    #[test]
    fn alarms_clearing_together_come_out_in_destination_order() {
        // Raised in the judged top-k's order, cleared in ascending
        // destination order whatever order they were raised in.
        let dests = [907u32, 41, 5_000, 212];
        let mut m = monitor(100);
        for (i, &dest) in (0u32..).zip(&dests) {
            m.ingest(&flows(FlowUpdate::insert, 0..300 + 60 * i, dest));
        }
        let raised: Vec<u32> = m
            .evaluate_events()
            .unwrap()
            .iter()
            .map(|event| match event {
                AlarmEvent::Raised(alarm) => alarm.dest,
                AlarmEvent::Cleared { .. } => panic!("nothing was alarmed"),
            })
            .collect();
        let mut alarmed = raised.clone();
        alarmed.sort_unstable();
        assert_eq!(alarmed, vec![41, 212, 907, 5_000]);
        for (i, &dest) in (0u32..).zip(&dests) {
            m.ingest(&flows(FlowUpdate::delete, 0..300 + 60 * i, dest));
        }
        let cleared: Vec<u32> = m
            .evaluate_events()
            .unwrap()
            .iter()
            .map(|event| match event {
                AlarmEvent::Cleared { dest, .. } => *dest,
                AlarmEvent::Raised(_) => panic!("everything subsided"),
            })
            .collect();
        assert_eq!(cleared, vec![41, 212, 907, 5_000]);
        assert!(m.active_alarms().is_empty());
    }

    #[test]
    fn sharded_telemetry_reports_the_direct_gauges() {
        let new_monitor = || Monitor::new(config(5), AlarmPolicy::default(), None).unwrap();
        let mut direct = new_monitor();
        let mut sharded = new_monitor().with_shards(Some(2));
        let updates: Vec<FlowUpdate> = (0..12_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 40)))
            .collect();
        for monitor in [&mut direct, &mut sharded] {
            monitor.ingest(&updates);
            monitor.evaluate().unwrap();
        }
        let (d, s) = (
            direct.telemetry_snapshot("direct"),
            sharded.telemetry_snapshot("sharded"),
        );
        assert_eq!(s.updates_processed, d.updates_processed);
        assert!(!d.levels.is_empty());
        assert_eq!(s.levels, d.levels);
        let keys = |snap: &TelemetrySnapshot| -> Vec<String> {
            snap.counters
                .keys()
                .filter(|name| !name.starts_with("sharded_"))
                .cloned()
                .collect()
        };
        assert_eq!(keys(&s), keys(&d));
        assert!(s.counters.contains_key("sharded_shards"));
        for snap in [&d, &s] {
            assert_eq!(snap.counters.get("counter_headroom_exceeded"), Some(&0));
            assert!(snap.counters["counter_total_max_abs"] > 0);
        }
        assert_eq!(
            s.counters["counter_total_max_abs"],
            d.counters["counter_total_max_abs"]
        );
    }
}
