//! Windowed detection: a ring of per-epoch delta sketches with O(1)
//! slide.
//!
//! Judging each epoch on its own ([`WindowPolicy::Tumbling`]) gives
//! coarse, non-overlapping windows: a pulse-wave attack that bursts
//! and tears down within one interval averages out to nothing at every
//! interval boundary and is never seen. The fix (grounded in *Memento:
//! Making Sliding Windows Efficient for Heavy Hitters*) is a window
//! that *slides* one epoch at a time while covering N epochs. Both are
//! the same ring: a tumbling window is its one-epoch case.
//!
//! Because distinct-count sketch counters are linear, the sketch of
//! the last N epochs is exactly the sum of the N per-epoch delta
//! sketches — and that sum can be maintained incrementally. The
//! [`SlidingWindow`] keeps the ring of deltas plus one *accumulator*
//! sketch equal to their sum; sliding is O(1) in the window length:
//! [`DistinctCountSketch::merge_from`] the incoming delta,
//! [`DistinctCountSketch::subtract`] the expiring one. No
//! recompute-from-ring, no snapshot clone on the query path — windowed
//! top-k queries run the wide read kernels directly against the
//! accumulator. [`EpochWindow`] closes an epoch off a cumulative
//! sketch in one fused pass ([`DistinctCountSketch::slide_epoch`]):
//! the epoch's delta is written straight into the expiring delta's
//! ring slot, with no intermediate sketch. A windowed
//! [`crate::Monitor`] owns one and closes an epoch at each evaluation.
//!
//! The window algebra is *bit-exact*, not approximate: the accumulator
//! equals the merge of the retained deltas counter-for-counter at every
//! slide position, including before the ring fills and across
//! checkpoint/restore (`tests/window_equivalence.rs` pins this against
//! a recompute-from-snapshots reference). See DESIGN.md §17.

use std::collections::VecDeque;

use dcs_core::{
    DistinctCountSketch, EpochSlide, SketchConfig, SketchError, TopKEstimate, TrackingDcs,
};
use dcs_persist::{PersistError, WindowCheckpoint};
use dcs_telemetry::TelemetrySnapshot;

use crate::decay::decayed_top_k;

/// How a monitor windows its alarm judgments over epochs.
///
/// The epoch cadence itself (how often an epoch closes — ticks,
/// seconds, or ingested updates) is the caller's; the policy says how
/// many closed epochs each judgment covers and how they are weighted.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowPolicy {
    /// Judge each closed epoch on its own — non-overlapping windows.
    /// This is the coarse interval-monitor behaviour that pulse-wave
    /// attacks straddle (see `tests/window_equivalence.rs`).
    Tumbling,
    /// Judge the last `epochs` closed epochs at every rotation —
    /// overlapping windows sliding one epoch at a time.
    Sliding {
        /// Window length in epochs (≥ 1).
        epochs: usize,
    },
    /// Like `Sliding`, but each epoch's contribution is scaled by
    /// `lambda^age` (age 0 = newest closed epoch) — recent-weighted
    /// scoring. See [`crate::decay`] for the estimator and its
    /// (non-bit-identity) caveats.
    Decayed {
        /// Window length in epochs (≥ 1).
        epochs: usize,
        /// Per-epoch decay factor in `(0, 1]`.
        lambda: f64,
    },
}

impl WindowPolicy {
    /// The ring depth this policy needs.
    pub fn epochs(&self) -> usize {
        match self {
            WindowPolicy::Tumbling => 1,
            WindowPolicy::Sliding { epochs } | WindowPolicy::Decayed { epochs, .. } => *epochs,
        }
    }

    /// The decay factor, when this policy has one.
    pub fn lambda(&self) -> Option<f64> {
        match self {
            WindowPolicy::Decayed { lambda, .. } => Some(*lambda),
            _ => None,
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidConfig`] when the window length is
    /// zero or a decay factor is outside `(0, 1]` (NaN included).
    pub fn validate(&self) -> Result<(), SketchError> {
        if self.epochs() == 0 {
            return Err(SketchError::InvalidConfig {
                parameter: "window epochs",
                reason: "window length must be at least one epoch".into(),
            });
        }
        if let Some(lambda) = self.lambda() {
            if !(lambda > 0.0 && lambda <= 1.0) {
                return Err(SketchError::InvalidConfig {
                    parameter: "window lambda",
                    reason: format!("decay factor {lambda} outside (0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// A ring of per-epoch delta sketches plus their running sum.
///
/// [`roll`](Self::roll) admits one closed epoch's delta sketch; the
/// accumulator absorbs it and, once the ring is at capacity, sheds the
/// expiring delta by exact subtraction. Both operations touch a fixed
/// number of sketches — the slide cost is independent of the window
/// length (the `window_slide` bench pins this against the O(N)
/// [`recompute`](Self::recompute) reference, and the `perf_guard` CI
/// gate pins it for [`EpochWindow::advance`], the slide a windowed
/// monitor runs).
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};
/// use dcs_netsim::window::SlidingWindow;
///
/// let config = SketchConfig::paper_default();
/// let mut window = SlidingWindow::new(config.clone(), 2);
/// for epoch in 0..3u32 {
///     let mut delta = DistinctCountSketch::new(config.clone());
///     for s in 0..40u32 {
///         delta.insert(SourceAddr(epoch * 100 + s), DestAddr(epoch));
///     }
///     window.roll(delta)?;
/// }
/// // The window covers epochs 1 and 2; epoch 0 has been subtracted out.
/// let top = window.top_k(2, 0.25);
/// assert!(top.groups().contains(&1) && top.groups().contains(&2));
/// assert!(!top.groups().contains(&0));
/// # Ok::<(), dcs_core::SketchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    config: SketchConfig,
    /// Retained per-epoch deltas, oldest first.
    ring: VecDeque<DistinctCountSketch>,
    /// The running sum of the ring — the windowed query target.
    window: DistinctCountSketch,
    epochs: usize,
    epochs_rotated: u64,
}

impl SlidingWindow {
    /// Creates a window covering the last `epochs` closed epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn new(config: SketchConfig, epochs: usize) -> Self {
        assert!(epochs > 0, "need at least a one-epoch window");
        Self {
            window: DistinctCountSketch::new(config.clone()),
            config,
            ring: VecDeque::with_capacity(epochs + 1),
            epochs,
            epochs_rotated: 0,
        }
    }

    /// Slides the window by one epoch: merges `delta` (the sketch of
    /// exactly the closing epoch's updates) into the accumulator,
    /// retains it in the ring, and subtracts the expiring delta once
    /// the ring is past capacity. O(1) in the window length.
    ///
    /// For callers that already hold the delta; an epoch closed off a
    /// cumulative sketch goes through [`EpochWindow::advance`], which
    /// never materializes the delta as a separate sketch.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::IncompatibleMerge`] when `delta` was
    /// built with a different configuration, and
    /// [`SketchError::SnapshotAhead`] when the expiring delta holds
    /// more updates than the accumulator would after admitting `delta`
    /// (a ring that is not the accumulator's constituents). Both are
    /// checked before anything is written: the window is unchanged on
    /// error.
    pub fn roll(&mut self, delta: DistinctCountSketch) -> Result<(), SketchError> {
        if self.ring.len() >= self.epochs {
            if let Some(expired) = self.ring.front() {
                let admitted = self.window.updates_processed() + delta.updates_processed();
                if expired.updates_processed() > admitted {
                    return Err(SketchError::SnapshotAhead {
                        snapshot_updates: expired.updates_processed(),
                        current_updates: admitted,
                    });
                }
            }
        }
        self.window.merge_from(&delta)?;
        self.ring.push_back(delta);
        if self.ring.len() > self.epochs {
            if let Some(expired) = self.ring.pop_front() {
                self.window.subtract(&expired)?;
            }
        }
        self.epochs_rotated += 1;
        Ok(())
    }

    /// Slides the window by the epoch between `base` and `cumulative`
    /// with [`DistinctCountSketch::slide_epoch`]: once the ring is at
    /// capacity the expiring delta's storage becomes the new delta, so
    /// a steady-state slide allocates nothing. All-or-nothing, like
    /// the core operation.
    fn slide(
        &mut self,
        cumulative: &DistinctCountSketch,
        base: &mut DistinctCountSketch,
    ) -> Result<EpochSlide, SketchError> {
        let full = self.ring.len() >= self.epochs;
        let slide = match self.ring.front_mut() {
            Some(expiring) if full => {
                let slide = self.window.slide_epoch(cumulative, base, expiring)?;
                self.ring.rotate_left(1);
                slide
            }
            _ => {
                let mut slot = DistinctCountSketch::new(self.config.clone());
                let slide = self.window.slide_epoch(cumulative, base, &mut slot)?;
                self.ring.push_back(slot);
                slide
            }
        };
        self.epochs_rotated += 1;
        Ok(slide)
    }

    /// Top-k groups over the window, straight off the accumulator —
    /// no clone, no merge; one wide-kernel read pass.
    pub fn top_k(&self, k: usize, epsilon: f64) -> TopKEstimate {
        self.window.estimate_top_k(k, epsilon)
    }

    /// The window accumulator: a sketch of exactly the retained
    /// epochs' updates, queryable with every sketch estimator.
    pub fn sketch(&self) -> &DistinctCountSketch {
        &self.window
    }

    /// The retained per-epoch deltas, oldest first.
    pub fn deltas(&self) -> impl DoubleEndedIterator<Item = &DistinctCountSketch> {
        self.ring.iter()
    }

    /// Recomputes the window sum from the ring with an O(N)
    /// [`DistinctCountSketch::merge_many`] — the reference the O(1)
    /// slide is benched and equivalence-tested against. Returns an
    /// empty sketch when no epoch has closed yet.
    ///
    /// # Errors
    ///
    /// Propagates [`SketchError::IncompatibleMerge`], unreachable for
    /// ring-resident deltas.
    pub fn recompute(&self) -> Result<DistinctCountSketch, SketchError> {
        DistinctCountSketch::merge_many(&self.config, self.ring.iter())
    }

    /// The window length in epochs (ring capacity).
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Number of deltas currently retained (less than
    /// [`epochs`](Self::epochs) until the ring fills).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no epoch has closed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total epochs rotated through the window so far.
    pub fn epochs_rotated(&self) -> u64 {
        self.epochs_rotated
    }

    /// The shared sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Heap bytes across the accumulator and the retained deltas.
    pub fn heap_bytes(&self) -> usize {
        self.window.heap_bytes()
            + self
                .ring
                .iter()
                .map(DistinctCountSketch::heap_bytes)
                .sum::<usize>()
    }
}

/// The epoch-windowing machinery of a windowed [`crate::Monitor`]: a
/// [`SlidingWindow`] plus the *epoch base* — the cumulative counter
/// state at the last rotation, from which the next epoch's delta is
/// differenced.
///
/// The cumulative sketch itself lives elsewhere (the monitor's basic
/// sketch, or a sharded engine's merged view); this type only needs to
/// see it at rotation boundaries, so sliding windows cost nothing on
/// the per-update ingest path.
#[derive(Debug, Clone)]
pub struct EpochWindow {
    policy: WindowPolicy,
    window: SlidingWindow,
    base: DistinctCountSketch,
    /// Levels slid and skipped by every advance of this process (not
    /// checkpointed: a restored window counts from zero).
    slides: EpochSlide,
}

impl EpochWindow {
    /// Creates the window state for `policy` over sketches configured
    /// by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidConfig`] when the policy fails
    /// [`WindowPolicy::validate`].
    pub fn new(config: SketchConfig, policy: WindowPolicy) -> Result<Self, SketchError> {
        policy.validate()?;
        Ok(Self {
            window: SlidingWindow::new(config.clone(), policy.epochs()),
            base: DistinctCountSketch::new(config),
            policy,
            slides: EpochSlide::default(),
        })
    }

    /// Closes the current epoch against `cumulative` (the all-time
    /// sketch the stream is being ingested into): this epoch's delta is
    /// `cumulative − base`; the accumulator gains it and sheds the
    /// expiring delta, the delta takes the expiring one's ring slot,
    /// and the base advances to `cumulative` — one fused pass over the
    /// four sketches ([`DistinctCountSketch::slide_epoch`], DESIGN.md
    /// §17.1), which skips every level the epoch left unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`SketchError`] from the slide — in particular
    /// [`SketchError::SnapshotAhead`] when `cumulative` is *behind* the
    /// base (the supplied sketch cannot be a later state of the one the
    /// base was captured from). The window is unchanged on error.
    pub fn advance(&mut self, cumulative: &DistinctCountSketch) -> Result<(), SketchError> {
        let slide = self.window.slide(cumulative, &mut self.base)?;
        self.slides.levels_slid += slide.levels_slid;
        self.slides.levels_skipped += slide.levels_skipped;
        Ok(())
    }

    /// The policy-weighted windowed top-k: plain accumulator top-k for
    /// tumbling/sliding, λ-decayed rescoring for decayed.
    pub fn top_k(&self, k: usize, epsilon: f64) -> TopKEstimate {
        match self.policy.lambda() {
            Some(lambda) => decayed_top_k(&self.window, lambda, k, epsilon),
            None => self.window.top_k(k, epsilon),
        }
    }

    /// The windowing policy.
    pub fn policy(&self) -> &WindowPolicy {
        &self.policy
    }

    /// The underlying sliding window.
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// Captures the window state (ring, accumulator, base) together
    /// with `current` — the cumulative tracking sketch it windows — as
    /// a persistable document.
    pub fn to_checkpoint(&self, current: &TrackingDcs) -> WindowCheckpoint {
        WindowCheckpoint {
            epochs: u64::try_from(self.window.epochs).unwrap_or(u64::MAX),
            epochs_rotated: self.window.epochs_rotated,
            current: current.to_state(),
            base: self.base.to_state(),
            window: self.window.window.to_state(),
            deltas: self
                .window
                .ring
                .iter()
                .map(DistinctCountSketch::to_state)
                .collect(),
        }
    }

    /// Rebuilds the window state and the cumulative tracking sketch
    /// from a checkpoint. The accumulator is restored from its
    /// persisted state — not recomputed from the deltas — so a resumed
    /// run stays bit-identical to an uninterrupted one (see
    /// [`WindowCheckpoint`]).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Incompatible`] when the checkpoint's
    /// ring capacity differs from the policy's, the ring overflows its
    /// declared capacity, any embedded sketch was built with a
    /// different configuration, or the ring is inconsistent — the
    /// deltas' update and net counts do not sum to the accumulator's,
    /// or the base has processed more updates than the cumulative
    /// sketch (such a window would fail, or silently miscount, at a
    /// later slide); propagates [`PersistError::State`] when an
    /// embedded state fails the sketches' own validation.
    pub fn from_checkpoint(
        checkpoint: WindowCheckpoint,
        policy: WindowPolicy,
    ) -> Result<(Self, TrackingDcs), PersistError> {
        policy.validate().map_err(PersistError::State)?;
        let epochs = policy.epochs();
        if u64::try_from(epochs).unwrap_or(u64::MAX) != checkpoint.epochs {
            return Err(PersistError::Incompatible {
                reason: format!(
                    "checkpoint window covers {} epoch(s) but the policy wants {epochs}",
                    checkpoint.epochs
                ),
            });
        }
        if checkpoint.deltas.len() > epochs {
            return Err(PersistError::Incompatible {
                reason: format!(
                    "checkpoint holds {} delta(s) but the window capacity is {epochs}",
                    checkpoint.deltas.len()
                ),
            });
        }
        let config = checkpoint.current.sketch.config.clone();
        for (what, state) in [("base", &checkpoint.base), ("window", &checkpoint.window)] {
            if state.config != config {
                return Err(PersistError::Incompatible {
                    reason: format!("{what} sketch was built with a different configuration"),
                });
            }
        }
        let inconsistent = |reason: String| PersistError::Incompatible { reason };
        let updates = checkpoint
            .deltas
            .iter()
            .try_fold(0u64, |sum, d| sum.checked_add(d.updates_processed));
        if updates != Some(checkpoint.window.updates_processed) {
            return Err(inconsistent(format!(
                "ring deltas hold {updates:?} updates but the accumulator {}",
                checkpoint.window.updates_processed
            )));
        }
        let net = checkpoint
            .deltas
            .iter()
            .try_fold(0i64, |sum, d| sum.checked_add(d.net_updates));
        if net != Some(checkpoint.window.net_updates) {
            return Err(inconsistent(format!(
                "ring deltas net {net:?} updates but the accumulator {}",
                checkpoint.window.net_updates
            )));
        }
        if checkpoint.base.updates_processed > checkpoint.current.sketch.updates_processed {
            return Err(inconsistent(format!(
                "epoch base has processed {} updates, more than the cumulative sketch's {}",
                checkpoint.base.updates_processed, checkpoint.current.sketch.updates_processed
            )));
        }
        let current = TrackingDcs::from_state(checkpoint.current)?;
        let base = DistinctCountSketch::from_state(checkpoint.base)?;
        let window = DistinctCountSketch::from_state(checkpoint.window)?;
        let mut ring = VecDeque::with_capacity(epochs + 1);
        for (index, state) in checkpoint.deltas.into_iter().enumerate() {
            if state.config != config {
                return Err(PersistError::Incompatible {
                    reason: format!("delta {index} was built with a different configuration"),
                });
            }
            ring.push_back(DistinctCountSketch::from_state(state)?);
        }
        Ok((
            Self {
                window: SlidingWindow {
                    config,
                    ring,
                    window,
                    epochs,
                    epochs_rotated: checkpoint.epochs_rotated,
                },
                base,
                policy,
                slides: EpochSlide::default(),
            },
            current,
        ))
    }

    /// Heap bytes across the window and the epoch base.
    pub fn heap_bytes(&self) -> usize {
        self.window.heap_bytes() + self.base.heap_bytes()
    }

    /// Stamps the window gauges — ring depth, capacity, rotations, heap
    /// bytes, and levels slid and skipped — onto a telemetry snapshot
    /// under assembly. The one
    /// definition behind a windowed [`crate::Monitor::telemetry_snapshot`].
    pub fn stamp_gauges(&self, snap: &mut TelemetrySnapshot) {
        let gauge = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        snap.set_counter("window_epochs_held", gauge(self.window.len()));
        snap.set_counter("window_epochs_capacity", gauge(self.window.epochs()));
        snap.set_counter("window_epochs_rotated", self.window.epochs_rotated());
        snap.set_counter("window_heap_bytes", gauge(self.heap_bytes()));
        snap.set_counter("window_levels_slid", self.slides.levels_slid);
        snap.set_counter("window_levels_skipped", self.slides.levels_skipped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{AlarmPolicy, Monitor};
    use dcs_core::{DestAddr, FlowUpdate, SourceAddr};
    use dcs_persist::Checkpoint;

    fn config() -> SketchConfig {
        SketchConfig::builder()
            .buckets_per_table(512)
            .seed(7)
            .build()
            .unwrap()
    }

    /// `count` distinct sources `from..` opening flows to `dest`.
    fn inserts(from: u32, dest: u32, count: u32) -> Vec<FlowUpdate> {
        (from..from + count)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(dest)))
            .collect()
    }

    fn windowed(policy: AlarmPolicy, window: WindowPolicy) -> Monitor {
        Monitor::new(config(), policy, Some(window)).unwrap()
    }

    fn window_doc(monitor: &mut Monitor) -> WindowCheckpoint {
        let Ok(Checkpoint::Window(doc)) = monitor.checkpoint() else {
            panic!("a windowed monitor saves a window document");
        };
        doc
    }

    fn delta(seed_base: u32, dest: u32, sources: u32) -> DistinctCountSketch {
        let mut d = DistinctCountSketch::new(config());
        for s in 0..sources {
            d.insert(SourceAddr(seed_base + s), DestAddr(dest));
        }
        d
    }

    #[test]
    fn window_accumulator_matches_difference_reference_after_each_roll() {
        // Bit-identity reference: difference(cumulative_now,
        // cumulative_{i−N}). The ring recompute never materializes the
        // levels only expired epochs touched, which the accumulator
        // keeps zeroed; states list only levels with content, so its
        // state is equal too.
        let mut window = SlidingWindow::new(config(), 3);
        let mut cumulative = DistinctCountSketch::new(config());
        let mut snaps = vec![cumulative.clone()];
        for epoch in 0..8usize {
            let d = delta(epoch as u32 * 1_000, epoch as u32, 50 + epoch as u32);
            cumulative.merge_from(&d).unwrap();
            snaps.push(cumulative.clone());
            window.roll(d).unwrap();
            let expired = &snaps[(epoch + 1).saturating_sub(3)];
            let reference = cumulative.difference(expired).unwrap();
            assert_eq!(
                window.sketch().to_state(),
                reference.to_state(),
                "epoch {epoch}"
            );
            assert_eq!(window.len(), 3.min(epoch + 1));
            let recomputed = window.recompute().unwrap();
            assert_eq!(
                recomputed.to_state(),
                window.sketch().to_state(),
                "epoch {epoch}"
            );
            assert_eq!(
                recomputed.estimate_top_k(4, 0.25).entries,
                window.top_k(4, 0.25).entries,
                "epoch {epoch}"
            );
        }
        assert_eq!(window.epochs_rotated(), 8);
    }

    #[test]
    fn expired_epochs_leave_the_window() {
        let mut window = SlidingWindow::new(config(), 2);
        window.roll(delta(0, 1, 200)).unwrap();
        window.roll(delta(10_000, 2, 40)).unwrap();
        window.roll(delta(20_000, 3, 40)).unwrap();
        let top = window.top_k(3, 0.25);
        assert!(!top.groups().contains(&1), "epoch-0 victim must age out");
        assert_eq!(window.sketch().updates_processed(), 80);
    }

    #[test]
    fn incompatible_delta_is_rejected_and_window_unchanged() {
        let mut window = SlidingWindow::new(config(), 2);
        window.roll(delta(0, 1, 30)).unwrap();
        let other = DistinctCountSketch::new(SketchConfig::builder().seed(99).build().unwrap());
        assert!(matches!(
            window.roll(other),
            Err(SketchError::IncompatibleMerge { .. })
        ));
        assert_eq!(window.len(), 1);
        assert_eq!(window.epochs_rotated(), 1);
    }

    /// A Sliding{2} window whose ring does not sum to its accumulator:
    /// the expiring delta holds 50 updates, the accumulator 49.
    fn inconsistent_window() -> EpochWindow {
        let mut window = delta(0, 1, 49);
        window.merge_from(&delta(500, 2, 0)).unwrap();
        EpochWindow {
            policy: WindowPolicy::Sliding { epochs: 2 },
            window: SlidingWindow {
                config: config(),
                ring: VecDeque::from([delta(0, 1, 50), delta(500, 2, 0)]),
                window,
                epochs: 2,
                epochs_rotated: 2,
            },
            base: delta(0, 1, 49),
            slides: EpochSlide::default(),
        }
    }

    #[test]
    fn failed_slides_leave_an_inconsistent_window_unchanged() {
        let mut ew = inconsistent_window();
        let current = TrackingDcs::from_sketch(delta(0, 1, 49));
        let before = ew.to_checkpoint(&current);
        // Both entry points check the expiring delta before writing.
        assert!(matches!(
            ew.advance(current.sketch()),
            Err(SketchError::SnapshotAhead {
                snapshot_updates: 50,
                current_updates: 49
            })
        ));
        assert_eq!(ew.to_checkpoint(&current), before);
        assert!(matches!(
            ew.window.roll(DistinctCountSketch::new(config())),
            Err(SketchError::SnapshotAhead { .. })
        ));
        assert_eq!(ew.to_checkpoint(&current), before);
    }

    #[test]
    fn restore_rejects_a_ring_that_does_not_sum_to_the_accumulator() {
        let policy = WindowPolicy::Sliding { epochs: 2 };
        let current = TrackingDcs::from_sketch(delta(0, 1, 49));
        let restore = |doc: WindowCheckpoint| EpochWindow::from_checkpoint(doc, policy.clone());
        assert!(matches!(
            restore(inconsistent_window().to_checkpoint(&current)),
            Err(PersistError::Incompatible { .. })
        ));
        // A consistent document restores; each single inconsistency
        // (update sum, net sum, base ahead of the cumulative) is refused.
        let mut m = windowed(AlarmPolicy::default(), policy.clone());
        for epoch in 0..3u32 {
            m.ingest(&inserts(epoch * 100, 1, 20 + epoch));
            m.evaluate().unwrap();
        }
        m.ingest(&[FlowUpdate::delete(SourceAddr(0), DestAddr(1))]);
        let good = window_doc(&mut m);
        assert!(restore(good.clone()).is_ok());
        let tampered: [fn(&mut WindowCheckpoint); 3] = [
            |doc| doc.deltas[0].updates_processed += 1,
            |doc| doc.deltas[1].net_updates -= 2,
            |doc| doc.base.updates_processed = doc.current.sketch.updates_processed + 1,
        ];
        for (i, tamper) in tampered.iter().enumerate() {
            let mut doc = good.clone();
            tamper(&mut doc);
            assert!(
                matches!(restore(doc), Err(PersistError::Incompatible { .. })),
                "tamper {i}"
            );
        }
    }

    #[test]
    fn policy_validation_rejects_bad_parameters() {
        assert!(WindowPolicy::Tumbling.validate().is_ok());
        assert!(WindowPolicy::Sliding { epochs: 0 }.validate().is_err());
        for lambda in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                WindowPolicy::Decayed { epochs: 4, lambda }
                    .validate()
                    .is_err(),
                "lambda {lambda}"
            );
        }
        assert!(WindowPolicy::Decayed {
            epochs: 4,
            lambda: 1.0
        }
        .validate()
        .is_ok());
        assert_eq!(WindowPolicy::Tumbling.epochs(), 1);
        assert_eq!(WindowPolicy::Sliding { epochs: 5 }.epochs(), 5);
    }

    #[test]
    fn epoch_window_advance_rejects_regressed_cumulative() {
        let mut ew = EpochWindow::new(config(), WindowPolicy::Sliding { epochs: 2 }).unwrap();
        let ahead = delta(0, 1, 50);
        ew.advance(&ahead).unwrap();
        // A cumulative sketch *behind* the base cannot be a later state.
        let behind = DistinctCountSketch::new(config());
        assert!(matches!(
            ew.advance(&behind),
            Err(SketchError::SnapshotAhead { .. })
        ));
        assert_eq!(ew.window().epochs_rotated(), 1);
    }

    #[test]
    fn windowed_monitor_judges_only_recent_epochs() {
        let policy = AlarmPolicy {
            absolute_threshold: 100,
            ..AlarmPolicy::default()
        };
        let mut m = windowed(policy, WindowPolicy::Sliding { epochs: 2 });
        // Epoch 0: attack on dest 9.
        m.ingest(&inserts(0, 9, 300));
        let alarms = m.evaluate().unwrap();
        assert!(alarms.iter().any(|a| a.dest == 9));
        // Epochs 1..3: calm. After two quiet rotations the attack epoch
        // has aged out of the 2-epoch window.
        for epoch in 1..3u32 {
            m.ingest(&inserts(1_000 * epoch, 9, 10));
            m.evaluate().unwrap();
        }
        let top = m.top_k(1).unwrap();
        assert!(
            top.frequency_of(9).unwrap_or(0) < 100,
            "attack epoch must have aged out: {top}"
        );
        // The cumulative sketch still remembers everything.
        assert_eq!(m.cumulative().unwrap().updates_processed(), 320);
    }

    #[test]
    fn windowed_monitor_checkpoint_roundtrips_bit_identically() {
        let window = WindowPolicy::Sliding { epochs: 3 };
        let mut m = windowed(AlarmPolicy::default(), window.clone());
        for epoch in 0..5u32 {
            m.ingest(&inserts(epoch * 500, epoch % 2, 60));
            m.evaluate().unwrap();
        }
        // Mid-epoch state: some updates past the last rotation.
        m.ingest(&inserts(90_000, 7, 25));
        let doc = window_doc(&mut m);
        let mut restored = Monitor::from_checkpoint(
            Checkpoint::Window(doc.clone()),
            &config(),
            AlarmPolicy::default(),
            Some(window),
        )
        .unwrap();
        let (got, want) = (restored.window().unwrap(), m.window().unwrap());
        assert_eq!(
            got.window().sketch().to_state(),
            want.window().sketch().to_state()
        );
        assert_eq!(got.window().len(), want.window().len());
        assert_eq!(
            got.window().epochs_rotated(),
            want.window().epochs_rotated()
        );
        assert_eq!(
            restored.cumulative().unwrap().to_state(),
            m.cumulative().unwrap().to_state()
        );
        assert_eq!(window_doc(&mut restored), doc);
        // Both continue identically through the next rotation.
        let (mut live, mut resumed) = (m, restored);
        let more = inserts(95_000, 7, 30);
        live.ingest(&more);
        resumed.ingest(&more);
        assert_eq!(live.evaluate().unwrap(), resumed.evaluate().unwrap());
        assert_eq!(window_doc(&mut live), window_doc(&mut resumed));
    }

    #[test]
    fn checkpoint_capacity_mismatch_is_rejected() {
        let mut m = windowed(AlarmPolicy::default(), WindowPolicy::Sliding { epochs: 3 });
        let err = Monitor::from_checkpoint(
            Checkpoint::Window(window_doc(&mut m)),
            &config(),
            AlarmPolicy::default(),
            Some(WindowPolicy::Sliding { epochs: 4 }),
        );
        assert!(matches!(err, Err(PersistError::Incompatible { .. })));
    }

    #[test]
    fn telemetry_snapshot_carries_window_gauges() {
        let mut m = windowed(AlarmPolicy::default(), WindowPolicy::Sliding { epochs: 2 });
        m.ingest(&inserts(0, 1, 40));
        m.evaluate().unwrap();
        let snap = m.telemetry_snapshot("windowed");
        let line = snap.to_jsonl();
        let heap = m.window().unwrap().heap_bytes();
        assert!(heap > 0);
        assert!(
            line.contains(&format!("\"window_heap_bytes\":{heap}")),
            "{line}"
        );
        assert!(line.contains("\"window_epochs_held\":1"), "{line}");
        assert!(line.contains("\"window_epochs_capacity\":2"), "{line}");
        assert!(line.contains("\"window_epochs_rotated\":1"), "{line}");
    }
}
