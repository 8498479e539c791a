//! Sharded parallel ingestion.
//!
//! Sketch linearity buys more than multi-router merging: a single
//! monitor saturating one core can split its update stream across `n`
//! persistent worker threads, each feeding a private sketch built from
//! the *same seed*, and merge on query. Any partition works — no
//! key-based routing needed — because merge equals the union stream
//! exactly. The workers, their bounded job channels, and the locked
//! per-shard sketches they feed live in [`crate::ingest`]; this module
//! owns the deterministic routing and the checkpoint surface, and
//! reads the shards in place, merging them when asked.

use dcs_core::{
    cast, DistinctCountSketch, FlowUpdate, NetBatch, SketchConfig, SketchError, TrackingDcs,
    BATCH_CHUNK,
};
use dcs_persist::{Checkpoint, PersistError, ShardedCheckpoint};
use dcs_telemetry::TelemetrySnapshot;

use crate::ingest::WorkerPool;

/// Ingests a stream across `shards` worker threads and returns the
/// merged tracking sketch.
///
/// Updates are routed to the workers in absolute-position chunks; each
/// worker owns a private [`DistinctCountSketch`]; the results merge
/// into one [`TrackingDcs`]. The answer is *identical* (not just
/// statistically equivalent) to single-threaded ingestion, because
/// counters are linear and all shards share hash functions.
///
/// # Errors
///
/// Propagates [`SketchError`] from the final merge (unreachable when
/// all shards share `config`, which this function guarantees).
///
/// # Panics
///
/// Panics if `shards` is zero. If a worker thread panics, that worker's
/// *original* panic payload is re-raised here (not a generic "worker
/// alive" / "worker thread panicked" message), so the root cause reaches
/// the caller's backtrace.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowUpdate, SketchConfig, SourceAddr};
/// use dcs_netsim::sharded::ingest_sharded;
///
/// let updates: Vec<FlowUpdate> = (0..1000u32)
///     .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(7)))
///     .collect();
/// let sketch = ingest_sharded(&updates, SketchConfig::paper_default(), 4)?;
/// assert_eq!(sketch.track_top_k(1, 0.25).entries[0].group, 7);
/// # Ok::<(), dcs_core::SketchError>(())
/// ```
pub fn ingest_sharded(
    updates: &[FlowUpdate],
    config: SketchConfig,
    shards: usize,
) -> Result<TrackingDcs, SketchError> {
    let mut engine = ShardedIngest::new(config, shards);
    engine.ingest(updates);
    engine.merged()
}

/// Updates per routing chunk: the update at absolute position `p`
/// belongs to chunk `p / SHARD_CHUNK`, and chunk `c` goes to shard
/// `c % shards`.
const SHARD_CHUNK: u64 = 4096;

/// Updates per handoff slice: the granularity at which routed work is
/// copied into a worker's queue. Cuts fall on absolute multiples of this
/// value, and it divides [`SHARD_CHUNK`], so a handoff slice never
/// straddles a routing boundary — whatever call slicing the producer
/// sees, each worker receives the same sub-stream in the same order.
const HANDOFF_CHUNK: u64 = cast::u64_from_usize(BATCH_CHUNK);

// Routing correctness depends on handoff cuts respecting chunk
// boundaries.
const _: () = assert!(SHARD_CHUNK.is_multiple_of(HANDOFF_CHUNK));

/// An incremental, checkpointable sharded ingest engine with
/// persistent per-core workers (see [`crate::ingest`] for the
/// worker/channel machinery and the per-shard sketch locks).
///
/// Routing is a pure function of *absolute stream position*: the update
/// at position `p` belongs to chunk `p / 4096`, and chunk `c` goes to
/// shard `c % shards`. Because the partition depends only on the
/// position cursor (which is part of the checkpoint), a run that is
/// killed and restored routes every remaining update to the same shard
/// a never-interrupted run would — so by sketch linearity the restored
/// shards end bit-identical to the uninterrupted ones, regardless of
/// where the cut fell (mid-chunk included).
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowUpdate, SketchConfig, SourceAddr};
/// use dcs_netsim::sharded::ShardedIngest;
///
/// let updates: Vec<FlowUpdate> = (0..1000u32)
///     .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(7)))
///     .collect();
/// let mut ingest = ShardedIngest::new(SketchConfig::paper_default(), 4);
/// ingest.ingest(&updates[..500]);
/// let checkpoint = ingest.checkpoint();           // …crash here…
/// let mut resumed = ShardedIngest::from_checkpoint(checkpoint)?;
/// resumed.ingest(&updates[500..]);                // replay the suffix
/// let sketch = resumed.merged()?;
/// assert_eq!(sketch.track_top_k(1, 0.25).entries[0].group, 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedIngest {
    config: SketchConfig,
    pool: WorkerPool,
    updates_distributed: u64,
}

impl ShardedIngest {
    /// Spawns `shards` persistent workers, each with an empty shard
    /// sketch sharing `config` (and therefore hash functions — required
    /// for the final merge).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: SketchConfig, shards: usize) -> Self {
        Self::starting_from(DistinctCountSketch::new(config), shards)
    }

    /// Spawns `shards` persistent workers: shard 0 starts from `sketch`,
    /// the others empty, and the position cursor sits at the updates
    /// `sketch` has processed. By linearity the merged view is `sketch`
    /// plus whatever is ingested from here, however it is routed — how
    /// a sharded pipeline resumes the sketch a checkpoint holds.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub(crate) fn starting_from(sketch: DistinctCountSketch, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let config = sketch.config().clone();
        let updates_distributed = sketch.updates_processed();
        let mut seeds = vec![sketch];
        seeds.resize_with(shards, || DistinctCountSketch::new(config.clone()));
        Self::from_parts(config, seeds, updates_distributed)
    }

    /// Rebuilds a running sharded ingest from shard sketches and the
    /// position cursor.
    fn from_parts(
        config: SketchConfig,
        seeds: Vec<DistinctCountSketch>,
        updates_distributed: u64,
    ) -> Self {
        Self {
            pool: WorkerPool::spawn(seeds),
            config,
            updates_distributed,
        }
    }

    /// Routes `updates` into the worker queues and advances the position
    /// cursor. Takes no lock: when a queue is full the producer waits
    /// in `send` until its worker catches up.
    ///
    /// The slice is cut at absolute `HANDOFF_CHUNK` boundaries; each
    /// cut lies within one routing chunk, so a shard sees its sub-stream
    /// in stream order however the caller chops the overall stream into
    /// `ingest` calls.
    ///
    /// # Panics
    ///
    /// Re-raises the original panic payload of any worker that died.
    /// (Conversions here use the audited [`dcs_core::cast`] helpers: an
    /// impossible conversion panics instead of silently misrouting
    /// work — these routing decisions must never fall back to shard 0.)
    pub fn ingest(&mut self, updates: &[FlowUpdate]) {
        if updates.is_empty() {
            return;
        }
        let shard_count = cast::u64_from_usize(self.pool.shard_count());
        let mut pos = self.updates_distributed;
        let mut offset = 0usize;
        while offset < updates.len() {
            let owner = cast::usize_from_u64((pos / SHARD_CHUNK) % shard_count);
            // Distance to the next absolute handoff boundary; since
            // HANDOFF_CHUNK divides SHARD_CHUNK this never crosses into
            // the next routing chunk.
            let until_boundary = HANDOFF_CHUNK - pos % HANDOFF_CHUNK;
            let remaining = updates.len() - offset;
            let take = cast::usize_from_u64(until_boundary).min(remaining);
            self.pool.dispatch(owner, &updates[offset..offset + take]);
            offset += take;
            pos += cast::u64_from_usize(take);
        }
        self.updates_distributed = pos;
    }

    /// Routes a batch of net changes into the worker queues and advances
    /// the position cursor by the updates it covers. The entries go in
    /// slices of [`BATCH_CHUNK`], each to the shard that owns the
    /// position it starts at, and each but the last covers as many
    /// updates as it holds entries; the last covers the rest. By
    /// linearity any such split merges to the sketch of the covered
    /// updates.
    ///
    /// # Panics
    ///
    /// As [`Self::ingest`].
    pub fn ingest_net(&mut self, batch: &NetBatch) {
        if batch.covered == 0 {
            return;
        }
        let shard_count = cast::u64_from_usize(self.pool.shard_count());
        let mut pos = self.updates_distributed;
        let mut rest = batch.covered;
        let mut slices = batch.entries.chunks(BATCH_CHUNK).peekable();
        loop {
            let entries = slices.next().unwrap_or_default();
            let covered = if slices.peek().is_some() {
                cast::u64_from_usize(entries.len()).min(rest)
            } else {
                rest
            };
            let owner = cast::usize_from_u64((pos / SHARD_CHUNK) % shard_count);
            let slice = NetBatch {
                entries: entries.to_vec(),
                covered,
            };
            self.pool.dispatch_net(owner, slice);
            pos += covered;
            rest -= covered;
            if rest == 0 {
                break;
            }
        }
        self.updates_distributed = pos;
    }

    /// Total updates distributed so far (the absolute stream position).
    pub fn updates_distributed(&self) -> u64 {
        self.updates_distributed
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    /// The shared sketch configuration.
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Drains every queue and captures all shard states and the position
    /// cursor as a checkpoint document. Valid at *any* stream position —
    /// the cursor, not chunk alignment, is what routing resumes from.
    ///
    /// The captured states are queue-*drained* positions: this waits for
    /// the workers to apply everything already dispatched, so the
    /// checkpoint holds no in-flight items and `updates_distributed`
    /// equals the sum of per-shard counts exactly.
    ///
    /// # Panics
    ///
    /// Re-raises the original panic payload of any worker that died.
    pub fn checkpoint(&mut self) -> ShardedCheckpoint {
        self.pool.flush();
        ShardedCheckpoint {
            updates_distributed: self.updates_distributed,
            shards: self
                .pool
                .lock_shards()
                .iter()
                .map(|shard| shard.to_state())
                .collect(),
        }
    }

    /// Rebuilds a sharded ingest (spawning fresh workers) from a
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Incompatible`] when the checkpoint has
    /// no shards, the shards disagree on configuration, the per-shard
    /// update counts overflow `u64` when summed, or the cursor does not
    /// equal that sum (every update goes to exactly one shard, so the
    /// two must match); propagates [`PersistError::State`] when a shard
    /// state fails validation.
    pub fn from_checkpoint(checkpoint: ShardedCheckpoint) -> Result<Self, PersistError> {
        let cursor = checkpoint.updates_distributed;
        let (config, seeds) = checked_shards(checkpoint)?;
        Ok(Self::from_parts(config, seeds, cursor))
    }

    /// The one sketch a sharded document (kind 4) sums to: its shards
    /// pass [`Self::from_checkpoint`]'s checks and merge without
    /// spawning workers. Earlier pipelines saved sharded runs this way,
    /// and a pipeline resumes such a file as this sketch. Returns `None`
    /// for any other document kind.
    pub(crate) fn merged_document(
        doc: Checkpoint,
    ) -> Option<Result<DistinctCountSketch, PersistError>> {
        let Checkpoint::Sharded(checkpoint) = doc else {
            return None;
        };
        Some(checked_shards(checkpoint).and_then(|(config, shards)| {
            DistinctCountSketch::merge_many(&config, &shards).map_err(PersistError::State)
        }))
    }

    /// Drains every queue and merges the shards into one basic sketch
    /// (the workers keep running, so ingestion can continue afterwards).
    ///
    /// # Errors
    ///
    /// Propagates [`SketchError`] from the merge (unreachable when all
    /// shards share a configuration, which this type guarantees).
    ///
    /// # Panics
    ///
    /// Re-raises the original panic payload of any worker that died.
    pub fn merged_sketch(&mut self) -> Result<DistinctCountSketch, SketchError> {
        self.pool.flush();
        self.pool.merged(&self.config)
    }

    /// [`Self::merged_sketch`] with tracking structures built over it.
    ///
    /// # Errors
    ///
    /// As [`Self::merged_sketch`].
    ///
    /// # Panics
    ///
    /// As [`Self::merged_sketch`].
    pub fn merged(&mut self) -> Result<TrackingDcs, SketchError> {
        self.merged_sketch().map(TrackingDcs::from_sketch)
    }

    /// Assembles a telemetry snapshot of the engine without flushing
    /// the queues: the gauges of the shards merged as they stand (the
    /// basic sketch's set, as a direct [`crate::Monitor`] reports) plus
    /// the engine's own — shard count, dispatch/drain cursors, queued
    /// updates, and merge latency quantiles. The workers wait for the
    /// merge; what is still queued is not covered.
    ///
    /// When a worker has died, its shard may hold a half-applied batch
    /// (its lock is then poisoned), so only the engine's own counters
    /// are reported; the next [`Self::ingest`], [`Self::merged`] or
    /// [`Self::checkpoint`] re-raises the worker's panic.
    pub fn telemetry_snapshot(&self, label: &str) -> TelemetrySnapshot {
        let merged = self.pool.merged(&self.config);
        let mut snap = match merged {
            Ok(sketch) if !self.pool.any_dead() => sketch.telemetry_snapshot(label),
            // A dead worker, or a merge error — unreachable, as shards
            // share one configuration — but a telemetry call must never
            // panic the pipeline.
            _ => TelemetrySnapshot::new(label),
        };
        snap.set_counter(
            "sharded_shards",
            cast::u64_from_usize(self.pool.shard_count()),
        );
        snap.set_counter("sharded_updates_distributed", self.updates_distributed);
        let drained = self.pool.drained();
        snap.set_counter("sharded_updates_drained", drained);
        snap.set_counter(
            "sharded_queue_depth",
            self.updates_distributed.saturating_sub(drained),
        );
        let merges = self.pool.merge_latency();
        snap.set_counter("sharded_merges", merges.count());
        snap.set_counter("sharded_merge_p50_ns", merges.quantile_ns(0.5) as u64);
        snap.set_counter("sharded_merge_p99_ns", merges.quantile_ns(0.99) as u64);
        snap
    }

    /// Test hook: make one worker panic, to exercise the dead-worker
    /// payload propagation path deterministically.
    #[cfg(test)]
    fn inject_worker_panic(&mut self, shard: usize, message: &str) {
        self.pool.inject_panic(shard, message, false);
    }
}

/// Validates a sharded document and restores its shard sketches (see
/// [`ShardedIngest::from_checkpoint`] for the checks).
fn checked_shards(
    checkpoint: ShardedCheckpoint,
) -> Result<(SketchConfig, Vec<DistinctCountSketch>), PersistError> {
    let Some(first) = checkpoint.shards.first() else {
        return Err(PersistError::Incompatible {
            reason: "sharded checkpoint has no shards".into(),
        });
    };
    let config = first.config.clone();
    let mut total = 0u64;
    let mut seeds = Vec::with_capacity(checkpoint.shards.len());
    for (index, state) in checkpoint.shards.into_iter().enumerate() {
        if state.config != config {
            return Err(PersistError::Incompatible {
                reason: format!("shard {index} was built with a different sketch configuration"),
            });
        }
        // `checked_add`, not `saturating_add`: a corrupt document
        // whose counts saturate to u64::MAX could otherwise match a
        // u64::MAX cursor and pass the consistency check below.
        total = total.checked_add(state.updates_processed).ok_or_else(|| {
            PersistError::Incompatible {
                reason: format!("per-shard update counts overflow u64 at shard {index}"),
            }
        })?;
        seeds.push(DistinctCountSketch::from_state(state)?);
    }
    if total != checkpoint.updates_distributed {
        return Err(PersistError::Incompatible {
            reason: format!(
                "cursor says {} update(s) distributed but the shards \
                 together processed {total}",
                checkpoint.updates_distributed
            ),
        });
    }
    Ok((config, seeds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, SourceAddr};
    use dcs_streamgen::{PaperWorkload, WorkloadConfig};

    fn config() -> SketchConfig {
        SketchConfig::builder()
            .buckets_per_table(256)
            .seed(13)
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_equals_sequential_exactly() {
        let updates = PaperWorkload::generate(WorkloadConfig {
            distinct_pairs: 30_000,
            num_destinations: 200,
            skew: 1.2,
            seed: 5,
        })
        .into_updates();
        let mut sequential = TrackingDcs::new(config());
        for u in &updates {
            sequential.update(*u);
        }
        for shards in [1, 2, 4, 7] {
            let sharded = ingest_sharded(&updates, config(), shards).unwrap();
            assert_eq!(
                sharded.track_top_k(10, 0.25),
                sequential.track_top_k(10, 0.25),
                "shards = {shards}"
            );
            assert_eq!(sharded.updates_processed(), updates.len() as u64);
        }
    }

    #[test]
    fn sharded_handles_deletions() {
        let mut updates: Vec<FlowUpdate> = (0..5_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 3)))
            .collect();
        updates.extend((0..2_500u32).map(|s| FlowUpdate::delete(SourceAddr(s), DestAddr(s % 3))));
        let sketch = ingest_sharded(&updates, config(), 3).unwrap();
        let est = sketch.estimate_distinct_pairs(0.25) as f64;
        assert!((est - 2_500.0).abs() / 2_500.0 < 0.4, "estimate {est}");
        sketch.check_tracking_invariants().unwrap();
    }

    #[test]
    fn merged_sketch_accumulates_shard_telemetry() {
        let updates: Vec<FlowUpdate> = (0..8_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 50)))
            .collect();
        let sketch = ingest_sharded(&updates, config(), 4).unwrap();
        let snap = sketch.telemetry_snapshot("sharded");
        assert_eq!(snap.updates_processed, updates.len() as u64);
        assert!(!snap.levels.is_empty(), "gauges survive the merge");
        // Every shard's recorder state must flow through `merge_from`
        // into the merged sketch: each of the 8 000 updates was timed
        // by exactly one shard's `update_batch`, so the merged update
        // histogram holds them all.
        let latency = snap.update_latency.as_ref().expect("merged latency");
        assert_eq!(
            latency.count,
            updates.len() as u64,
            "update timings across shards"
        );
    }

    #[test]
    fn incremental_ingest_matches_one_shot_exactly() {
        let updates: Vec<FlowUpdate> = (0..20_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 40)))
            .collect();
        let one_shot = ingest_sharded(&updates, config(), 3).unwrap();
        let mut incremental = ShardedIngest::new(config(), 3);
        // Deliberately awkward split points: mid-chunk, chunk-aligned,
        // and a 1-update sliver.
        for range in [0..1_000, 1_000..4_096, 4_096..4_097, 4_097..20_000] {
            incremental.ingest(&updates[range]);
        }
        assert_eq!(incremental.updates_distributed(), 20_000);
        let merged = incremental.merged().unwrap();
        assert_eq!(merged.to_state(), one_shot.to_state());
    }

    #[test]
    fn checkpoint_restore_resume_is_bit_identical() {
        let updates: Vec<FlowUpdate> = (0..15_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 25)))
            .collect();
        let mut uninterrupted = ShardedIngest::new(config(), 4);
        uninterrupted.ingest(&updates);
        // Cut mid-chunk (position 6000 is inside chunk 1).
        let mut first_half = ShardedIngest::new(config(), 4);
        first_half.ingest(&updates[..6_000]);
        let checkpoint = first_half.checkpoint();
        drop(first_half);
        let mut resumed = ShardedIngest::from_checkpoint(checkpoint).unwrap();
        resumed.ingest(&updates[6_000..]);
        assert_eq!(resumed.checkpoint(), uninterrupted.checkpoint());
        assert_eq!(
            resumed.merged().unwrap().to_state(),
            uninterrupted.merged().unwrap().to_state()
        );
    }

    #[test]
    fn from_checkpoint_rejects_inconsistent_cursor() {
        let mut ingest = ShardedIngest::new(config(), 2);
        let updates: Vec<FlowUpdate> = (0..100u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(1)))
            .collect();
        ingest.ingest(&updates);
        let mut checkpoint = ingest.checkpoint();
        checkpoint.updates_distributed += 1;
        assert!(matches!(
            ShardedIngest::from_checkpoint(checkpoint),
            Err(PersistError::Incompatible { .. })
        ));
        let empty = ShardedCheckpoint {
            updates_distributed: 0,
            shards: vec![],
        };
        assert!(matches!(
            ShardedIngest::from_checkpoint(empty),
            Err(PersistError::Incompatible { .. })
        ));
    }

    #[test]
    fn empty_stream_is_fine() {
        let sketch = ingest_sharded(&[], config(), 4).unwrap();
        assert!(sketch.track_top_k(5, 0.25).entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "shard")]
    fn zero_shards_panics() {
        let _ = ingest_sharded(&[], config(), 0);
    }

    #[test]
    fn worker_panic_propagates_original_payload() {
        // A panic job parks in shard 0's ring. A telemetry snapshot
        // taken once the worker is dead reports the engine's counters
        // only, without panicking; the flush inside `merged` must then
        // notice the dead worker and re-raise its own payload rather
        // than hanging or masking it.
        let updates: Vec<FlowUpdate> = (0..10_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(1)))
            .collect();
        let mut ingest = ShardedIngest::new(config(), 2);
        ingest.ingest(&updates[..5_000]);
        ingest.inject_worker_panic(0, "worker exploded for the test");
        while !ingest.pool.any_dead() {
            std::thread::yield_now();
        }
        let snap = ingest.telemetry_snapshot("dead_worker");
        assert_eq!(snap.updates_processed, 0);
        assert!(snap.levels.is_empty());
        assert_eq!(snap.counters.get("sharded_shards"), Some(&2));
        assert_eq!(
            snap.counters.get("sharded_updates_distributed"),
            Some(&5_000)
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ingest.ingest(&updates[5_000..]);
            let _ = ingest.merged();
        }));
        let payload = result.unwrap_err();
        let message = payload
            .downcast_ref::<String>()
            .expect("original String payload, not a generic join message");
        assert!(
            message.contains("worker exploded"),
            "unexpected payload: {message}"
        );
    }

    #[test]
    fn panic_holding_the_shard_lock_poisons_the_shard() {
        // The worker panics while it holds shard 0's lock, so the lock
        // is poisoned. Readers must treat that shard as dead: telemetry
        // reports the engine's counters only, and both flushing reads
        // re-raise the worker's own payload.
        let updates: Vec<FlowUpdate> = (0..5_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(1)))
            .collect();
        let flushing_reads: [fn(&mut ShardedIngest); 2] = [
            |ingest| drop(ingest.merged_sketch()),
            |ingest| drop(ingest.checkpoint()),
        ];
        for read in flushing_reads {
            let mut ingest = ShardedIngest::new(config(), 2);
            ingest.ingest(&updates);
            ingest
                .pool
                .inject_panic(0, "worker exploded holding its shard", true);
            while !ingest.pool.any_dead() {
                std::thread::yield_now();
            }
            let snap = ingest.telemetry_snapshot("poisoned_shard");
            assert_eq!(snap.updates_processed, 0);
            assert!(snap.levels.is_empty());
            assert_eq!(snap.counters.get("sharded_shards"), Some(&2));
            assert_eq!(
                snap.counters.get("sharded_updates_distributed"),
                Some(&5_000)
            );
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&mut ingest)))
                    .unwrap_err();
            let message = payload
                .downcast_ref::<String>()
                .expect("original String payload, not a generic join message");
            assert!(
                message.contains("holding its shard"),
                "unexpected payload: {message}"
            );
        }
    }

    #[test]
    fn telemetry_snapshot_reports_engine_gauges() {
        let updates: Vec<FlowUpdate> = (0..5_000u32)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(2)))
            .collect();
        let mut ingest = ShardedIngest::new(config(), 2);
        ingest.ingest(&updates);
        let _ = ingest.merged().unwrap();
        let snap = ingest.telemetry_snapshot("sharded_engine");
        assert_eq!(snap.counters.get("sharded_shards"), Some(&2));
        assert_eq!(
            snap.counters.get("sharded_updates_distributed"),
            Some(&5_000)
        );
        assert_eq!(snap.counters.get("sharded_updates_drained"), Some(&5_000));
        assert!(snap.counters.get("sharded_merges").copied().unwrap_or(0) >= 1);
        assert!(snap.counters.contains_key("sharded_merge_p50_ns"));
    }
}
