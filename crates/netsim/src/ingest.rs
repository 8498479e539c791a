//! Persistent per-core ingest workers behind lock-free handoff rings.
//!
//! The engine under [`crate::sharded::ShardedIngest`]: one long-lived
//! worker thread per shard, each owning a private
//! [`DistinctCountSketch`] and draining a bounded lock-free ring
//! ([`crossbeam::queue::ArrayQueue`], used single-producer /
//! single-consumer) of routed update slices. The producer never blocks
//! on a mutex and workers never block each other; when a ring fills,
//! the producer spins with [`std::thread::yield_now`] until the worker
//! catches up (bounded memory, lossless backpressure).
//!
//! Reads never pause ingestion: each worker periodically *publishes* an
//! epoch pointer — an `Arc` clone of its private sketch, swapped
//! wholesale behind a mutex that is only ever held for the pointer
//! exchange — and [`ShardReader::snapshot`] linearly merges the latest
//! published partials into one consistent [`TrackingDcs`]. A published
//! partial is immutable, so a snapshot can never observe a torn or
//! half-applied state; it can only lag the stream, never misreport it.
//!
//! Checkpoint/flush semantics: the worker pool's flush pushes a publish
//! request down every ring and waits until each worker's published
//! update count equals the count handed to its ring — i.e. a flushed
//! view captures exactly the ring-*drained* position, with no in-flight
//! items, which is what makes sharded checkpoints resumable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::queue::ArrayQueue;
use parking_lot::Mutex;

use dcs_core::{cast, DistinctCountSketch, FlowUpdate, SketchConfig, SketchError, TrackingDcs};
use dcs_telemetry::LogHistogram;

/// Jobs capacity of each worker's handoff ring. At the 1024-update
/// handoff granularity this bounds per-shard buffering at 64 Ki
/// updates.
const RING_CAPACITY: usize = 64;

/// A worker publishes a fresh read-side snapshot after applying this
/// many updates since its last publish (flushes publish eagerly).
const PUBLISH_EVERY_UPDATES: u64 = 32 * 1024;

/// One unit of work handed to a worker through its ring.
enum Job {
    /// Apply this routed slice of the stream, in order.
    Batch(Vec<FlowUpdate>),
    /// Publish the private sketch as a read-side snapshot now.
    Publish,
    /// Test hook: panic inside the worker with this message, so the
    /// dead-worker propagation path can be exercised deterministically.
    #[cfg(test)]
    Explode(String),
}

/// State shared between one worker thread, the producer, and readers.
struct WorkerShared {
    /// The SPSC handoff ring (producer pushes, the worker pops).
    ring: ArrayQueue<Job>,
    /// Epoch pointer to the latest published clone of the worker's
    /// private sketch. Swapped wholesale; the mutex is held only for
    /// the `Arc` exchange, never while sketching, so readers and the
    /// worker are both effectively wait-free here.
    published: Mutex<Arc<DistinctCountSketch>>,
    /// Number of publishes so far (telemetry).
    publishes: AtomicU64,
    /// Updates the worker has applied to its private sketch.
    drained: AtomicU64,
    /// Producer → worker: no more jobs are coming; drain and exit.
    stop: AtomicBool,
    /// Set by the worker's drop sentinel when its thread exits for any
    /// reason; with `join` still present, an early set means a panic.
    dead: AtomicBool,
}

/// Sets [`WorkerShared::dead`] when the worker thread unwinds or
/// returns, so the producer's spin loops can distinguish "worker busy"
/// from "worker gone" without joining.
struct DeadFlag(Arc<WorkerShared>);

impl Drop for DeadFlag {
    fn drop(&mut self) {
        self.0.dead.store(true, Ordering::Release);
    }
}

/// The worker body: drain the ring, apply batches in arrival (= stream)
/// order, publish snapshots periodically and on request.
fn worker_loop(mut sketch: DistinctCountSketch, shared: Arc<WorkerShared>) {
    let _sentinel = DeadFlag(Arc::clone(&shared));
    let mut since_publish = 0u64;
    loop {
        match shared.ring.pop() {
            Some(Job::Batch(items)) => {
                sketch.update_batch(&items);
                let applied = cast::u64_from_usize(items.len());
                shared.drained.fetch_add(applied, Ordering::Release);
                since_publish += applied;
                if since_publish >= PUBLISH_EVERY_UPDATES {
                    publish(&sketch, &shared);
                    since_publish = 0;
                }
            }
            Some(Job::Publish) => {
                publish(&sketch, &shared);
                since_publish = 0;
            }
            #[cfg(test)]
            Some(Job::Explode(message)) => panic!("{message}"),
            None => {
                if shared.stop.load(Ordering::Acquire) {
                    // `stop` is set only after the last push, so an
                    // empty ring here means the stream is fully drained.
                    if shared.ring.is_empty() {
                        publish(&sketch, &shared);
                        return;
                    }
                } else {
                    // The producer unparks after every push; the
                    // timeout only bounds the cost of a lost race
                    // between this park and that unpark.
                    thread::park_timeout(Duration::from_millis(1));
                }
            }
        }
    }
}

/// Publishes a consistent clone of `sketch` as the shard's read-side
/// snapshot.
fn publish(sketch: &DistinctCountSketch, shared: &WorkerShared) {
    let snapshot = Arc::new(sketch.clone());
    *shared.published.lock() = snapshot;
    shared.publishes.fetch_add(1, Ordering::Release);
}

/// One worker: its shared state plus the join handle (taken exactly
/// once, to propagate a panic or to shut down).
struct Worker {
    shared: Arc<WorkerShared>,
    join: Option<JoinHandle<()>>,
}

/// A set of persistent shard workers plus the producer-side routing
/// ledger. Owned by [`crate::sharded::ShardedIngest`].
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
    /// Per-shard target update counts: the seed sketch's count plus
    /// everything dispatched to that shard's ring since spawn. A shard
    /// is fully drained exactly when its published count reaches this.
    dispatched: Vec<u64>,
    /// Read-side merge latencies (shared with every [`ShardReader`]).
    merge_latency: Arc<LogHistogram>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("shards", &self.workers.len())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns one worker per seed sketch; worker `i` starts from (and
    /// immediately publishes) `seeds[i]`.
    pub(crate) fn spawn(seeds: Vec<DistinctCountSketch>) -> Self {
        let mut workers = Vec::with_capacity(seeds.len());
        let mut dispatched = Vec::with_capacity(seeds.len());
        for sketch in seeds {
            dispatched.push(sketch.updates_processed());
            let shared = Arc::new(WorkerShared {
                ring: ArrayQueue::new(RING_CAPACITY),
                published: Mutex::new(Arc::new(sketch.clone())),
                publishes: AtomicU64::new(1),
                drained: AtomicU64::new(sketch.updates_processed()),
                stop: AtomicBool::new(false),
                dead: AtomicBool::new(false),
            });
            let worker_shared = Arc::clone(&shared);
            let join = thread::spawn(move || worker_loop(sketch, worker_shared));
            workers.push(Worker {
                shared,
                join: Some(join),
            });
        }
        Self {
            workers,
            dispatched,
            merge_latency: Arc::new(LogHistogram::new()),
        }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Hands one routed slice to shard `owner`'s ring, spinning (never
    /// sleeping) while the ring is full.
    ///
    /// # Panics
    ///
    /// Re-raises the worker's own panic payload if that worker died.
    pub(crate) fn dispatch(&mut self, owner: usize, slice: &[FlowUpdate]) {
        self.push_job(owner, Job::Batch(slice.to_vec()));
        self.dispatched[owner] += cast::u64_from_usize(slice.len());
    }

    /// Pushes `job` onto shard `owner`'s ring with full-ring
    /// backpressure and dead-worker detection, then unparks the worker.
    fn push_job(&mut self, owner: usize, job: Job) {
        let mut job = job;
        loop {
            if self.workers[owner].shared.dead.load(Ordering::Acquire) {
                self.raise_worker_panic(owner);
            }
            match self.workers[owner].shared.ring.push(job) {
                Ok(()) => break,
                Err(back) => {
                    job = back;
                    thread::yield_now();
                }
            }
        }
        if let Some(join) = &self.workers[owner].join {
            join.thread().unpark();
        }
    }

    /// Joins the dead worker at `owner` and re-raises its original
    /// panic payload (never a generic "worker died" message when the
    /// real cause is available).
    fn raise_worker_panic(&mut self, owner: usize) -> ! {
        match self.workers[owner].join.take().map(JoinHandle::join) {
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            _ => panic!("shard worker {owner} terminated unexpectedly"),
        }
    }

    /// Drains every ring to its dispatched position and publishes each
    /// shard's sketch at exactly that position. On return, published
    /// snapshots together cover every update ever dispatched — the
    /// ring-drained state a resumable checkpoint must capture.
    ///
    /// # Panics
    ///
    /// Re-raises the original payload of any worker that panicked.
    pub(crate) fn flush(&mut self) {
        for owner in 0..self.workers.len() {
            self.push_job(owner, Job::Publish);
        }
        for owner in 0..self.workers.len() {
            loop {
                let published = self.workers[owner]
                    .shared
                    .published
                    .lock()
                    .updates_processed();
                if published == self.dispatched[owner] {
                    break;
                }
                if self.workers[owner].shared.dead.load(Ordering::Acquire) {
                    self.raise_worker_panic(owner);
                }
                if let Some(join) = &self.workers[owner].join {
                    join.thread().unpark();
                }
                thread::yield_now();
            }
        }
    }

    /// The latest published partial of every shard, in shard order.
    pub(crate) fn published_parts(&self) -> Vec<Arc<DistinctCountSketch>> {
        self.workers
            .iter()
            .map(|worker| Arc::clone(&worker.shared.published.lock()))
            .collect()
    }

    /// Linearly merges the latest published partials into one basic
    /// sketch (call [`Self::flush`] first for an up-to-the-cursor view).
    ///
    /// Partials that have processed no updates are skipped: they hold
    /// no levels, so merging them only burns per-level clone/merge
    /// passes. Bit-identical — an untouched partial contributes zero to
    /// every counter — and it matters for snapshots taken before all
    /// shards have seen traffic.
    pub(crate) fn merged(&self, config: &SketchConfig) -> Result<DistinctCountSketch, SketchError> {
        let parts = self.published_parts();
        let started = Instant::now();
        let merged = DistinctCountSketch::merge_many(
            config,
            parts
                .iter()
                .map(Arc::as_ref)
                .filter(|part| part.updates_processed() > 0),
        )?;
        self.merge_latency
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(merged)
    }

    /// A cloneable non-blocking read handle over the published shards.
    pub(crate) fn reader(&self, config: SketchConfig) -> ShardReader {
        ShardReader {
            config,
            shards: self
                .workers
                .iter()
                .map(|worker| Arc::clone(&worker.shared))
                .collect(),
            merge_latency: Arc::clone(&self.merge_latency),
        }
    }

    /// Jobs currently buffered across all rings (telemetry gauge).
    pub(crate) fn queued_jobs(&self) -> u64 {
        self.workers
            .iter()
            .map(|worker| cast::u64_from_usize(worker.shared.ring.len()))
            .sum()
    }

    /// Total snapshot publishes across all shards (telemetry gauge).
    pub(crate) fn publishes(&self) -> u64 {
        self.workers
            .iter()
            .map(|worker| worker.shared.publishes.load(Ordering::Acquire))
            .sum()
    }

    /// Updates drained (applied) across all shards; lags the dispatch
    /// cursor by at most the buffered ring contents.
    pub(crate) fn drained(&self) -> u64 {
        self.workers
            .iter()
            .map(|worker| worker.shared.drained.load(Ordering::Acquire))
            .sum()
    }

    /// Read-side merge latency distribution.
    pub(crate) fn merge_latency(&self) -> &LogHistogram {
        &self.merge_latency
    }

    /// Test hook: make shard `owner`'s worker panic with `message` on
    /// its next ring pop.
    #[cfg(test)]
    pub(crate) fn inject_panic(&mut self, owner: usize, message: &str) {
        self.push_job(owner, Job::Explode(message.to_string()));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.shared.stop.store(true, Ordering::Release);
            if let Some(join) = &worker.join {
                join.thread().unpark();
            }
        }
        let mut payload = None;
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                join.thread().unpark();
                if let Err(p) = join.join() {
                    payload = Some(p);
                }
            }
        }
        // Re-raise a worker's dying words unless we are already
        // unwinding (a double panic would abort).
        if let Some(p) = payload {
            if !thread::panicking() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

/// A cloneable, non-blocking read handle over a sharded ingest's
/// published per-shard snapshots. Obtained from
/// [`crate::sharded::ShardedIngest::reader`]; remains usable from other
/// threads while ingestion continues.
pub struct ShardReader {
    config: SketchConfig,
    shards: Vec<Arc<WorkerShared>>,
    merge_latency: Arc<LogHistogram>,
}

impl Clone for ShardReader {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            shards: self.shards.iter().map(Arc::clone).collect(),
            merge_latency: Arc::clone(&self.merge_latency),
        }
    }
}

impl std::fmt::Debug for ShardReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardReader")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// A consistent point-in-time view merged from published shard
/// partials. Each partial is an immutable clone published by its
/// worker, so the merged sketch is never torn: it equals a
/// single-threaded sketch over some prefix-per-shard of the routed
/// stream.
#[derive(Debug)]
pub struct ShardedSnapshot {
    /// The merged tracking sketch.
    pub sketch: TrackingDcs,
    /// Updates covered by the snapshot (sum over shards); lags the
    /// dispatch cursor by at most the unpublished tail of each shard.
    pub updates_applied: u64,
    /// Updates covered per shard, in shard order.
    pub shard_updates: Vec<u64>,
}

impl ShardReader {
    /// Merges the latest published partial of every shard into one
    /// consistent tracking sketch, without blocking or pausing the
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates [`SketchError`] from the merge (unreachable when all
    /// shards share one configuration, which the pool guarantees).
    pub fn snapshot(&self) -> Result<ShardedSnapshot, SketchError> {
        let parts: Vec<Arc<DistinctCountSketch>> = self
            .shards
            .iter()
            .map(|shard| Arc::clone(&shard.published.lock()))
            .collect();
        let started = Instant::now();
        let shard_updates: Vec<u64> = parts.iter().map(|part| part.updates_processed()).collect();
        // Skip partials that have processed nothing (same reasoning as
        // `WorkerPool::merged`); `shard_updates` above still reports
        // every shard, including idle ones.
        let merged = DistinctCountSketch::merge_many(
            &self.config,
            parts
                .iter()
                .map(Arc::as_ref)
                .filter(|part| part.updates_processed() > 0),
        )?;
        self.merge_latency
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(ShardedSnapshot {
            sketch: TrackingDcs::from_sketch(merged),
            updates_applied: shard_updates.iter().sum(),
            shard_updates,
        })
    }

    /// Number of shards feeding this reader.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}
