//! Persistent per-core ingest workers behind lock-free handoff rings.
//!
//! The engine under [`crate::sharded::ShardedIngest`]: one long-lived
//! worker thread per shard, each draining a bounded lock-free ring
//! ([`crossbeam::queue::ArrayQueue`], used single-producer /
//! single-consumer) of routed update slices into its shard's
//! [`DistinctCountSketch`]. Handing work over never takes a lock and
//! workers never block each other; when a ring fills, the producer
//! spins with [`std::thread::yield_now`] until the worker catches up
//! (bounded memory, lossless backpressure).
//!
//! Each shard's sketch sits behind one mutex, which its worker holds
//! for one batch at a time. Reads lock the shards and use them in
//! place, so a read sees every shard between batches, never
//! half-applied. A flush waits until each worker has drained
//! everything dispatched to it; a flushed read therefore captures
//! exactly the ring-*drained* position, with no in-flight items, which
//! is what makes sharded checkpoints resumable. The producer never
//! holds a shard lock while pushing to a ring, so a full ring cannot
//! wait on a lock the producer holds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::queue::ArrayQueue;
use parking_lot::{Mutex, MutexGuard};

use dcs_core::{cast, DistinctCountSketch, FlowUpdate, SketchConfig, SketchError};
use dcs_telemetry::LogHistogram;

/// Jobs capacity of each worker's handoff ring. At the 1024-update
/// handoff granularity this bounds per-shard buffering at 64 Ki
/// updates.
const RING_CAPACITY: usize = 64;

/// One unit of work handed to a worker through its ring.
enum Job {
    /// Apply this routed slice of the stream, in order.
    Batch(Vec<FlowUpdate>),
    /// Test hook: panic inside the worker with this message, so the
    /// dead-worker propagation path can be exercised deterministically.
    #[cfg(test)]
    Explode(String),
}

/// State shared between one worker thread and the producer.
struct WorkerShared {
    /// The SPSC handoff ring (producer pushes, the worker pops).
    ring: ArrayQueue<Job>,
    /// The shard's sketch. The worker holds the lock for one batch at
    /// a time; readers lock it to use the sketch in place.
    sketch: Mutex<DistinctCountSketch>,
    /// Updates applied to the sketch; advanced under the sketch lock,
    /// so a locked sketch has processed exactly this many.
    drained: AtomicU64,
    /// Producer → worker: no more jobs are coming; drain and exit.
    stop: AtomicBool,
    /// Set when the worker thread unwinds, so the producer's spin loops
    /// can distinguish "worker busy" from "worker gone" without joining.
    dead: AtomicBool,
}

/// Sets a worker's [`WorkerShared::dead`] flag if dropped while its
/// thread unwinds.
struct DeadFlag<'a>(&'a AtomicBool);

impl Drop for DeadFlag<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// The worker body: drain the ring and apply batches in arrival
/// (= stream) order.
fn worker_loop(shared: &WorkerShared) {
    let _unwinding = DeadFlag(&shared.dead);
    loop {
        match shared.ring.pop() {
            Some(Job::Batch(items)) => {
                let mut sketch = shared.sketch.lock();
                // Dropped before the guard: a panic mid-batch marks the
                // worker dead before its half-applied sketch unlocks.
                let _mid_batch = DeadFlag(&shared.dead);
                sketch.update_batch(&items);
                shared
                    .drained
                    .fetch_add(cast::u64_from_usize(items.len()), Ordering::Release);
            }
            #[cfg(test)]
            Some(Job::Explode(message)) => panic!("{message}"),
            None => {
                if shared.stop.load(Ordering::Acquire) {
                    // `stop` is set only after the last push, so an
                    // empty ring here means the stream is fully drained.
                    if shared.ring.is_empty() {
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
    /// is fully drained exactly when its drained count reaches this.
    dispatched: Vec<u64>,
    /// Merge latencies (boxed: kept inline, the histogram would make
    /// every `ShardedIngest` holder hundreds of bytes larger).
    merge_latency: Box<LogHistogram>,
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
    /// Spawns one worker per seed sketch; worker `i` starts from
    /// `seeds[i]`.
    pub(crate) fn spawn(seeds: Vec<DistinctCountSketch>) -> Self {
        let mut workers = Vec::with_capacity(seeds.len());
        let mut dispatched = Vec::with_capacity(seeds.len());
        for sketch in seeds {
            dispatched.push(sketch.updates_processed());
            let shared = Arc::new(WorkerShared {
                ring: ArrayQueue::new(RING_CAPACITY),
                drained: AtomicU64::new(sketch.updates_processed()),
                sketch: Mutex::new(sketch),
                stop: AtomicBool::new(false),
                dead: AtomicBool::new(false),
            });
            let worker_shared = Arc::clone(&shared);
            let join = thread::spawn(move || worker_loop(&worker_shared));
            workers.push(Worker {
                shared,
                join: Some(join),
            });
        }
        Self {
            workers,
            dispatched,
            merge_latency: Box::default(),
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

    /// Waits until every worker has drained its ring to the dispatched
    /// position. On return the shards together cover every update ever
    /// dispatched — the ring-drained state a resumable checkpoint must
    /// capture.
    ///
    /// # Panics
    ///
    /// Re-raises the original payload of any worker that panicked.
    pub(crate) fn flush(&mut self) {
        for owner in 0..self.workers.len() {
            let shared = Arc::clone(&self.workers[owner].shared);
            while shared.drained.load(Ordering::Acquire) != self.dispatched[owner] {
                if shared.dead.load(Ordering::Acquire) {
                    self.raise_worker_panic(owner);
                }
                if let Some(join) = &self.workers[owner].join {
                    join.thread().unpark();
                }
                thread::yield_now();
            }
        }
    }

    /// Locks every shard's sketch, in shard order. Each worker holds at
    /// most its own lock, so taking them all cannot deadlock; the
    /// workers wait while the guards live.
    pub(crate) fn lock_shards(&self) -> Vec<MutexGuard<'_, DistinctCountSketch>> {
        self.workers
            .iter()
            .map(|worker| worker.shared.sketch.lock())
            .collect()
    }

    /// Linearly merges the shards as they stand into one basic sketch
    /// (call [`Self::flush`] first for an up-to-the-cursor view).
    ///
    /// Shards that have processed no updates are skipped: they hold no
    /// levels, so merging them only burns per-level clone/merge passes.
    /// Bit-identical — an untouched shard contributes zero to every
    /// counter — and it matters before all shards have seen traffic.
    pub(crate) fn merged(&self, config: &SketchConfig) -> Result<DistinctCountSketch, SketchError> {
        let shards = self.lock_shards();
        let started = Instant::now();
        let merged = DistinctCountSketch::merge_many(
            config,
            shards
                .iter()
                .map(|shard| &**shard)
                .filter(|shard| shard.updates_processed() > 0),
        )?;
        drop(shards);
        self.merge_latency
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok(merged)
    }

    /// Whether any worker has died. A dead worker's shard may hold a
    /// half-applied batch, and the worker marks itself dead before that
    /// shard unlocks, so a read that checks this after releasing its
    /// locks never passes such a shard on.
    pub(crate) fn any_dead(&self) -> bool {
        self.workers
            .iter()
            .any(|worker| worker.shared.dead.load(Ordering::Acquire))
    }

    /// Jobs currently buffered across all rings (telemetry gauge).
    pub(crate) fn queued_jobs(&self) -> u64 {
        self.workers
            .iter()
            .map(|worker| cast::u64_from_usize(worker.shared.ring.len()))
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

    /// Merge latency distribution.
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
