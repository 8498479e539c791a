//! Persistent per-core ingest workers fed over bounded channels.
//!
//! The engine under [`crate::sharded::ShardedIngest`]: one long-lived
//! worker thread per shard, each draining a bounded FIFO
//! ([`std::sync::mpsc::sync_channel`]) of routed update slices into its
//! shard's [`DistinctCountSketch`]. When a worker's queue is full the
//! producer's `send` waits until the worker catches up (bounded memory,
//! lossless backpressure); dropping a worker's sender ends it once its
//! queue is drained.
//!
//! Each shard's sketch sits behind one mutex, which its worker holds
//! for one batch at a time. Reads lock the shards and use them in
//! place, so a read sees every shard between batches, never
//! half-applied; a panic while a shard is locked poisons it, and reads
//! treat a poisoned shard as dead. A flush waits until each worker has
//! drained everything dispatched to it; a flushed read therefore
//! captures exactly the queue-*drained* position, with no in-flight
//! items, which is what makes sharded checkpoints resumable.
//! The producer never holds a shard lock while sending, so a full
//! queue cannot wait on a lock the producer holds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use dcs_core::{cast, DistinctCountSketch, FlowUpdate, NetBatch, SketchConfig, SketchError};
use dcs_telemetry::LogHistogram;

/// Jobs capacity of each worker's queue. At the 1024-update handoff
/// granularity this bounds per-shard buffering at 64 Ki updates.
const RING_CAPACITY: usize = 64;

/// One unit of work handed to a worker through its queue.
enum Job {
    /// Apply this routed slice of the stream, in order.
    Batch(Vec<FlowUpdate>),
    /// Apply these net changes, which stand for `covered` updates.
    Net(NetBatch),
    /// Test hook: panic inside the worker with this message, holding
    /// the shard lock when `locked`, so both dead-worker paths can be
    /// exercised deterministically.
    #[cfg(test)]
    Explode { message: String, locked: bool },
}

/// One shard: the state its worker shares with the readers.
struct Shard {
    /// The shard's sketch. The worker holds the lock for one batch at
    /// a time; readers lock it to use the sketch in place.
    sketch: Mutex<DistinctCountSketch>,
    /// Updates applied to the sketch; advanced under the sketch lock,
    /// so a locked sketch has processed exactly this many.
    drained: AtomicU64,
}

impl Shard {
    /// Locks the sketch. A poisoned lock still yields the sketch:
    /// [`WorkerPool::any_dead`] is how a read learns whether to trust
    /// it.
    fn lock(&self) -> MutexGuard<'_, DistinctCountSketch> {
        self.sketch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The worker body: apply jobs in arrival (= stream) order until the
/// producer drops its sender.
fn worker_loop(jobs: Receiver<Job>, shard: &Shard) {
    for job in jobs {
        match job {
            Job::Batch(items) => {
                let mut sketch = shard.lock();
                sketch.update_batch(&items);
                shard
                    .drained
                    .fetch_add(cast::u64_from_usize(items.len()), Ordering::Release);
            }
            Job::Net(batch) => {
                let mut sketch = shard.lock();
                sketch.apply_net(&batch);
                shard.drained.fetch_add(batch.covered, Ordering::Release);
            }
            #[cfg(test)]
            Job::Explode { message, locked } => {
                let _sketch = locked.then(|| shard.lock());
                panic!("{message}");
            }
        }
    }
}

/// One worker: its queue, its shard, and the join handle (taken
/// exactly once, to propagate a panic or to shut down).
struct Worker {
    jobs: SyncSender<Job>,
    shard: Arc<Shard>,
    join: Option<JoinHandle<()>>,
}

impl Worker {
    /// Whether the worker has died: its shard is poisoned, or its
    /// thread has finished (workers return only once their sender is
    /// dropped) or was already joined.
    fn is_dead(&self) -> bool {
        self.shard.sketch.is_poisoned() || self.join.as_ref().is_none_or(JoinHandle::is_finished)
    }
}

/// A set of persistent shard workers plus the producer-side routing
/// ledger. Owned by [`crate::sharded::ShardedIngest`].
pub(crate) struct WorkerPool {
    workers: Vec<Worker>,
    /// Per-shard target update counts: the seed sketch's count plus
    /// everything dispatched to that shard's queue since spawn. A shard
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
            let shard = Arc::new(Shard {
                drained: AtomicU64::new(sketch.updates_processed()),
                sketch: Mutex::new(sketch),
            });
            let (jobs, queue) = mpsc::sync_channel(RING_CAPACITY);
            let worker_shard = Arc::clone(&shard);
            let join = thread::spawn(move || worker_loop(queue, &worker_shard));
            workers.push(Worker {
                jobs,
                shard,
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

    /// Hands one routed slice to shard `owner`'s queue, waiting while
    /// the queue is full.
    ///
    /// # Panics
    ///
    /// Re-raises the worker's own panic payload if that worker died.
    pub(crate) fn dispatch(&mut self, owner: usize, slice: &[FlowUpdate]) {
        self.send(owner, Job::Batch(slice.to_vec()));
        self.dispatched[owner] += cast::u64_from_usize(slice.len());
    }

    /// Hands a batch of net changes to shard `owner`'s queue, waiting
    /// while the queue is full.
    ///
    /// # Panics
    ///
    /// As [`Self::dispatch`].
    pub(crate) fn dispatch_net(&mut self, owner: usize, batch: NetBatch) {
        let covered = batch.covered;
        self.send(owner, Job::Net(batch));
        self.dispatched[owner] += covered;
    }

    /// Sends `job` to shard `owner`'s worker; a worker that has gone
    /// away has dropped its receiver, which fails the send.
    fn send(&mut self, owner: usize, job: Job) {
        if self.workers[owner].jobs.send(job).is_err() {
            self.raise_worker_panic(owner);
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

    /// Waits until every worker has applied everything dispatched to
    /// it. On return the shards together cover every update ever
    /// dispatched — the queue-drained state a resumable checkpoint must
    /// capture.
    ///
    /// # Panics
    ///
    /// Re-raises the original payload of any worker found dead: its
    /// shard is poisoned or its thread has finished.
    pub(crate) fn flush(&mut self) {
        for owner in 0..self.workers.len() {
            loop {
                let worker = &self.workers[owner];
                if worker.is_dead() {
                    self.raise_worker_panic(owner);
                }
                if worker.shard.drained.load(Ordering::Acquire) == self.dispatched[owner] {
                    break;
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
            .map(|worker| worker.shard.lock())
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

    /// Whether any worker has died. A worker that panics mid-batch
    /// poisons its shard's lock as the lock is released, so a read that
    /// checks this after releasing its locks never passes such a
    /// half-applied shard on.
    pub(crate) fn any_dead(&self) -> bool {
        self.workers.iter().any(Worker::is_dead)
    }

    /// Updates drained (applied) across all shards; lags the dispatch
    /// cursor by at most the buffered queue contents.
    pub(crate) fn drained(&self) -> u64 {
        self.workers
            .iter()
            .map(|worker| worker.shard.drained.load(Ordering::Acquire))
            .sum()
    }

    /// Merge latency distribution.
    pub(crate) fn merge_latency(&self) -> &LogHistogram {
        &self.merge_latency
    }

    /// Test hook: make shard `owner`'s worker panic with `message` when
    /// it reaches this job, holding its shard lock when `locked`.
    #[cfg(test)]
    pub(crate) fn inject_panic(&mut self, owner: usize, message: &str, locked: bool) {
        let message = message.to_string();
        self.send(owner, Job::Explode { message, locked });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping each sender (with the rest of its worker) lets that
        // worker drain its queue and return.
        let joins: Vec<JoinHandle<()>> = self
            .workers
            .drain(..)
            .filter_map(|worker| worker.join)
            .collect();
        let mut payload = None;
        for join in joins {
            if let Err(p) = join.join() {
                payload = Some(p);
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
