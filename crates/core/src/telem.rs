//! Always-on hot-path telemetry recorder.
//!
//! [`Telem`] is the single seam between the sketch hot paths and
//! `dcs-telemetry`: a [`dcs_telemetry::CounterSet`] plus log₂
//! histograms of update latency, query latency and batch size. Every
//! build records. To keep the single-update path free of clock reads,
//! only whole calls are timed — one timer per `update_batch` (amortized
//! over its updates) and one per top-k query — while `update()` pays
//! nothing beyond the relaxed counter bumps of the tracking screen
//! (DESIGN.md §10 has the measured overhead).

pub(crate) use dcs_telemetry::Counter;

use dcs_telemetry::{CounterSet, LogHistogram, TelemetrySnapshot};
use std::time::Instant;

/// Live recorder: counters plus update/query latency histograms.
///
/// All recording takes `&self` (relaxed atomics underneath), so query
/// paths can self-time without threading `&mut` through. Cloning
/// snapshots the accumulated state, matching the sketch's
/// counter-storage clone semantics.
#[derive(Debug, Clone, Default)]
pub(crate) struct Telem {
    counters: CounterSet,
    update_hist: LogHistogram,
    query_hist: LogHistogram,
    /// Distribution of `update_batch` call sizes (raw counts, not
    /// nanoseconds — summarized with the histogram's raw-unit summary).
    batch_hist: LogHistogram,
}

impl Telem {
    #[inline]
    pub(crate) fn incr(&self, counter: Counter) {
        self.counters.incr(counter);
    }

    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters.add(counter, n);
    }

    #[inline]
    pub(crate) fn start_timer(&self) -> Instant {
        Instant::now()
    }

    #[inline]
    pub(crate) fn record_query(&self, timer: Instant) {
        self.query_hist.record(elapsed_ns(timer));
    }

    /// Records one `update_batch` call of `n` updates: `n`
    /// update-latency samples of the amortized per-update cost, so
    /// `update_latency.count` means "updates measured", and one
    /// batch-size observation.
    #[inline]
    pub(crate) fn record_update_batch(&self, timer: Instant, n: usize) {
        if n == 0 {
            return;
        }
        let n_u64 = u64::try_from(n).unwrap_or(u64::MAX);
        self.update_hist.record_n(elapsed_ns(timer) / n_u64, n_u64);
        self.batch_hist.record(n_u64);
    }

    pub(crate) fn merge_from(&self, other: &Telem) {
        self.counters.merge_from(&other.counters);
        self.update_hist.merge_from(&other.update_hist);
        self.query_hist.merge_from(&other.query_hist);
        self.batch_hist.merge_from(&other.batch_hist);
    }

    /// Copies nonzero counters and non-empty latency summaries into a
    /// snapshot under assembly.
    pub(crate) fn fill_snapshot(&self, snapshot: &mut TelemetrySnapshot) {
        for (name, value) in self.counters.nonzero() {
            snapshot.set_counter(name, value);
        }
        if self.update_hist.count() > 0 {
            snapshot.update_latency = Some(self.update_hist.summary());
        }
        if self.query_hist.count() > 0 {
            snapshot.query_latency = Some(self.query_hist.summary());
        }
        if self.batch_hist.count() > 0 {
            snapshot.batch_size = Some(self.batch_hist.size_summary());
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_fills_and_merges_every_summary() {
        let telem = Telem::default();
        telem.incr(Counter::ScreenMiss);
        telem.record_query(telem.start_timer());
        telem.record_update_batch(telem.start_timer(), 3);
        telem.record_update_batch(telem.start_timer(), 0);
        telem.merge_from(&telem.clone());
        let mut snap = TelemetrySnapshot::new("telem");
        telem.fill_snapshot(&mut snap);
        // merge_from(clone) doubled everything recorded above: one
        // 3-update batch (the empty one records nothing) = 3 samples.
        assert_eq!(snap.counters.get("screen_miss"), Some(&2));
        assert_eq!(snap.update_latency.map(|l| l.count), Some(6));
        assert_eq!(snap.query_latency.map(|l| l.count), Some(2));
        assert_eq!(snap.batch_size.map(|b| b.count), Some(2));
    }
}
