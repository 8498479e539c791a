//! Log₂-bucketed latency histograms.
//!
//! A [`LogHistogram`] spreads `u64` nanosecond samples over 64 buckets
//! by leading-bit position, so each bucket covers `[2^b, 2^{b+1})` and
//! quantiles resolve to within a factor of two — ample for telling
//! 100 ns updates from 10 µs stalls, at the cost of one `fetch_add` per
//! sample and a fixed 520 bytes of state. Recording takes `&self`
//! (relaxed atomics), so query paths can self-time without `&mut`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::{LatencyStats, SizeStats};

const BUCKETS: usize = 64;

/// A fixed-size log₂ histogram over nanosecond samples.
///
/// # Examples
///
/// ```
/// use dcs_telemetry::LogHistogram;
///
/// let h = LogHistogram::new();
/// for ns in [100u64, 200, 400, 90_000] {
///     h.record(ns);
/// }
/// let summary = h.summary();
/// assert_eq!(summary.count, 4);
/// assert!(summary.p50_micros < summary.max_micros);
/// assert_eq!(summary.max_micros, 90.0);
/// ```
#[derive(Debug)]
pub struct LogHistogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    /// Exact maximum sample, tracked outside the buckets.
    max_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// The bucket index a sample lands in: its leading-bit position
/// (samples 0 and 1 share bucket 0).
fn bucket_of(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        usize::try_from(ns.ilog2()).unwrap_or(BUCKETS - 1)
    }
}

/// The representative value reported for bucket `b`: the geometric
/// middle `1.5·2^b` of its `[2^b, 2^{b+1})` range.
fn bucket_mid_ns(bucket: usize) -> f64 {
    1.5 * (bucket as f64).exp2()
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` identical samples of `ns` in one shot — how batched
    /// hot paths amortize instrumentation: time the whole chunk once,
    /// record the per-element cost with the chunk's weight, and `count`
    /// still means "elements measured".
    #[inline]
    pub fn record_n(&self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(ns)].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Adds every bucket of `other` into this histogram.
    pub fn merge_from(&self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The approximate `q`-quantile in nanoseconds (`0 < q ≤ 1`):
    /// the representative value of the bucket holding the
    /// `⌈q·count⌉`-th smallest sample. Returns 0 for an empty
    /// histogram.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (bucket, slot) in self.counts.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_mid_ns(bucket);
            }
        }
        bucket_mid_ns(BUCKETS - 1)
    }

    /// The `q`-quantile for a summary: [`quantile_ns`](Self::quantile_ns)
    /// capped at the exact maximum, since a bucket's midpoint can lie
    /// above every sample in it (one batch records one amortized value).
    fn summary_quantile(&self, q: f64) -> f64 {
        self.quantile_ns(q)
            .min(self.max_ns.load(Ordering::Relaxed) as f64)
    }

    /// Summarizes the distribution as microsecond [`LatencyStats`]
    /// (`count` and `max` exact, quantiles bucket-resolution and never
    /// above `max`).
    pub fn summary(&self) -> LatencyStats {
        if self.count() == 0 {
            return LatencyStats::empty();
        }
        LatencyStats {
            count: self.count(),
            p50_micros: self.summary_quantile(0.50) / 1e3,
            p95_micros: self.summary_quantile(0.95) / 1e3,
            p99_micros: self.summary_quantile(0.99) / 1e3,
            max_micros: self.max_ns.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }

    /// Summarizes the distribution as raw-unit [`SizeStats`] — for
    /// histograms whose samples are counts (batch sizes) rather than
    /// nanoseconds, so no unit conversion is applied.
    pub fn size_summary(&self) -> SizeStats {
        if self.count() == 0 {
            return SizeStats::empty();
        }
        SizeStats {
            count: self.count(),
            p50: self.summary_quantile(0.50),
            p95: self.summary_quantile(0.95),
            p99: self.summary_quantile(0.99),
            max: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

impl Clone for LogHistogram {
    /// Clones by snapshotting current bucket counts.
    fn clone(&self) -> Self {
        let fresh = LogHistogram::new();
        fresh.merge_from(self);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarizes_to_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), 0.0);
        assert!(h.summary().is_empty());
    }

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_are_ordered_and_max_is_exact() {
        let h = LogHistogram::new();
        // 90 fast samples around 100 ns, 10 slow around 1 ms.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        h.record(5_000_000); // one exact max outlier
        let s = h.summary();
        assert_eq!(s.count, 101);
        assert!(s.p50_micros <= s.p95_micros);
        assert!(s.p95_micros <= s.p99_micros);
        assert!(s.p99_micros <= s.max_micros);
        assert_eq!(s.max_micros, 5_000.0);
        // p50 sits in the 100 ns bucket: mid of [64, 128) ns.
        assert!(s.p50_micros < 0.2, "p50 = {}", s.p50_micros);
        // p99 reaches the millisecond bucket.
        assert!(s.p99_micros > 500.0, "p99 = {}", s.p99_micros);
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let h = LogHistogram::new();
        h.record(700);
        // 700 lands in bucket 9 ([512, 1024)); mid = 768 ns.
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 768.0, "q = {q}");
        }
    }

    #[test]
    fn summary_quantiles_never_exceed_the_exact_max() {
        let h = LogHistogram::new();
        // 600 ns sits in bucket 9 ([512, 1024)), whose mid is 768 ns.
        h.record_n(600, 500);
        let s = h.summary();
        assert_eq!(s.max_micros, 0.6);
        assert_eq!(s.p50_micros, 0.6);
        assert_eq!(s.p99_micros, 0.6);
        assert_eq!(h.quantile_ns(0.5), 768.0, "raw quantile is uncapped");
        let sizes = h.size_summary();
        assert_eq!(sizes.p50, 600.0);
    }

    #[test]
    fn record_n_weights_like_repeated_record() {
        let batched = LogHistogram::new();
        let looped = LogHistogram::new();
        batched.record_n(300, 50);
        batched.record_n(0, 0); // no-op
        for _ in 0..50 {
            looped.record(300);
        }
        assert_eq!(batched.count(), looped.count());
        assert_eq!(batched.summary(), looped.summary());
    }

    #[test]
    fn size_summary_reports_raw_units() {
        let h = LogHistogram::new();
        for _ in 0..9 {
            h.record(1024);
        }
        h.record(4096);
        let s = h.size_summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 4096);
        // p50 is the mid of [1024, 2048): 1536 — no /1e3 scaling.
        assert_eq!(s.p50, 1536.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn merge_and_clone_accumulate() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record(100);
        b.record(200_000);
        a.merge_from(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.summary().max_micros, 200.0);
        let c = a.clone();
        a.record(1);
        assert_eq!(c.count(), 2, "clone is a snapshot");
    }
}
