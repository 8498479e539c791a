//! Latency summary types shared with the metrics layer.
//!
//! [`LatencyStats`] lives here (rather than in `dcs-metrics`, whose
//! `TimingStats` it extends) because the dependency arrow has to point
//! this way: `dcs-core` records into this crate's histograms, and
//! `dcs-metrics` depends on `dcs-core`. `dcs-metrics` re-exports the
//! type so experiment tables keep a single import surface.

/// Quantile summary of a latency distribution, in microseconds.
///
/// `dcs_metrics::TimingStats` reports only the mean over a whole run;
/// telemetry histograms summarize the *distribution* of individual
/// operation latencies — tail behavior is where a "real-time" monitor
/// (§5) actually lives or dies. Produced by [`crate::LogHistogram`];
/// quantiles are therefore bucket-resolution approximations (within a
/// factor of 2) while `count` and `max_micros` are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of operations recorded.
    pub count: u64,
    /// Approximate median latency.
    pub p50_micros: f64,
    /// Approximate 95th-percentile latency.
    pub p95_micros: f64,
    /// Approximate 99th-percentile latency.
    pub p99_micros: f64,
    /// Exact maximum observed latency.
    pub max_micros: f64,
}

impl LatencyStats {
    /// An empty summary (no operations recorded).
    pub fn empty() -> Self {
        Self {
            count: 0,
            p50_micros: 0.0,
            p95_micros: 0.0,
            p99_micros: 0.0,
            max_micros: 0.0,
        }
    }

    /// Whether any operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Quantile summary of a *size* distribution (e.g. `update_batch` call
/// sizes), in raw units.
///
/// The same shape as [`LatencyStats`] but unit-free: samples are counts,
/// not nanoseconds, so nothing is divided by 1e3 and `max` stays an
/// exact integer. Produced by [`crate::LogHistogram::size_summary`];
/// quantiles are bucket-resolution approximations (within a factor of
/// 2) while `count` and `max` are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeStats {
    /// Number of samples recorded.
    pub count: u64,
    /// Approximate median size.
    pub p50: f64,
    /// Approximate 95th-percentile size.
    pub p95: f64,
    /// Approximate 99th-percentile size.
    pub p99: f64,
    /// Exact maximum observed size.
    pub max: u64,
}

impl SizeStats {
    /// An empty summary (no samples recorded).
    pub fn empty() -> Self {
        Self {
            count: 0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0,
        }
    }

    /// Whether any samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_empty() {
        assert!(LatencyStats::empty().is_empty());
        let nonempty = LatencyStats {
            count: 1,
            ..LatencyStats::empty()
        };
        assert!(!nonempty.is_empty());
    }

    #[test]
    fn empty_size_summary_is_empty() {
        assert!(SizeStats::empty().is_empty());
        let nonempty = SizeStats {
            count: 1,
            ..SizeStats::empty()
        };
        assert!(!nonempty.is_empty());
    }
}
