//! Wall-clock timing for mixed update/query workloads (Fig. 9's
//! per-update processing-time metric).

use std::time::Instant;

/// Summary statistics over a set of timed runs, in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingStats {
    /// Number of operations timed.
    pub operations: u64,
    /// Mean microseconds per operation.
    pub mean_micros: f64,
    /// Total elapsed milliseconds.
    pub total_millis: f64,
}

impl TimingStats {
    /// Builds stats from an elapsed duration over `operations` ops.
    pub fn from_elapsed(operations: u64, elapsed: std::time::Duration) -> Self {
        let total_micros = elapsed.as_secs_f64() * 1e6;
        Self {
            operations,
            mean_micros: if operations == 0 {
                0.0
            } else {
                total_micros / operations as f64
            },
            total_millis: total_micros / 1e3,
        }
    }
}

/// Times `work` once, attributing the elapsed time to `operations`
/// operations, and returns mean microseconds per operation.
///
/// This is how Fig. 9 measures: run the whole mixed stream (updates
/// plus interleaved queries), divide by the number of *updates*.
///
/// # Examples
///
/// ```
/// use dcs_metrics::measure_per_update_micros;
///
/// let stats = measure_per_update_micros(1_000, || {
///     let mut acc = 0u64;
///     for i in 0..1_000u64 {
///         acc = acc.wrapping_add(i);
///     }
///     std::hint::black_box(acc);
/// });
/// assert_eq!(stats.operations, 1_000);
/// assert!(stats.mean_micros >= 0.0);
/// ```
pub fn measure_per_update_micros<F: FnOnce()>(operations: u64, work: F) -> TimingStats {
    let start = Instant::now();
    work();
    TimingStats::from_elapsed(operations, start.elapsed())
}

/// Quantile summary of a latency distribution, extending
/// [`TimingStats`]' whole-run mean with tail percentiles.
///
/// Defined in `dcs-telemetry` (the histogram that produces it lives
/// there, below `dcs-core` in the dependency order) and re-exported
/// here so experiment code keeps one import surface for timing types.
pub use dcs_telemetry::LatencyStats;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn from_elapsed_computes_mean() {
        let stats = TimingStats::from_elapsed(1_000, Duration::from_millis(10));
        assert_eq!(stats.operations, 1_000);
        assert!((stats.mean_micros - 10.0).abs() < 1e-9);
        assert!((stats.total_millis - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_operations_is_safe() {
        let stats = TimingStats::from_elapsed(0, Duration::from_millis(5));
        assert_eq!(stats.mean_micros, 0.0);
    }

    #[test]
    fn measure_runs_the_closure() {
        let mut ran = false;
        let stats = measure_per_update_micros(1, || ran = true);
        assert!(ran);
        assert_eq!(stats.operations, 1);
    }

    #[test]
    fn longer_work_reports_longer_time() {
        let quick = measure_per_update_micros(1, || {});
        let slow = measure_per_update_micros(1, || {
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(slow.mean_micros > quick.mean_micros);
    }
}
