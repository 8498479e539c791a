//! Medians, quartiles and tail percentiles over run samples.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` of `samples`, interpolating linearly
/// between the closest ranks. `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// Median and quartiles of run samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; all zero when there are none.
    pub fn of(samples: &[f64]) -> Self {
        let at = |q| quantile(samples, q).unwrap_or(0.0);
        Self {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            n: samples.len(),
        }
    }
}

/// The nearest-rank percentile `q` of `samples`, refused (`None`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: a p90 needs at
/// least 100 samples, a p50 at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = samples.len();
    // The epsilon keeps 0.9 × 110 = 99.000…01 at rank 99.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}
