//! Summary statistics for multi-seed experiment runs.
//!
//! The paper's protocol averages 5 seeded runs (§6.1); honest reporting
//! also wants spread. This module provides the small statistics kit the
//! experiment binaries use: mean, standard deviation, percentiles, and
//! a normal-approximation confidence interval.

/// Summary statistics over a set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n−1` denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
}

impl Stats {
    /// Computes statistics from samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "samples must be finite"
        );
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = if count < 2 {
            0.0
        } else {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_of_sorted(&sorted, 50.0),
        }
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(samples: &[f64], p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        assert!(!samples.is_empty(), "need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile_of_sorted(&sorted, p)
    }

    /// A two-sided normal-approximation confidence interval for the
    /// mean: `mean ± z·σ/√n` (z = 1.96 for 95 %).
    pub fn confidence_interval_95(&self) -> (f64, f64) {
        let half = 1.96 * self.std_dev / (self.count as f64).sqrt();
        (self.mean - half, self.mean + half)
    }

    /// Formats as `mean ± std (n = count)`.
    pub fn summary(&self) -> String {
        format!(
            "{:.4} ± {:.4} (n = {})",
            self.mean, self.std_dev, self.count
        )
    }
}

fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let weight = rank - low as f64;
    sorted[low] * (1.0 - weight) + sorted[high] * weight
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn single_sample() {
        let s = Stats::from_samples(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        let (lo, hi) = s.confidence_interval_95();
        assert_eq!(lo, 7.0);
        assert_eq!(hi, 7.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let samples = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(Stats::percentile(&samples, 0.0), 10.0);
        assert_eq!(Stats::percentile(&samples, 100.0), 40.0);
        assert!((Stats::percentile(&samples, 50.0) - 25.0).abs() < 1e-12);
        // Unsorted input works too.
        let shuffled = [40.0, 10.0, 30.0, 20.0];
        assert!((Stats::percentile(&shuffled, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_interval_shrinks_with_n() {
        let narrow: Vec<f64> = (0..100).map(|i| f64::from(i % 10)).collect();
        let wide: Vec<f64> = (0..10).map(f64::from).collect();
        let n = Stats::from_samples(&narrow);
        let w = Stats::from_samples(&wide);
        let (nl, nh) = n.confidence_interval_95();
        let (wl, wh) = w.confidence_interval_95();
        assert!(nh - nl < wh - wl);
    }

    #[test]
    fn summary_is_readable() {
        let s = Stats::from_samples(&[1.0, 2.0]);
        let text = s.summary();
        assert!(text.contains("n = 2"));
        assert!(text.contains('±'));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_panics() {
        let _ = Stats::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_panics() {
        let _ = Stats::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let _ = Stats::percentile(&[1.0], 101.0);
    }
}
