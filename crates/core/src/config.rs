//! Sketch configuration: the `(r, s)` shape parameters, level count,
//! seeding, and the paper's sizing formulas.

use dcs_hash::cast::{ceil_to_usize, f64_from_u64, f64_from_usize};

use crate::error::SketchError;
use crate::signature::BUCKET_BYTES;
use crate::types::GroupBy;

/// Number of bits in a packed source-destination pair (`2·log m` for
/// `m = 2^32`), and therefore the number of bit-location counters in the
/// paper's count signature.
pub const KEY_BITS: u32 = 64;

/// Shape and seeding of a distinct-count sketch.
///
/// Terminology maps to the paper as follows:
///
/// | paper | here |
/// |---|---|
/// | `r` — number of second-level hash tables per first-level bucket | [`num_tables`](Self::num_tables) |
/// | `s` — buckets per second-level hash table | [`buckets_per_table`](Self::buckets_per_table) |
/// | `Θ(log m)` first-level buckets | [`max_levels`](Self::max_levels) |
///
/// The paper's experimental defaults (`r = 3`, `s = 128`) are
/// [`SketchConfig::default`].
///
/// # Examples
///
/// ```
/// use dcs_core::SketchConfig;
///
/// let config = SketchConfig::builder()
///     .num_tables(4)
///     .buckets_per_table(256)
///     .seed(7)
///     .build()?;
/// assert_eq!(config.num_tables(), 4);
/// # Ok::<(), dcs_core::SketchError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SketchConfig {
    num_tables: usize,
    buckets_per_table: usize,
    max_levels: u32,
    seed: u64,
    group_by: GroupBy,
}

impl SketchConfig {
    /// Returns a builder initialized with the paper's defaults.
    pub fn builder() -> SketchConfigBuilder {
        SketchConfigBuilder::new()
    }

    /// The paper's default configuration: `r = 3`, `s = 128`, 64 levels,
    /// grouping by destination.
    ///
    /// Constructed directly (not through the builder) so it is
    /// infallible by inspection; the builder seeds its defaults from
    /// this value, keeping the two in lockstep.
    pub fn paper_default() -> Self {
        Self {
            num_tables: 3,
            buckets_per_table: 128,
            max_levels: 64,
            seed: 0,
            group_by: GroupBy::Destination,
        }
    }

    /// Derives a configuration meeting the `(ε, δ)` guarantees of
    /// Theorem 4.4 / 5.1.
    ///
    /// The theorem requires `r = Θ(log(n/δ))` and
    /// `s = Θ(U·log((n + log m)/δ) / (f_vk · ε²))`; `mass_ratio` is the
    /// caller's bound on `U / f_vk` (total distinct pairs over the k-th
    /// frequency). Constants follow Lemma 4.2 (`s ≥ 16·log(·)/ε²` scaled
    /// by the mass ratio); `s` is rounded up to a power of two.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidConfig`] if `epsilon` is outside
    /// `(0, 1/3)` (the theorem's hypothesis), `delta` is outside `(0, 1)`,
    /// or `mass_ratio < 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dcs_core::SketchConfig;
    ///
    /// // ε = 0.25, δ = 0.05, stream length ~1e6, U/f_vk ~ 100.
    /// let config = SketchConfig::for_guarantees(0.25, 0.05, 1_000_000, 100.0)?;
    /// assert!(config.num_tables() >= 3);
    /// # Ok::<(), dcs_core::SketchError>(())
    /// ```
    pub fn for_guarantees(
        epsilon: f64,
        delta: f64,
        stream_len: u64,
        mass_ratio: f64,
    ) -> Result<Self, SketchError> {
        if !(epsilon > 0.0 && epsilon < 1.0 / 3.0) {
            return Err(SketchError::InvalidConfig {
                parameter: "epsilon",
                reason: format!("must be in (0, 1/3), got {epsilon}"),
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(SketchError::InvalidConfig {
                parameter: "delta",
                reason: format!("must be in (0, 1), got {delta}"),
            });
        }
        if mass_ratio < 1.0 {
            return Err(SketchError::InvalidConfig {
                parameter: "mass_ratio",
                reason: format!("U/f_vk cannot be below 1, got {mass_ratio}"),
            });
        }
        let n = f64_from_u64(stream_len.max(2));
        // r = Θ(log(n/δ)): natural log with a small constant, floored at
        // the paper's empirical minimum of 3.
        let r = ceil_to_usize(((n / delta).ln() / 4.0).max(3.0));
        // s ≥ 16·log((n + log m)/δ)·(U/f_vk)/ε² (Lemma 4.3), with the
        // leading constant relaxed to 1 — the paper notes the exact
        // constants "are quite small for all practical purposes", and its
        // own experiments use s = 128 far below the worst-case bound.
        let s_raw = ((n + f64::from(KEY_BITS)) / delta).ln() * mass_ratio / (epsilon * epsilon);
        let s = ceil_to_usize(s_raw).next_power_of_two().max(16);
        SketchConfigBuilder::new()
            .num_tables(r)
            .buckets_per_table(s)
            .build()
    }

    /// `r`: the number of independent second-level hash tables per level.
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// `s`: the number of buckets in each second-level hash table.
    pub fn buckets_per_table(&self) -> usize {
        self.buckets_per_table
    }

    /// The number of first-level (geometric) buckets.
    pub fn max_levels(&self) -> u32 {
        self.max_levels
    }

    /// The root seed all hash functions are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Which end of the pair frequencies are aggregated for.
    pub fn group_by(&self) -> GroupBy {
        self.group_by
    }

    /// Returns this configuration with only the grouping orientation
    /// replaced — every hash parameter (tables, buckets, levels, seed)
    /// is preserved, so sketches built from the result ingest
    /// the same stream into bit-identical bucket layouts and differ
    /// only in how queries aggregate the sample. This is how the
    /// hierarchy tracker derives its /24 and /16 views from one base
    /// config.
    pub fn regroup(&self, group_by: GroupBy) -> Self {
        let mut config = self.clone();
        config.group_by = group_by;
        config
    }

    /// The estimator's target distinct-sample size `(1+ε)·s/16`
    /// (Fig. 3, step 3 / Fig. 7, step 4).
    pub fn target_sample_size(&self, epsilon: f64) -> usize {
        ceil_to_usize(((1.0 + epsilon) * f64_from_usize(self.buckets_per_table)) / 16.0)
    }

    /// Bytes used by one count signature: a 4-byte total plus three
    /// 8-byte sums (low key half, high key half, fingerprint) — 28
    /// bytes. The level's `heap_bytes` adds up the same element sizes
    /// over its slabs.
    pub fn signature_bytes() -> usize {
        BUCKET_BYTES
    }

    /// Bytes of counter storage for one fully allocated level:
    /// `r × s` signatures, held as four contiguous per-level slabs
    /// (totals, low sums, high sums, fingerprint sums) — see DESIGN.md
    /// §11.
    pub fn level_bytes(&self) -> usize {
        self.num_tables * self.buckets_per_table * Self::signature_bytes()
    }
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`SketchConfig`].
///
/// All setters are optional; unset parameters take the paper defaults.
#[derive(Debug, Clone)]
pub struct SketchConfigBuilder {
    num_tables: usize,
    buckets_per_table: usize,
    max_levels: u32,
    seed: u64,
    group_by: GroupBy,
}

impl SketchConfigBuilder {
    /// Creates a builder with the paper's defaults (`r = 3`, `s = 128`,
    /// 64 levels, seed 0, grouped by destination).
    pub fn new() -> Self {
        let defaults = SketchConfig::paper_default();
        Self {
            num_tables: defaults.num_tables,
            buckets_per_table: defaults.buckets_per_table,
            max_levels: defaults.max_levels,
            seed: defaults.seed,
            group_by: defaults.group_by,
        }
    }

    /// Sets `r`, the number of second-level hash tables.
    pub fn num_tables(&mut self, r: usize) -> &mut Self {
        self.num_tables = r;
        self
    }

    /// Sets `s`, the number of buckets per second-level table.
    pub fn buckets_per_table(&mut self, s: usize) -> &mut Self {
        self.buckets_per_table = s;
        self
    }

    /// Sets the number of first-level geometric buckets (max 64).
    pub fn max_levels(&mut self, levels: u32) -> &mut Self {
        self.max_levels = levels;
        self
    }

    /// Sets the root seed for hash-function derivation.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the grouping orientation (destination for DDoS detection,
    /// source for port-scan detection).
    pub fn group_by(&mut self, group_by: GroupBy) -> &mut Self {
        self.group_by = group_by;
        self
    }

    /// Validates the parameters and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::InvalidConfig`] if `num_tables` is zero,
    /// `buckets_per_table < 2`, or `max_levels` is outside `1..=64`.
    pub fn build(&self) -> Result<SketchConfig, SketchError> {
        if self.num_tables == 0 {
            return Err(SketchError::InvalidConfig {
                parameter: "num_tables",
                reason: "must be at least 1".into(),
            });
        }
        if self.buckets_per_table < 2 {
            return Err(SketchError::InvalidConfig {
                parameter: "buckets_per_table",
                reason: format!("must be at least 2, got {}", self.buckets_per_table),
            });
        }
        if !(1..=64).contains(&self.max_levels) {
            return Err(SketchError::InvalidConfig {
                parameter: "max_levels",
                reason: format!("must be in 1..=64, got {}", self.max_levels),
            });
        }
        Ok(SketchConfig {
            num_tables: self.num_tables,
            buckets_per_table: self.buckets_per_table,
            max_levels: self.max_levels,
            seed: self.seed,
            group_by: self.group_by,
        })
    }
}

impl Default for SketchConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_6_1() {
        let c = SketchConfig::paper_default();
        assert_eq!(c.num_tables(), 3);
        assert_eq!(c.buckets_per_table(), 128);
        assert_eq!(c.max_levels(), 64);
        assert_eq!(c.group_by(), GroupBy::Destination);
    }

    #[test]
    fn signature_bytes_is_a_total_and_three_sums() {
        // A 4-byte total plus 8-byte low-half, high-half and
        // fingerprint sums: 4 + 3·8 = 28 bytes (the paper's 65
        // four-byte counters took 260).
        assert_eq!(SketchConfig::signature_bytes(), 28);
    }

    #[test]
    fn builder_validates_each_parameter() {
        assert!(SketchConfig::builder().num_tables(0).build().is_err());
        assert!(SketchConfig::builder()
            .buckets_per_table(1)
            .build()
            .is_err());
        assert!(SketchConfig::builder().max_levels(0).build().is_err());
        assert!(SketchConfig::builder().max_levels(65).build().is_err());
        assert!(SketchConfig::builder().max_levels(64).build().is_ok());
    }

    #[test]
    fn for_guarantees_validates_inputs() {
        assert!(SketchConfig::for_guarantees(0.5, 0.1, 1000, 10.0).is_err());
        assert!(SketchConfig::for_guarantees(0.0, 0.1, 1000, 10.0).is_err());
        assert!(SketchConfig::for_guarantees(0.2, 0.0, 1000, 10.0).is_err());
        assert!(SketchConfig::for_guarantees(0.2, 1.5, 1000, 10.0).is_err());
        assert!(SketchConfig::for_guarantees(0.2, 0.1, 1000, 0.5).is_err());
    }

    #[test]
    fn for_guarantees_grows_with_tighter_epsilon() {
        let loose = SketchConfig::for_guarantees(0.3, 0.1, 1_000_000, 10.0).unwrap();
        let tight = SketchConfig::for_guarantees(0.05, 0.1, 1_000_000, 10.0).unwrap();
        assert!(tight.buckets_per_table() > loose.buckets_per_table());
    }

    #[test]
    fn for_guarantees_grows_with_stream_length() {
        let short = SketchConfig::for_guarantees(0.2, 0.1, 1_000, 10.0).unwrap();
        let long = SketchConfig::for_guarantees(0.2, 0.1, 1_000_000_000, 10.0).unwrap();
        assert!(long.num_tables() >= short.num_tables());
    }

    #[test]
    fn target_sample_size_is_scaled_s_over_16() {
        let c = SketchConfig::paper_default();
        // (1 + 0.25) * 128 / 16 = 10.
        assert_eq!(c.target_sample_size(0.25), 10);
        // (1 + 0) * 128 / 16 = 8.
        assert_eq!(c.target_sample_size(0.0), 8);
    }

    #[test]
    fn level_bytes_scales_with_shape() {
        let small = SketchConfig::builder()
            .num_tables(1)
            .buckets_per_table(2)
            .build()
            .unwrap();
        assert_eq!(small.level_bytes(), 2 * SketchConfig::signature_bytes());
        let paper = SketchConfig::paper_default();
        assert_eq!(paper.level_bytes(), 3 * 128 * 28);
    }
}
