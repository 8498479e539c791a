//! # The analysis, mapped to this implementation
//!
//! The paper states its lemmas without proof (they live in a Bell Labs
//! technical memo). This module is documentation-only: it restates each
//! analytical claim, sketches why it holds, and points at the code and
//! tests that embody or empirically verify it.
//!
//! ## Setting
//!
//! `U` distinct source-destination pairs with positive net frequency;
//! a first-level hash sends each pair to level `l` with probability
//! `2^-(l+1)` ([`dcs_hash::GeometricLevelHash`]); each level holds `r`
//! independent tables of `s` buckets with count signatures
//! ([`crate::signature::CountSignature`]: a total and three sums).
//!
//! ## Why approximate at all (the lower bound)
//!
//! §2 cites Alon–Matias–Szegedy: tracking the most frequent element of
//! an insert-only stream to constant relative error with constant
//! probability requires `Ω(m)` space. Exact top-k distinct-frequency
//! tracking is therefore off the table in sublinear space; the
//! `TRACKAPPROXTOPK` relaxation (only destinations with
//! `f_v ≥ (1−ε)·f_vk` are output, frequencies `(ε, δ)`-approximated)
//! is what the sketch solves. The exact brute-force comparison lives in
//! `dcs-baselines`' `ExactDistinctTracker`, whose `Θ(U)` memory the
//! `table_space` experiment measures against the sketch's
//! `Θ(log U)`-level footprint.
//!
//! ## Singleton decode soundness
//!
//! *Claim.* On well-formed streams, a bucket holding exactly one
//! distinct pair with positive net count always decodes as that pair;
//! a bucket holding two or more decodes as a singleton only on a
//! 64-bit fingerprint collision (probability ≈ 2⁻⁶⁴ per check).
//!
//! *Why.* Let the bucket hold pairs `p₁ … p_j` with net counts
//! `c₁ … c_j > 0` and total `T = Σcᵢ`. Its half sums are
//! `Σ cᵢ·lo32(pᵢ)` and `Σ cᵢ·hi32(pᵢ)`, exact below 2⁶³. If `j = 1`
//! both divide by `T` into the pair's halves and the fingerprint sum is
//! `T·fingerprint64(p₁)`. If `j ≥ 2`, a candidate whose halves divide
//! exactly must still satisfy `Σ cᵢ·fingerprint64(pᵢ) =
//! T·fingerprint64(candidate)`, which the nonlinear mix makes a
//! 2⁻⁶⁴ event. The paper's bit-counter decode is deterministic here
//! instead (two resident pairs differ in a bit whose counter lies
//! strictly between 0 and `T`); DESIGN.md §2 records the trade.
//! Negative net counts (ill-formed streams) break the argument, so a
//! negative total or a zero total with residue decodes to a collision,
//! pinned by
//! `signature::tests::ill_formed_states_decode_to_collision_and_are_flagged`.
//!
//! *Code.* [`crate::signature::CountSignature::decode`]. *Tests.* The
//! `signature` unit tests; `tests/signature_differential.rs` (against
//! the paper's 65-counter decode); `tests/properties.rs`
//! (delete-resilience).
//!
//! ## Delete-resilience (§3)
//!
//! *Claim.* The sketch after a stream equals the sketch after the same
//! stream with every insert-then-deleted pair removed.
//!
//! *Why.* Every word of a signature is a linear functional of the
//! stream (a sum of ±1, ±half-key or ±fingerprint contributions);
//! contributions of cancelled updates cancel.
//!
//! *Code.* [`crate::signature::CountSignature::apply`] (the only write
//! path). *Tests.* `sketch::tests::deletes_cancel_inserts_exactly`,
//! `tests/properties.rs::deleted_pairs_leave_no_trace`. The same
//! linearity yields [`crate::DistinctCountSketch::merge_from`] and
//! [`crate::DistinctCountSketch::difference`].
//!
//! ## Lemma 4.1 — full recovery below half load
//!
//! *Claim.* If at most `s/2` pairs map to levels `≥ b` and
//! `r = Θ(log(n/δ))`, every such pair is decodable somewhere w.h.p.
//!
//! *Why.* With ≤ `s/2` occupants, a given pair shares its bucket with
//! no one with probability ≥ `(1−1/s)^{s/2−1} ≥ 1/2` per table;
//! missing in all `r` independent tables has probability ≤ `2^-r`;
//! union bound over `n` pairs gives `n·2^-r ≤ δ` at
//! `r = log₂(n/δ)`.
//!
//! *Tests.* `tests/lemmas.rs::lemma_4_1_full_recovery_below_half_load`
//! (measured at the prescribed `r`; the note there explains why the
//! experimental default `r = 3` deliberately under-provisions this).
//!
//! ## Lemma 4.2 — the stopping band
//!
//! *Claim.* The estimator's stopping level `b` (first level, walking
//! down, where the cumulative sample reaches `(1+ε)s/16`) satisfies
//! `U/2^b ∈ [s/16, s/4]` w.h.p., so the sample is fully recovered
//! (by 4.1, since `s/4 < s/2`) *and* big enough for concentration.
//!
//! *Why.* `u_b`, the number of pairs at levels ≥ b, has mean `U/2^b`
//! (geometric series) and is a sum of independent indicators, so
//! Chernoff bounds confine it to `(1±ε)U/2^b` once `U/2^b` exceeds
//! `Θ(log(1/δ)/ε²)` — which `s ≥ 16·log((log m)/δ)/ε²` ensures inside
//! the band.
//!
//! *Code.* The stopping loop in
//! [`crate::DistinctCountSketch::distinct_sample`] and
//! `TrackingDcs::select_level`. *Tests.*
//! `tests/lemmas.rs::lemma_4_2_stopping_band`,
//! `geometric_mass_identity`.
//!
//! ## Lemma 4.3 / Theorem 4.4 — estimate concentration
//!
//! *Claim.* Each reported frequency satisfies
//! `|f̂_v − f_v| ≤ ε·max(f_v, f_vk)` w.h.p., given
//! `s = Θ(U·log(·)/(f_vk ε²))`.
//!
//! *Why.* `f_v^s`, the destination's sample count, is Binomial
//! (`f_v` trials at rate `2^-b`) with mean `f_v/2^b ≥ f_v·s/(16U)`;
//! the `s` bound pushes that mean to `Θ(log(·)/ε²)·f_v/f_vk`, where
//! Chernoff gives relative error `ε·√(f_vk/f_v)`.
//!
//! *Code.* scaling in [`crate::estimator`]. *Tests.*
//! `tests/lemmas.rs::{lemma_4_3_error_scales_with_sample_size,
//! theorem_4_4_clause_1_no_small_impostors}`, the Fig. 8 harness.
//!
//! ## A note on the scale factor
//!
//! The paper's pseudocode decrements `b` past the last included level
//! and then scales by `2^b`; the inclusion probability of the sample it
//! built is `2^-(b+1)`, so we scale by `2^B` with `B` the lowest level
//! actually included. `estimator`'s module docs and
//! `sketch::tests::scale_factor_is_inclusion_probability_inverse`
//! carry the details.
//!
//! ## Update/query complexity (Table 2)
//!
//! | operation | cost | where |
//! |---|---|---|
//! | Basic update | `O(r·log m)` counter ops | [`crate::DistinctCountSketch::update`] |
//! | Tracking update | `O(r·log² m)` (adds decode + `≤ b+1` heap adjusts) | [`crate::TrackingDcs::update`] |
//! | `BaseTopk` query | `O(r·s·log² m)` scan | [`crate::DistinctCountSketch::estimate_top_k`] |
//! | `TrackTopk` query | `O(k·log m)` heap reads | [`crate::TrackingDcs::track_top_k`] |
//!
//! Validated empirically by the `table2_space_time` and
//! `fig9_mixed_workload` experiment binaries (see EXPERIMENTS.md).
