//! Checked and guarded numeric conversions for sketch code.
//!
//! The repo-native linter (`cargo run -p dcs-analysis -- lint`, lint L2)
//! forbids bare `as` casts in `crates/core` and `crates/hash`: a silently
//! truncating cast on a counter, bucket index, or packed key corrupts the
//! 67-counter signature layout without any test noticing until a merge or
//! decode disagrees. Every conversion the sketch needs is instead funneled
//! through this module, where each helper is either
//!
//! * **infallible by construction** (widening guarded by a compile-time
//!   width assertion),
//! * **checked** (panics with a descriptive message on a value that cannot
//!   be represented — a bug, not a data condition), or
//! * **explicitly lossy** (truncation/rounding helpers whose names say so).
//!
//! This file itself is the single linter-exempt location allowed to spell
//! `as`.

// The sketch assumes a platform where `usize` is at least 32 and at most
// 64 bits wide; every guarded widening below leans on these two facts.
const _: () = assert!(usize::BITS >= u32::BITS, "usize must hold any u32");
const _: () = assert!(u64::BITS >= usize::BITS, "u64 must hold any usize");

/// Widens a `u32` to `usize`. Infallible: the compile-time guard above
/// rejects platforms narrower than 32 bits.
#[inline]
#[must_use]
pub const fn usize_from_u32(v: u32) -> usize {
    v as usize
}

/// Widens a `usize` to `u64`. Infallible: the compile-time guard above
/// rejects platforms wider than 64 bits.
#[inline]
#[must_use]
pub const fn u64_from_usize(v: usize) -> u64 {
    v as u64
}

/// Narrows a `u64` to `usize`.
///
/// # Panics
///
/// Panics if `v` exceeds `usize::MAX` (impossible on 64-bit targets; on
/// narrower targets it flags a bucket count that cannot be addressed).
#[inline]
#[must_use]
pub fn usize_from_u64(v: u64) -> usize {
    match usize::try_from(v) {
        Ok(v) => v,
        Err(_) => panic!("value {v} does not fit in usize"),
    }
}

/// Narrows a `u32` to `i32`.
///
/// # Panics
///
/// Panics if `v` exceeds `i32::MAX`.
#[inline]
#[must_use]
pub fn i32_from_u32(v: u32) -> i32 {
    match i32::try_from(v) {
        Ok(v) => v,
        Err(_) => panic!("value {v} does not fit in i32"),
    }
}

/// Narrows an `i64` to `i32`, or `None` when `v` lies outside `i32` —
/// the checked way in for the sketch's 4-byte counters, which travel
/// as 8-byte words in checkpoints. Fallible rather than panicking: an
/// out-of-range counter in a decoded file is a data condition (the
/// caller refuses the file), never a reason to wrap it silently.
#[inline]
#[must_use]
pub fn i32_from_i64(v: i64) -> Option<i32> {
    i32::try_from(v).ok()
}

/// Narrows a `usize` to `u32` — the level/index narrowing path in state
/// capture and telemetry (indices there are bounded by `max_levels ≤
/// 64`, so a failure is a logic error, never a data condition).
///
/// # Panics
///
/// Panics if `v` exceeds `u32::MAX`; the former call sites silently
/// clamped with `unwrap_or(u32::MAX)`, which would mislabel a level in
/// the captured state instead of surfacing the bug.
#[inline]
#[must_use]
pub fn u32_from_usize(v: usize) -> u32 {
    match u32::try_from(v) {
        Ok(v) => v,
        Err(_) => panic!("index {v} does not fit in u32"),
    }
}

/// Reinterprets a non-negative `i64` count as `u64`.
///
/// # Panics
///
/// Panics if `v` is negative — net counts handed to this helper have
/// already been screened positive, so a negative here is a logic error.
#[inline]
#[must_use]
pub fn u64_from_i64(v: i64) -> u64 {
    match u64::try_from(v) {
        Ok(v) => v,
        Err(_) => panic!("negative count {v} cannot widen to u64"),
    }
}

/// An `i64` reduced mod 2³² into `i32` — explicitly lossy: the step a
/// net change of `n` makes to a wrapping 4-byte counter, which `n`
/// steps of `±1` would make too.
#[inline]
#[must_use]
pub const fn wrapping_i32_from_i64(v: i64) -> i32 {
    v as i32
}

/// An `i64` reduced mod 2⁶⁴ into `u64` (its two's-complement bits): the
/// multiplier of a net change in a wrapping `u64` sum.
#[inline]
#[must_use]
pub const fn wrapping_u64_from_i64(v: i64) -> u64 {
    v as u64
}

/// A `u64`'s bits read as two's-complement `i64`: the inverse of
/// [`wrapping_u64_from_i64`].
#[inline]
#[must_use]
pub const fn wrapping_i64_from_u64(v: u64) -> i64 {
    v as i64
}

/// The low 32 bits of a packed 64-bit pair — explicitly lossy.
#[inline]
#[must_use]
pub const fn low_u32(v: u64) -> u32 {
    (v & 0xffff_ffff) as u32
}

/// The high 32 bits of a packed 64-bit pair — explicitly lossy.
#[inline]
#[must_use]
pub const fn high_u32(v: u64) -> u32 {
    (v >> 32) as u32
}

/// Approximates a `usize` as `f64` for error-bound arithmetic.
/// Explicitly lossy above 2⁵³ (irrelevant for bucket/level counts).
#[inline]
#[must_use]
pub fn f64_from_usize(v: usize) -> f64 {
    v as f64
}

/// Approximates a `u64` as `f64` for error-bound arithmetic.
/// Explicitly lossy above 2⁵³.
#[inline]
#[must_use]
pub fn f64_from_u64(v: u64) -> f64 {
    v as f64
}

/// Rounds `v` up and converts it to `usize` — the sizing path from the
/// paper's real-valued space bounds to concrete table dimensions.
///
/// # Panics
///
/// Panics if `v` is NaN, negative, or too large for `usize`; sketch
/// sizing formulas never produce such values, so any of them is a bug.
#[inline]
#[must_use]
pub fn ceil_to_usize(v: f64) -> usize {
    let c = v.ceil();
    assert!(
        c.is_finite() && c >= 0.0 && c <= f64_from_u64(u64::MAX),
        "cannot size a table from {v}"
    );
    usize_from_u64(c as u64)
}

/// Lemire's multiply-high reduction of a 64-bit hash into `[0, range)`.
///
/// Preserves uniformity up to negligible bias for ranges ≪ 2⁶⁴ without a
/// modulo. The truncating shift-down is exact: `(hash · range) >> 64` is
/// strictly less than `range`, so it always fits back in `usize`.
///
/// # Panics
///
/// Panics if `range` is zero.
#[inline]
#[must_use]
pub fn lemire_index(hash: u64, range: usize) -> usize {
    assert!(range > 0, "hash range must be non-zero");
    let wide = u128::from(hash) * u128::from(u64_from_usize(range));
    (wide >> 64) as usize
}

/// [`lemire_index`] specialized to ranges that fit in `u32` (every
/// realistic table size), computed without a 128-bit multiply.
///
/// Exact half-word decomposition of `(hash · range) >> 64`: with
/// `hash = hi·2³² + lo`,
///
/// ```text
/// (hash · range) >> 64 = (hi·range + ((lo·range) >> 32)) >> 32
/// ```
///
/// — the standard radix-2³² long-division identity, exact for every
/// input (both partial products fit `u64`: each multiplies two values
/// below 2³²). The payoff is vectorizability: 32×32→64 multiplies
/// lower to `vpmuludq`, whereas the 64×64→high-64 multiply of the
/// `u128` form has no vector instruction at all. Bit-identical to
/// `lemire_index(hash, range)` for all inputs; a property test pins
/// the equivalence.
///
/// # Panics
///
/// Panics if `range` is zero.
#[inline]
#[must_use]
pub fn lemire_index_narrow(hash: u64, range: u32) -> usize {
    assert!(range > 0, "hash range must be non-zero");
    let r = u64::from(range);
    let hi = hash >> 32;
    let lo = hash & 0xffff_ffff;
    usize_from_u64((hi * r + ((lo * r) >> 32)) >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_round_trips() {
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX.try_into().unwrap());
        assert_eq!(u64_from_usize(17), 17);
        assert_eq!(usize_from_u64(42), 42);
        assert_eq!(u64_from_i64(7), 7);
        assert_eq!(i32_from_u32(63), 63);
        assert_eq!(i32_from_i64(-(1 << 31)), Some(i32::MIN));
        assert_eq!(i32_from_i64((1 << 31) - 1), Some(i32::MAX));
        assert_eq!(i32_from_i64(1 << 31), None);
        assert_eq!(i32_from_i64(-(1 << 31) - 1), None);
        assert_eq!(u32_from_usize(63), 63);
        assert_eq!(u32_from_usize(usize_from_u32(u32::MAX)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn oversized_index_panics() {
        let _ = u32_from_usize(usize_from_u64(u64::from(u32::MAX) + 1));
    }

    #[test]
    #[should_panic(expected = "negative count")]
    fn negative_count_panics() {
        let _ = u64_from_i64(-1);
    }

    #[test]
    fn halves_partition_the_word() {
        let v = 0xdead_beef_cafe_f00du64;
        assert_eq!(low_u32(v), 0xcafe_f00d);
        assert_eq!(high_u32(v), 0xdead_beef);
        assert_eq!(u64::from(high_u32(v)) << 32 | u64::from(low_u32(v)), v);
    }

    #[test]
    fn ceil_to_usize_rounds_up() {
        assert_eq!(ceil_to_usize(0.0), 0);
        assert_eq!(ceil_to_usize(2.1), 3);
        assert_eq!(ceil_to_usize(5.0), 5);
    }

    #[test]
    #[should_panic(expected = "cannot size a table")]
    fn ceil_to_usize_rejects_nan() {
        let _ = ceil_to_usize(f64::NAN);
    }

    #[test]
    fn lemire_index_stays_in_range() {
        for hash in [0, 1, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            for range in [1usize, 2, 7, 128, 1 << 20] {
                assert!(lemire_index(hash, range) < range);
            }
        }
        assert_eq!(lemire_index(u64::MAX, 128), 127);
    }

    #[test]
    fn lemire_index_narrow_matches_wide_form() {
        // The half-word decomposition must be bit-identical to the
        // u128 multiply for every (hash, range) — probe word
        // boundaries, adversarial bit patterns, and a dense sweep.
        let mut hashes: Vec<u64> = vec![
            0,
            1,
            u64::MAX,
            u64::MAX - 1,
            1 << 32,
            (1 << 32) - 1,
            (1 << 32) + 1,
            0x9e37_79b9_7f4a_7c15,
            0xffff_ffff_0000_0000,
            0x0000_0000_ffff_ffff,
        ];
        hashes.extend((0..4096u64).map(|k| k.wrapping_mul(0x2545_f491_4f6c_dd1d)));
        let ranges = [1u32, 2, 3, 7, 64, 128, 2048, 65_537, u32::MAX - 1, u32::MAX];
        for &h in &hashes {
            for &r in &ranges {
                assert_eq!(
                    lemire_index_narrow(h, r),
                    lemire_index(h, usize_from_u32(r)),
                    "hash {h:#x} range {r}"
                );
            }
        }
    }
}
