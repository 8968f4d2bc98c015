//! Documented numeric conversions for the cost model.
//!
//! Rule D3 (`clippy::as_conversions`) bans bare `as` casts in this crate:
//! Algorithm 1's cost accumulation, the 3-bit `cost_q` quantization, and
//! the PSEL/leader-set index arithmetic all have hard numeric invariants,
//! and a silent truncation in any of them corrupts results without
//! failing a test. Every conversion the model needs is therefore spelled
//! as one of these helpers, each stating why it cannot lose information
//! on reachable inputs — and asserting so in builds with debug assertions.
//! The residual `as` casts live here, one per helper, each under an `#[expect]` that
//! carries its justification.

/// A `u64` cycle count (or byte count) as `f64`.
///
/// Exact for values below 2^53. A simulation would need to run for 2^53
/// cycles (~104 days of simulated 4 GHz time; our longest runs are ~10^8
/// cycles) or model a 9-petabyte cache before this rounds, and rounding —
/// not truncation — is the worst case.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "exact below 2^53, asserted in debug builds"
)]
pub fn cycles_f64(x: u64) -> f64 {
    debug_assert!(
        x < (1u64 << 53),
        "cycle/byte count {x} exceeds f64 mantissa"
    );
    x as f64
}

/// A `usize` entry/element count as `f64` (the `N` divisor of Algorithm 1,
/// table sizes, …). Counts are bounded by MSHR capacity, set counts, or
/// trace length — all far below 2^53, where the conversion is exact.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "exact below 2^53, asserted in debug builds"
)]
pub fn count_f64(x: usize) -> f64 {
    debug_assert!(x < (1usize << 53), "count {x} exceeds f64 mantissa");
    x as f64
}

/// Truncates a finite non-negative `f64` to `u64` — the quantization
/// step's `floor(mlp_cost / interval)`. Saturates NaN/negative to 0 and
/// +inf to `u64::MAX` (Rust's `as` semantics), which debug builds
/// reject as model-unsound before the saturation can matter.
#[inline]
#[expect(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    reason = "saturating by language semantics; the domain is asserted in debug builds"
)]
pub fn trunc_u64(x: f64) -> u64 {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "truncating unrepresentable f64 {x} (cost must be finite and non-negative)"
    );
    x as u64
}

/// Truncates a finite non-negative `f64` that provably fits in `u32`
/// (bit-width computations in the overhead model: `log2(sets).ceil()` and
/// friends — a cache would need 2^32 sets to overflow).
#[inline]
#[expect(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    reason = "saturating by language semantics; the domain is asserted in debug builds"
)]
pub fn trunc_u32(x: f64) -> u32 {
    debug_assert!(
        x.is_finite() && (0.0..=f64::from(u32::MAX)).contains(&x),
        "f64 {x} out of u32 range"
    );
    x as u32
}

/// A `u32` set/constituency index as `usize`. Exact: every supported
/// target has at least 32-bit pointers (the workspace's tag stores alone
/// rule out 16-bit hosts).
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "u32 -> usize is widening on every supported target"
)]
pub fn idx(x: u32) -> usize {
    x as usize
}

/// A `usize` index/count as `u64`. Exact on every supported target
/// (pointers are at most 64 bits).
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "usize -> u64 is widening on every supported target"
)]
pub fn idx_u64(x: usize) -> u64 {
    x as u64
}

/// A `usize` index as `u32`, for the leader-set math whose set indices
/// are architecturally 32-bit. Checked: panics (with context) if the
/// index genuinely exceeds `u32` — which means a caller built a cache
/// with more than 4 G sets and truncation would corrupt set selection.
#[inline]
pub fn idx_u32(x: usize) -> u32 {
    u32::try_from(x).expect("set/constituency index fits the architectural 32 bits")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_round_trips() {
        for v in [0u64, 1, 444, 1 << 40, (1 << 53) - 1] {
            assert_eq!(cycles_f64(v), v as f64);
            assert_eq!(trunc_u64(cycles_f64(v)), v);
        }
        assert_eq!(count_f64(32), 32.0);
        assert_eq!(idx(7), 7usize);
        assert_eq!(idx_u64(9), 9u64);
        assert_eq!(idx_u32(1024), 1024u32);
    }

    #[test]
    fn trunc_is_floor_for_positive() {
        assert_eq!(trunc_u64(7.99), 7);
        assert_eq!(trunc_u32(10.01), 10);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite")]
    fn invariants_reject_nan_cost() {
        let _ = trunc_u64(f64::NAN);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "u32 range")]
    fn invariants_reject_oversized_width() {
        let _ = trunc_u32(1e300);
    }

    #[test]
    #[should_panic(expected = "architectural")]
    fn idx_u32_rejects_wild_indices() {
        let _ = idx_u32(usize::MAX);
    }
}
