//! Quantization of `mlp-cost` into the 3-bit `cost_q` (paper Fig. 3b).
//!
//! "In a real implementation, to limit storage, the value of mlp-cost can
//! be quantized to a few bits … It converts the value of mlp-cost into a
//! 3-bit quantized value" (§5). The intervals are 60 cycles wide:
//!
//! | mlp-cost (cycles) | cost_q |
//! |---|---|
//! | 0–59    | 0 |
//! | 60–119  | 1 |
//! | 120–179 | 2 |
//! | 180–239 | 3 |
//! | 240–299 | 4 |
//! | 300–359 | 5 |
//! | 360–419 | 6 |
//! | 420+    | 7 |

use mlpsim_cache::meta::{CostQ, COST_Q_MAX};

/// Width of one quantization interval in cycles (Fig. 3b).
pub const COST_Q_INTERVAL_CYCLES: f64 = 60.0;

/// Integer twin of [`COST_Q_INTERVAL_CYCLES`] for exact label arithmetic.
pub const COST_Q_INTERVAL_CYCLES_INT: u32 = 60;

/// Quantizes an `mlp-cost` value (in cycles) into the 3-bit `cost_q`.
///
/// Negative inputs (which cannot arise from Algorithm 1 but might from
/// user code) quantize to 0.
///
/// # Example
///
/// ```
/// use mlpsim_core::quant::quantize;
/// assert_eq!(quantize(0.0), 0);
/// assert_eq!(quantize(59.9), 0);
/// assert_eq!(quantize(60.0), 1);
/// assert_eq!(quantize(444.0), 7); // an isolated miss
/// ```
#[inline]
pub fn quantize(mlp_cost_cycles: f64) -> CostQ {
    if mlp_cost_cycles <= 0.0 {
        return 0;
    }
    let bucket = crate::convert::trunc_u64(mlp_cost_cycles / COST_Q_INTERVAL_CYCLES);
    let q = CostQ::try_from(bucket.min(u64::from(COST_Q_MAX)))
        .expect("min with COST_Q_MAX (7) always fits in the 3-bit CostQ");
    debug_assert!(q <= COST_Q_MAX, "cost_q is a 3-bit value");
    q
}

/// The inclusive-exclusive cycle range `[lo, hi)` covered by a `cost_q`
/// value; the top bucket is open-ended (`hi` = `f64::INFINITY`).
///
/// # Panics
///
/// Panics if `cost_q > 7`.
pub fn bucket_range(cost_q: CostQ) -> (f64, f64) {
    assert!(cost_q <= COST_Q_MAX, "cost_q is a 3-bit value");
    let lo = f64::from(cost_q) * COST_Q_INTERVAL_CYCLES;
    let hi = if cost_q == COST_Q_MAX {
        f64::INFINITY
    } else {
        lo + COST_Q_INTERVAL_CYCLES
    };
    (lo, hi)
}

/// Human-readable label for a `cost_q` bucket, as used on the x-axis of the
/// paper's Figures 2 and 5 ("0", "60", …, "420").
///
/// # Panics
///
/// Panics if `cost_q > 7`.
pub fn bucket_label(cost_q: CostQ) -> String {
    assert!(cost_q <= COST_Q_MAX, "cost_q is a 3-bit value");
    // cost_q <= 7 (asserted above) and the interval is 60: at most 420.
    let lo = u32::from(cost_q) * COST_Q_INTERVAL_CYCLES_INT;
    if cost_q == COST_Q_MAX {
        format!("{lo}+")
    } else {
        format!("{lo}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_figure_3b_intervals() {
        let cases = [
            (0.0, 0),
            (59.999, 0),
            (60.0, 1),
            (119.0, 1),
            (120.0, 2),
            (180.0, 3),
            (240.0, 4),
            (300.0, 5),
            (360.0, 6),
            (419.9, 6),
            (420.0, 7),
            (444.0, 7),
            (10_000.0, 7),
        ];
        for (cycles, expect) in cases {
            assert_eq!(quantize(cycles), expect, "quantize({cycles})");
        }
    }

    #[test]
    fn negative_and_zero_quantize_to_zero() {
        assert_eq!(quantize(-1.0), 0);
        assert_eq!(quantize(0.0), 0);
    }

    #[test]
    fn bucket_ranges_tile_the_axis() {
        for q in 0..7u8 {
            let (lo, hi) = bucket_range(q);
            let (next_lo, _) = bucket_range(q + 1);
            assert_eq!(hi, next_lo);
            assert_eq!(quantize(lo), q);
            assert_eq!(quantize(hi - 0.001), q);
        }
        let (lo, hi) = bucket_range(7);
        assert_eq!(lo, 420.0);
        assert!(hi.is_infinite());
    }

    #[test]
    fn labels_match_axis_of_figure2() {
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(3), "180");
        assert_eq!(bucket_label(7), "420+");
    }

    #[test]
    #[should_panic(expected = "3-bit")]
    fn bucket_range_rejects_wide_values() {
        let _ = bucket_range(8);
    }

    #[test]
    fn integer_interval_twin_stays_consistent() {
        assert_eq!(
            f64::from(COST_Q_INTERVAL_CYCLES_INT),
            COST_Q_INTERVAL_CYCLES
        );
    }
}
