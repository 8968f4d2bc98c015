#![warn(missing_docs)]
#![warn(clippy::as_conversions, clippy::cast_possible_truncation)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::as_conversions,
        clippy::cast_possible_truncation
    )
)]
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

//! MLP-aware cache replacement — the paper's contribution.
//!
//! This crate implements the mechanisms proposed in *"A Case for MLP-Aware
//! Cache Replacement"* (Qureshi, Lynch, Mutlu, Patt — ISCA 2006):
//!
//! * [`ccl`] — the Cost Calculation Logic (Algorithm 1): every cycle, the
//!   `mlp_cost` of each demand miss in the MSHR grows by `1/N` where `N` is
//!   the number of outstanding demand misses. Implemented event-driven (add
//!   `Δcycles / N` whenever `N` changes), which is mathematically identical
//!   to the per-cycle loop; a 4-adder time-shared variant is also provided
//!   (paper footnote 3).
//! * [`quant`] — quantization of `mlp-cost` into the 3-bit `cost_q`
//!   (Fig. 3b: 60-cycle intervals, saturating at 420+).
//! * [`lin`] — the Linear (LIN) policy (Eq. 2):
//!   `Victim_LIN = argmin_i { R(i) + λ · cost_q(i) }`.
//! * [`psel`] — the saturating policy-selector counter.
//! * [`leader`] — leader-set selection: `simple-static` and `rand-dynamic`
//!   (§6.4, §6.6).
//! * [`sbar`] — Sampling Based Adaptive Replacement (Fig. 7c).
//! * [`cbs`] — Contest Based Selection, both `CBS-local` and `CBS-global`
//!   (Fig. 7a/b), used as the expensive reference points SBAR approximates.
//! * [`overhead`] — the hardware bit-budget model behind the paper's
//!   "1854 B, less than 0.2% of a 1 MB cache" claim,
//! * [`bcl`] — an alternative Cost-Aware Replacement Engine in the style
//!   of Jeong & Dubois (the paper's reference \[8\]), demonstrating that
//!   the MLP-based cost plugs into "any generic cost-sensitive scheme".

/// Model-checking assertion for the paper's numeric invariants (Algorithm
/// 1 accounting, `cost_q` range, PSEL saturation). Compiled to a real
/// `assert!` only under the `invariants` feature; a no-op (zero cost, in
/// release and debug alike) otherwise. See DESIGN.md §10.
#[cfg(feature = "invariants")]
#[macro_export]
macro_rules! invariant {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// No-op twin of the `invariants`-enabled assertion (feature disabled).
#[cfg(not(feature = "invariants"))]
#[macro_export]
macro_rules! invariant {
    ($($arg:tt)*) => {};
}

pub mod bcl;
pub mod cbs;
pub mod ccl;
pub mod convert;
pub mod leader;
pub mod lin;
pub mod overhead;
pub mod psel;
pub mod quant;
pub mod sbar;

pub use ccl::{AdderMode, Ccl};
pub use lin::LinEngine;
pub use psel::Psel;
pub use quant::{quantize, COST_Q_INTERVAL_CYCLES};
pub use sbar::SbarEngine;
