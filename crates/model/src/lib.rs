#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Analytical miss-rate models for sweep planning.
//!
//! The simulator answers "what is the miss rate of bench B under policy P
//! in geometry G" exactly, in seconds per cell. This crate answers the
//! same question *approximately, in microseconds per cell*, which is what
//! makes million-configuration studies tractable (ROADMAP item 2): score
//! the whole grid analytically, prune the cells the model says cannot
//! move the needle, and spend the simulator only on the survivors.
//!
//! Three layers:
//!
//! - [`characterize`]: a trace characterizer over dense line ids, built
//!   on an exact Mattson stack ([`stackdist`]) — reuse-distance
//!   histogram, per-set stack-distance profiles, and per-line popularity
//!   counts feeding a Zipf fit ([`zipf`]).
//! - [`estimate`]: two closed-form estimators over one characterization —
//!   the reuse-distance model with a Poisson associativity correction
//!   (after the ETH fully-associative cache model, arXiv:2001.01653) and
//!   the Fagin/Berthet working-set approximation under a fitted power-law
//!   popularity (arXiv:1705.10738). Each returns a predicted miss rate
//!   *plus a stated error band*; the cross-validation suite holds them to
//!   those bands against the real simulator.
//! - [`plan`]: the estimate → prune decision rule the sweep planner
//!   applies per matrix cell (`--plan estimate` / `--prune-margin`).
//!
//! Everything here is deterministic and fixed-iteration: no wall clock,
//! no ambient randomness, no iterate-until-converged loops (rule D2
//! covers this crate). Scoring never touches the simulator — the
//! simulated path stays byte-identical whether or not a plan ran.

pub mod characterize;
pub mod estimate;
pub mod plan;
pub mod stackdist;
pub mod zipf;
