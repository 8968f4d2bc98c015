#![warn(missing_docs)]

//! Analysis utilities for the MLP-aware replacement study.
//!
//! * [`hist`] — the 60-cycle-binned `mlp-cost` histograms of the paper's
//!   Figures 2 and 5,
//! * [`delta`] — the successive-miss cost-delta predictability analysis of
//!   Table 1,
//! * [`sampling`] — the analytical leader-set sampling model of §6.3
//!   (Eqs. 3–5, Fig. 8),
//! * [`stats`] — mean/sd/CI summaries for multi-seed robustness runs,
//! * [`table`] — plain-text table rendering for the experiment reports,
//! * [`util`] — small numeric helpers (percent improvement, means).

pub mod delta;
pub mod ephist;
pub mod hist;
pub mod sampling;
pub mod stats;
pub mod table;
pub mod util;

pub use delta::{DeltaStats, DeltaTracker};
pub use ephist::EpisodeHistogram;
pub use hist::CostHistogram;
pub use sampling::p_best;
pub use table::Table;
