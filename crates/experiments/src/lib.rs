#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Experiment harness: every table and figure of the paper, the
//! extensions past it, and the diagnostic tools, as one [`registry`] run
//! by the `mlpsim` binary (`mlpsim <experiment> [flags] [args]`).
//!
//! The registry is the single list: `mlpsim` with no arguments prints it
//! with each entry's flags, and `mlpsim all` runs [`registry::EXPERIMENTS`]
//! in order. [`cli::parse`] reads a command line once, against the chosen
//! entry's flags, and rejects every other flag.
//!
//! Every sweep-shaped experiment accepts `--jobs N` (env `MLPSIM_JOBS`;
//! default: all hardware threads) and fans its benchmark × policy matrix
//! out over the [`mlpsim_exec`] worker pool. Results, tables, and
//! `--telemetry` streams are byte-identical at every job count — see
//! [`runner::run_matrix`] for the mechanism.
//!
//! The report functions live in [`figures`] (the paper's figures and
//! tables), [`extensions`] (its side claims and the experiments past it),
//! [`tools`] and [`telemetry_report`]; they share the [`runner`] and the
//! paper's reference numbers ([`paper`]).

pub mod cli;
pub mod extensions;
pub mod figures;
pub mod jobspec;
pub mod paper;
pub mod registry;
pub mod runner;
pub mod telemetry_report;
pub mod tools;

pub use runner::{run_many, run_matrix, CellSpanSink, RunOptions};
