#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

//! Memory-system substrate: MSHR, DRAM banks, split-transaction bus.
//!
//! This crate models everything below the L2 cache in the paper's baseline
//! machine (Table 2):
//!
//! * a 32-entry Miss Status Holding Register file ([`mshr`]) with miss
//!   merging and a per-entry `mlp_cost` accumulator field — the storage the
//!   paper's Algorithm 1 adds,
//! * 32 DRAM banks with a 400-cycle access latency and bank-conflict
//!   queueing ([`dram`]),
//! * a 16-byte-wide split-transaction bus at a 4:1 frequency ratio modeled
//!   as a 44-cycle unloaded delay with 16 cycles of occupancy per line
//!   transfer ([`bus`]),
//! * a [`controller`] tying them together: an isolated miss completes in
//!   exactly 400 + 44 = 444 cycles, the number the paper quotes throughout.
//!
//! The MLP-based *interpretation* of the `mlp_cost` field lives in
//! `mlpsim-core`; this crate only provides the architectural state.

/// Model-checking assertion for the MSHR bookkeeping invariants (live and
/// demand-live counters match a recount of the slots, `mlp_cost` stays
/// finite and non-negative). Compiled to a real `assert!` only under the
/// `invariants` feature; a no-op (zero cost, in release and debug alike)
/// otherwise. See DESIGN.md §10.
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

pub mod bus;
pub mod config;
pub mod controller;
pub mod dram;
pub mod mshr;

pub use config::MemConfig;
pub use controller::{MemStats, MemorySystem};
pub use mshr::{Mshr, MshrEntry, MshrFull, MshrId};
