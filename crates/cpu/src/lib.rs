#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

//! Trace-driven out-of-order processor timing model.
//!
//! This crate provides the timing substrate the paper's evaluation runs
//! on: an eight-wide out-of-order core with a 128-entry instruction
//! window (Table 2), wired to a two-level cache hierarchy, a 32-entry
//! MSHR with the paper's cost-calculation logic, and a banked DRAM memory
//! system.
//!
//! The model is *trace-driven*: instructions come from a
//! [`mlpsim_trace::record::Trace`] and carry no data dependences.
//! What the model does capture — faithfully — is the phenomenon the paper
//! studies: loads dispatched within one window span overlap their misses
//! (high MLP, low per-miss cost), while loads spaced a window apart
//! serialize (isolated misses, full cost). See `DESIGN.md` for the
//! substitution argument.
//!
//! * [`window`] — the instruction window (in-order retirement, 8-wide),
//! * [`attrib`] — stall-cycle attribution: full-window memory stalls are
//!   apportioned `1/N` across outstanding demand misses into a ledger
//!   keyed by (set, cost_q, policy) that reconciles exactly with
//!   `mem_stall_cycles`,
//! * [`icache`] — optional instruction-fetch modeling (I-misses are
//!   demand misses in the paper's cost accounting),
//! * [`storebuf`] — the 128-entry store buffer (store misses do not block
//!   retirement unless the buffer fills, per Table 2),
//! * [`prefetch`] — optional next-line L2 prefetching (prefetch misses
//!   are non-demand until a demand access merges, per the cost model),
//! * [`policy`] — the replacement-policy registry ([`PolicyKind`]),
//! * [`system`] — the full [`system::System`],
//! * [`stats`] — per-run results ([`stats::SimResult`]),
//! * [`timeseries`] — interval sampling for the paper's Fig. 11,
//! * [`wrongpath`] — optional synthetic wrong-path traffic (demand until
//!   confirmed wrong-path, then demoted — the paper's §3.1 rule).

pub mod attrib;
pub mod config;
pub mod icache;
pub mod policy;
pub mod prefetch;
pub mod stats;
pub mod storebuf;
pub mod system;
pub mod timeseries;
pub mod window;
pub mod wrongpath;

pub use config::{CpuConfig, SystemConfig};
pub use policy::PolicyKind;
pub use stats::SimResult;
pub use system::System;
