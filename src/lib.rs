//! # mlpsim — MLP-Aware Cache Replacement, reproduced
//!
//! A from-scratch Rust reproduction of *"A Case for MLP-Aware Cache
//! Replacement"* (Qureshi, Lynch, Mutlu, Patt — ISCA 2006 /
//! TR-HPS-2006-3), including every substrate the paper's evaluation needs:
//! a trace-driven out-of-order timing model, a two-level cache hierarchy,
//! an MSHR/DRAM/bus memory system, the run-time MLP-based cost
//! computation, the LIN replacement policy, and the SBAR/CBS hybrid
//! replacement mechanisms.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`cache`] — set-associative tag stores, the replacement-engine
//!   framework, and the LRU / FIFO / Random / Belady-OPT baselines.
//! * [`mem`] — the MSHR (with MLP-cost accumulation hooks), DRAM banks,
//!   bus, and memory controller.
//! * [`core`] — the paper's contribution: the cost-calculation logic
//!   (Algorithm 1), cost quantization, LIN, PSEL, leader-set selection,
//!   SBAR and CBS.
//! * [`cpu`] — the out-of-order window model and the full [`System`]
//!   wiring.
//! * [`trace`] — trace records and the synthetic SPEC-CPU2000-like
//!   workload generators.
//! * [`analysis`] — histograms, delta analysis, the binomial leader-set
//!   sampling model, and table rendering.
//! * [`telemetry`] — the sink handle: typed events, counter
//!   registry, and NDJSON event streams (see the README's
//!   "Observability" section).
//!
//! # Quickstart
//!
//! ```
//! use mlpsim::cpu::{PolicyKind, System, SystemConfig};
//! use mlpsim::trace::spec::SpecBench;
//!
//! // Simulate a small slice of the mcf-like workload under LRU and LIN.
//! let trace = SpecBench::Mcf.generate(20_000, 42);
//! let lru = System::new(SystemConfig::baseline(PolicyKind::Lru)).run(trace.iter());
//! let lin = System::new(SystemConfig::baseline(PolicyKind::lin4())).run(trace.iter());
//! assert!(lin.ipc() > 0.0 && lru.ipc() > 0.0);
//! ```
//!
//! [`System`]: cpu::system::System

pub use mlpsim_analysis as analysis;
pub use mlpsim_cache as cache;
pub use mlpsim_core as core;
pub use mlpsim_cpu as cpu;
pub use mlpsim_mem as mem;
pub use mlpsim_telemetry as telemetry;
pub use mlpsim_trace as trace;
