#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Telemetry for the MLP-aware cache replacement simulator.
//!
//! The paper's argument (Qureshi et al., ISCA 2006) rests on *internal*
//! dynamics — MSHR occupancy driving mlp-cost, PSEL oscillation in the
//! set-dueling engines, leader-vs-follower divergence — that end-of-run
//! aggregates cannot show. This crate makes those dynamics observable as a
//! structured event stream without taxing the simulator when observation is
//! off.
//!
//! One hook, [`SinkHandle`]: `System`, the replacement engines behind
//! `Box<dyn ReplacementEngine>`, `CacheModel` and `Mshr` all hold clones
//! of the handle a run was built with, so their events interleave in one
//! stream. A disabled handle is `None`: [`SinkHandle::emit_with`] costs
//! one null-check and never builds the event.
//!
//! Events serialize to NDJSON — one self-describing JSON object per line,
//! with a `"type"` discriminator — via a hand-rolled encoder/parser
//! ([`json`]) so the crate stays dependency-free. [`Registry`] folds an
//! event stream into monotonic counters and gauges, and [`NdjsonSink`]
//! interleaves periodic `snapshot` lines so long streams carry their own
//! running totals.

//!
//! On top of the stream sits the attribution ledger ([`attrib`]): stall
//! cycles keyed by (set, cost_q, policy), whose grand total reconciles
//! exactly with `mem_stall_cycles`. A stall span's one record is its
//! [`Event::StallSpan`]. [`traceevent`] renders MSHR slot occupancy and
//! stall spans as Chrome trace-event JSON for `chrome://tracing`/Perfetto.
//!
//! Host time has exactly one entry point, the [`prof::now_ns`] clock
//! shim; per-layer host timing of the simulator is `perfbench`'s traced
//! run.

pub mod attrib;
pub mod event;
pub mod json;
pub mod prof;
pub mod registry;
pub mod sink;
pub mod trace;
pub mod traceevent;

pub use attrib::{exact_share, LedgerKey, StallLedger};
pub use event::Event;
pub use json::Json;
pub use registry::Registry;
pub use sink::{
    read_ndjson, EventSink, FanoutSink, NdjsonSink, ServicedLog, SinkHandle, SinkProbe, VecSink,
};
pub use trace::{
    format_traceparent, parse_traceparent, CompletedTrace, FlightRecorder, SpanGuard, TraceCtx,
};
pub use traceevent::ChromeTraceSink;
