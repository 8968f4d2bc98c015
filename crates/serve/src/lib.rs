#![cfg_attr(test, allow(clippy::unwrap_used))]
#![cfg_attr(
    not(test),
    deny(
        clippy::panic,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::print_stderr
    )
)]

//! `mlpsim-serve`: the simulator as a long-running service, with zero
//! dependencies beyond the workspace.
//!
//! The `mlpsim` CLI answers one question per invocation; this crate turns
//! the same run paths into a job API so sweeps can be submitted, watched
//! live, cancelled, and — crucially — survive the server being killed:
//!
//! - [`http`] — hand-rolled HTTP/1.1 over `std::net` (requests,
//!   responses, chunked streaming; read timeouts per rule D6).
//! - [`journal`] — the append-only NDJSON write-ahead journal. Every
//!   queue transition hits disk before it takes effect, so `kill -9` at
//!   any instant loses at most one torn trailing line; recovery
//!   re-enqueues unfinished jobs in id order and re-serves completed
//!   results from their side files.
//! - [`state`] — the job table, bounded admission queue (backpressure:
//!   429 + `Retry-After` when full), per-job [`state::EventLog`] fanning
//!   live telemetry out to any number of stream readers, and the metrics
//!   registry behind `GET /metrics`.
//! - [`metrics`] — Prometheus text-exposition (0.0.4) rendering of those
//!   metrics: `mlpsim_`-prefixed counters/gauges plus power-of-two
//!   histograms of job wall time, queue wait, request latency, and
//!   event-stream backlog.
//! - [`server`] — the accept loop, route table, single-job scheduler,
//!   deadline watchdogs, and graceful drain (stop admitting, finish the
//!   in-flight job, leave queued jobs journaled for the next boot).
//! - [`client`] — the matching std-only client used by `mlpsim-client`
//!   and the end-to-end tests.
//!
//! Determinism contract: a job executes through the exact library
//! functions the `mlpsim` CLI calls ([`mlpsim_experiments::figures`]), so
//! `mlpsim-client submit` + `result` is byte-identical to running the
//! corresponding `mlpsim` subcommand directly, at any `jobs` width.

pub mod client;
pub mod http;
pub mod journal;
pub mod log;
pub mod metrics;
pub mod server;
pub mod state;

pub use journal::{JobStatus, Journal, JournalOp, Recovered};
pub use server::{Server, ServerConfig};
pub use state::{State, SubmitError};

/// Host time in nanoseconds for spans, service metrics and log
/// timestamps: the crate's one call of [`mlpsim_telemetry::prof::now_ns`].
/// Nothing in this crate builds an `Event` or a `SimResult` from it.
#[expect(
    clippy::disallowed_methods,
    reason = "D9: the service measures host time for spans, metrics and logs"
)]
pub(crate) fn host_ns() -> u64 {
    mlpsim_telemetry::prof::now_ns()
}
