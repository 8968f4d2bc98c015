#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Deterministic parallel execution for simulation sweeps.
//!
//! The experiment layer evaluates a matrix of benchmarks × policies; every
//! cell is an independent, CPU-bound, deterministic simulation. This crate
//! provides the one primitive that parallelizes such a matrix **without
//! changing any observable output**: a hand-rolled worker pool
//! ([`WorkerPool`]) whose [`WorkerPool::map_ordered`] returns results in
//! *submission* order regardless of completion order.
//!
//! Hand-rolled (`std::thread` + `std::sync::mpsc`) rather than a rayon
//! dependency because the build is offline with vendored deps only — and
//! because the whole contract fits in a page: jobs go in ordered, results
//! come out ordered, a panicking job panics the caller.
//!
//! The worker count defaults to [`std::thread::available_parallelism`],
//! overridable with the `MLPSIM_JOBS` environment variable or the
//! `mlpsim` experiments' `--jobs N` flag (see [`default_jobs`]).

pub mod pool;

pub use pool::{
    default_jobs, jobs_from_var, CancelToken, Cancelled, SpanHook, WorkerPool, JOBS_ENV,
};
