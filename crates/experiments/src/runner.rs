//! Shared simulation driver for the experiments.
//!
//! # Parallel sweeps
//!
//! The paper's evaluation is a matrix of benchmarks × policies; every cell
//! is an independent deterministic simulation. [`run_matrix`] (and
//! [`run_many`], its one-benchmark special case) fans the cells out over a
//! [`WorkerPool`] sized by [`RunOptions::jobs`] — default
//! [`mlpsim_exec::default_jobs`] (all hardware threads, `MLPSIM_JOBS`
//! override), `--jobs N` on the command line.
//!
//! **Determinism guarantee:** a sweep's observable output — returned
//! [`SimResult`]s, printed tables, and the `--telemetry` NDJSON stream —
//! is byte-for-byte identical at every job count, including `-j1`, and
//! identical to the historical serial loop. Three mechanisms deliver this:
//! each cell simulates a [`Trace`] shared immutably via [`Arc`]; the pool
//! returns results in submission order regardless of completion order; and
//! each cell buffers its telemetry privately ([`VecSink`]) for replay into
//! the shared sink in submission order, so `run_start`/`run_end` brackets
//! never interleave mid-run.

use mlpsim_core::ccl::AdderMode;
use mlpsim_cpu::config::SystemConfig;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::stats::SimResult;
use mlpsim_cpu::system::System;
use mlpsim_exec::{CancelToken, Cancelled, SpanHook, WorkerPool};
use mlpsim_model::characterize::{profile_trace, CharacterizeConfig, TraceProfile};
use mlpsim_telemetry::{Event, EventSink, SinkHandle, SinkProbe, VecSink};
use mlpsim_trace::record::Trace;
use mlpsim_trace::spec::SpecBench;
use std::sync::{Arc, Mutex};

/// Default number of memory accesses per benchmark run. The paper
/// simulates 250 M instructions; these synthetic slices are sized so the
/// working sets wrap several times and every policy reaches steady state,
/// while keeping a full 14-benchmark sweep in seconds.
pub const DEFAULT_ACCESSES: usize = 420_000;

/// Default RNG seed for workload generation.
pub const DEFAULT_SEED: u64 = 42;

/// Observer for per-cell wall time in a matrix sweep: called as
/// `(row, col, start_ns, end_ns)` — benchmark row, policy column, and two
/// [`mlpsim_telemetry::prof::now_ns`] readings bracketing the cell's
/// simulation — on the worker thread right after each cell finishes. The
/// serving layer uses this to turn every `run(cell=i,j)` into a trace
/// span; the callback must be cheap and must not panic. Purely
/// observational: results and telemetry bytes are identical with or
/// without one.
#[derive(Clone)]
pub struct CellSpanSink(pub Arc<dyn Fn(usize, usize, u64, u64) + Send + Sync>);

impl std::fmt::Debug for CellSpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellSpanSink").finish_non_exhaustive()
    }
}

/// Options for a benchmark run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Number of memory accesses to generate.
    pub accesses: usize,
    /// Workload seed.
    pub seed: u64,
    /// Time-series sampling interval (retired instructions), if any.
    pub sample_interval: Option<u64>,
    /// CCL adder configuration (paper footnote 3).
    pub adders: AdderMode,
    /// Telemetry sink. Disabled by default; when enabled every run streams
    /// its events into the shared sink (runs from one sweep land in one
    /// file, separated by `run_start`/`run_end` markers, in sweep order
    /// even when the sweep itself runs parallel).
    pub telemetry: SinkHandle,
    /// Worker threads for [`run_many`]/[`run_matrix`] fan-out. The job
    /// count never changes results or output bytes — only wall-clock.
    pub jobs: usize,
    /// Optional per-cell wall-time observer (tracing). `None` by default;
    /// never affects results.
    pub cell_spans: Option<CellSpanSink>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            accesses: DEFAULT_ACCESSES,
            seed: DEFAULT_SEED,
            sample_interval: None,
            adders: AdderMode::PerEntry,
            telemetry: SinkHandle::disabled(),
            jobs: mlpsim_exec::default_jobs(),
            cell_spans: None,
        }
    }
}

impl RunOptions {
    /// The baseline machine under `policy`, with these options' sampling
    /// interval and CCL adders.
    fn config(&self, policy: PolicyKind) -> SystemConfig {
        let mut cfg = SystemConfig::baseline(policy);
        cfg.sample_interval = self.sample_interval;
        cfg.adders = self.adders;
        cfg
    }
}

/// Sweep-planner options (`--plan estimate`); `None` means a full sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanOptions {
    /// Prune a cell when its predicted miss-rate delta vs the incumbent
    /// is strictly below this margin (`--prune-margin`; 0 keeps every
    /// cell).
    pub margin: f64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            margin: mlpsim_model::plan::DEFAULT_PRUNE_MARGIN,
        }
    }
}

/// Generates the benchmark's trace once and runs it under each policy —
/// the one-benchmark row of [`run_matrix`], sharing its parallelism and
/// determinism guarantees.
pub fn run_many(bench: SpecBench, policies: &[PolicyKind], opts: &RunOptions) -> Vec<SimResult> {
    run_matrix(&[bench], policies, opts)
        .pop()
        .expect("one row per benchmark")
}

/// Runs the full `benches` × `policies` sweep on [`RunOptions::jobs`]
/// workers and returns one row of results per benchmark, cells in policy
/// order — exactly what the historical serial double loop returned, at a
/// fraction of the wall-clock.
///
/// Each benchmark's trace is generated once (itself fanned out across the
/// pool) and shared by its row's cells via [`Arc`]; results come back in
/// submission order; buffered per-run telemetry is replayed into
/// [`RunOptions::telemetry`] in the same bench-major, policy-minor order a
/// serial sweep would have streamed it.
pub fn run_matrix(
    benches: &[SpecBench],
    policies: &[PolicyKind],
    opts: &RunOptions,
) -> Vec<Vec<SimResult>> {
    try_run_matrix(benches, policies, opts, &CancelToken::new())
        .unwrap_or_else(|_| unreachable!("a private fresh token is never cancelled"))
}

/// [`run_matrix`] with cooperative cancellation for the serving layer:
/// `cancel` is consulted before each trace generation and each matrix
/// cell (the [`WorkerPool::try_map_ordered`] contract), so a cancelled
/// sweep stops within one cell's simulation time. Until the token fires
/// the output — results *and* replayed telemetry — is byte-identical to
/// [`run_matrix`]; once it fires, partial results are discarded and no
/// buffered telemetry is replayed (the stream never carries a half
/// sweep).
///
/// # Errors
///
/// [`Cancelled`] when the token fired before the sweep completed.
pub fn try_run_matrix(
    benches: &[SpecBench],
    policies: &[PolicyKind],
    opts: &RunOptions,
    cancel: &CancelToken,
) -> Result<Vec<Vec<SimResult>>, Cancelled> {
    let machines: Vec<SystemConfig> = policies.iter().map(|&p| opts.config(p)).collect();
    // Cells are submitted bench-major, policy-minor, so a flat submission
    // index decomposes back into (row, col) for the span observer.
    #[expect(
        clippy::disallowed_methods,
        reason = "D9: the span hook times cells in host time; spans never reach a SimResult"
    )]
    let hook = opts.cell_spans.as_ref().map(|sink| {
        let cb = Arc::clone(&sink.0);
        let ncols = policies.len().max(1);
        SpanHook {
            clock: mlpsim_telemetry::prof::now_ns,
            record: Arc::new(move |idx, t0, t1| cb(idx / ncols, idx % ncols, t0, t1)),
        }
    });
    sweep(
        &WorkerPool::new(opts.jobs),
        benches,
        (opts.accesses, opts.seed),
        &machines,
        &opts.telemetry,
        cancel,
        hook.as_ref(),
    )
}

/// Generates each bench's trace and profiles it the way the sweep
/// planner does ([`CharacterizeConfig::baseline`]), one job per bench on
/// `pool`, in bench order: the first step of both a planned sweep and an
/// estimate document.
///
/// # Errors
///
/// [`Cancelled`] when the token fired before every bench was profiled.
pub fn try_profile_benches(
    pool: &WorkerPool,
    benches: &[SpecBench],
    accesses: usize,
    seed: u64,
    cancel: &CancelToken,
) -> Result<(Vec<Arc<Trace>>, Vec<TraceProfile>), Cancelled> {
    let pairs = pool.try_map_ordered(
        benches
            .iter()
            .map(|&b| {
                move || {
                    let trace = Arc::new(b.generate(accesses, seed));
                    let profile = profile_trace(&trace, &CharacterizeConfig::baseline());
                    (trace, profile)
                }
            })
            .collect(),
        cancel,
    )?;
    Ok(pairs.into_iter().unzip())
}

/// Runs a ragged list of cells — `(trace index, policy)` pairs over
/// pre-generated shared traces — on [`RunOptions::jobs`] workers. This is
/// the sweep planner's survivor path: unlike [`try_run_matrix`] the cell
/// list need not be a full cross product, but each cell goes through the
/// *same* per-cell simulation and telemetry buffering, with buffered
/// events replayed into [`RunOptions::telemetry`] in submission order —
/// so a surviving cell's results and event bytes are identical to the
/// ones the full matrix would have produced.
///
/// # Panics
///
/// Panics if a cell's trace index is out of range for `traces`.
///
/// # Errors
///
/// [`Cancelled`] when the token fired before every cell completed.
pub fn try_run_cells(
    traces: &[Arc<Trace>],
    cells: &[(usize, PolicyKind)],
    opts: &RunOptions,
    cancel: &CancelToken,
) -> Result<Vec<SimResult>, Cancelled> {
    run_cells(
        &WorkerPool::new(opts.jobs),
        traces,
        cells.iter().map(|&(ti, policy)| (ti, opts.config(policy))),
        &opts.telemetry,
        cancel,
        None,
    )
}

/// Runs each bench's trace — generated once, `accesses` long, seed
/// [`DEFAULT_SEED`] — on machines other than the baseline: one cell per
/// `variants` × `policies` pair, configured by `config`, on `jobs`
/// workers. Returns `[bench][variant][policy]`, identical at any job
/// count.
pub fn run_variants<V: Copy>(
    benches: &[SpecBench],
    accesses: usize,
    variants: &[V],
    policies: &[PolicyKind],
    jobs: usize,
    config: fn(PolicyKind, V) -> SystemConfig,
) -> Vec<Vec<Vec<SimResult>>> {
    let machines: Vec<SystemConfig> = variants
        .iter()
        .flat_map(|&v| policies.iter().map(move |&p| config(p, v)))
        .collect();
    let rows = sweep(
        &WorkerPool::new(jobs),
        benches,
        (accesses, DEFAULT_SEED),
        &machines,
        &SinkHandle::disabled(),
        &CancelToken::new(),
        None,
    )
    .unwrap_or_else(|_| unreachable!("a private fresh token is never cancelled"));
    rows.into_iter()
        .map(|row| {
            let mut cells = row.into_iter();
            variants
                .iter()
                .map(|_| cells.by_ref().take(policies.len()).collect())
                .collect()
        })
        .collect()
}

/// Generates each bench's trace once on `pool` (seeded as given) and runs
/// it on every machine in `machines`: one row per bench, cells in
/// `machines` order, submitted bench-major.
fn sweep(
    pool: &WorkerPool,
    benches: &[SpecBench],
    (accesses, seed): (usize, u64),
    machines: &[SystemConfig],
    telemetry: &SinkHandle,
    cancel: &CancelToken,
    hook: Option<&SpanHook>,
) -> Result<Vec<Vec<SimResult>>, Cancelled> {
    let traces: Vec<Arc<Trace>> = pool.try_map_ordered(
        benches
            .iter()
            .map(|&b| move || Arc::new(b.generate(accesses, seed)))
            .collect(),
        cancel,
    )?;
    let cells = (0..traces.len()).flat_map(|ti| machines.iter().map(move |m| (ti, m.clone())));
    let mut results = run_cells(pool, &traces, cells, telemetry, cancel, hook)?.into_iter();
    Ok(traces
        .iter()
        .map(|_| results.by_ref().take(machines.len()).collect())
        .collect())
}

/// Simulates `cells` — `(trace index, machine)` pairs — on `pool` and
/// replays each cell's buffered events into `telemetry` in submission
/// order — serial sweep order, so the NDJSON stream is bit-identical to a
/// `-j1` run.
fn run_cells(
    pool: &WorkerPool,
    traces: &[Arc<Trace>],
    cells: impl Iterator<Item = (usize, SystemConfig)>,
    telemetry: &SinkHandle,
    cancel: &CancelToken,
    hook: Option<&SpanHook>,
) -> Result<Vec<SimResult>, Cancelled> {
    let buffer = telemetry.enabled();
    let jobs: Vec<_> = cells
        .map(|(ti, cfg)| {
            assert!(ti < traces.len(), "cell trace index {ti} out of range");
            let trace = Arc::clone(&traces[ti]);
            move || run_cell(&trace, cfg, buffer)
        })
        .collect();
    let results = pool.try_map_ordered_spanned(jobs, cancel, hook)?;
    Ok(results
        .into_iter()
        .map(|(result, events)| {
            for ev in events {
                telemetry.emit_with(|| ev);
            }
            result
        })
        .collect())
}

/// Simulates one cell, buffering its telemetry (if `buffer`) for in-order
/// replay by the submitting thread.
fn run_cell(trace: &Trace, cfg: SystemConfig, buffer: bool) -> (SimResult, Vec<Event>) {
    let buf = buffer.then(|| Arc::new(Mutex::new(VecSink::new())));
    let handle = buf.as_ref().map_or_else(SinkHandle::disabled, |b| {
        SinkHandle::shared(Arc::clone(b) as Arc<Mutex<dyn EventSink + Send>>)
    });
    let result = System::with_probe(cfg, SinkProbe::new(handle)).run(trace.iter());
    let events = buf.map_or_else(Vec::new, |b| {
        std::mem::take(&mut b.lock().expect("buffer sink lock").events)
    });
    (result, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_telemetry::ChromeTraceSink;

    fn run_one(bench: SpecBench, policy: PolicyKind, opts: &RunOptions) -> SimResult {
        run_many(bench, &[policy], opts).remove(0)
    }

    #[test]
    fn trace_out_run_writes_a_parseable_chrome_trace() {
        let path = std::env::temp_dir().join("mlpsim-runner-trace-test.json");
        let opts = RunOptions {
            accesses: 2_000,
            telemetry: SinkHandle::of(ChromeTraceSink::create(&path).unwrap()),
            ..RunOptions::default()
        };
        let r = run_one(SpecBench::Mcf, PolicyKind::Lru, &opts);
        drop(opts); // last handle: the trace document is written on drop
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = mlpsim_telemetry::Json::parse(&text).expect("valid JSON document");
        let events = match doc.get("traceEvents") {
            Some(mlpsim_telemetry::Json::Arr(items)) => items.len(),
            other => panic!("traceEvents array missing: {other:?}"),
        };
        assert!(events > 0, "a stall-heavy run produces trace slices");
        assert!(r.mem_stall_cycles > 0);
    }

    #[test]
    fn run_cells_matches_matrix_cells() {
        let opts = RunOptions {
            accesses: 2_000,
            jobs: 2,
            ..RunOptions::default()
        };
        let benches = [SpecBench::Mcf, SpecBench::Art];
        let policies = [PolicyKind::Lru, PolicyKind::lin4()];
        let matrix = run_matrix(&benches, &policies, &opts);
        let traces: Vec<Arc<Trace>> = benches
            .iter()
            .map(|b| Arc::new(b.generate(opts.accesses, opts.seed)))
            .collect();
        // A ragged subset: (mcf, lin4) and (art, lru).
        let cells = [(0usize, PolicyKind::lin4()), (1usize, PolicyKind::Lru)];
        let results = try_run_cells(&traces, &cells, &opts, &CancelToken::new()).unwrap();
        assert_eq!(results[0], matrix[0][1]);
        assert_eq!(results[1], matrix[1][0]);
    }

    #[test]
    fn telemetry_run_streams_parseable_events() {
        let path = std::env::temp_dir().join("mlpsim-runner-telemetry-test.ndjson");
        let opts = RunOptions {
            accesses: 2_000,
            telemetry: SinkHandle::of(mlpsim_telemetry::NdjsonSink::create(&path).unwrap()),
            ..RunOptions::default()
        };
        let r = run_one(SpecBench::Mcf, PolicyKind::sbar_default(), &opts);
        drop(opts); // last handle: final snapshot + flush
        let events = mlpsim_telemetry::read_ndjson(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(events.iter().any(|e| e.kind() == "run_start"));
        assert!(events.iter().any(|e| e.kind() == "run_end"));
        let serviced = events.iter().filter(|e| e.kind() == "serviced").count() as u64;
        // Every serviced event is a demand miss; merged re-misses count in
        // l2.misses but service as one fill, so serviced <= misses.
        assert!(
            serviced > 0 && serviced <= r.l2.misses,
            "{serviced} vs {}",
            r.l2.misses
        );
        let misses = events.iter().filter(|e| e.kind() == "cache_miss").count() as u64;
        assert_eq!(misses, r.l2.misses);
    }

    #[test]
    fn runner_produces_sane_results() {
        let opts = RunOptions {
            accesses: 3_000,
            ..RunOptions::default()
        };
        let r = run_one(SpecBench::Mcf, PolicyKind::Lru, &opts);
        assert!(r.instructions > 3_000);
        assert!(r.cycles > 0);
        assert!(r.l2.misses > 0);
        assert!(r.ipc() > 0.0 && r.ipc() < 8.0);
    }

    #[test]
    fn matrix_rows_match_individual_runs() {
        let opts = RunOptions {
            accesses: 2_500,
            jobs: 3,
            ..RunOptions::default()
        };
        let benches = [SpecBench::Mcf, SpecBench::Art];
        let policies = [PolicyKind::Lru, PolicyKind::lin4()];
        let matrix = run_matrix(&benches, &policies, &opts);
        assert_eq!(matrix.len(), 2);
        for (bi, bench) in benches.iter().enumerate() {
            assert_eq!(matrix[bi].len(), 2);
            for (pi, &policy) in policies.iter().enumerate() {
                // The reference path: the trace generated directly and
                // simulated on a plain `System`, no pool.
                let trace = bench.generate(opts.accesses, opts.seed);
                let lone = System::new(SystemConfig::baseline(policy)).run(trace.iter());
                assert_eq!(matrix[bi][pi], lone, "{bench:?}/{policy:?} diverged");
            }
        }
    }
}
