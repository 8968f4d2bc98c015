//! Shared simulation driver for the experiment binaries.
//!
//! # Parallel sweeps
//!
//! The paper's evaluation is a matrix of benchmarks × policies; every cell
//! is an independent deterministic simulation. [`run_matrix`] (and
//! [`run_many`], its one-benchmark special case) fans the cells out over a
//! [`WorkerPool`] sized by [`RunOptions::jobs`] — default
//! [`mlpsim_exec::default_jobs`] (all hardware threads, `MLPSIM_JOBS`
//! override), `--jobs N` on every experiment binary.
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
use mlpsim_telemetry::{
    ChromeTraceSink, Event, EventSink, FanoutSink, NdjsonSink, SinkHandle, SinkProbe, VecSink,
};
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
    /// Default options with `--telemetry`, `--trace-out`, `--accesses`,
    /// and `--jobs` parsed from the process's command line; exits with a
    /// message on a malformed flag.
    pub fn from_env() -> Self {
        RunOptions {
            telemetry: sinks_from_env(),
            accesses: accesses_from_env(),
            jobs: jobs_from_env(),
            ..RunOptions::default()
        }
    }
}

/// Scans `args` for `<flag> <path>` (or `<flag>=<path>`). The two-token
/// form refuses flag-like paths (`--telemetry --accesses` must not
/// silently eat `--accesses`; spell a genuinely dash-prefixed filename
/// with the `=` form), and the `=` form refuses an empty path.
fn path_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut path: Option<String> = None;
    let eq_form = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            match it.next() {
                Some(p) if p.starts_with("--") => {
                    return Err(format!(
                        "{flag} requires a path argument, got the flag-like {p:?} \
                         (use {flag}={p} for a path that really starts with \"--\")"
                    ));
                }
                Some(p) => path = Some(p.clone()),
                None => return Err(format!("{flag} requires a path argument")),
            }
        } else if let Some(p) = a.strip_prefix(&eq_form) {
            if p.is_empty() {
                return Err(format!("{eq_form} requires a non-empty path"));
            }
            path = Some(p.to_string());
        }
    }
    Ok(path)
}

/// Builds [`RunOptions::telemetry`] from a command line: scans `args` for
/// `--telemetry <path>` (or `--telemetry=<path>`) and opens an NDJSON sink
/// there. Returns a disabled handle when the flag is absent and an error
/// when the path is missing, looks like another flag (`--telemetry
/// --accesses` must not silently eat `--accesses`; spell a genuinely
/// dash-prefixed filename as `--telemetry=--weird-name`), or cannot be
/// created (an experiment run whose requested telemetry silently vanishes
/// is worse than no run).
pub fn telemetry_from_args(args: &[String]) -> Result<SinkHandle, String> {
    match path_flag(args, "--telemetry")? {
        None => Ok(SinkHandle::disabled()),
        Some(p) => match NdjsonSink::create(&p) {
            Ok(sink) => Ok(SinkHandle::of(sink)),
            Err(e) => Err(format!("cannot create telemetry file {p}: {e}")),
        },
    }
}

/// [`telemetry_from_args`] over the process's own command line; exits with
/// the parse error on a malformed flag.
pub fn telemetry_from_env() -> SinkHandle {
    telemetry_from_args(&env_args()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Builds the full event sink from a command line: `--telemetry <path>`
/// opens an NDJSON stream, `--trace-out <path>` a Chrome trace-event JSON
/// file (load it in `chrome://tracing` or Perfetto). Either alone, both
/// fanned out from one stream ([`FanoutSink`]), or a disabled handle when
/// neither flag is present.
pub fn sinks_from_args(args: &[String]) -> Result<SinkHandle, String> {
    let ndjson = path_flag(args, "--telemetry")?;
    let trace = path_flag(args, "--trace-out")?;
    let open_ndjson = |p: &str| {
        NdjsonSink::create(p).map_err(|e| format!("cannot create telemetry file {p}: {e}"))
    };
    let open_trace = |p: &str| {
        ChromeTraceSink::create(p).map_err(|e| format!("cannot create trace file {p}: {e}"))
    };
    Ok(match (ndjson, trace) {
        (None, None) => SinkHandle::disabled(),
        (Some(np), None) => SinkHandle::of(open_ndjson(&np)?),
        (None, Some(tp)) => SinkHandle::of(open_trace(&tp)?),
        (Some(np), Some(tp)) => SinkHandle::of(
            FanoutSink::new()
                .with(open_ndjson(&np)?)
                .with(open_trace(&tp)?),
        ),
    })
}

/// [`sinks_from_args`] over the process's own command line; exits with the
/// parse error on a malformed flag.
pub fn sinks_from_env() -> SinkHandle {
    sinks_from_args(&env_args()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Scans `args` for `--accesses <N>` (or `--accesses=<N>`): the per-run
/// access count, defaulting to [`DEFAULT_ACCESSES`]. Zero is rejected —
/// an empty run renders every table meaningless.
pub fn accesses_from_args(args: &[String]) -> Result<usize, String> {
    let mut accesses: Option<usize> = None;
    let parse = |raw: &str| -> Result<usize, String> {
        match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--accesses wants a positive integer, got {raw:?}")),
        }
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--accesses" {
            match it.next() {
                Some(n) => accesses = Some(parse(n)?),
                None => return Err("--accesses requires a count argument".into()),
            }
        } else if let Some(n) = a.strip_prefix("--accesses=") {
            accesses = Some(parse(n)?);
        }
    }
    Ok(accesses.unwrap_or(DEFAULT_ACCESSES))
}

/// [`accesses_from_args`] over the process's own command line; exits with
/// the parse error on a malformed flag.
pub fn accesses_from_env() -> usize {
    accesses_from_args(&env_args()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Builds [`RunOptions::jobs`] from a command line: scans `args` for
/// `--jobs <N>`, `--jobs=<N>`, `-j <N>`, or `-j<N>`. Absent the flag,
/// falls back to [`mlpsim_exec::default_jobs`] (the `MLPSIM_JOBS`
/// environment variable, then the hardware thread count).
pub fn jobs_from_args(args: &[String]) -> Result<usize, String> {
    let mut jobs: Option<usize> = None;
    let mut it = args.iter();
    let parse = |raw: &str| -> Result<usize, String> {
        match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--jobs wants a positive integer, got {raw:?}")),
        }
    };
    while let Some(a) = it.next() {
        if a == "--jobs" || a == "-j" {
            match it.next() {
                Some(n) => jobs = Some(parse(n)?),
                None => return Err(format!("{a} requires a worker-count argument")),
            }
        } else if let Some(n) = a.strip_prefix("--jobs=") {
            jobs = Some(parse(n)?);
        } else if let Some(n) = a.strip_prefix("-j") {
            if !n.is_empty() {
                jobs = Some(parse(n)?);
            }
        }
    }
    Ok(jobs.unwrap_or_else(mlpsim_exec::default_jobs))
}

/// [`jobs_from_args`] over the process's own command line; exits with the
/// parse error on a malformed flag.
pub fn jobs_from_env() -> usize {
    jobs_from_args(&env_args()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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

/// Scans `args` for `--plan <mode>` (or `--plan=<mode>`) and
/// `--prune-margin <F>` (or `--prune-margin=<F>`). Mode `estimate`
/// enables the analytical planner; `full` (the default) runs the whole
/// sweep. The margin must be a finite non-negative number and only makes
/// sense with `--plan estimate` — a margin without a plan is rejected
/// rather than silently ignored.
pub fn plan_from_args(args: &[String]) -> Result<Option<PlanOptions>, String> {
    let mut mode: Option<String> = None;
    let mut margin: Option<f64> = None;
    let parse_mode = |raw: &str| -> Result<String, String> {
        match raw {
            "estimate" | "full" => Ok(raw.to_string()),
            _ => Err(format!(
                "--plan wants \"estimate\" or \"full\", got {raw:?}"
            )),
        }
    };
    let parse_margin = |raw: &str| -> Result<f64, String> {
        match raw.parse::<f64>() {
            Ok(m) if m.is_finite() && m >= 0.0 => Ok(m),
            _ => Err(format!(
                "--prune-margin wants a finite non-negative number, got {raw:?}"
            )),
        }
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--plan" {
            match it.next() {
                Some(m) => mode = Some(parse_mode(m)?),
                None => return Err("--plan requires a mode argument".into()),
            }
        } else if let Some(m) = a.strip_prefix("--plan=") {
            mode = Some(parse_mode(m)?);
        } else if a == "--prune-margin" {
            match it.next() {
                Some(m) => margin = Some(parse_margin(m)?),
                None => return Err("--prune-margin requires a number argument".into()),
            }
        } else if let Some(m) = a.strip_prefix("--prune-margin=") {
            margin = Some(parse_margin(m)?);
        }
    }
    match (mode.as_deref(), margin) {
        (Some("estimate"), m) => Ok(Some(PlanOptions {
            margin: m.unwrap_or(mlpsim_model::plan::DEFAULT_PRUNE_MARGIN),
        })),
        (_, Some(_)) => Err("--prune-margin requires --plan estimate".into()),
        _ => Ok(None),
    }
}

/// [`plan_from_args`] over the process's own command line; exits with the
/// parse error on a malformed flag.
pub fn plan_from_env() -> Option<PlanOptions> {
    plan_from_args(&env_args()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn env_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Runs `bench` under `policy` on the baseline machine with default
/// options.
pub fn run_bench(bench: SpecBench, policy: PolicyKind) -> SimResult {
    run_bench_with(bench, policy, &RunOptions::default())
}

/// Runs `bench` under `policy` with explicit options.
pub fn run_bench_with(bench: SpecBench, policy: PolicyKind, opts: &RunOptions) -> SimResult {
    let trace = bench.generate(opts.accesses, opts.seed);
    run_trace(&trace, policy, opts)
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
    match try_run_matrix(benches, policies, opts, &CancelToken::new()) {
        Ok(rows) => rows,
        Err(_) => unreachable!("a private fresh token is never cancelled"),
    }
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
    let pool = WorkerPool::new(opts.jobs);
    let (accesses, seed) = (opts.accesses, opts.seed);
    let traces: Vec<Arc<Trace>> = pool.try_map_ordered(
        benches
            .iter()
            .map(|&b| move || Arc::new(b.generate(accesses, seed)))
            .collect(),
        cancel,
    )?;

    let cell = CellOptions::of(opts);
    let mut jobs = Vec::with_capacity(benches.len() * policies.len());
    for trace in &traces {
        for &policy in policies {
            let trace = Arc::clone(trace);
            jobs.push(move || cell.run(&trace, policy));
        }
    }
    // Cells are submitted bench-major, policy-minor, so a flat submission
    // index decomposes back into (row, col) for the span observer.
    let hook = opts.cell_spans.as_ref().map(|sink| {
        let cb = Arc::clone(&sink.0);
        let ncols = policies.len().max(1);
        SpanHook {
            clock: mlpsim_telemetry::prof::now_ns,
            record: Arc::new(move |idx, t0, t1| cb(idx / ncols, idx % ncols, t0, t1)),
        }
    });
    let cells = pool.try_map_ordered_spanned(jobs, cancel, hook.as_ref())?;

    let mut rows = Vec::with_capacity(benches.len());
    let mut it = cells.into_iter();
    for _ in 0..traces.len() {
        let mut row = Vec::with_capacity(policies.len());
        for _ in 0..policies.len() {
            let (result, events) = it.next().expect("one cell per (bench, policy)");
            // Replay this run's buffered events into the shared sink;
            // submission order here *is* serial sweep order, so the NDJSON
            // stream is bit-identical to a `-j1` (or pre-pool) run.
            for ev in events {
                opts.telemetry.emit(ev);
            }
            row.push(result);
        }
        rows.push(row);
    }
    Ok(rows)
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
    let pool = WorkerPool::new(opts.jobs);
    let cell = CellOptions::of(opts);
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(ti, policy)| {
            assert!(ti < traces.len(), "cell trace index {ti} out of range");
            let trace = Arc::clone(&traces[ti]);
            move || cell.run(&trace, policy)
        })
        .collect();
    let results = pool.try_map_ordered(jobs, cancel)?;
    Ok(results
        .into_iter()
        .map(|(result, events)| {
            for ev in events {
                opts.telemetry.emit(ev);
            }
            result
        })
        .collect())
}

/// The `Send + Copy` slice of [`RunOptions`] a worker needs to simulate
/// one matrix cell.
#[derive(Clone, Copy)]
struct CellOptions {
    sample_interval: Option<u64>,
    adders: AdderMode,
    telemetry: bool,
}

impl CellOptions {
    fn of(opts: &RunOptions) -> Self {
        CellOptions {
            sample_interval: opts.sample_interval,
            adders: opts.adders,
            telemetry: opts.telemetry.enabled(),
        }
    }

    fn config(self, policy: PolicyKind) -> SystemConfig {
        let mut cfg = SystemConfig::baseline(policy);
        cfg.sample_interval = self.sample_interval;
        cfg.adders = self.adders;
        cfg
    }

    /// Simulates one cell, buffering its telemetry (if any) for in-order
    /// replay by the submitting thread.
    fn run(self, trace: &Trace, policy: PolicyKind) -> (SimResult, Vec<Event>) {
        if self.telemetry {
            let buf = Arc::new(Mutex::new(VecSink::new()));
            let handle = SinkHandle::shared(Arc::clone(&buf) as Arc<Mutex<dyn EventSink + Send>>);
            let result =
                System::with_probe(self.config(policy), SinkProbe::new(handle)).run(trace.iter());
            let events = std::mem::take(&mut buf.lock().expect("buffer sink lock").events);
            (result, events)
        } else {
            (
                System::new(self.config(policy)).run(trace.iter()),
                Vec::new(),
            )
        }
    }
}

/// Runs a pre-generated trace under `policy` on the baseline machine.
/// Telemetry (when enabled) streams directly into the shared sink — this
/// is the single-run path; sweeps go through [`run_matrix`]'s buffering.
pub fn run_trace(trace: &Trace, policy: PolicyKind, opts: &RunOptions) -> SimResult {
    let cell = CellOptions::of(opts);
    if opts.telemetry.enabled() {
        System::with_probe(cell.config(policy), SinkProbe::new(opts.telemetry.clone()))
            .run(trace.iter())
    } else {
        System::new(cell.config(policy)).run(trace.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_flag_parsing() {
        let none = telemetry_from_args(&["--accesses".into(), "5".into()]).unwrap();
        assert!(!none.enabled());
        let dir = std::env::temp_dir().join("mlpsim-telemetry-flag-test.ndjson");
        let eq_form = telemetry_from_args(&[format!("--telemetry={}", dir.display())]).unwrap();
        assert!(eq_form.enabled());
        let two_form =
            telemetry_from_args(&["--telemetry".into(), dir.display().to_string()]).unwrap();
        assert!(two_form.enabled());
        drop((eq_form, two_form));
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn telemetry_flag_rejects_flag_like_paths() {
        let err = telemetry_from_args(&["--telemetry".into(), "--accesses".into()])
            .expect_err("a flag must not be eaten as a path");
        assert!(err.contains("--accesses"), "{err}");
        assert!(telemetry_from_args(&["--telemetry".into()]).is_err());
        assert!(telemetry_from_args(&["--telemetry=".into()]).is_err());
        // The `=` form is the documented escape hatch and keeps working
        // (the open may still fail; an Err must mention the odd name).
        let dir = std::env::temp_dir().join("--mlpsim-dashed-name.ndjson");
        let weird = telemetry_from_args(&[format!("--telemetry={}", dir.display())]).unwrap();
        assert!(weird.enabled());
        drop(weird);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn trace_out_and_combined_sinks() {
        let none = sinks_from_args(&[]).unwrap();
        assert!(!none.enabled());
        let tdir = std::env::temp_dir();
        let tpath = tdir.join("mlpsim-trace-out-flag-test.json");
        let only_trace = sinks_from_args(&[format!("--trace-out={}", tpath.display())]).unwrap();
        assert!(only_trace.enabled());
        drop(only_trace);
        let npath = tdir.join("mlpsim-combined-flag-test.ndjson");
        let both = sinks_from_args(&[
            "--telemetry".into(),
            npath.display().to_string(),
            "--trace-out".into(),
            tpath.display().to_string(),
        ])
        .unwrap();
        assert!(both.enabled());
        drop(both);
        // The same flag-eating rules as --telemetry apply.
        assert!(sinks_from_args(&["--trace-out".into(), "--jobs".into()]).is_err());
        assert!(sinks_from_args(&["--trace-out=".into()]).is_err());
        let _ = std::fs::remove_file(tpath);
        let _ = std::fs::remove_file(npath);
    }

    #[test]
    fn trace_out_run_writes_a_parseable_chrome_trace() {
        let path = std::env::temp_dir().join("mlpsim-runner-trace-test.json");
        let opts = RunOptions {
            accesses: 2_000,
            telemetry: SinkHandle::of(ChromeTraceSink::create(&path).unwrap()),
            ..RunOptions::default()
        };
        let r = run_bench_with(SpecBench::Mcf, PolicyKind::Lru, &opts);
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
    fn accesses_flag_parsing() {
        let parse = |args: &[&str]| {
            accesses_from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&[]).unwrap(), DEFAULT_ACCESSES);
        assert_eq!(parse(&["--accesses", "4000"]).unwrap(), 4000);
        assert_eq!(parse(&["--accesses=9"]).unwrap(), 9);
        assert!(parse(&["--accesses", "0"]).is_err());
        assert!(parse(&["--accesses"]).is_err());
        assert!(parse(&["--accesses", "many"]).is_err());
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse =
            |args: &[&str]| jobs_from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&["--jobs", "3"]).unwrap(), 3);
        assert_eq!(parse(&["--jobs=8"]).unwrap(), 8);
        assert_eq!(parse(&["-j", "2"]).unwrap(), 2);
        assert_eq!(parse(&["-j4"]).unwrap(), 4);
        assert_eq!(parse(&["-j1", "--jobs", "6"]).unwrap(), 6, "last flag wins");
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["-jx"]).is_err());
        assert!(parse(&[]).unwrap() >= 1);
    }

    #[test]
    fn plan_flag_parsing() {
        let parse =
            |args: &[&str]| plan_from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]).unwrap(), None);
        assert_eq!(parse(&["--plan", "full"]).unwrap(), None);
        let defaulted = parse(&["--plan", "estimate"]).unwrap().unwrap();
        assert_eq!(defaulted.margin, mlpsim_model::plan::DEFAULT_PRUNE_MARGIN);
        let explicit = parse(&["--plan=estimate", "--prune-margin", "0.02"])
            .unwrap()
            .unwrap();
        assert_eq!(explicit.margin, 0.02);
        assert_eq!(
            parse(&["--plan", "estimate", "--prune-margin=0"])
                .unwrap()
                .unwrap()
                .margin,
            0.0
        );
        // Garbage values exit through Err (the *_from_env twin exits 2).
        assert!(parse(&["--plan", "maybe"]).is_err());
        assert!(parse(&["--plan"]).is_err());
        assert!(parse(&["--plan", "estimate", "--prune-margin", "lots"]).is_err());
        assert!(parse(&["--plan", "estimate", "--prune-margin", "-0.1"]).is_err());
        assert!(parse(&["--plan", "estimate", "--prune-margin", "NaN"]).is_err());
        assert!(parse(&["--plan", "estimate", "--prune-margin"]).is_err());
        // A margin without the planner is a contradiction, not a no-op.
        assert!(parse(&["--prune-margin", "0.01"]).is_err());
        assert!(parse(&["--plan", "full", "--prune-margin", "0.01"]).is_err());
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
        let r = run_bench_with(SpecBench::Mcf, PolicyKind::sbar_default(), &opts);
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
        let r = run_bench_with(SpecBench::Mcf, PolicyKind::Lru, &opts);
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
                let lone = run_bench_with(*bench, policy, &opts);
                assert_eq!(matrix[bi][pi], lone, "{bench:?}/{policy:?} diverged");
            }
        }
    }
}
