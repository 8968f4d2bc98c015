//! The simulator workloads and the grids every workload runs.
//!
//! `sim_miss_heavy` and `sim_hit_heavy` drive the simulator in process:
//! pre-generated traces go through `runner::try_run_cells` on one worker
//! with the probe off. Each timed iteration first estimates the grid with
//! the analytical model (what `fig5 --plan estimate` does before it
//! simulates) and then runs it cell by cell: the iteration is one "job" of
//! the grid.
//!
//! The gated times are best-of-run figures: `job_ms` is the sum over the
//! grid's cells of each cell's fastest time, `estimate_ms` the same over
//! the model's per-bench profiles and per-cell scores, and `sim_mips` one
//! pass's simulated instructions over `job_ms`. On a shared 2-vCPU host,
//! neighbours slow single cells by up to 2.5x for seconds at a time and
//! steal no reported CPU time, so how slow the median pass is depends on
//! the neighbours more than on the program: over six 40-second runs of
//! `sim_miss_heavy`, the median pass spread 21% (IQR over median), the
//! whole-phase mean 15%, and the sum of per-cell minima 9%; the estimate
//! 18% as a median and 5% as a minimum. Medians and 90th percentiles of
//! whole passes and estimates are printed beside them.

use crate::digest::{self, Digests};
use crate::report::{proc_status_mb, Report};
use crate::stats::{median, quantile};
use mlpsim_cache::addr::Geometry;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::stats::SimResult;
use mlpsim_exec::CancelToken;
use mlpsim_experiments::runner::{try_run_cells, RunOptions, DEFAULT_ACCESSES};
use mlpsim_model::characterize::{profile_trace, CharacterizeConfig, TraceProfile};
use mlpsim_model::plan::{score_cell, CellScore, DEFAULT_PRUNE_MARGIN};
use mlpsim_trace::record::Trace;
use mlpsim_trace::spec::SpecBench;
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated this many times per run and its median reported,
/// so one slow first set-up (cold page cache, lazy allocation) does not
/// decide `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Accesses per bench in a `serve_jobs` job: the jobspec documentation's
/// own example.
pub const SERVE_ACCESSES: usize = 4_000;

/// A workload's benches × policies grid at its access count.
#[derive(Clone, Debug)]
pub struct Grid {
    pub benches: Vec<SpecBench>,
    pub policies: Vec<PolicyKind>,
    pub accesses: usize,
}

impl Grid {
    pub fn of(workload: &str) -> Grid {
        use SpecBench::*;
        match workload {
            "sim_miss_heavy" => Grid {
                benches: vec![Art, Galgel, Sixtrack, Apsi, Lucas],
                policies: vec![PolicyKind::lin4(), PolicyKind::sbar_default()],
                accesses: DEFAULT_ACCESSES,
            },
            "sim_hit_heavy" => Grid {
                benches: vec![Twolf, Vpr, Bzip2, Parser],
                policies: vec![PolicyKind::Lru],
                accesses: DEFAULT_ACCESSES,
            },
            "serve_jobs" => Grid {
                benches: vec![Mcf, Art],
                policies: vec![PolicyKind::Lru, PolicyKind::lin4()],
                accesses: SERVE_ACCESSES,
            },
            other => unreachable!("workload names are checked at parse time: {other}"),
        }
    }

    /// The same benches and policies at another access count.
    pub fn with_accesses(&self, accesses: usize) -> Grid {
        Grid {
            accesses,
            ..self.clone()
        }
    }

    /// `(trace index, policy)` cells in the bench-major order the run path
    /// uses.
    pub fn cells(&self) -> Vec<(usize, PolicyKind)> {
        (0..self.benches.len())
            .flat_map(|b| self.policies.iter().map(move |&p| (b, p)))
            .collect()
    }

    /// A digest key for one cell.
    pub fn cell_key(&self, cell: (usize, PolicyKind)) -> String {
        format!("{}/{}", self.benches[cell.0].name(), cell.1.label())
    }

    pub fn generate(&self, seed: u64) -> Vec<Arc<Trace>> {
        self.benches
            .iter()
            .map(|b| Arc::new(b.generate(self.accesses, seed)))
            .collect()
    }

    pub fn run_options(&self, seed: u64) -> RunOptions {
        RunOptions {
            accesses: self.accesses,
            seed,
            jobs: 1,
            ..RunOptions::default()
        }
    }

    /// The grid as a `sweep` job spec, in the names the spec parser takes.
    pub fn spec_json(&self, seed: u64) -> String {
        let quoted = |names: Vec<String>| {
            names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        let benches = quoted(self.benches.iter().map(|b| b.name().to_string()).collect());
        let policies = quoted(
            self.policies
                .iter()
                .map(|p| match p {
                    PolicyKind::Sbar(_) => "sbar".to_string(),
                    other => other.label(),
                })
                .collect(),
        );
        format!(
            "{{\"kind\":\"sweep\",\"benches\":[{benches}],\"policies\":[{policies}],\"accesses\":{},\"seed\":{seed},\"jobs\":1}}",
            self.accesses
        )
    }
}

/// The analytical model's verdict on a grid, with host time per stage.
pub struct Estimate {
    pub scores: Vec<CellScore>,
    pub profile_ns: Vec<u64>,
    pub score_ns: Vec<u64>,
}

impl Estimate {
    /// Stable text of every cell's score, for the digest check.
    pub fn canonical(&self) -> String {
        self.scores
            .iter()
            .map(|s| {
                format!(
                    "{:?} {:?} {:?} {}\n",
                    s.estimate.miss_rate, s.estimate.band, s.delta, s.pruned
                )
            })
            .collect()
    }

    pub fn pruned(&self) -> usize {
        self.scores.iter().filter(|s| s.pruned).count()
    }
}

/// Profiles every trace and scores every cell at the baseline L2 and the
/// planner's default margin: the planning step of a planned sweep.
pub fn estimate(grid: &Grid, traces: &[Arc<Trace>]) -> Estimate {
    let mut profile_ns = Vec::with_capacity(traces.len());
    let profiles: Vec<TraceProfile> = traces
        .iter()
        .map(|t| {
            let t0 = Instant::now();
            let p = profile_trace(t, &CharacterizeConfig::baseline());
            profile_ns.push(elapsed_ns(t0));
            p
        })
        .collect();
    let mut score_ns = Vec::new();
    let scores = grid
        .cells()
        .into_iter()
        .map(|(b, policy)| {
            let t0 = Instant::now();
            let s = score_cell(
                &profiles[b],
                Geometry::baseline_l2(),
                &policy.label(),
                DEFAULT_PRUNE_MARGIN,
            );
            score_ns.push(elapsed_ns(t0));
            s
        })
        .collect();
    Estimate {
        scores,
        profile_ns,
        score_ns,
    }
}

pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs every cell of the grid once through the runner, on one worker.
pub fn run_grid(grid: &Grid, traces: &[Arc<Trace>], seed: u64) -> Result<Vec<SimResult>, String> {
    run_cells(grid, traces, seed, &grid.cells())
}

/// Runs the given cells once through the runner, on one worker.
fn run_cells(
    grid: &Grid,
    traces: &[Arc<Trace>],
    seed: u64,
    cells: &[(usize, PolicyKind)],
) -> Result<Vec<SimResult>, String> {
    try_run_cells(traces, cells, &grid.run_options(seed), &CancelToken::new())
        .map_err(|_| "a private cancel token fired".to_string())
}

/// Whether every result matches its recorded digest.
pub fn check_results(
    digests: &Digests,
    workload: &str,
    seed: u64,
    grid: &Grid,
    results: &[SimResult],
) -> Vec<bool> {
    grid.cells()
        .into_iter()
        .zip(results)
        .map(|(cell, r)| {
            digests.matches(seed, workload, &grid.cell_key(cell), digest::sim_result(r))
        })
        .collect()
}

/// Samples of one timed stage per item (cell or bench), in milliseconds.
struct PerItem(Vec<Vec<f64>>);

impl PerItem {
    fn new(items: usize) -> PerItem {
        PerItem(vec![Vec::new(); items])
    }

    /// The sum of every item's fastest sample: the stage's time with each
    /// item at its best speed of the run.
    fn sum_of_minima(&self) -> f64 {
        self.0
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// The untraced run of a simulator workload.
pub fn run(workload: &str, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let grid = Grid::of(workload);
    let cells = grid.cells();
    let digests = Digests::load();
    report.note(
        "inputs",
        &format!(
            "{} cells ({} benches x {} policies), {} accesses each, jobs 1, probe off",
            cells.len(),
            grid.benches.len(),
            grid.policies.len(),
            grid.accesses
        ),
    );

    // Set-up: generate the traces, then one untimed warm-up pass.
    let mut setup_s = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        traces = grid.generate(seed);
        let warm = run_grid(&grid, &traces, seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if check_results(&digests, workload, seed, &grid, &warm).contains(&false) {
            report.broken = true;
        }
    }

    let mut cell_ms = PerItem::new(cells.len());
    let mut profile_ms = PerItem::new(grid.benches.len());
    let mut score_ms = PerItem::new(cells.len());
    let (mut pass_ms, mut est_ms) = (Vec::new(), Vec::new());
    let (mut instructions, mut pass_instructions) = (0u64, 0u64);
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let est = estimate(&grid, &traces);
        est_ms.push(ms(t0));
        for (v, &ns) in profile_ms.0.iter_mut().zip(&est.profile_ns) {
            v.push(ns as f64 / 1e6);
        }
        for (v, &ns) in score_ms.0.iter_mut().zip(&est.score_ns) {
            v.push(ns as f64 / 1e6);
        }
        report.op(digests.matches(seed, workload, "model", digest::text(&est.canonical())));

        let t1 = Instant::now();
        pass_instructions = 0;
        for (samples, &cell) in cell_ms.0.iter_mut().zip(&cells) {
            let t = Instant::now();
            let results = run_cells(&grid, &traces, seed, &[cell])?;
            samples.push(ms(t));
            for r in &results {
                let key = grid.cell_key(cell);
                report.op(digests.matches(seed, workload, &key, digest::sim_result(r)));
                pass_instructions += r.instructions;
            }
        }
        instructions += pass_instructions;
        pass_ms.push(ms(t1));
    }
    let phase_mips = instructions as f64 / (pass_ms.iter().sum::<f64>() / 1e3) / 1e6;
    report.note("job", &p50_p90(&pass_ms, "passes"));
    report.note("estimate", &p50_p90(&est_ms, "estimates"));
    report.note(
        "sim_mips_whole_phase",
        &format!("{phase_mips:.3} Minst/s over {} passes", pass_ms.len()),
    );
    let job_ms = cell_ms.sum_of_minima();
    report_end_to_end(
        report,
        &setup_s,
        pass_instructions as f64 / (job_ms / 1e3) / 1e6,
        proc_status_mb("VmHWM"),
        job_ms,
        profile_ms.sum_of_minima() + score_ms.sum_of_minima(),
    );
    Ok(())
}

/// A sample set's median and 90th percentile with its sample count, for
/// the provenance lines: on the simulator workloads they are not metrics
/// (see the module comment).
pub fn p50_p90(v: &[f64], what: &str) -> String {
    format!(
        "p50 {:.3} ms, p90 {:.3} ms over {} {what}",
        median(v),
        quantile(v, 9, 10),
        v.len()
    )
}

/// Reports the end-to-end metrics every workload shares.
pub fn report_end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    sim_mips: f64,
    peak_mb: f64,
    job_ms: f64,
    estimate_ms: f64,
) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("sim_mips", sim_mips, "Minst/s");
    report.metric("peak_rss_mb", peak_mb, "MB");
    report.metric("job_ms", job_ms, "ms");
    report.metric("estimate_ms", estimate_ms, "ms");
}
