//! Figure reports as library functions: the exact text the corresponding
//! experiment binary prints, returned as a `String`.
//!
//! This is the single run path shared by the CLI binaries and the
//! `mlpsim-serve` job executor — a figure submitted as a server job must
//! return results **byte-identical** to the direct CLI invocation at any
//! `--jobs` count, which only holds if both go through one function. The
//! `try_*` variants additionally take a [`CancelToken`] so a server job
//! can be cancelled (or deadline-killed) between matrix cells.

use crate::paper::paper_row;
use crate::runner::{try_profile_benches, try_run_cells, try_run_matrix, PlanOptions, RunOptions};
use mlpsim_analysis::table::Table;
use mlpsim_analysis::util::percent_improvement;
use mlpsim_cache::addr::Geometry;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::stats::SimResult;
use mlpsim_exec::{CancelToken, Cancelled, WorkerPool};
use mlpsim_model::plan::{score_cell, CellScore};
use mlpsim_telemetry::Event;
use mlpsim_trace::spec::SpecBench;
use std::fmt::Write as _;

/// Figure 5 report: the mlp-cost distribution under LRU vs LIN(4) with
/// the inset ΔMISS/ΔIPC numbers, byte-identical to the `fig5` binary's
/// stdout.
pub fn fig5_report(opts: &RunOptions) -> String {
    match try_fig5_report(opts, &CancelToken::new()) {
        Ok(s) => s,
        Err(_) => unreachable!("a private fresh token is never cancelled"),
    }
}

/// Cancellable [`fig5_report`].
///
/// # Errors
///
/// [`Cancelled`] when the token fired before the sweep completed.
pub fn try_fig5_report(opts: &RunOptions, cancel: &CancelToken) -> Result<String, Cancelled> {
    let mut out =
        String::from("Figure 5 — mlp-cost distribution: LRU vs LIN(4), with inset deltas\n\n");
    let mut t = Table::with_headers(&[
        "bench", "policy", "0", "60", "120", "180", "240", "300", "360", "420+", "mean", "dMISS%",
        "(paper)", "dIPC%", "(paper)",
    ]);
    let matrix = try_run_matrix(
        &SpecBench::ALL,
        &[PolicyKind::Lru, PolicyKind::lin4()],
        opts,
        cancel,
    )?;
    for (bench, results) in SpecBench::ALL.into_iter().zip(&matrix) {
        let (lru, lin) = (results[0].clone(), results[1].clone());
        let p = paper_row(bench);
        let miss_delta = percent_improvement(lin.l2.misses as f64, lru.l2.misses as f64);
        let ipc_delta = percent_improvement(lin.ipc(), lru.ipc());
        for (label, r, insets) in [
            ("lru", &lru, None),
            ("lin", &lin, Some((miss_delta, ipc_delta))),
        ] {
            let mut row = vec![bench.name().to_string(), label.to_string()];
            row.extend(r.cost_hist.percents().iter().map(|x| format!("{x:.1}")));
            row.push(format!("{:.0}", r.cost_hist.mean()));
            match insets {
                Some((dm, di)) => {
                    row.push(format!("{dm:+.1}"));
                    row.push(format!("{:+.1}", p.lin_miss_pct));
                    row.push(format!("{di:+.1}"));
                    row.push(format!("{:+.1}", p.lin_ipc_pct));
                }
                None => row.extend(["".into(), "".into(), "".into(), "".into()]),
            }
            t.row(row);
        }
    }
    let _ = writeln!(out, "{}", t.render());
    Ok(out)
}

/// Generic sweep report: `benches` × `policies`, one row per cell with
/// the headline aggregates (misses, MPKI, IPC, memory-stall cycles).
/// This is the ad-hoc comparative-analysis query the serving layer
/// exposes beyond the fixed paper figures.
///
/// # Errors
///
/// [`Cancelled`] when the token fired before the sweep completed.
pub fn try_sweep_report(
    benches: &[SpecBench],
    policies: &[PolicyKind],
    opts: &RunOptions,
    cancel: &CancelToken,
) -> Result<String, Cancelled> {
    let mut out = String::from("Sweep — benchmarks x policies, headline aggregates\n\n");
    let mut t = Table::with_headers(&[
        "bench",
        "policy",
        "misses",
        "mpki",
        "ipc",
        "mem_stall_cycles",
    ]);
    let matrix = try_run_matrix(benches, policies, opts, cancel)?;
    for (bench, results) in benches.iter().zip(&matrix) {
        for (policy, r) in policies.iter().zip(results) {
            t.row(vec![
                bench.name().to_string(),
                policy.label(),
                r.l2.misses.to_string(),
                format!("{:.2}", r.l2_mpki()),
                format!("{:.4}", r.ipc()),
                r.mem_stall_cycles.to_string(),
            ]);
        }
    }
    let _ = writeln!(out, "{}", t.render());
    Ok(out)
}

/// Uncancellable [`try_sweep_report`] for CLI-style callers.
pub fn sweep_report(benches: &[SpecBench], policies: &[PolicyKind], opts: &RunOptions) -> String {
    match try_sweep_report(benches, policies, opts, &CancelToken::new()) {
        Ok(s) => s,
        Err(_) => unreachable!("a private fresh token is never cancelled"),
    }
}

/// One fixed-format simulated-cell line for the planned report. These
/// lines are deliberately *not* table cells: their bytes depend only on
/// the cell's own result, never on which other cells survived pruning,
/// which is what lets CI assert a planned run's survivors verbatim
/// against an unpruned run (`--prune-margin 0`). The value formats match
/// [`try_sweep_report`]'s columns exactly.
fn cell_line(bench: SpecBench, policy: &PolicyKind, r: &SimResult) -> String {
    format!(
        "cell bench={} policy={} misses={} mpki={:.2} ipc={:.4} mem_stall_cycles={}",
        bench.name(),
        policy.label(),
        r.l2.misses,
        r.l2_mpki(),
        r.ipc(),
        r.mem_stall_cycles,
    )
}

/// Planned sweep report: score every `benches` × `policies` cell with the
/// analytical model ([`mlpsim_model`]), prune cells whose predicted
/// miss-rate delta vs the incumbent falls below [`PlanOptions::margin`],
/// simulate only the survivors (through the same per-cell path as a full
/// sweep — their output bytes are identical to an unpruned run), and
/// record estimated vs simulated miss rates for every survivor.
///
/// Telemetry: one `plan_cell` event per cell and a `plan_summary` event
/// stream into [`RunOptions::telemetry`] before the survivors' simulation
/// events, all in deterministic bench-major order at any `--jobs`.
///
/// # Errors
///
/// [`Cancelled`] when the token fired before the surviving cells
/// completed.
pub fn try_planned_sweep_report(
    benches: &[SpecBench],
    policies: &[PolicyKind],
    opts: &RunOptions,
    plan: &PlanOptions,
    cancel: &CancelToken,
) -> Result<String, Cancelled> {
    let pool = WorkerPool::new(opts.jobs);
    let (traces, profiles) = try_profile_benches(&pool, benches, opts.accesses, opts.seed, cancel)?;
    // The run path simulates the paper's baseline L2; that is the
    // geometry every cell of a figure sweep is scored against.
    let geometry = Geometry::baseline_l2();
    let margin = plan.margin;
    let mut out = format!(
        "Sweep plan — estimate, prune, then simulate survivors (prune margin {margin:.4})\n\n"
    );
    let mut t = Table::with_headers(&[
        "bench",
        "policy",
        "est_miss_rate",
        "band",
        "delta",
        "verdict",
    ]);
    let mut scores: Vec<(usize, usize, CellScore)> = Vec::new();
    for (bi, bench) in benches.iter().enumerate() {
        for (pi, policy) in policies.iter().enumerate() {
            let s = score_cell(&profiles[bi], geometry, &policy.label(), margin);
            opts.telemetry.emit(Event::PlanCell {
                bench: bench.name().to_string(),
                policy: policy.label(),
                est_miss_rate: s.estimate.miss_rate,
                band: s.estimate.band,
                delta: s.delta,
                pruned: s.pruned,
                reason: s.reason.clone(),
            });
            t.row(vec![
                bench.name().to_string(),
                policy.label(),
                format!("{:.4}", s.estimate.miss_rate),
                format!("{:.4}", s.estimate.band),
                format!("{:.4}", s.delta),
                if s.pruned {
                    "prune".into()
                } else {
                    "simulate".into()
                },
            ]);
            scores.push((bi, pi, s));
        }
    }
    let _ = writeln!(out, "{}", t.render());

    for (bi, pi, s) in &scores {
        if s.pruned {
            let _ = writeln!(
                out,
                "pruned bench={} policy={} reason=\"{}\"",
                benches[*bi].name(),
                policies[*pi].label(),
                s.reason,
            );
        }
    }
    let total = scores.len();
    let pruned = scores.iter().filter(|(_, _, s)| s.pruned).count();
    let surviving = total - pruned;
    let pct = if total == 0 {
        0.0
    } else {
        100.0 * pruned as f64 / total as f64
    };
    let _ = writeln!(
        out,
        "plan: {total} cells, pruned {pruned} ({pct:.1}%), simulating {surviving}\n"
    );
    opts.telemetry.emit(Event::PlanSummary {
        cells: total as u64,
        pruned: pruned as u64,
        simulated: surviving as u64,
        margin,
    });

    let survivors: Vec<(usize, usize)> = scores
        .iter()
        .filter(|(_, _, s)| !s.pruned)
        .map(|&(bi, pi, _)| (bi, pi))
        .collect();
    let cells: Vec<(usize, PolicyKind)> = survivors
        .iter()
        .map(|&(bi, pi)| (bi, policies[pi]))
        .collect();
    let results = try_run_cells(&traces, &cells, opts, cancel)?;

    out.push_str("Simulated survivors (byte-identical to the unplanned run of the same cells):\n");
    for (&(bi, pi), r) in survivors.iter().zip(&results) {
        let _ = writeln!(out, "{}", cell_line(benches[bi], &policies[pi], r));
    }
    out.push_str("\nEstimated vs simulated (model check; est is the LRU miss-rate model):\n");
    for (&(bi, pi), r) in survivors.iter().zip(&results) {
        let est = scores
            .iter()
            .find(|&&(sbi, spi, _)| sbi == bi && spi == pi)
            .map(|(_, _, s)| s.estimate)
            .expect("every survivor was scored");
        let sim = r.l2.miss_ratio();
        let _ = writeln!(
            out,
            "model-check bench={} policy={} est_miss_rate={:.4} sim_miss_rate={:.4} abs_err={:.4} band={:.4}",
            benches[bi].name(),
            policies[pi].label(),
            est.miss_rate,
            sim,
            (est.miss_rate - sim).abs(),
            est.band,
        );
    }
    Ok(out)
}

/// Uncancellable [`try_planned_sweep_report`] for CLI-style callers.
pub fn planned_sweep_report(
    benches: &[SpecBench],
    policies: &[PolicyKind],
    opts: &RunOptions,
    plan: &PlanOptions,
) -> String {
    match try_planned_sweep_report(benches, policies, opts, plan, &CancelToken::new()) {
        Ok(s) => s,
        Err(_) => unreachable!("a private fresh token is never cancelled"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> RunOptions {
        RunOptions {
            accesses: 1_000,
            jobs: 2,
            ..RunOptions::default()
        }
    }

    #[test]
    fn sweep_report_has_one_row_per_cell() {
        let benches = [SpecBench::Mcf, SpecBench::Art];
        let policies = [PolicyKind::Lru, PolicyKind::lin4()];
        let report = sweep_report(&benches, &policies, &small_opts());
        assert!(report.contains("mcf"));
        assert!(report.contains("lin(4)"));
        // header line + separator-free Table: 1 header + 4 rows inside.
        assert!(report.lines().count() >= 5, "{report}");
    }

    #[test]
    fn cancelled_sweep_returns_err() {
        let token = CancelToken::new();
        token.cancel();
        let err = try_sweep_report(&[SpecBench::Mcf], &[PolicyKind::Lru], &small_opts(), &token)
            .expect_err("pre-cancelled token must cancel the sweep");
        assert_eq!(err.completed, 0);
    }

    #[test]
    fn planned_sweep_prunes_cells_and_keeps_survivors_byte_identical() {
        let policies = [PolicyKind::Lru, PolicyKind::lin4()];
        // Long enough for reuse distances to reach the baseline L2's
        // transition region, so some LIN cells genuinely survive and the
        // byte-identity check below is non-vacuous.
        let opts = RunOptions {
            accesses: 20_000,
            jobs: 2,
            ..RunOptions::default()
        };
        let planned =
            planned_sweep_report(&SpecBench::ALL, &policies, &opts, &PlanOptions::default());
        let total = SpecBench::ALL.len() * policies.len();
        let pruned = planned.lines().filter(|l| l.starts_with("pruned ")).count();
        assert!(
            pruned * 10 >= total * 3,
            "expected >= 30% pruned, got {pruned}/{total}:\n{planned}"
        );
        let survivors = planned.lines().filter(|l| l.starts_with("cell ")).count();
        assert!(survivors > 0, "expected some surviving cells:\n{planned}");
        // Margin 0 keeps every cell (the prune compare is strict `<`), so
        // its `cell` lines are the unpruned reference output.
        let full = planned_sweep_report(
            &SpecBench::ALL,
            &policies,
            &opts,
            &PlanOptions { margin: 0.0 },
        );
        let full_cells: Vec<&str> = full.lines().filter(|l| l.starts_with("cell ")).collect();
        assert_eq!(full_cells.len(), total, "margin 0 must simulate every cell");
        for line in planned.lines().filter(|l| l.starts_with("cell ")) {
            assert!(
                full_cells.contains(&line),
                "survivor line not byte-identical to the unpruned run: {line}"
            );
        }
    }

    #[test]
    fn planned_sweep_is_deterministic_across_job_counts() {
        let policies = [PolicyKind::Lru, PolicyKind::lin4()];
        let plan = PlanOptions::default();
        let a = planned_sweep_report(
            &SpecBench::ALL,
            &policies,
            &RunOptions {
                accesses: 400,
                jobs: 1,
                ..RunOptions::default()
            },
            &plan,
        );
        let b = planned_sweep_report(
            &SpecBench::ALL,
            &policies,
            &RunOptions {
                accesses: 400,
                jobs: 4,
                ..RunOptions::default()
            },
            &plan,
        );
        assert_eq!(a, b, "job count must never change planned output bytes");
    }

    #[test]
    fn cancelled_planned_sweep_returns_err() {
        let token = CancelToken::new();
        token.cancel();
        try_planned_sweep_report(
            &[SpecBench::Mcf],
            &[PolicyKind::Lru],
            &small_opts(),
            &PlanOptions::default(),
            &token,
        )
        .expect_err("pre-cancelled token must cancel the planned sweep");
    }

    #[test]
    fn fig5_report_is_deterministic_across_job_counts() {
        let a = fig5_report(&RunOptions {
            accesses: 400,
            jobs: 1,
            ..RunOptions::default()
        });
        let b = fig5_report(&RunOptions {
            accesses: 400,
            jobs: 4,
            ..RunOptions::default()
        });
        assert_eq!(a, b, "job count must never change output bytes");
    }
}
