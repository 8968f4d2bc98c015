//! `mlpsim telemetry-report` — fold an NDJSON telemetry stream into human
//! tables.
//!
//! ```text
//! mlpsim telemetry-report <events.ndjson>
//! mlpsim telemetry-report --traces <traces.json>
//! ```
//!
//! Produces, from a stream written by any `--telemetry` run:
//!
//! * a per-run overview (policy, instructions, misses, peak MLP),
//! * PSEL activity per dueling unit: update/flip counts, saturation
//!   fraction, and dwell times between MSB flips (how long the follower
//!   sets stay on one policy before switching),
//! * a time-weighted MSHR occupancy histogram — the observed distribution
//!   of outstanding misses, i.e. the MLP the cost model is measuring,
//! * per-set L2 miss skew (are misses concentrated in a few hot sets?),
//! * the cost_q transition matrix: for consecutive misses to the *same
//!   line*, how the quantized MLP-based cost moved between buckets
//!   (the paper's §4 stability argument: most mass near the diagonal),
//! * the stall attribution ledger (`stall_attrib` events folded by
//!   (set, cost_q, policy)): top sets by attributed stall, per-cost_q
//!   stall shares (the stall-weighted sibling of Fig. 5), LIN-vs-LRU
//!   attributed-stall split per set, and the reconciliation line against
//!   `run_end`'s `mem_stall_cycles`,
//! * a log-bucketed stall-episode-length histogram from `stall_span`
//!   events.
//!
//! With `--traces`, the input is instead a `GET /debug/traces` dump from
//! `mlpsim-serve`'s flight recorder (`mlpsim-client traces > traces.json`):
//! the report lists the slowest requests with a per-span breakdown of
//! each, and flags any trace whose wall-time reconciliation residue
//! (root duration minus the root's direct children) exceeds 1% — time
//! the span tree fails to explain.

use crate::cli::Args;
use mlpsim_analysis::ephist::{EpisodeHistogram, EPISODE_BUCKETS};
use mlpsim_analysis::stats::percentile;
use mlpsim_analysis::table::Table;
use mlpsim_core::quant::bucket_label;
use mlpsim_telemetry::{read_ndjson, Event, Json, StallLedger};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Render the serve-tier traces section from a `GET /debug/traces` dump:
/// slowest requests first with per-span breakdowns, reconciliation
/// residue over 1% flagged.
fn traces_report(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let Ok(Json::Arr(mut traces)) = Json::parse(&text) else {
        return Err(format!(
            "{path}: expected a JSON array of traces (a GET /debug/traces body)"
        ));
    };
    let mut out = String::new();
    if traces.is_empty() {
        let _ = writeln!(out, "{path}: no traces in dump");
        return Ok(out);
    }
    let dur_of = |t: &Json| t.get("dur_us").and_then(|d| d.as_f64()).unwrap_or(0.0);
    let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
    traces.sort_by(|a, b| {
        dur_of(b)
            .partial_cmp(&dur_of(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut overview =
        Table::with_headers(&["trace", "request", "status", "dur ms", "residue%", ""]);
    let mut flagged = 0usize;
    for t in &traces {
        let residue = t.get("residue_pct").and_then(|r| r.as_f64()).unwrap_or(0.0);
        let over = residue > 1.0;
        if over {
            flagged += 1;
        }
        overview.row(vec![
            str_of(t, "trace_id"),
            str_of(t, "name"),
            t.get("status")
                .and_then(Json::as_u64)
                .map_or_else(|| "?".into(), |s| s.to_string()),
            format!("{:.3}", dur_of(t) / 1e3),
            format!("{residue:.2}"),
            if over {
                "<-- UNEXPLAINED >1%".into()
            } else {
                String::new()
            },
        ]);
    }
    let _ = writeln!(
        out,
        "== Traces ({} retained, slowest first; {flagged} with >1% of wall time \
         unexplained by spans) ==\n{}",
        traces.len(),
        overview.render()
    );

    for t in traces.iter().take(5) {
        let Some(Json::Arr(spans)) = t.get("spans") else {
            continue;
        };
        let total_us = dur_of(t).max(1.0);
        let mut st = Table::with_headers(&["span", "start +us", "dur us", "% of req"]);
        for s in spans {
            let dur = s.get("dur_us").and_then(|d| d.as_f64()).unwrap_or(0.0);
            st.row(vec![
                str_of(s, "name"),
                s.get("start_us")
                    .and_then(Json::as_u64)
                    .map_or_else(|| "?".into(), |v| v.to_string()),
                format!("{dur:.0}"),
                format!("{:.1}", 100.0 * dur / total_us),
            ]);
        }
        let _ = writeln!(
            out,
            "-- {} {} ({:.3} ms) --\n{}",
            str_of(t, "trace_id"),
            str_of(t, "name"),
            dur_of(t) / 1e3,
            st.render()
        );
    }
    Ok(out)
}

/// A histogram row: the label, the count, its share of `total` in
/// percent, and a bar of one `#` per 2%.
fn share_row(label: String, count: u64, total: u64) -> Vec<String> {
    let pct = 100.0 * count as f64 / total.max(1) as f64;
    let bar = "#".repeat((pct / 2.0).round() as usize);
    vec![label, count.to_string(), format!("{pct:.1}"), bar]
}

#[derive(Default)]
struct UnitStats {
    updates: u64,
    saturated_updates: u64,
    flips: u64,
    dwells: Vec<f64>,
}

/// The report for `--traces <dump>` or `<events.ndjson>`.
pub fn run(args: &Args) -> Result<String, String> {
    let path = match (args.traces.as_deref(), args.positional(0)) {
        (Some(dump), None) => return traces_report(dump),
        (None, Some(path)) => path,
        _ => {
            return Err(
                "usage: mlpsim telemetry-report <events.ndjson> | --traces <traces.json>".into(),
            )
        }
    };
    let events = read_ndjson(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = String::new();
    if events.is_empty() {
        let _ = writeln!(out, "{path}: no events");
        return Ok(out);
    }
    let _ = writeln!(out, "{path}: {} events\n", events.len());

    // ---- Pass over the stream, segmented by run_start markers. ----
    let mut runs = Table::with_headers(&[
        "run",
        "label",
        "policy",
        "insts",
        "cycles",
        "l2 misses",
        "peak MLP",
    ]);
    let mut run_idx: u64 = 0;
    let mut units: HashMap<String, UnitStats> = HashMap::new();
    // The last MSB flip's seq per (run, unit, index), for dwell times.
    let mut last_flip: HashMap<(u64, String, u64), u64> = HashMap::new();
    // Time-weighted MSHR occupancy: (last_cycle, last_live) per run.
    let mut occ_cycles: HashMap<u64, u64> = HashMap::new();
    let mut occ_prev: Option<(u64, u64)> = None;
    let mut peak_demand_live: u64 = 0;
    let mut set_misses: HashMap<u64, u64> = HashMap::new();
    // cost_q transitions keyed by line (within a run).
    let mut last_cost_q: HashMap<(u64, u64), u8> = HashMap::new();
    let mut transitions = [[0u64; 8]; 8];
    // Stall attribution: the folded ledger, the run_end totals it must
    // reconcile against, and the span-length histogram.
    let mut ledger = StallLedger::new();
    let mut run_end_stall: u64 = 0;
    let mut saw_run_end = false;
    let mut episodes = EpisodeHistogram::new();

    for ev in &events {
        ledger.observe(ev);
        match ev {
            Event::RunStart { label, policy, .. } => {
                run_idx += 1;
                occ_prev = None;
                runs.row(vec![
                    run_idx.to_string(),
                    label.clone(),
                    policy.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
            Event::RunEnd {
                label,
                policy,
                cycle,
                instructions,
                l2_misses,
                peak_mlp,
                mem_stall_cycles,
            } => {
                run_end_stall += mem_stall_cycles;
                saw_run_end = true;
                // Rewrite the run's row with its final numbers (or add one
                // if the stream started mid-run).
                let row = vec![
                    run_idx.max(1).to_string(),
                    label.clone(),
                    policy.clone(),
                    instructions.to_string(),
                    cycle.to_string(),
                    l2_misses.to_string(),
                    peak_mlp.to_string(),
                ];
                if runs.is_empty() {
                    runs.row(row);
                } else {
                    runs.replace_last(row);
                }
            }
            Event::PselUpdate {
                unit, saturated, ..
            } => {
                let u = units.entry(unit.clone()).or_default();
                u.updates += 1;
                if *saturated {
                    u.saturated_updates += 1;
                }
            }
            Event::PselFlip {
                unit, index, seq, ..
            } => {
                let u = units.entry(unit.clone()).or_default();
                u.flips += 1;
                if let Some(prev) = last_flip.insert((run_idx, unit.clone(), *index), *seq) {
                    u.dwells.push(seq.saturating_sub(prev) as f64);
                }
            }
            Event::MshrAlloc { cycle, live, .. } | Event::MshrRelease { cycle, live, .. } => {
                if let Some((pc, pl)) = occ_prev {
                    *occ_cycles.entry(pl).or_default() += cycle.saturating_sub(pc);
                }
                occ_prev = Some((*cycle, *live));
                if let Event::MshrAlloc { demand_live, .. } = ev {
                    peak_demand_live = peak_demand_live.max(*demand_live);
                }
            }
            Event::CacheMiss { level: 2, set, .. } => {
                *set_misses.entry(*set).or_default() += 1;
            }
            Event::Serviced { line, cost_q, .. } => {
                let q = (*cost_q).min(7) as usize;
                if let Some(prev) = last_cost_q.insert((run_idx, *line), *cost_q) {
                    transitions[prev.min(7) as usize][q] += 1;
                }
            }
            Event::StallSpan { begin, end, .. } => {
                episodes.record(end.saturating_sub(*begin));
            }
            _ => {}
        }
    }

    let _ = writeln!(out, "== Runs ==\n{}", runs.render());

    // ---- PSEL flips & dwell times. ----
    if units.is_empty() {
        let _ = writeln!(
            out,
            "== PSEL activity ==\n(no dueling-policy events in stream)\n"
        );
    } else {
        let mut t = Table::with_headers(&[
            "unit",
            "updates",
            "saturated%",
            "flips",
            "dwell p50",
            "dwell p95",
        ]);
        let mut names: Vec<&String> = units.keys().collect();
        names.sort();
        for name in names {
            let u = &units[name];
            let sat = if u.updates == 0 {
                0.0
            } else {
                100.0 * u.saturated_updates as f64 / u.updates as f64
            };
            t.row(vec![
                name.clone(),
                u.updates.to_string(),
                format!("{sat:.1}"),
                u.flips.to_string(),
                format!("{:.0}", percentile(&u.dwells, 50.0)),
                format!("{:.0}", percentile(&u.dwells, 95.0)),
            ]);
        }
        let _ = writeln!(
            out,
            "== PSEL activity (dwell = accesses between MSB flips) ==\n{}",
            t.render()
        );
    }

    // ---- MSHR occupancy histogram. ----
    if occ_cycles.is_empty() {
        let _ = writeln!(out, "== MSHR occupancy ==\n(no MSHR events in stream)\n");
    } else {
        let total: u64 = occ_cycles.values().sum();
        let max_occ = *occ_cycles
            .keys()
            .max()
            .expect("is_empty checked in the branch above");
        let mut t = Table::with_headers(&["outstanding", "cycles", "%", ""]);
        for occ in 0..=max_occ {
            let c = occ_cycles.get(&occ).copied().unwrap_or(0);
            t.row(share_row(occ.to_string(), c, total));
        }
        let _ = writeln!(out,
            "== MSHR occupancy (time-weighted; peak demand MLP observed: {peak_demand_live}) ==\n{}",
            t.render()
        );
    }

    // ---- Per-set miss skew. ----
    if set_misses.is_empty() {
        let _ = writeln!(
            out,
            "== L2 per-set miss skew ==\n(no L2 miss events in stream)\n"
        );
    } else {
        let total: u64 = set_misses.values().sum();
        let sets = set_misses.len() as u64;
        let mean = total as f64 / sets as f64;
        let mut hot: Vec<(u64, u64)> = set_misses.iter().map(|(&s, &c)| (s, c)).collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut t = Table::with_headers(&["set", "misses", "x mean"]);
        for &(set, count) in hot.iter().take(8) {
            t.row(vec![
                set.to_string(),
                count.to_string(),
                format!("{:.2}", count as f64 / mean),
            ]);
        }
        let _ =
            writeln!(out,
            "== L2 per-set miss skew ({total} misses over {sets} sets, mean {mean:.1}/set) ==\n{}",
            t.render()
        );
    }

    // ---- cost_q transition matrix. ----
    let trans_total: u64 = transitions.iter().flatten().sum();
    if trans_total == 0 {
        let _ = writeln!(
            out,
            "== cost_q transitions ==\n(no repeat-miss serviced events in stream)"
        );
    } else {
        let mut headers = vec!["from\\to".to_string()];
        headers.extend((0..8).map(|q| q.to_string()));
        let mut t = Table::new(headers);
        let mut diagonal = 0u64;
        for (from, row) in transitions.iter().enumerate() {
            let mut cells = vec![from.to_string()];
            for (to, &n) in row.iter().enumerate() {
                if from == to {
                    diagonal += n;
                }
                cells.push(if n == 0 { ".".into() } else { n.to_string() });
            }
            t.row(cells);
        }
        let _ = writeln!(
            out,
            "== cost_q transitions (same line, consecutive misses; {trans_total} pairs, \
             {:.1}% on the diagonal) ==\n{}",
            100.0 * diagonal as f64 / trans_total as f64,
            t.render()
        );
    }

    // ---- Stall attribution ledger. ----
    if ledger.is_empty() {
        let _ = writeln!(
            out,
            "\n== Stall attribution ledger ==\n(no stall_attrib events in stream)"
        );
    } else {
        let total = ledger.total();
        let _ =
            writeln!(out,
            "\n== Stall attribution ledger ({total} cycles over {} (set, cost_q, policy) keys) ==",
            ledger.len()
        );
        // The invariant debug builds of the simulator assert, re-checked
        // here from the stream alone.
        if saw_run_end {
            if total == run_end_stall {
                let _ = writeln!(
                    out,
                    "reconciliation: attributed {total} == run_end mem_stall_cycles \
                     {run_end_stall} (exact)"
                );
            } else {
                let _ = writeln!(
                    out,
                    "reconciliation: attributed {total} != run_end mem_stall_cycles \
                     {run_end_stall} (STREAM INCONSISTENT — truncated file?)"
                );
            }
        } else {
            let _ = writeln!(
                out,
                "reconciliation: no run_end in stream (truncated file?)"
            );
        }

        let mut t = Table::with_headers(&["set", "stall cycles", "%"]);
        for (set, cycles) in ledger.top_sets(8) {
            t.row(vec![
                set.to_string(),
                cycles.to_string(),
                format!("{:.1}", 100.0 * cycles as f64 / total as f64),
            ]);
        }
        let _ = writeln!(out, "\n-- top sets by attributed stall --\n{}", t.render());

        // The stall-weighted sibling of Fig. 5: not "how many misses had
        // cost_q = q" but "how many stall cycles did they cost".
        let by_q = ledger.cost_q_totals();
        let mut t = Table::with_headers(&["cost_q", "stall cycles", "%", ""]);
        for (q, &cycles) in by_q.iter().enumerate() {
            t.row(share_row(bucket_label(q as u8), cycles, total));
        }
        let _ = writeln!(out, "-- stall share by cost_q bucket --\n{}", t.render());

        let split = ledger.lin_lru_split_by_set();
        if split.iter().any(|&(_, lin, lru)| lin > 0 && lru > 0) {
            let mut rows = split;
            rows.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then(a.0.cmp(&b.0)));
            let mut t = Table::with_headers(&["set", "lin cycles", "lru cycles", "lin-lru"]);
            for &(set, lin, lru) in rows.iter().take(8) {
                t.row(vec![
                    set.to_string(),
                    lin.to_string(),
                    lru.to_string(),
                    format!("{:+}", lin as i64 - lru as i64),
                ]);
            }
            let _ = writeln!(
                out,
                "-- LIN vs LRU attributed stall per set (dueling runs/leader sets) --\n{}",
                t.render()
            );
        }
    }

    // ---- Stall episode lengths. ----
    if episodes.count() == 0 {
        let _ = writeln!(
            out,
            "\n== Stall episodes ==\n(no stall_span events in stream)"
        );
    } else {
        let max_b = episodes
            .max_bucket()
            .expect("count() > 0 in the branch above");
        let mut t = Table::with_headers(&["length (cycles)", "episodes", "%", ""]);
        for b in 0..=max_b.min(EPISODE_BUCKETS - 1) {
            let n = episodes.bucket(b);
            t.row(share_row(
                EpisodeHistogram::bucket_label(b),
                n,
                episodes.count(),
            ));
        }
        let _ = writeln!(
            out,
            "\n== Stall episodes ({} spans, {} cycles, mean {:.0}) ==\n{}",
            episodes.count(),
            episodes.total_cycles(),
            episodes.mean(),
            t.render()
        );
    }

    Ok(out)
}
