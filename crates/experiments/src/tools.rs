//! Diagnostic subcommands `mlpsim all` does not run: the generator-tuning
//! dashboard, two per-benchmark drill-downs, and the `--trace-out`
//! validator.

use crate::cli::{parse_bench, u64_from_arg, Args};
use crate::figures::ipc_gain;
use crate::paper::paper_row;
use crate::runner::run_matrix;
use mlpsim_analysis::table::Table;
use mlpsim_analysis::util::percent_improvement;
use mlpsim_cpu::config::SystemConfig;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::system::System;
use mlpsim_telemetry::span::check_disjoint;
use mlpsim_telemetry::Json;
use mlpsim_trace::spec::SpecBench;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Generator-tuning dashboard: per-benchmark LRU characteristics plus
/// LIN(4)/SBAR deltas beside the paper's targets — the instrument used to
/// tune `mlpsim-trace`'s synthetic workloads until the qualitative shapes
/// of Fig. 2, Table 1, Figs. 4/5 and Fig. 9 match the paper.
pub fn calibrate(args: &Args) -> Result<String, String> {
    let mut t = Table::with_headers(&[
        "bench", "ipc", "mpki", "comp%", "iso%", "d<60%", "dAvg", "LINipc%", "(paper)", "LINmiss%",
        "(paper)", "SBARipc%", "(paper)",
    ]);
    let policies = [
        PolicyKind::Lru,
        PolicyKind::lin4(),
        PolicyKind::sbar_default(),
    ];
    let matrix = run_matrix(&SpecBench::ALL, &policies, &args.run_options()?);
    for (bench, results) in SpecBench::ALL.into_iter().zip(&matrix) {
        let (lru, lin, sbar) = (&results[0], &results[1], &results[2]);
        let p = paper_row(bench);
        t.row(vec![
            bench.name().into(),
            format!("{:.3}", lru.ipc()),
            format!("{:.1}", lru.l2_mpki()),
            format!("{:.1}", lru.compulsory_pct()),
            format!("{:.1}", lru.cost_hist.percent(7)),
            format!("{:.0}", lru.deltas.pct_lt60()),
            format!("{:.0}", lru.deltas.average()),
            ipc_gain(lin, lru),
            format!("{:+.1}", p.lin_ipc_pct),
            format!(
                "{:+.1}",
                percent_improvement(lin.l2.misses as f64, lru.l2.misses as f64)
            ),
            format!("{:+.1}", p.lin_miss_pct),
            ipc_gain(sbar, lru),
            format!("{:+.1}", p.sbar_ipc_pct),
        ]);
    }
    Ok(format!("{}\n", t.render()))
}

/// Per-address-slot miss breakdown for one benchmark under LRU vs LIN, to
/// see which workload component a policy is hurting.
pub fn debug_regions(args: &Args) -> Result<String, String> {
    let bench = parse_bench(args.positional(0).unwrap_or("twolf"))?;
    let trace = bench.generate(420_000, 42);
    let mut acc: HashMap<u64, u64> = HashMap::new();
    for a in trace.iter() {
        *acc.entry(a.line >> 24).or_default() += 1;
    }
    let mut out = format!("bench {}: {} accesses\n", bench.name(), trace.len());
    for policy in [PolicyKind::Lru, PolicyKind::lin4()] {
        let mut cfg = SystemConfig::baseline(policy);
        cfg.collect_miss_log = true;
        let r = System::new(cfg).run(trace.iter());
        let _ = writeln!(
            out,
            "{:8} ipc {:.3} l2miss {:6} iso% {:4.1} meanCost {:3.0} stallEp {:6} memStall {}",
            r.policy,
            r.ipc(),
            r.l2.misses,
            r.cost_hist.percent(7),
            r.cost_hist.mean(),
            r.stall_episodes,
            r.mem_stall_cycles,
        );
        let mut slot_miss: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        for &(line, cost) in &r.miss_log {
            let e = slot_miss.entry(line >> 24).or_default();
            e.0 += 1;
            e.1 += cost;
        }
        for (slot, (m, cost_sum)) in slot_miss {
            let _ = writeln!(
                out,
                "   slot{}: {:7} misses (of {:7} acc) avgCost {:4.0}",
                slot,
                m,
                acc.get(&slot).copied().unwrap_or(0),
                cost_sum / m as f64
            );
        }
    }
    Ok(out)
}

/// Per-interval IPC/MPKI/cost_q for LRU vs LIN vs SBAR on a phased
/// benchmark — a raw-text preview of Fig. 11.
pub fn debug_phases(args: &Args) -> Result<String, String> {
    let bench = parse_bench(args.positional(0).unwrap_or("ammp"))?;
    let interval = u64_from_arg(args.positional(1), "interval", 400_000)?;
    let trace = bench.generate(420_000, 42);
    let mut out = String::new();
    let mut results = Vec::new();
    for policy in [
        PolicyKind::Lru,
        PolicyKind::lin4(),
        PolicyKind::sbar_default(),
    ] {
        let mut cfg = SystemConfig::baseline(policy);
        cfg.sample_interval = Some(interval);
        let r = System::new(cfg).run(trace.iter());
        let _ = writeln!(
            out,
            "{:10} total ipc {:.3} misses {} {}",
            r.policy,
            r.ipc(),
            r.l2.misses,
            r.policy_debug.as_deref().unwrap_or("")
        );
        results.push(r);
    }
    out.push_str("\ninterval  lru-ipc  lin-ipc  sbar-ipc   lru-mpki  lin-mpki  sbar-mpki  lru-cq  lin-cq  sbar-cq\n");
    let n = results.iter().map(|r| r.samples.len()).min().unwrap_or(0);
    for i in 0..n {
        let s: Vec<_> = results.iter().map(|r| &r.samples[i]).collect();
        let _ = writeln!(
            out,
            "{:8} {:8.3} {:8.3} {:9.3} {:10.1} {:9.1} {:10.1} {:7.2} {:7.2} {:8.2}",
            i,
            s[0].ipc,
            s[1].ipc,
            s[2].ipc,
            s[0].mpki,
            s[1].mpki,
            s[2].mpki,
            s[0].avg_cost_q,
            s[1].avg_cost_q,
            s[2].avg_cost_q
        );
    }
    Ok(out)
}

/// Validates a Chrome trace-event file written by `--trace-out`: the
/// document parses and carries a `traceEvents` array, every complete
/// (`"ph": "X"`) slice has numeric `ts`/`dur`, and within each
/// `(pid, tid)` row the slices are disjoint in file order — MSHR slot
/// occupancies and stall episodes are interval timelines, so an overlap
/// means the simulator emitted a corrupt stream.
pub fn trace_check(args: &Args) -> Result<String, String> {
    let path = args
        .positional(0)
        .ok_or("usage: mlpsim trace-check <trace.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err(format!("{path}: no traceEvents array"));
    };

    // Row timelines in file order; names for diagnostics.
    let mut rows: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    let mut names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut slices = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        match ph {
            "X" => {
                let (Some(ts), Some(dur)) = (
                    ev.get("ts").and_then(Json::as_u64),
                    ev.get("dur").and_then(Json::as_u64),
                ) else {
                    return Err(format!("{path}: slice #{i} lacks numeric ts/dur"));
                };
                rows.entry((pid, tid)).or_default().push((ts, ts + dur));
                slices += 1;
            }
            "M" => {
                let name = ev.get("args").and_then(|a| a.get("name"));
                if let Some(name) = name.and_then(Json::as_str) {
                    names.insert((pid, tid), name.to_string());
                }
            }
            other => return Err(format!("{path}: event #{i} has unexpected phase {other:?}")),
        }
    }

    for (coord, intervals) in &rows {
        if let Err(i) = check_disjoint(intervals) {
            let row = names
                .get(coord)
                .cloned()
                .unwrap_or_else(|| format!("pid {} tid {}", coord.0, coord.1));
            return Err(format!(
                "{path}: overlapping slices on row {row:?}: interval #{i} ({:?}) starts \
                 before its predecessor ends",
                intervals[i]
            ));
        }
    }

    let dropped = doc
        .get("droppedSliceCount")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let note = if dropped > 0 {
        format!(" ({dropped} slices dropped at the cap)")
    } else {
        String::new()
    };
    Ok(format!(
        "{path}: ok — {slices} slices over {} rows, all disjoint{note}\n",
        rows.len()
    ))
}
