//! The paper's side claims (§6.4, §6.6, footnotes 3 and 4) and the
//! extension experiments past its evaluation, as report functions: each
//! returns the exact text its `mlpsim` subcommand prints.

use crate::cli::Args;
use crate::figures::{gains_row, ipc_gain};
use crate::runner::{run_many, run_matrix, run_variants, RunOptions};
use mlpsim_analysis::sampling::p_best;
use mlpsim_analysis::stats::Summary;
use mlpsim_analysis::table::Table;
use mlpsim_analysis::util::percent_improvement;
use mlpsim_cache::addr::Geometry;
use mlpsim_core::bcl::BclConfig;
use mlpsim_core::ccl::AdderMode;
use mlpsim_core::overhead::{cbs_overhead, lin_overhead, sbar_overhead, OverheadParams};
use mlpsim_cpu::config::{CostAccounting, SystemConfig};
use mlpsim_cpu::icache::IcacheConfig;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::prefetch::PrefetchConfig;
use mlpsim_cpu::stats::SimResult;
use mlpsim_cpu::wrongpath::WrongPathConfig;
use mlpsim_exec::WorkerPool;
use mlpsim_trace::spec::SpecBench;
use std::fmt::Write as _;

const LRU_LIN: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Lin { lambda: 4 }];

fn lru_lin_sbar() -> [PolicyKind; 3] {
    [
        PolicyKind::Lru,
        PolicyKind::lin4(),
        PolicyKind::sbar_default(),
    ]
}

/// §6.6: SBAR vs CBS-global vs CBS-local. Except for art and ammp, SBAR is
/// within 1% of the best CBS variant with 64× fewer ATD entries.
pub fn cbs_compare(args: &Args) -> Result<String, String> {
    let mut t = Table::with_headers(&["bench", "SBAR", "CBS-global", "CBS-local", "SBAR-best"]);
    let mut within_1pct = 0;
    let policies = [
        PolicyKind::Lru,
        PolicyKind::sbar_default(),
        PolicyKind::CbsGlobal,
        PolicyKind::CbsLocal,
    ];
    let matrix = run_matrix(&SpecBench::ALL, &policies, &args.run_options()?);
    for (bench, results) in SpecBench::ALL.into_iter().zip(&matrix) {
        let lru = &results[0];
        let sbar = percent_improvement(results[1].ipc(), lru.ipc());
        let global = percent_improvement(results[2].ipc(), lru.ipc());
        let local = percent_improvement(results[3].ipc(), lru.ipc());
        let best_cbs = global.max(local);
        let gap = sbar - best_cbs;
        if gap.abs() <= 1.0 || sbar >= best_cbs {
            within_1pct += 1;
        }
        t.row(vec![
            bench.name().into(),
            format!("{sbar:+.1}"),
            format!("{global:+.1}"),
            format!("{local:+.1}"),
            format!("{gap:+.1}"),
        ]);
    }
    Ok(format!(
        "Section 6.6 — IPC improvement (%) over LRU: SBAR vs CBS variants\n\n{}\n\
         {within_1pct}/{} benchmarks have SBAR within 1% of (or above) the best CBS\n\
         variant; SBAR uses 64x fewer ATD entries (32 leader sets x 1 ATD vs 1024 sets x 2 ATDs).\n",
        t.render(),
        matrix.len()
    ))
}

/// §6.4 / §1.2: the hardware storage budget of LIN's cost tracking,
/// SBAR's adaptation and the CBS variants SBAR replaces. The paper prices
/// SBAR at 1854 B, "less than 0.2% area of the baseline 1MB cache".
pub fn overhead(_: &Args) -> Result<String, String> {
    let p = OverheadParams::paper_baseline();
    let mut t = Table::with_headers(&[
        "mechanism",
        "ATD bits",
        "PSEL bits",
        "cost_q bits",
        "MSHR bits",
        "total B",
        "% of 1MB",
    ]);
    let rows = [
        ("LIN cost tracking", lin_overhead(&p)),
        ("SBAR adaptation", sbar_overhead(&p)),
        ("CBS-global", cbs_overhead(&p, false)),
        ("CBS-local", cbs_overhead(&p, true)),
    ];
    for (name, o) in rows {
        t.row(vec![
            name.into(),
            format!("{}", o.atd_bits),
            format!("{}", o.psel_bits),
            format!("{}", o.cost_q_bits),
            format!("{}", o.mshr_bits),
            format!("{}", o.total_bytes()),
            format!("{:.3}", o.fraction_of(p.geometry) * 100.0),
        ]);
    }
    let sbar = sbar_overhead(&p);
    let mut out = format!(
        "Hardware overhead model (40-bit physical addresses, {} tag bits)\n\n{}\n\
         SBAR: {} B vs the paper's 1854 B (the difference is the paper's unstated tag\n\
         width); {}x fewer ATD bits than CBS.\n\
         \nSBAR budget vs leader-set count:\n",
        p.tag_bits(),
        t.render(),
        sbar.total_bytes(),
        cbs_overhead(&p, true).atd_bits / sbar.atd_bits
    );
    for k in [8u32, 16, 32, 64] {
        let pk = OverheadParams {
            leader_sets: k,
            ..p
        };
        let _ = writeln!(
            out,
            "  k = {:2} -> {:5} B",
            k,
            sbar_overhead(&pk).total_bytes()
        );
    }
    Ok(out)
}

/// Footnote 3: one adder per MSHR entry vs four time-shared adders in the
/// cost-calculation logic, on the highest-MLP benchmarks. The paper: time
/// sharing "has only a negligible effect on the absolute value of the
/// MLP-based cost".
pub fn ablate_adders(args: &Args) -> Result<String, String> {
    const BENCHES: [SpecBench; 3] = [SpecBench::Art, SpecBench::Mcf, SpecBench::Sixtrack];
    let mut t = Table::with_headers(&["bench", "adders", "meanCost", "iso%", "LINipc%"]);
    let modes = [
        ("per-entry", AdderMode::PerEntry),
        ("4-shared", AdderMode::paper_shared()),
    ];
    // One set of sinks: both modes stream into the same telemetry file.
    let base = args.run_options()?;
    let matrices: Vec<_> = modes
        .iter()
        .map(|&(_, adders)| {
            let opts = RunOptions {
                adders,
                ..base.clone()
            };
            run_matrix(&BENCHES, &LRU_LIN, &opts)
        })
        .collect();
    for (bi, bench) in BENCHES.into_iter().enumerate() {
        for ((label, _), matrix) in modes.iter().zip(&matrices) {
            let (lru, lin) = (&matrix[bi][0], &matrix[bi][1]);
            t.row(vec![
                bench.name().into(),
                (*label).into(),
                format!("{:.1}", lru.cost_hist.mean()),
                format!("{:.1}", lru.cost_hist.percent(7)),
                ipc_gain(lin, lru),
            ]);
        }
    }
    Ok(format!(
        "Footnote-3 ablation — per-entry adders vs 4 time-shared adders\n\n{}\n\
         Expected: mean cost differs by well under one quantization bucket (60 cycles)\n\
         and the LIN improvement is unchanged — the paper's \"negligible effect\".\n",
        t.render()
    ))
}

/// λ past the paper's sweep: Figure 4 stops at λ = 4; this goes to 16 to
/// show where the cost term saturates (once λ·cost_q dwarfs the 0–15
/// recency range, LIN degenerates into cost order with a recency
/// tie-break).
pub fn ablate_lambda(args: &Args) -> Result<String, String> {
    let benches = [
        SpecBench::Art,
        SpecBench::Mcf,
        SpecBench::Vpr,
        SpecBench::Parser,
        SpecBench::Mgrid,
    ];
    let lambdas = [2u32, 4, 6, 8, 16];
    let mut headers = vec!["bench".to_string()];
    headers.extend(lambdas.iter().map(|l| format!("lin({l})")));
    let mut t = Table::new(headers);
    let mut policies = vec![PolicyKind::Lru];
    policies.extend(lambdas.iter().map(|&lambda| PolicyKind::Lin { lambda }));
    let matrix = run_matrix(&benches, &policies, &args.run_options()?);
    for (bench, results) in benches.into_iter().zip(&matrix) {
        t.row(gains_row(bench, results));
    }
    Ok(format!(
        "Lambda ablation — IPC improvement (%) over LRU for large lambda\n\n{}\n\
         Past lambda = 4 the winners saturate (cost_q >= 4 already outbids every\n\
         recency position) while the losers keep getting worse — the paper's choice\n\
         of lambda = 4 sits at the knee.\n",
        t.render()
    ))
}

/// Footnote 4: accrue mlp-cost every cycle (Algorithm 1 as written) vs
/// only during full-window stall cycles. The paper found no significant
/// difference in the relative cost or in LIN's improvement.
pub fn ablate_stall_accounting(args: &Args) -> Result<String, String> {
    const BENCHES: [SpecBench; 3] = [SpecBench::Mcf, SpecBench::Vpr, SpecBench::Art];
    const MODES: [(&str, CostAccounting); 2] = [
        ("all-cycles", CostAccounting::AllCycles),
        ("stall-only", CostAccounting::StallCyclesOnly),
    ];
    let table = lin_gain_table(
        args,
        &["bench", "accounting", "meanCost", "iso%", "LINipc%"],
        (&BENCHES, 200_000),
        &MODES,
        |p, (_, acc)| SystemConfig {
            cost_accounting: acc,
            ..SystemConfig::baseline(p)
        },
        |(label, _), lru| {
            vec![
                label.into(),
                format!("{:.1}", lru.cost_hist.mean()),
                format!("{:.1}", lru.cost_hist.percent(7)),
            ]
        },
    );
    Ok(format!(
        "Footnote-4 ablation — all-cycles vs stall-cycles-only cost accounting\n\n{table}\n\
         Expected (paper footnote 4): absolute costs shrink a little under stall-only\n\
         accounting while the relative values — and hence LIN's decisions — barely\n\
         move (mcf, vpr). A caveat the first-order model makes visible: populations\n\
         whose cost sits on a 60-cycle quantization edge can flip buckets under the\n\
         alternative accounting and change how strongly LIN pins them (art).\n"
    ))
}

/// §2/§5's generality claim — "any cost-sensitive replacement scheme …
/// can be used": the same MLP-based cost_q fed to the paper's LIN and to a
/// Jeong & Dubois-style BCL (the paper's reference \[8\]).
pub fn care_alternatives(args: &Args) -> Result<String, String> {
    let mut t = Table::with_headers(&["bench", "LIN(4)", "BCL(d4,c4)", "BCL(d8,c2)"]);
    let policies = [
        PolicyKind::Lru,
        PolicyKind::lin4(),
        PolicyKind::Bcl(BclConfig {
            depth: 4,
            credit: 4,
        }),
        PolicyKind::Bcl(BclConfig {
            depth: 8,
            credit: 2,
        }),
    ];
    let matrix = run_matrix(&SpecBench::ALL, &policies, &args.run_options()?);
    for (bench, results) in SpecBench::ALL.into_iter().zip(&matrix) {
        t.row(gains_row(bench, results));
    }
    Ok(format!(
        "CARE alternatives — IPC improvement (%) over LRU with the same mlp-cost input\n\n{}\n\
         Both engines consume the identical CCL-computed cost_q; only the victim\n\
         function differs. BCL's credit bound trades some of LIN's upside for\n\
         robustness on the cost-unpredictable trio (bzip2/parser/mgrid).\n",
        t.render()
    ))
}

/// LIN and SBAR gains across one machine parameter: `variants` labelled
/// columns, each applied to the baseline by `config`.
fn lin_sbar_sweep<V: Copy>(
    args: &Args,
    benches: &[SpecBench],
    accesses: usize,
    variants: &[(&str, V)],
    config: fn(PolicyKind, V) -> SystemConfig,
) -> String {
    let values: Vec<V> = variants.iter().map(|&(_, v)| v).collect();
    let mut headers = vec!["bench".to_string()];
    for (label, _) in variants {
        headers.push(format!("LIN@{label}"));
        headers.push(format!("SBAR@{label}"));
    }
    let mut t = Table::new(headers);
    let grid = run_variants(
        benches,
        accesses,
        &values,
        &lru_lin_sbar(),
        args.jobs(),
        config,
    );
    for (bench, cells) in benches.iter().zip(&grid) {
        let mut row = vec![bench.name().to_string()];
        for cell in cells {
            row.push(ipc_gain(&cell[1], &cell[0]));
            row.push(ipc_gain(&cell[2], &cell[0]));
        }
        t.row(row);
    }
    t.render()
}

/// LIN's gain across one machine parameter, one row per bench × variant:
/// the bench, the columns `describe` renders from the variant and its LRU
/// run, then LIN's IPC gain over that LRU run.
fn lin_gain_table<V: Copy>(
    args: &Args,
    headers: &[&str],
    (benches, accesses): (&[SpecBench], usize),
    variants: &[V],
    config: fn(PolicyKind, V) -> SystemConfig,
    describe: fn(V, &SimResult) -> Vec<String>,
) -> String {
    let mut t = Table::with_headers(headers);
    let grid = run_variants(benches, accesses, variants, &LRU_LIN, args.jobs(), config);
    for (bench, row) in benches.iter().zip(&grid) {
        for (&variant, cell) in variants.iter().zip(row) {
            let mut cells = vec![bench.name().to_string()];
            cells.extend(describe(variant, &cell[0]));
            cells.push(ipc_gain(&cell[1], &cell[0]));
            t.row(cells);
        }
    }
    t.render()
}

/// L2 capacity halved and doubled around the paper's 1 MB. At 512 KB the
/// protectable structures no longer fit, so LIN's wins shrink and its
/// losses deepen; at 2 MB most working sets fit and the policies converge.
pub fn sweep_cache(args: &Args) -> Result<String, String> {
    let benches = [
        SpecBench::Mcf,
        SpecBench::Vpr,
        SpecBench::Parser,
        SpecBench::Art,
    ];
    let sizes = [("512K", 512u64 << 10), ("1M", 1 << 20), ("2M", 2 << 20)];
    let table = lin_sbar_sweep(args, &benches, 420_000, &sizes, |p, bytes| {
        let geom = Geometry::new(bytes, 16, 64).expect("valid L2 geometry");
        SystemConfig {
            l2: geom,
            ..SystemConfig::baseline(p)
        }
    });
    Ok(format!(
        "Cache-capacity sweep — LIN / SBAR IPC improvement (%) over same-size LRU\n\n{table}\n\
         SBAR tracks or beats LIN at every capacity; its recovery toward LRU is\n\
         strongest when LIN's losses come from isolated misses (parser@1M) and\n\
         weaker when they come from many cheap parallel misses (mcf@512K), whose\n\
         cost_q-weighted PSEL updates understate the true stall balance.\n"
    ))
}

/// DRAM latency scaled around the baseline 400 cycles (keeping the
/// 44-cycle bus): MLP-aware replacement's leverage grows with the
/// processor–memory gap, since the farther memory is, the more an
/// isolated miss costs relative to a parallel one.
pub fn sweep_latency(args: &Args) -> Result<String, String> {
    let benches = [SpecBench::Mcf, SpecBench::Vpr, SpecBench::Sixtrack];
    let latencies = [("100", 100u64), ("200", 200), ("400", 400), ("800", 800)];
    let table = lin_sbar_sweep(args, &benches, 250_000, &latencies, |p, latency| {
        let mut cfg = SystemConfig::baseline(p);
        cfg.mem.dram_access_cycles = latency;
        cfg
    });
    Ok(format!(
        "Memory-latency sweep — LIN / SBAR IPC improvement (%) over same-latency LRU\n\n{table}\n\
         Latency is the DRAM access time in cycles (444-cycle baseline = 400 + 44 bus).\n\
         Caveat: the quantizer's 60-cycle buckets are calibrated for ~444-cycle\n\
         misses; at 100-cycle memory most misses collapse into the bottom buckets and\n\
         the cost differential (and LIN's leverage) fades — the other face of the\n\
         same effect that makes MLP-awareness increasingly valuable as memory recedes.\n"
    ))
}

/// The structures that *create* MLP — the instruction window and the MSHR
/// file — swept around the baseline. A tiny window serializes every miss
/// and a huge one overlaps them all; either way there is no cost
/// differential for LIN to exploit.
pub fn sweep_mlp_limits(args: &Args) -> Result<String, String> {
    const BENCHES: [SpecBench; 2] = [SpecBench::Mcf, SpecBench::Art];
    const LIMITS: [(usize, usize); 4] = [(32, 32), (128, 8), (128, 32), (512, 32)];
    let table = lin_gain_table(
        args,
        &[
            "bench", "window", "mshr", "meanCost", "iso%", "peakMLP", "LINipc%",
        ],
        (&BENCHES, 200_000),
        &LIMITS,
        |p, (w, m)| {
            let mut cfg = SystemConfig::baseline(p);
            cfg.cpu.window = w;
            cfg.mem.mshr_entries = m;
            cfg
        },
        |(window, mshr), lru| {
            vec![
                format!("{window}"),
                format!("{mshr}"),
                format!("{:.0}", lru.cost_hist.mean()),
                format!("{:.1}", lru.cost_hist.percent(7)),
                format!("{}", lru.peak_mlp),
            ]
        },
    );
    Ok(format!(
        "MLP-limit sweep — window size and MSHR entries vs cost profile and LIN gain\n\n{table}\n\
         At a 512-entry window even the \"isolated\" accesses (192-instruction gaps)\n\
         overlap: the mean cost collapses, the isolated fraction hits zero, and LIN's\n\
         leverage evaporates — cost differentials are what MLP-aware replacement eats.\n\
         Around the 128-entry baseline the differential (and LIN's gain) is widest;\n\
         the MSHR only binds once the window can expose more misses than it holds.\n"
    ))
}

/// Instruction fetch turned on with a swept code footprint. The paper
/// counts L2 instruction misses as demand misses (§3.1) but evaluates
/// data-bound benchmarks, so the main experiments use a perfect I-cache;
/// this shows a kernel-sized footprint changes nothing, while a thrashing
/// one injects demand misses the CCL costs like any other.
pub fn icache_effects(args: &Args) -> Result<String, String> {
    const BENCHES: [SpecBench; 2] = [SpecBench::Mcf, SpecBench::Sixtrack];
    const FOOTPRINTS: [u64; 4] = [0, 64, 512, 2048];
    let table = lin_gain_table(
        args,
        &[
            "bench",
            "code",
            "I-miss",
            "fetch-stall%",
            "ipc",
            "meanCost",
            "LINipc%",
        ],
        (&BENCHES, 150_000),
        &FOOTPRINTS,
        |p, lines| SystemConfig {
            icache: (lines > 0).then(|| IcacheConfig::baseline(lines)),
            ..SystemConfig::baseline(p)
        },
        |code_lines, lru| {
            vec![
                if code_lines == 0 {
                    "perfect".into()
                } else {
                    format!("{code_lines} lines")
                },
                format!("{}", lru.icache.misses),
                format!(
                    "{:.1}",
                    lru.ifetch_stall_cycles as f64 * 100.0 / lru.cycles.max(1) as f64
                ),
                format!("{:.3}", lru.ipc()),
                format!("{:.0}", lru.cost_hist.mean()),
            ]
        },
    );
    Ok(format!(
        "Instruction-fetch effects — code footprint vs IPC and cost profile\n\n{table}\n\
         Kernel-sized code (64 lines) is indistinguishable from a perfect I-cache,\n\
         justifying the main experiments' configuration. Thrashing code (2048 lines\n\
         = 128 KB) adds a steady stream of L2 instruction misses that dilute data\n\
         misses' measured cost and compress LIN's advantage.\n"
    ))
}

/// Wrong-path loads occupy MSHR entries, banks and bus slots and pollute
/// the caches, but the paper excludes them from demand-miss accounting
/// once the branch resolves (§3.1): the pollution costs IPC while the cost
/// histogram stays anchored to correct-path behavior.
pub fn wrong_path_effects(args: &Args) -> Result<String, String> {
    const BENCHES: [SpecBench; 2] = [SpecBench::Mcf, SpecBench::Vpr];
    const INTERVALS: [u64; 4] = [0, 4_000, 1_000, 250];
    let table = lin_gain_table(
        args,
        &[
            "bench",
            "mispred/kinst",
            "wp-misses",
            "ipc",
            "meanCost",
            "iso%",
            "LINipc%",
        ],
        (&BENCHES, 150_000),
        &INTERVALS,
        |p, i| SystemConfig {
            wrong_path: (i > 0).then_some(WrongPathConfig {
                interval_insts: i,
                burst: 4,
                resolve_cycles: 15,
            }),
            ..SystemConfig::baseline(p)
        },
        |interval, lru| {
            vec![
                if interval == 0 {
                    "perfect".into()
                } else {
                    format!("{:.1}", 1000.0 / interval as f64)
                },
                format!("{}", lru.wrong_path_misses),
                format!("{:.3}", lru.ipc()),
                format!("{:.0}", lru.cost_hist.mean()),
                format!("{:.1}", lru.cost_hist.percent(7)),
            ]
        },
    );
    Ok(format!(
        "Wrong-path effects — misprediction rate vs pollution and cost accounting\n\n{table}\n\
         Heavier wrong-path rates cost IPC through pollution and bandwidth, but the\n\
         demand-cost profile (meanCost, iso%) moves only slightly: demoted misses\n\
         are excluded exactly as the paper prescribes, so LIN's signal survives a\n\
         realistic branch predictor.\n"
    ))
}

/// Next-line prefetching attacks the same stall cycles from the other
/// end: it removes or parallelizes stream misses while replacement
/// protects the isolated ones. Streaming benchmarks (art, sixtrack) soak
/// up prefetch coverage; pointer-chasing mcf gets little and keeps its
/// LIN win.
pub fn prefetch_effects(args: &Args) -> Result<String, String> {
    const BENCHES: [SpecBench; 3] = [SpecBench::Art, SpecBench::Mcf, SpecBench::Sixtrack];
    const DEGREES: [usize; 4] = [0, 1, 2, 4];
    let table = lin_gain_table(
        args,
        &[
            "bench", "degree", "issued", "promoted", "L2miss", "ipc", "LINipc%",
        ],
        (&BENCHES, 150_000),
        &DEGREES,
        |p, degree| SystemConfig {
            prefetch: (degree > 0).then_some(PrefetchConfig { degree }),
            ..SystemConfig::baseline(p)
        },
        |degree, lru| {
            vec![
                format!("{degree}"),
                format!("{}", lru.prefetches_issued),
                format!("{}", lru.prefetches_promoted),
                format!("{}", lru.l2.misses),
                format!("{:.3}", lru.ipc()),
            ]
        },
    );
    Ok(format!(
        "Prefetch interaction — next-line degree vs coverage and LIN headroom\n\n{table}\n\
         Sequential-burst workloads convert their stream misses into prefetch hits\n\
         (watch L2miss fall and ipc rise with degree); random pointer graphs do not.\n\
         LIN's improvement shifts with whatever stall structure prefetching leaves.\n"
    ))
}

/// Parses the CBS-local engine's `psel_lin=<lin>/<total>` census string.
fn parse_census(debug: Option<&str>) -> Result<(usize, usize), String> {
    let debug = debug.ok_or("CBS-local reported no census in policy_debug")?;
    let body = debug.trim_start_matches("psel_lin=");
    let (lin, total) = body
        .split_once('/')
        .ok_or_else(|| format!("malformed census {debug:?}: want psel_lin=<lin>/<total>"))?;
    match (lin.parse(), total.parse()) {
        (Ok(l), Ok(t)) => Ok((l, t)),
        _ => Err(format!("malformed census {debug:?}: non-numeric fields")),
    }
}

/// §6.3's empirical anchor: the fraction `p` of sets favoring the globally
/// best policy, which the paper puts between 0.74 and 0.99. Measured the
/// way hardware sees it — a census of CBS-local's per-set PSELs at the end
/// of the run — and fed back into the Fig. 8 model.
pub fn measure_p(args: &Args) -> Result<String, String> {
    let mut t = Table::with_headers(&[
        "bench",
        "best",
        "lin-sets",
        "p",
        "P(Best) k=8",
        "k=16",
        "k=32",
    ]);
    let (mut lo, mut hi) = (1.0f64, 0.0f64);
    let policies = [PolicyKind::Lru, PolicyKind::lin4(), PolicyKind::CbsLocal];
    let matrix = run_matrix(&SpecBench::ALL, &policies, &args.run_options()?);
    for (bench, results) in SpecBench::ALL.into_iter().zip(&matrix) {
        let (lru, lin, cbs) = (&results[0], &results[1], &results[2]);
        let (lin_sets, total) = parse_census(cbs.policy_debug.as_deref())
            .map_err(|msg| format!("{}: {msg}", bench.name()))?;
        let lin_frac = lin_sets as f64 / total as f64;
        let lin_wins = percent_improvement(lin.ipc(), lru.ipc()) >= 0.0;
        // p is by definition at least 0.5 in the two-policy model.
        let p = if lin_wins { lin_frac } else { 1.0 - lin_frac }.max(0.5);
        (lo, hi) = (lo.min(p), hi.max(p));
        t.row(vec![
            bench.name().into(),
            if lin_wins { "lin" } else { "lru" }.into(),
            format!("{lin_sets}/{total}"),
            format!("{p:.2}"),
            format!("{:.3}", p_best(8, p)),
            format!("{:.3}", p_best(16, p)),
            format!("{:.3}", p_best(32, p)),
        ]);
    }
    Ok(format!(
        "Measured per-set policy preference p (via CBS-local PSEL census)\n\n{}\n\
         Measured p ranges over [{lo:.2}, {hi:.2}] (paper: [0.74, 0.99]); plugging each\n\
         benchmark's p into Eqs. 4-5 gives the per-benchmark probability that SBAR's 32\n\
         sampled leader sets pick the right policy.\n",
        t.render()
    ))
}

/// The headline improvements across independent workload seeds (mean ±
/// 95% CI), so no conclusion rests on one RNG stream.
pub fn multi_seed(args: &Args) -> Result<String, String> {
    const SEEDS: [u64; 5] = [42, 7, 1234, 90210, 31337];
    let benches = [
        SpecBench::Mcf,
        SpecBench::Vpr,
        SpecBench::Parser,
        SpecBench::Mgrid,
        SpecBench::Ammp,
    ];
    let mut t = Table::with_headers(&["bench", "LIN(4)", "SBAR"]);
    // One pool job per (bench, seed): trace generation plus three runs.
    let mut cells = Vec::new();
    for bench in benches {
        for seed in SEEDS {
            cells.push(move || {
                let opts = RunOptions {
                    seed,
                    jobs: 1, // this whole cell is already one worker's job
                    ..RunOptions::default()
                };
                let r = run_many(bench, &lru_lin_sbar(), &opts);
                (
                    percent_improvement(r[1].ipc(), r[0].ipc()),
                    percent_improvement(r[2].ipc(), r[0].ipc()),
                )
            });
        }
    }
    let deltas = WorkerPool::new(args.jobs()).map_ordered(cells);
    for (bench, per_seed) in benches.into_iter().zip(deltas.chunks(SEEDS.len())) {
        let (lin, sbar): (Vec<f64>, Vec<f64>) = per_seed.iter().copied().unzip();
        t.row(vec![
            bench.name().into(),
            Summary::of(&lin).render(),
            Summary::of(&sbar).render(),
        ]);
    }
    Ok(format!(
        "Multi-seed robustness — IPC improvement (%) over LRU, mean ± 95% CI over {} seeds\n\n{}\n\
         Signs and orderings must be stable across seeds; magnitudes may wobble with\n\
         the random region walks.\n",
        SEEDS.len(),
        t.render()
    ))
}
