//! The experiment registry: every table and figure of the paper, the
//! extensions, and the diagnostic tools, each one `mlpsim` subcommand.
//!
//! [`EXPERIMENTS`] is the evaluation in report order — what `mlpsim all`
//! runs — and [`TOOLS`] are subcommands `all` does not run. An entry's
//! `run` returns the exact text the subcommand prints, so `all` can run
//! entries concurrently and still print them in order.

use crate::cli::{Args, Flag};
use crate::{extensions, figures, telemetry_report, tools};
use mlpsim_exec::WorkerPool;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One subcommand.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// What it reproduces, one line.
    pub about: &'static str,
    /// The flags it reads; [`crate::cli::parse`] rejects every other.
    pub flags: &'static [Flag],
    /// Positional arguments: `<required>` or `[optional]`.
    pub positional: &'static [&'static str],
    /// Computes the subcommand's whole standard output.
    pub run: fn(&Args) -> Result<String, String>,
}

const NONE: &[Flag] = &[];
const JOBS: &[Flag] = &[Flag::Jobs];
const TELEMETRY: &[Flag] = &[Flag::Telemetry];
/// A benchmark × policy sweep through [`Args::run_options`].
const SWEEP: &[Flag] = &[Flag::Jobs, Flag::Accesses, Flag::Telemetry, Flag::TraceOut];
/// A sweep that can also run through the sweep planner.
const PLANNED: &[Flag] = &[
    Flag::Jobs,
    Flag::Accesses,
    Flag::Telemetry,
    Flag::TraceOut,
    Flag::Plan,
    Flag::PruneMargin,
];

const fn entry(
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<String, String>,
) -> Experiment {
    Experiment {
        name,
        about,
        flags,
        positional: &[],
        run,
    }
}

/// The evaluation, in report order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    entry("fig1", "Figure 1: OPT vs LRU vs MLP-aware on the motivating loop", NONE, figures::fig1),
    entry("fig2", "Figure 2: mlp-cost distribution per benchmark", SWEEP, figures::fig2),
    entry("fig3b", "Figure 3(b): cost quantization map", NONE, figures::fig3b),
    entry("table1", "Table 1: delta (cost-predictability) distribution", SWEEP, figures::table1),
    entry("table2", "Table 2: baseline machine configuration", NONE, figures::table2),
    entry("table3", "Table 3: benchmark summary (misses, compulsory %)", SWEEP, figures::table3),
    entry("fig4", "Figure 4: IPC improvement of LIN(λ), λ = 1..4", PLANNED, figures::fig4),
    entry("fig5", "Figure 5: cost distribution under LRU vs LIN + ΔMISS/ΔIPC", PLANNED, figures::fig5),
    entry("fig6", "Figure 6: the CBS PSEL update rule (mechanism demo)", NONE, figures::fig6),
    entry("fig7", "Figure 7: hybrid-replacement organizations (structure + budgets)", NONE, figures::fig7),
    entry("fig8", "Figure 8: analytical sampling model", NONE, figures::fig8),
    entry("fig9", "Figure 9: LIN vs SBAR IPC improvement", PLANNED, figures::fig9),
    entry("fig10", "Figure 10: leader-set selection policy / count sweep", SWEEP, figures::fig10),
    entry("fig11", "Figure 11: ammp time-series case study", SWEEP, figures::fig11),
    entry("cbs_compare", "§6.6: SBAR vs CBS-global vs CBS-local", SWEEP, extensions::cbs_compare),
    entry("overhead", "§6.4: hardware-overhead budget (1854 B claim)", NONE, extensions::overhead),
    entry("ablate_adders", "footnote 3: 4 shared adders vs per-entry adders", SWEEP, extensions::ablate_adders),
    entry("ablate_lambda", "extension: LIN(λ) past the paper's λ = 4", SWEEP, extensions::ablate_lambda),
    entry("ablate_stall_accounting", "footnote 4: stall-cycles-only cost accrual", JOBS, extensions::ablate_stall_accounting),
    entry("care_alternatives", "extension: BCL as an alternative cost-sensitive CARE", SWEEP, extensions::care_alternatives),
    entry("sweep_cache", "extension: LIN/SBAR across L2 capacities", JOBS, extensions::sweep_cache),
    entry("sweep_latency", "extension: LIN/SBAR across memory latencies", JOBS, extensions::sweep_latency),
    entry("sweep_mlp_limits", "extension: window and MSHR size sweeps", JOBS, extensions::sweep_mlp_limits),
    entry("icache_effects", "extension: instruction-fetch modeling", JOBS, extensions::icache_effects),
    entry("wrong_path_effects", "extension: wrong-path traffic and demotion", JOBS, extensions::wrong_path_effects),
    entry("prefetch_effects", "extension: next-line prefetching interaction", JOBS, extensions::prefetch_effects),
    entry("measure_p", "extension: §6.3's per-set preference fraction, measured", SWEEP, extensions::measure_p),
    entry("multi_seed", "extension: headline deltas across seeds (mean ± CI)", JOBS, extensions::multi_seed),
];

/// Subcommands `all` does not run.
#[rustfmt::skip]
pub const TOOLS: &[Experiment] = &[
    entry("all", "runs every experiment above (concurrently, output in order)", &[Flag::Jobs, Flag::Telemetry], run_all),
    entry("calibrate", "generator-tuning dashboard against the paper's targets", SWEEP, tools::calibrate),
    Experiment {
        positional: &["[bench]"],
        ..entry("debug_regions", "per-region miss diagnosis (default twolf)", NONE, tools::debug_regions)
    },
    Experiment {
        positional: &["[bench]", "[interval]"],
        ..entry("debug_phases", "per-interval policy comparison (default ammp 400000)", NONE, tools::debug_phases)
    },
    Experiment {
        positional: &["[events.ndjson]"],
        ..entry("telemetry-report", "fold an NDJSON event stream (or a --traces dump) into tables", &[Flag::Traces], telemetry_report::run)
    },
    Experiment {
        positional: &["<trace.json>"],
        ..entry("trace-check", "validate a --trace-out Chrome trace file", NONE, tools::trace_check)
    },
    Experiment {
        positional: &["<bench>", "<accesses>", "<seed>", "[out.trace]"],
        ..entry("trace-gen", "write a synthetic benchmark trace (to stdout without a file)", TELEMETRY, tools::trace_gen)
    },
    Experiment {
        positional: &["<file.trace>"],
        ..entry("trace-summary", "static statistics of a trace file", TELEMETRY, tools::trace_summary)
    },
    Experiment {
        positional: &["<file.trace>", "[n]"],
        ..entry("trace-head", "the first n records of a trace file (default 10)", NONE, tools::trace_head)
    },
];

/// Looks a subcommand up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().chain(TOOLS).find(|e| e.name == name)
}

/// The listing `mlpsim` prints when run without arguments.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: mlpsim <experiment> [flags] [args]\n\n\
         Experiments (`mlpsim all` runs them in this order):\n",
    );
    let list = |out: &mut String, entries: &[Experiment]| {
        for e in entries {
            let _ = writeln!(out, "  {:24} {}", e.name, e.about);
            let mut words: Vec<String> =
                e.flags.iter().map(|f| format!("[{}]", f.usage())).collect();
            words.extend(e.positional.iter().map(|p| p.to_string()));
            if !words.is_empty() {
                let _ = writeln!(out, "  {:24}   {}", "", words.join(" "));
            }
        }
    };
    list(&mut out, EXPERIMENTS);
    out.push_str("\nTools:\n");
    list(&mut out, TOOLS);
    out.push_str(
        "\nEach subcommand accepts only the flags listed under it. --jobs (default: the\n\
         MLPSIM_JOBS variable, else every hardware thread) never changes output bytes.\n",
    );
    out
}

/// Splices `name` into `base`'s file name before its extension:
/// `out.ndjson` → `out.fig9.ndjson`, `telemetry` → `telemetry.fig9`.
pub fn telemetry_path_for(base: &str, name: &str) -> String {
    match base.rfind('.') {
        // Split only at a dot strictly inside the file-name component, so
        // directory dots (`run.d/stream`) and hidden files (`.hidden`)
        // fall through to plain appending.
        Some(i) if i > base.rfind('/').map_or(0, |s| s + 1) => {
            format!("{}.{name}{}", &base[..i], &base[i..])
        }
        _ => format!("{base}.{name}"),
    }
}

/// Runs subcommand `e`: its standard output and, if it failed, the error
/// message. Only `all` has output on failure — every entry that did not
/// fail keeps its report there.
pub fn run(e: &Experiment, args: &Args) -> (String, Option<String>) {
    if e.name == "all" {
        return run_suite(EXPERIMENTS, args);
    }
    match (e.run)(args) {
        Ok(out) => (out, None),
        Err(msg) => (String::new(), Some(msg)),
    }
}

/// `mlpsim all` as a registry entry; [`run`] keeps the report of a run
/// with failures, this drops it.
///
/// # Errors
///
/// Names every entry that failed or panicked, with its message.
fn run_all(args: &Args) -> Result<String, String> {
    match run_suite(EXPERIMENTS, args) {
        (out, None) => Ok(out),
        (_, Some(msg)) => Err(msg),
    }
}

/// Runs `entries` in-process, concurrently on one `--jobs`-sized pool, and
/// returns their outputs in order under `== name` banners, so the report
/// is byte-identical at any job count. Each entry itself runs with one
/// worker — the parallelism budget is spent across experiments, not
/// multiplied within them. `--telemetry` is spliced per entry
/// (`out.ndjson` → `out.fig9.ndjson`) for the entries that stream events,
/// so no two share a file. An entry that fails or panics gets `error: …`
/// in its slot, the others run and print as usual, and the second value
/// lists the failures; the closing `All N experiments completed.` line is
/// printed only when there are none.
fn run_suite(entries: &[Experiment], args: &Args) -> (String, Option<String>) {
    let pool = WorkerPool::new(args.jobs());
    let runs = entries
        .iter()
        .map(|e| {
            let telemetry = args
                .telemetry
                .as_deref()
                .filter(|_| e.flags.contains(&Flag::Telemetry))
                .map(|base| telemetry_path_for(base, e.name));
            let entry_args = Args {
                jobs: Some(1),
                telemetry,
                ..Args::default()
            };
            let run = e.run;
            move || {
                catch_unwind(AssertUnwindSafe(|| run(&entry_args)))
                    .unwrap_or_else(|_| Err("panicked".into()))
            }
        })
        .collect();
    let mut out = String::new();
    let mut failures = Vec::new();
    for (e, result) in entries.iter().zip(pool.map_ordered(runs)) {
        let rule = "================================================================";
        let _ = write!(out, "\n{rule}\n== {}\n{rule}\n", e.name);
        match result {
            Ok(text) => out.push_str(&text),
            Err(msg) => {
                let _ = writeln!(out, "error: {msg}");
                failures.push(format!("{}: {msg}", e.name));
            }
        }
    }
    if !failures.is_empty() {
        return (
            out,
            Some(format!("failed experiments: {}", failures.join("; "))),
        );
    }
    let _ = writeln!(out, "\nAll {} experiments completed.", entries.len());
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().chain(TOOLS).map(|e| e.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn a_failing_entry_keeps_the_other_reports() {
        let entries = [
            entry("ok1", "", NONE, |_| Ok("report\n".into())),
            entry("bad", "", NONE, |_| Err("no such bench".into())),
            entry("boom", "", NONE, |_| panic!("entry bug")),
            entry("ok2", "", NONE, |_| Ok("report\n".into())),
        ];
        let args = Args {
            jobs: Some(2),
            ..Args::default()
        };
        let (out, failure) = run_suite(&entries, &args);
        let banners: Vec<&str> = out.lines().filter(|l| l.starts_with("== ")).collect();
        assert_eq!(banners, ["== ok1", "== bad", "== boom", "== ok2"]);
        assert_eq!(out.matches("report\n").count(), 2, "{out}");
        assert!(out.contains("== bad\n"));
        assert!(out.contains("error: no such bench\n"), "{out}");
        assert!(out.contains("error: panicked\n"), "{out}");
        assert!(!out.contains("experiments completed"), "{out}");
        assert_eq!(
            failure.as_deref(),
            Some("failed experiments: bad: no such bench; boom: panicked")
        );

        let (out, failure) = run_suite(&entries[..1], &args);
        assert_eq!(failure, None);
        assert!(out.ends_with("report\n\nAll 1 experiments completed.\n"));
    }

    #[test]
    fn telemetry_suffix_lands_before_extension() {
        assert_eq!(telemetry_path_for("out.ndjson", "fig9"), "out.fig9.ndjson");
        assert_eq!(
            telemetry_path_for("runs/out.ndjson", "fig9"),
            "runs/out.fig9.ndjson"
        );
        assert_eq!(telemetry_path_for("telemetry", "fig9"), "telemetry.fig9");
        assert_eq!(telemetry_path_for("./noext", "fig9"), "./noext.fig9");
        assert_eq!(telemetry_path_for(".hidden", "fig9"), ".hidden.fig9");
        assert_eq!(
            telemetry_path_for("run.d/stream", "fig9"),
            "run.d/stream.fig9"
        );
    }
}
