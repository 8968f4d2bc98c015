//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_miss_heavy|sim_hit_heavy|serve_jobs> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with no
//! instrumentation in the timed path. `--trace 1` is a separate run that
//! times calls into each crate's public functions from this benchmark's own
//! code and reports the per-layer metrics (see `metric_map.json`). Both
//! print every metric as `name value unit` lines, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Every simulated cell and every served result is checked
//! against digests recorded in `digests.txt`; a mismatch is a failed
//! operation.
//!
//! Two more modes are for maintaining the benchmark itself:
//! `--record-digests` prints the digest file for the current code, and
//! `--selftest` plants a fixed delay in the timing engine's `victim()` and
//! checks that the per-layer report attributes it to the core layer.

mod digest;
mod layers;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use report::Report;
use std::process::ExitCode;

/// Inputs are drawn from this many recorded seeds: `--seed N` selects
/// `N % INPUT_SEEDS`, so every input the benchmark can generate has a
/// digest recorded from the reference code.
pub const INPUT_SEEDS: u64 = 64;

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sim_miss_heavy", "sim_hit_heavy", "serve_jobs"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: mlpsim_experiments::runner::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record_digests: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} wants a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                let raw = value("--seed")?;
                args.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed wants a non-negative integer, got {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value("--seconds")?;
                args.seconds = match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--seconds wants a positive number, got {raw:?}")),
                };
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--record-digests" => args.record_digests = true,
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.record_digests && !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload wants one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record_digests {
        print!("{}", digest::record_all());
        return ExitCode::SUCCESS;
    }
    if args.selftest {
        return if layers::selftest() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let input_seed = args.seed % INPUT_SEEDS;
    let mut report = Report::new(&args.workload, args.seed, input_seed, args.trace);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("serve_jobs", false) => serve::run(input_seed, args.seconds, &mut report),
        ("serve_jobs", true) => {
            layers::traced(&args.workload, input_seed, args.seconds, &mut report)
        }
        (w, false) => sim::run(w, input_seed, args.seconds, &mut report),
        (w, true) => layers::traced(w, input_seed, args.seconds, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    report.finish();
    ExitCode::SUCCESS
}
