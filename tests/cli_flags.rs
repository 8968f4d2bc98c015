//! The `mlpsim` command-line parser: every flag spelling, every malformed
//! value, and every flag the chosen subcommand would ignore. Calls the
//! library parser (and, for arguments only an entry can check, the entry)
//! directly; starts no process.

use mlpsim_experiments::cli::{parse, Args};
use mlpsim_experiments::runner::PlanOptions;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn parse_line(line: &str) -> Result<Args, String> {
    parse(&argv(line)).map(|(_, args)| args)
}

/// Parses `line` and, if it parses, runs the entry: a positional count or
/// seed is checked by the entry that reads it.
fn run_line(line: &str) -> Result<String, String> {
    parse(&argv(line)).and_then(|(e, args)| (e.run)(&args))
}

#[test]
fn unknown_and_unused_flags_are_errors_naming_the_flag() {
    for (line, flag) in [
        ("fig9 --job 4", "--job"),
        ("table2 --bogus", "--bogus"),
        ("fig1 --telemetry t.ndjson", "--telemetry"),
        ("sweep_latency --telemetry x.ndjson", "--telemetry"),
        ("sweep_cache --accesses 1000", "--accesses"),
        ("fig2 --plan estimate", "--plan"),
        ("all --accesses 1000", "--accesses"),
        ("trace-check --traces t.json t.json", "--traces"),
        // A path flag never eats the next flag; `--telemetry=--x` would.
        ("fig5 --telemetry --accesses", "--accesses"),
        ("table2 extra", "\"extra\""),
        ("debug_regions twolf more", "\"more\""),
        ("trace-gen mcf 20 42 --bogus", "--bogus"),
        ("trace-head t.trace 1x", "\"1x\""),
    ] {
        let err = run_line(line).expect_err(line);
        assert!(err.contains(flag), "{line}: {err}");
    }
}

#[test]
fn malformed_lines_are_errors() {
    for line in [
        "",
        "fig12",
        "all extra",
        "trace-check",
        "fig5 --jobs 0",
        "fig5 --jobs",
        "fig5 --jobs many",
        "fig5 -jx",
        "fig5 --accesses 0",
        "fig5 --accesses",
        "fig5 --telemetry",
        "fig5 --telemetry=",
        "fig5 --trace-out=",
        "fig5 --trace-out --jobs",
        "fig5 --plan maybe",
        "fig5 --plan",
        "fig5 --plan estimate --prune-margin lots",
        "fig5 --plan estimate --prune-margin -0.1",
        "fig5 --plan estimate --prune-margin NaN",
        "fig5 --plan estimate --prune-margin",
        // A margin without the planner is a contradiction, not a no-op.
        "fig5 --prune-margin 0.01",
        "fig5 --plan full --prune-margin 0.01",
        "trace-gen mcf 20",
        "trace-head",
    ] {
        assert!(parse_line(line).is_err(), "{line:?} should fail");
    }
}

#[test]
fn every_spelling_of_the_used_flags_parses() {
    let a =
        parse_line("fig5 --accesses 4000 -j 4 --telemetry f.ndjson --trace-out=t.json").unwrap();
    assert_eq!(
        (
            a.jobs,
            a.accesses,
            a.telemetry.as_deref(),
            a.trace_out.as_deref()
        ),
        (Some(4), Some(4000), Some("f.ndjson"), Some("t.json"))
    );
    for (line, jobs) in [
        ("fig5 -j4", 4),
        ("fig5 -j 2", 2),
        ("fig5 --jobs=8", 8),
        ("fig5 -j1 --jobs 6", 6),
    ] {
        assert_eq!(parse_line(line).unwrap().jobs, Some(jobs), "{line}");
    }
    assert_eq!(parse_line("fig5").unwrap(), Args::default());
    let odd = parse_line("fig5 --telemetry=--odd.ndjson").unwrap();
    assert_eq!(odd.telemetry.as_deref(), Some("--odd.ndjson"));
    assert_eq!(
        parse_line("all -j2 --telemetry o.ndjson").unwrap().jobs,
        Some(2)
    );
    assert_eq!(
        parse_line("telemetry-report --traces d.json")
            .unwrap()
            .traces
            .as_deref(),
        Some("d.json")
    );
    let a = parse_line("trace-gen mcf 20 42 out.trace --telemetry=g.ndjson").unwrap();
    assert_eq!(
        (a.positional(3), a.telemetry.as_deref()),
        (Some("out.trace"), Some("g.ndjson"))
    );
    let a = parse_line("debug_phases ammp 1000").unwrap();
    assert_eq!(
        (a.positional(0), a.positional(1)),
        (Some("ammp"), Some("1000"))
    );
}

#[test]
fn plan_flags_parse() {
    let margin = |line: &str| parse_line(line).unwrap().plan.map(|p| p.margin);
    assert_eq!(margin("fig5 --plan full"), None);
    assert_eq!(
        margin("fig5 --plan estimate"),
        Some(PlanOptions::default().margin)
    );
    assert_eq!(
        margin("fig4 --plan=estimate --prune-margin 0.02"),
        Some(0.02)
    );
    assert_eq!(margin("fig9 --plan estimate --prune-margin=0"), Some(0.0));
}
