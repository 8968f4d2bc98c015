//! The `mlpsim` command-line parser: every flag spelling, every malformed
//! value, and every flag the chosen subcommand would ignore. Calls the
//! library parser directly; starts no process.

use mlpsim_experiments::cli::{parse, Args};
use mlpsim_experiments::runner::PlanOptions;

fn parse_line(line: &str) -> Result<Args, String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse(&argv).map(|(_, args)| args)
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
    ] {
        let err = parse_line(line).expect_err(line);
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
