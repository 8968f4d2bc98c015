//! The SARIF emitter's output must be well-formed JSON with the SARIF
//! 2.1.0 skeleton — validated end-to-end on the *real* workspace
//! report, using the workspace's own JSON parser as the oracle.

use mlpsim_lint::sarif::to_sarif;
use mlpsim_lint::{lint_workspace, Finding, LintReport};
use mlpsim_telemetry::json::Json;
use std::path::Path;

fn parse(doc: &str) -> Json {
    Json::parse(doc).expect("SARIF output must be well-formed JSON")
}

fn run_of(v: &Json) -> &Json {
    let Some(Json::Arr(runs)) = v.get("runs") else {
        panic!("runs must be an array");
    };
    assert_eq!(runs.len(), 1, "exactly one run per report");
    &runs[0]
}

#[test]
fn workspace_sarif_is_valid_and_complete() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let report = lint_workspace(root);
    let v = parse(&to_sarif(&report));

    assert_eq!(v.get("version").and_then(Json::as_str), Some("2.1.0"));
    let run = run_of(&v);
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver present");
    assert_eq!(
        driver.get("name").and_then(Json::as_str),
        Some("mlpsim-lint")
    );
    let Some(Json::Arr(rules)) = driver.get("rules") else {
        panic!("driver.rules must be an array");
    };
    assert_eq!(rules.len(), 12, "D1–D11 plus the pragma rule");

    // Every finding surfaces as exactly one result, same order.
    let Some(Json::Arr(results)) = run.get("results") else {
        panic!("results must be an array");
    };
    assert_eq!(results.len(), report.findings.len());
    for (res, f) in results.iter().zip(&report.findings) {
        assert_eq!(
            res.get("ruleId").and_then(Json::as_str),
            Some(f.diag.rule.name())
        );
        let loc = res
            .get("locations")
            .and_then(|l| match l {
                Json::Arr(a) => a.first(),
                _ => None,
            })
            .and_then(|l| l.get("physicalLocation"))
            .expect("each result has a physical location");
        assert_eq!(
            loc.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(Json::as_str),
            Some(f.rel_path.as_str())
        );
        assert_eq!(
            loc.get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(Json::as_u64),
            Some(u64::from(f.diag.line.max(1)))
        );
    }
}

#[test]
fn parse_failures_mark_the_invocation_unsuccessful() {
    use mlpsim_lint::rules::{Diagnostic, RuleId};
    let report = LintReport {
        findings: vec![Finding {
            rel_path: "crates/mem/src/dram.rs".into(),
            diag: Diagnostic {
                line: 63,
                rule: RuleId::D7,
                msg: "message with \"quotes\" and a \\ backslash".into(),
            },
        }],
        parse_errors: vec![("crates/x/src/y.rs".into(), "expected `}`".into())],
        files_checked: 2,
    };
    let v = parse(&to_sarif(&report));
    let run = run_of(&v);
    let inv = run
        .get("invocations")
        .and_then(|i| match i {
            Json::Arr(a) => a.first(),
            _ => None,
        })
        .expect("one invocation");
    assert_eq!(
        inv.get("executionSuccessful").and_then(Json::as_bool),
        Some(false)
    );
    let Some(Json::Arr(notes)) = inv.get("toolExecutionNotifications") else {
        panic!("parse errors must surface as notifications");
    };
    assert_eq!(notes.len(), 1);
    let text = notes[0]
        .get("message")
        .and_then(|m| m.get("text"))
        .and_then(Json::as_str)
        .expect("notification text");
    assert!(text.contains("crates/x/src/y.rs"));
}
