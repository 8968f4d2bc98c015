//! SARIF 2.1.0 emission (hand-rolled JSON, dependency-free).
//!
//! One run per report: the driver carries the full D1–D11 rule
//! metadata (so code-scanning UIs can show rule help without a second
//! lookup), every finding becomes a `result` with a physical location,
//! and parse failures surface as tool-execution notifications plus
//! `executionSuccessful: false` — a file the parser cannot read is a
//! blind spot, not a clean bill.
//!
//! Output is deterministic: findings arrive pre-sorted from
//! [`crate::lint_files`] and rule metadata is a fixed table, so
//! identical reports serialize byte-identically (CI can diff artifacts
//! across runs).

use crate::rules::RuleId;
use crate::LintReport;

/// Rule metadata table. Order defines `ruleIndex`; keep every
/// [`RuleId`] variant present or findings fall back to index-less
/// results (valid SARIF, worse UX).
const RULES: &[(RuleId, &str)] = &[
    (
        RuleId::D1,
        "No iteration over HashMap/HashSet in simulation crates: per-process hash \
         randomization makes any order-dependent use nondeterministic across runs.",
    ),
    (
        RuleId::D2,
        "No SystemTime/Instant/thread_rng in simulation logic: wall-clock and ambient \
         randomness break replayability.",
    ),
    (
        RuleId::D3,
        "No bare `as` numeric casts in cost/quantization code: silent truncation must \
         be spelled as a checked or documented conversion.",
    ),
    (
        RuleId::D4,
        "No unwrap()/panic! outside tests: library code surfaces errors; expect() with \
         a proof-of-impossibility string is the sanctioned invariant form.",
    ),
    (
        RuleId::D5,
        "Every probe.emit(..) must sit under an `if` naming the ENABLED gate, or the \
         payload is built even in NoProbe builds.",
    ),
    (
        RuleId::D6,
        "A file that accepts sockets outside tests must also arm a read timeout, or \
         one stalled client hangs a server thread forever.",
    ),
    (
        RuleId::D7,
        "Bare +/-/*/<< on cycle/address/timestamp-typed values in the timing crates: \
         spell the bound (wrapping_*/saturating_*/checked_*) or justify with a \
         bounded pragma.",
    ),
    (
        RuleId::D8,
        "No function transitively reachable from a serve request handler may panic: a \
         malformed request must get an error response, not kill the handler thread.",
    ),
    (
        RuleId::D9,
        "Values derived from the prof::now_ns() host clock must not flow into \
         SimResult or simulation event payloads.",
    ),
    (
        RuleId::D10,
        "Concurrency-order audit: atomic store/load Ordering pairs on one cell must \
         be consistent, and no two locks may be acquired in opposite nesting orders.",
    ),
    (
        RuleId::D11,
        "Inside crates/serve request-path code, no bare eprintln!: stderr lines must \
         go through the structured serve::log helpers so each is one parseable JSON \
         document carrying the request's trace id.",
    ),
    (
        RuleId::Pragma,
        "Malformed lint pragma: unknown rule name or missing justification string.",
    ),
];

/// Renders the report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &LintReport) -> String {
    let mut s = String::with_capacity(4096 + report.findings.len() * 256);
    s.push_str("{\n");
    s.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");

    // tool.driver with the rule table.
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"mlpsim-lint\",\n");
    s.push_str(&format!(
        "          \"version\": \"{}\",\n",
        esc(env!("CARGO_PKG_VERSION"))
    ));
    s.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        s.push_str(&format!(
            "            {{ \"id\": \"{}\", \"shortDescription\": {{ \"text\": \"{}\" }}, \
             \"defaultConfiguration\": {{ \"level\": \"error\" }} }}{}\n",
            esc(id.name()),
            esc(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    s.push_str("          ]\n        }\n      },\n");

    // invocation: parse failures mean the analysis did not fully run.
    s.push_str("      \"invocations\": [\n        {\n");
    s.push_str(&format!(
        "          \"executionSuccessful\": {}",
        report.parse_errors.is_empty()
    ));
    if report.parse_errors.is_empty() {
        s.push('\n');
    } else {
        s.push_str(",\n          \"toolExecutionNotifications\": [\n");
        for (i, (path, err)) in report.parse_errors.iter().enumerate() {
            s.push_str(&format!(
                "            {{ \"level\": \"error\", \"message\": {{ \"text\": \
                 \"{}: {}\" }} }}{}\n",
                esc(path),
                esc(err),
                if i + 1 < report.parse_errors.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("          ]\n");
    }
    s.push_str("        }\n      ],\n");

    // results: one per finding, in the report's (already sorted) order.
    s.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i == 0 {
            s.push('\n');
        }
        let rule_index = RULES.iter().position(|(id, _)| *id == f.diag.rule);
        s.push_str("        {\n");
        s.push_str(&format!(
            "          \"ruleId\": \"{}\",\n",
            esc(f.diag.rule.name())
        ));
        if let Some(ix) = rule_index {
            s.push_str(&format!("          \"ruleIndex\": {ix},\n"));
        }
        s.push_str("          \"level\": \"error\",\n");
        s.push_str(&format!(
            "          \"message\": {{ \"text\": \"{}\" }},\n",
            esc(&f.diag.msg)
        ));
        s.push_str(&format!(
            "          \"locations\": [ {{ \"physicalLocation\": {{ \
             \"artifactLocation\": {{ \"uri\": \"{}\" }}, \
             \"region\": {{ \"startLine\": {} }} }} }} ]\n",
            esc(&f.rel_path),
            f.diag.line.max(1)
        ));
        s.push_str("        }");
        s.push_str(if i + 1 < report.findings.len() {
            ",\n"
        } else {
            "\n      "
        });
    }
    s.push_str("]\n");

    s.push_str("    }\n  ]\n}\n");
    s
}

/// Minimal JSON string escaping: quotes, backslashes, and control
/// characters (everything else passes through as UTF-8).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;
    use crate::Finding;

    fn sample_report() -> LintReport {
        LintReport {
            findings: vec![
                Finding {
                    rel_path: "crates/mem/src/dram.rs".into(),
                    diag: Diagnostic {
                        line: 63,
                        rule: RuleId::D7,
                        msg: "bare `-` on a \"cycle\" value\twith\nescapes \\ inside".into(),
                    },
                },
                Finding {
                    rel_path: "crates/serve/src/state.rs".into(),
                    diag: Diagnostic {
                        line: 391,
                        rule: RuleId::D8,
                        msg: "`expect()` reachable from a request handler".into(),
                    },
                },
            ],
            parse_errors: vec![("crates/bad/src/lib.rs".into(), "expected `}`".into())],
            files_checked: 3,
        }
    }

    #[test]
    fn escapes_json_metacharacters() {
        assert_eq!(esc("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn every_rule_id_has_metadata() {
        // A findings rule missing from RULES would emit index-less
        // results; keep the table total.
        for rule in [
            RuleId::D1,
            RuleId::D2,
            RuleId::D3,
            RuleId::D4,
            RuleId::D5,
            RuleId::D6,
            RuleId::D7,
            RuleId::D8,
            RuleId::D9,
            RuleId::D10,
            RuleId::D11,
            RuleId::Pragma,
        ] {
            assert!(
                RULES.iter().any(|(id, _)| *id == rule),
                "no SARIF metadata for rule {}",
                rule.name()
            );
        }
    }

    #[test]
    fn sarif_carries_findings_and_parse_errors() {
        let doc = to_sarif(&sample_report());
        assert!(doc.contains("\"version\": \"2.1.0\""));
        assert!(doc.contains("\"ruleId\": \"D7\""));
        assert!(doc.contains("\"startLine\": 63"));
        assert!(doc.contains("\"uri\": \"crates/serve/src/state.rs\""));
        assert!(doc.contains("\"executionSuccessful\": false"));
        assert!(doc.contains("expected `}`"));
    }

    #[test]
    fn clean_report_is_successful_with_empty_results() {
        let doc = to_sarif(&LintReport::default());
        assert!(doc.contains("\"executionSuccessful\": true"));
        assert!(doc.contains("\"results\": []"));
    }

    #[test]
    fn output_is_deterministic() {
        let r = sample_report();
        assert_eq!(to_sarif(&r), to_sarif(&r));
    }
}
