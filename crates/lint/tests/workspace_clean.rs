//! The workspace must stay free of D1–D10 findings: CI gates on the
//! binary's exit code, and this test puts the same gate in `cargo
//! test` so a violation fails fast with the offending lines inline.

use mlpsim_lint::lint_workspace;
use std::path::Path;

#[test]
fn workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root");
    let report = lint_workspace(root);
    let mut lines: Vec<String> = report
        .parse_errors
        .iter()
        .map(|(p, e)| format!("{p}: parse error: {e}"))
        .collect();
    lines.extend(report.findings.iter().map(|f| {
        format!(
            "{}:{}: {}: {}",
            f.rel_path,
            f.diag.line,
            f.diag.rule.name(),
            f.diag.msg
        )
    }));
    assert!(
        lines.is_empty(),
        "workspace must be lint-clean ({} files checked):\n{}",
        report.files_checked,
        lines.join("\n")
    );
}
