//! `mlpsim-lint` — workspace static analysis for simulator determinism
//! and cost-model soundness.
//!
//! Layered pipeline, all dependency-free:
//!
//! 1. [`lexer`] — tokens plus comments (pragmas live in comments).
//! 2. [`rules`] — token-pattern rules D1–D6 and the pragma machinery.
//! 3. [`parser`] / [`ast`] — a recursive-descent parser for the Rust
//!    subset this workspace uses; every workspace file must parse
//!    (enforced by `tests/self_parse.rs`).
//! 4. [`symbols`] / [`callgraph`] — workspace-wide type and function
//!    indexes over the ASTs.
//! 5. [`dataflow`] — the AST/interprocedural rules D7–D10.
//! 6. [`sarif`] — SARIF 2.1.0 emission for code-scanning upload.
//!
//! The binary (`main.rs`) is a thin driver over [`lint_workspace`].

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod symbols;

use rules::{check_file, Diagnostic, FileScope};
use std::path::{Path, PathBuf};

/// One analyzed source file, as loaded from disk or planted by a test.
#[derive(Clone, Debug)]
pub struct InputFile {
    /// Path relative to the workspace root (display + crate gating).
    pub rel_path: String,
    /// Crate key gating rule scope (`cache`, `core`, …, `mlpsim`).
    pub crate_key: String,
    pub src: String,
}

/// A finding with its file attached — the unit of report output.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rel_path: String,
    pub diag: Diagnostic,
}

/// Full workspace lint results.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// Files that failed to parse: `(rel_path, error)`. Parse failures
    /// fail the run — the dataflow rules are blind where the parser is.
    pub parse_errors: Vec<(String, String)>,
    pub files_checked: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.parse_errors.is_empty()
    }
}

/// Lints a set of in-memory files: token rules D1–D6 and D11 per file,
/// then the AST/dataflow rules D7–D10 across the whole set. Findings are
/// sorted by (path, line, rule) so output is deterministic.
pub fn lint_files(files: &[InputFile]) -> LintReport {
    let mut report = LintReport {
        files_checked: files.len(),
        ..LintReport::default()
    };
    for f in files {
        for d in check_file(
            FileScope {
                crate_key: &f.crate_key,
                rel_path: &f.rel_path,
            },
            &f.src,
        ) {
            report.findings.push(Finding {
                rel_path: f.rel_path.clone(),
                diag: d,
            });
        }
    }
    dataflow::check_workspace(files, &mut report);
    report.findings.sort_by(|a, b| {
        (&a.rel_path, a.diag.line, a.diag.rule.name()).cmp(&(
            &b.rel_path,
            b.diag.line,
            b.diag.rule.name(),
        ))
    });
    report.findings.dedup_by(|a, b| {
        a.rel_path == b.rel_path && a.diag.line == b.diag.line && a.diag.rule == b.diag.rule
    });
    report
}

/// Loads every lintable `.rs` file under `root` (the workspace root) and
/// runs [`lint_files`]. IO errors are reported as parse errors.
pub fn lint_workspace(root: &Path) -> LintReport {
    let mut files = Vec::new();
    let mut io_errors = Vec::new();
    for path in collect_workspace_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&path) {
            Ok(src) => files.push(InputFile {
                crate_key: crate_key(root, &path),
                rel_path: rel,
                src,
            }),
            Err(e) => io_errors.push((rel, format!("cannot read: {e}"))),
        }
    }
    let mut report = lint_files(&files);
    report.parse_errors.extend(io_errors);
    report.parse_errors.sort();
    report
}

/// The scanned file set: `src/` of the root package and every
/// `crates/*/src`, skipping `tests/`, `benches/`, `vendor/`, `target/`.
/// Sorted so every consumer sees a deterministic order.
pub fn collect_workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for c in crates {
            collect_rs_files(&c.join("src"), &mut files);
        }
    }
    files.sort();
    files
}

/// Directory key gating rule scope: `cache`, `core`, … for
/// `crates/<key>/…`, `mlpsim` for the root package's `src/`.
pub fn crate_key(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match comps.next().as_deref() {
        Some("crates") => comps
            .next()
            .map_or_else(|| "mlpsim".to_string(), |c| c.into_owned()),
        _ => "mlpsim".to_string(),
    }
}

/// Recursively collects `.rs` files, skipping test/bench/vendor trees.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    const SKIP_DIRS: &[&str] = &["tests", "benches", "vendor", "target", ".git"];
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // a crate without src/ (or unreadable) is simply not linted
    };
    for e in entries.filter_map(Result::ok) {
        let p = e.path();
        if p.is_dir() {
            let name = e.file_name();
            if !SKIP_DIRS.contains(&name.to_string_lossy().as_ref()) {
                collect_rs_files(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
