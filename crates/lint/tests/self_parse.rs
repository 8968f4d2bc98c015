//! The parser's ground-truth test: every `.rs` file in this workspace's
//! lint scope must parse without error. A construct drifting outside the
//! supported subset fails here loudly, instead of silently blinding the
//! dataflow rules (which skip files they cannot parse).

use mlpsim_lint::{collect_workspace_rs_files, parser::parse_file};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn every_workspace_file_parses() {
    let root = workspace_root();
    let files = collect_workspace_rs_files(&root);
    assert!(
        files.len() > 20,
        "workspace scan found only {} files under {} — scan broken?",
        files.len(),
        root.display()
    );
    let mut failures = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if let Err(e) = parse_file(&src) {
            failures.push(format!("{}: {e}", path.display()));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} workspace files failed to parse:\n{}",
        failures.len(),
        files.len(),
        failures.join("\n")
    );
}

#[test]
fn parser_also_covers_test_and_bench_sources() {
    // The lint scope skips tests/ and benches/, but the parser should
    // still digest them — they are the richest source of syntax variety
    // (proptest closures, matches!, slice patterns). Failures here are
    // advisory for rule scope but fatal for parser health.
    let root = workspace_root();
    let mut files = Vec::new();
    for crate_dir in std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
    {
        for sub in ["tests", "benches"] {
            let d = crate_dir.join(sub);
            if d.is_dir() {
                for e in std::fs::read_dir(&d)
                    .expect("readable")
                    .filter_map(Result::ok)
                {
                    let p = e.path();
                    if p.extension().is_some_and(|x| x == "rs") {
                        files.push(p);
                    }
                }
            }
        }
    }
    files.sort();
    let mut failures = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        if let Err(e) = parse_file(&src) {
            failures.push(format!("{}: {e}", path.display()));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} test/bench files failed to parse:\n{}",
        failures.len(),
        files.len(),
        failures.join("\n")
    );
}
