//! The paper's claims, checked on the reports `mlpsim` prints: each test
//! runs one registry entry exactly as `mlpsim <name>` would, or reads the
//! committed `experiments_output.txt` (which CI's golden-output job
//! diffs against a fresh `mlpsim all`), and reads its numbers back out of
//! the text.

use mlpsim_experiments::cli::Args;
use mlpsim_experiments::paper::PAPER_ROWS;
use mlpsim_experiments::registry;

/// Runs `name` through the registry with default arguments.
fn report(name: &str) -> String {
    let experiment = registry::find(name).expect("registered experiment");
    (experiment.run)(&Args::default()).expect("experiment succeeds")
}

/// Figure 1 / footnote 2: per loop iteration, Belady's OPT takes 4 misses
/// and 4 stalls, LRU 6 and 4, and the MLP-aware LIN 6 and 2 — fewer
/// stalls than the miss-optimal oracle.
#[test]
fn fig1_rounds_to_the_papers_misses_and_stalls() {
    let out = report("fig1");
    for (policy, misses, stalls) in [("belady-opt", 4, 4), ("lru", 6, 4), ("lin(4)", 6, 2)] {
        let row: Vec<&str> = out
            .lines()
            .map(str::split_whitespace)
            .find_map(|mut cells| (cells.next() == Some(policy)).then(|| cells.collect()))
            .unwrap_or_else(|| panic!("no {policy} row in:\n{out}"));
        // Columns: misses/iter, (paper), stalls/iter, (paper).
        let per_iter = |cell: &str| cell.parse::<f64>().expect("numeric cell").round() as u64;
        assert_eq!(per_iter(row[0]), misses, "{policy} misses/iter in:\n{out}");
        assert_eq!(per_iter(row[2]), stalls, "{policy} stalls/iter in:\n{out}");
    }
}

/// Figure 5's insets: LIN(4) raises IPC over LRU on the benchmarks where
/// the paper says it wins and lowers it where the paper says it loses.
/// A benchmark whose paper change is under 1% in magnitude (equake,
/// +0.2%) claims no direction and is skipped. The printed `(paper)`
/// columns must equal `PAPER_ROWS`, so the parse cannot drift from the
/// numbers the claim is about.
#[test]
fn fig5_lin_ipc_change_has_the_papers_sign() {
    let out = include_str!("../experiments_output.txt");
    let block = out
        .split("== fig5\n")
        .nth(1)
        .and_then(|rest| rest.split("\n== ").next())
        .expect("a fig5 block in experiments_output.txt");
    // Columns after the bench and policy: eight cost buckets, mean,
    // dMISS%, (paper), dIPC%, (paper).
    let lin_rows: Vec<Vec<&str>> = block
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.len() == 15 && cells[1] == "lin")
        .collect();
    assert_eq!(lin_rows.len(), PAPER_ROWS.len(), "fig5 block:\n{block}");
    let num = |cell: &str| cell.parse::<f64>().expect("numeric cell");
    let mut checked = 0;
    for (cells, paper) in lin_rows.iter().zip(&PAPER_ROWS) {
        let bench = paper.bench.name();
        assert_eq!(cells[0], bench, "fig5 rows follow PAPER_ROWS order");
        assert_eq!(num(cells[12]), paper.lin_miss_pct, "{bench} dMISS% (paper)");
        assert_eq!(num(cells[14]), paper.lin_ipc_pct, "{bench} dIPC% (paper)");
        if paper.lin_ipc_pct.abs() < 1.0 {
            continue;
        }
        let measured = num(cells[13]);
        assert_eq!(
            measured > 0.0,
            paper.lin_ipc_pct > 0.0,
            "{bench}: LIN(4) dIPC% {measured:+.1} vs the paper's {:+.1}",
            paper.lin_ipc_pct
        );
        checked += 1;
    }
    assert_eq!(checked, 13, "every benchmark but equake claims a direction");
}
