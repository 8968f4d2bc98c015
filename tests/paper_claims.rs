//! The paper's claims, checked on the reports `mlpsim` prints: each test
//! runs one registry entry exactly as `mlpsim <name>` would and reads its
//! numbers back out of the text.

use mlpsim_experiments::cli::Args;
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
