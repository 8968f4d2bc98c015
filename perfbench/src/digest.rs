//! Output checks against digests recorded from the reference code.
//!
//! `digests.txt` holds one line per checked output:
//! `<input seed> <workload> <item> <fnv1a-64 hex>`, where the item is a
//! cell (`art/lin(4)`), the model's scores of the grid (`model`), or for
//! `serve_jobs` the served `estimate_body` and `result`. It is
//! compiled in, so a run reads nothing but its own inputs, and it is
//! regenerated with `--record-digests` only when a change is meant to
//! alter simulation output.

use crate::serve::Expected;
use crate::sim::{self, Grid};
use crate::{INPUT_SEEDS, WORKLOADS};
use mlpsim_cpu::stats::SimResult;
use std::collections::HashMap;
use std::fmt::Write as _;

const RECORDED: &str = include_str!("../digests.txt");

pub struct Digests(HashMap<String, u64>);

impl Digests {
    pub fn load() -> Digests {
        let mut map = HashMap::new();
        for line in RECORDED.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            if let (Some(seed), Some(workload), Some(item), Some(hex)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            {
                if let Ok(d) = u64::from_str_radix(hex, 16) {
                    map.insert(format!("{seed} {workload} {item}"), d);
                }
            }
        }
        Digests(map)
    }

    /// Whether `digest` is the one recorded for this output. An output
    /// with no recorded digest fails.
    pub fn matches(&self, seed: u64, workload: &str, item: &str, digest: u64) -> bool {
        self.0.get(&format!("{seed} {workload} {item}")) == Some(&digest)
    }
}

/// FNV-1a, 64 bit.
pub fn text(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the simulated quantities of one cell: instructions, cycles,
/// L1 and L2 statistics, the memory system's counters, stall cycles and
/// the MLP-cost histogram. The policy label is left out.
pub fn sim_result(r: &SimResult) -> u64 {
    let mut s = format!(
        "{} {} {:?} {:?} {} {:?} {} {} {} {}",
        r.instructions,
        r.cycles,
        r.l1,
        r.l2,
        r.l2_compulsory,
        r.mem,
        r.mem_stall_cycles,
        r.full_window_stall_cycles,
        r.stall_episodes,
        r.peak_mlp
    );
    for bin in 0..r.cost_hist.percents().len() {
        let _ = write!(s, " {}", r.cost_hist.bin(bin));
    }
    text(&s)
}

/// The digest file for the code as it is now, for every input seed:
/// every cell of every grid, the model's scores of the grid (`model`),
/// and for `serve_jobs` the served estimate body and result.
pub fn record_all() -> String {
    let mut out = String::from("# <input seed> <workload> <item> <fnv1a-64 of the output>\n");
    for seed in 0..INPUT_SEEDS {
        for workload in WORKLOADS {
            let grid = Grid::of(workload);
            let traces = grid.generate(seed);
            let est = sim::estimate(&grid, &traces);
            let _ = writeln!(
                out,
                "{seed} {workload} model {:016x}",
                text(&est.canonical())
            );
            let results = sim::run_grid(&grid, &traces, seed).expect("fresh token");
            for (cell, r) in grid.cells().into_iter().zip(&results) {
                let _ = writeln!(
                    out,
                    "{seed} {workload} {} {:016x}",
                    grid.cell_key(cell),
                    sim_result(r)
                );
            }
            if workload == "serve_jobs" {
                let exp = Expected::compute(&grid, seed);
                let _ = writeln!(
                    out,
                    "{seed} {workload} estimate_body {:016x}",
                    text(&exp.estimate_body)
                );
                let _ = writeln!(out, "{seed} {workload} result {:016x}", text(&exp.result));
            }
        }
        eprintln!("recorded input seed {seed}");
    }
    out
}
