//! Per-run simulation results.

use crate::timeseries::Sample;
use mlpsim_analysis::delta::DeltaStats;
use mlpsim_analysis::hist::CostHistogram;
use mlpsim_cache::model::CacheStats;
use mlpsim_mem::MemStats;
use mlpsim_telemetry::StallLedger;

/// Everything a single simulation run produces.
///
/// `PartialEq` backs the executor's determinism contract: the parallel
/// sweep tests assert cell-for-cell equality between `-j1` and `-jN` runs
/// (exact, including the `f64` fields — same inputs, same instruction
/// stream, same bits).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Policy label the L2 ran with.
    pub policy: String,
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// L1 data-cache statistics (zeroed when the L1 is disabled).
    pub l1: CacheStats,
    /// Instruction-cache statistics (zeroed when fetch modeling is off).
    pub icache: CacheStats,
    /// Cycles dispatch spent blocked on instruction fetch.
    pub ifetch_stall_cycles: u64,
    /// Synthetic wrong-path accesses injected (0 unless enabled).
    pub wrong_path_accesses: u64,
    /// Wrong-path accesses that allocated an MSHR entry before being
    /// demoted at branch resolution.
    pub wrong_path_misses: u64,
    /// Next-line prefetches issued to memory (0 unless enabled).
    pub prefetches_issued: u64,
    /// Prefetches a demand access merged into while still in flight
    /// (promoted to demand status mid-flight).
    pub prefetches_promoted: u64,
    /// L2 statistics — the cache whose replacement the paper studies.
    pub l2: CacheStats,
    /// L2 misses to never-before-seen lines (compulsory misses, Table 3).
    pub l2_compulsory: u64,
    /// Memory-system statistics.
    pub mem: MemStats,
    /// Distribution of MLP-based cost over serviced demand misses
    /// (Figures 2 and 5).
    pub cost_hist: CostHistogram,
    /// Successive-miss cost deltas (Table 1).
    pub deltas: DeltaStats,
    /// Cycles in which the window was full and the head not yet complete.
    pub full_window_stall_cycles: u64,
    /// Stall cycles whose blocking head was an L2 miss (memory-related
    /// stalls — what MLP-aware replacement minimizes).
    pub mem_stall_cycles: u64,
    /// Distinct full-window stall episodes (the "long-latency stalls" of
    /// the paper's Figure 1).
    pub stall_episodes: u64,
    /// Highest number of simultaneously outstanding demand misses.
    pub peak_mlp: usize,
    /// Interval samples (Fig. 11), when sampling was enabled.
    pub samples: Vec<Sample>,
    /// Stall-cycle attribution ledger — `mem_stall_cycles` partitioned
    /// exactly over (set, cost_q, policy) keys (see `mlpsim-cpu::attrib`).
    /// `Some` when a probe was attached or debug assertions are on.
    pub stall_ledger: Option<StallLedger>,
    /// The L2 engine's final diagnostic state (PSEL values and adaptation
    /// counters for hybrid policies), if it exposes one.
    pub policy_debug: Option<String>,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 misses per 1000 retired instructions.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2.misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Percentage of L2 misses that were compulsory (Table 3's last
    /// column).
    pub fn compulsory_pct(&self) -> f64 {
        if self.l2.misses == 0 {
            0.0
        } else {
            self.l2_compulsory as f64 * 100.0 / self.l2.misses as f64
        }
    }

    /// Mean MLP-based cost per serviced miss.
    pub fn mean_cost(&self) -> f64 {
        self.cost_hist.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let r = SimResult {
            instructions: 1000,
            cycles: 2000,
            l2: CacheStats {
                misses: 50,
                hits: 100,
                ..CacheStats::default()
            },
            l2_compulsory: 10,
            ..SimResult::default()
        };
        assert_eq!(r.ipc(), 0.5);
        assert_eq!(r.l2_mpki(), 50.0);
        assert_eq!(r.compulsory_pct(), 20.0);
    }

    #[test]
    fn zero_division_is_safe() {
        let r = SimResult::default();
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.l2_mpki(), 0.0);
        assert_eq!(r.compulsory_pct(), 0.0);
    }
}
