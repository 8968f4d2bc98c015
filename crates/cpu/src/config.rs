//! Processor and system configuration (paper Table 2).

use crate::icache::IcacheConfig;
use crate::policy::PolicyKind;
use crate::prefetch::PrefetchConfig;
use crate::wrongpath::WrongPathConfig;
use mlpsim_cache::addr::Geometry;
use mlpsim_core::ccl::AdderMode;
use mlpsim_mem::MemConfig;

/// When the cost-calculation logic accrues `1/N` (paper footnote 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CostAccounting {
    /// Every cycle a demand miss is outstanding (Algorithm 1 as written;
    /// the paper's default "for simplicity").
    #[default]
    AllCycles,
    /// Only during full-window stall cycles — the variant the paper
    /// "also experimented" with and found equivalent (footnote 4).
    StallCyclesOnly,
}

/// Core parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuConfig {
    /// Fetch/issue/retire width (8 in the baseline).
    pub width: u32,
    /// Instruction-window entries (128 in the baseline).
    pub window: usize,
    /// Store-buffer entries (128 in the baseline).
    pub store_buffer: usize,
    /// L1 data-cache hit latency in cycles (2 in the baseline).
    pub l1_hit_cycles: u64,
    /// L2 hit latency in cycles (15 in the baseline).
    pub l2_hit_cycles: u64,
}

impl CpuConfig {
    /// The paper's baseline core (Table 2).
    pub fn baseline() -> Self {
        CpuConfig {
            width: 8,
            window: 128,
            store_buffer: 128,
            l1_hit_cycles: 2,
            l2_hit_cycles: 15,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::baseline()
    }
}

/// Full-system configuration: core, caches, memory, and the L2 replacement
/// policy under study.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Core parameters.
    pub cpu: CpuConfig,
    /// L1 data cache geometry; `None` sends every access straight to the
    /// L2 (used by the Figure-1 microbenchmark, where the example cache is
    /// the only cache).
    pub l1: Option<Geometry>,
    /// Optional instruction-fetch model; `None` (the default) assumes a
    /// perfect I-cache, which is accurate for the data-bound SPEC subset
    /// the paper studies.
    pub icache: Option<IcacheConfig>,
    /// Optional synthetic wrong-path traffic; `None` (the default) models
    /// a perfect branch predictor. Wrong-path misses follow the paper's
    /// rule: demand until confirmed wrong-path, then demoted.
    pub wrong_path: Option<WrongPathConfig>,
    /// Optional next-line L2 prefetcher; `None` (the default) matches the
    /// paper's baseline.
    pub prefetch: Option<PrefetchConfig>,
    /// L2 (the "largest on-chip cache" whose replacement the paper
    /// studies).
    pub l2: Geometry,
    /// Off-chip memory system.
    pub mem: MemConfig,
    /// L2 replacement policy.
    pub policy: PolicyKind,
    /// Cost-calculation-logic adder configuration (paper footnote 3).
    pub adders: AdderMode,
    /// When the CCL accrues cost (paper footnote 4).
    pub cost_accounting: CostAccounting,
    /// Retired-instruction interval between engine epoch hooks
    /// (`rand-dynamic` leader reselection; the paper uses 25 M, scaled
    /// here to the shorter synthetic traces).
    pub epoch_insts: u64,
    /// Optional interval (retired instructions) for time-series sampling
    /// (Fig. 11); `None` disables sampling.
    pub sample_interval: Option<u64>,
    /// Test-only escape hatch: when set, dispatch gaps advance strictly
    /// cycle-by-cycle instead of taking the O(1) event-driven fast-forward.
    /// The two paths are equivalent by construction; the differential suite
    /// (`tests/event_equivalence.rs`) runs both and asserts identical
    /// stats, ledgers, and telemetry streams.
    #[doc(hidden)]
    pub legacy_stepping: bool,
}

impl SystemConfig {
    /// The paper's baseline machine with the given L2 policy.
    pub fn baseline(policy: PolicyKind) -> Self {
        SystemConfig {
            cpu: CpuConfig::baseline(),
            l1: Some(Geometry::baseline_l1d()),
            icache: None,
            wrong_path: None,
            prefetch: None,
            l2: Geometry::baseline_l2(),
            mem: MemConfig::baseline(),
            policy,
            adders: AdderMode::PerEntry,
            cost_accounting: CostAccounting::AllCycles,
            epoch_insts: 2_000_000,
            sample_interval: None,
            legacy_stepping: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::baseline(PolicyKind::Lru);
        assert_eq!(c.cpu.width, 8);
        assert_eq!(c.cpu.window, 128);
        assert_eq!(c.cpu.store_buffer, 128);
        assert_eq!(c.cpu.l1_hit_cycles, 2);
        assert_eq!(c.cpu.l2_hit_cycles, 15);
        assert_eq!(c.l1.unwrap().capacity_bytes(), 16 << 10);
        assert_eq!(c.l2.capacity_bytes(), 1 << 20);
        assert_eq!(c.mem.isolated_miss_cycles(), 444);
    }
}
