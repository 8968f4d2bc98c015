//! The L2 replacement-policy registry.

use mlpsim_cache::addr::Geometry;
use mlpsim_cache::fifo::FifoEngine;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::policy::ReplacementEngine;
use mlpsim_cache::random::RandomEngine;
use mlpsim_core::bcl::{BclConfig, BclEngine};
use mlpsim_core::hybrid::{CbsConfig, HybridEngine, SbarConfig};
use mlpsim_core::lin::LinEngine;

/// Which replacement policy the L2 runs.
#[derive(Clone, Copy, Debug)]
pub enum PolicyKind {
    /// The baseline least-recently-used policy.
    Lru,
    /// First-in-first-out (extra baseline).
    Fifo,
    /// Seeded random replacement (extra baseline).
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// The paper's Linear policy with weight λ (§5.1).
    Lin {
        /// The cost weight λ (paper default 4).
        lambda: u32,
    },
    /// Basic cost-sensitive LRU in the style of Jeong & Dubois (the
    /// paper's reference \[8\]) — an alternative CARE for the MLP-based
    /// cost.
    Bcl(BclConfig),
    /// Sampling Based Adaptive Replacement (§6.4).
    Sbar(SbarConfig),
    /// Contest Based Selection with per-set PSELs (§6.2).
    CbsLocal,
    /// Contest Based Selection with one global PSEL (§6.2, footnote 7).
    CbsGlobal,
}

impl PolicyKind {
    /// The paper's default LIN configuration (λ = 4).
    pub fn lin4() -> Self {
        PolicyKind::Lin { lambda: 4 }
    }

    /// The paper's default SBAR configuration (32 leader sets,
    /// simple-static, 6-bit PSEL, λ = 4).
    pub fn sbar_default() -> Self {
        PolicyKind::Sbar(SbarConfig::paper_default())
    }

    /// Instantiates the engine for a cache of the given geometry.
    pub fn build(&self, geometry: Geometry) -> Box<dyn ReplacementEngine> {
        match *self {
            PolicyKind::Lru => Box::new(LruEngine::new()),
            PolicyKind::Fifo => Box::new(FifoEngine::new()),
            PolicyKind::Random { seed } => Box::new(RandomEngine::new(seed)),
            PolicyKind::Lin { lambda } => Box::new(LinEngine::new(lambda)),
            PolicyKind::Bcl(cfg) => Box::new(BclEngine::new(cfg)),
            PolicyKind::Sbar(cfg) => Box::new(HybridEngine::sbar(geometry, cfg)),
            PolicyKind::CbsLocal => Box::new(HybridEngine::cbs(geometry, CbsConfig::local())),
            PolicyKind::CbsGlobal => Box::new(HybridEngine::cbs(geometry, CbsConfig::global())),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::Lru => "lru".into(),
            PolicyKind::Fifo => "fifo".into(),
            PolicyKind::Random { .. } => "random".into(),
            PolicyKind::Lin { lambda } => format!("lin({lambda})"),
            PolicyKind::Bcl(cfg) => format!("bcl(d={},c={})", cfg.depth, cfg.credit),
            PolicyKind::Sbar(cfg) => format!("sbar(k={})", cfg.leader_sets),
            PolicyKind::CbsLocal => "cbs-local".into(),
            PolicyKind::CbsGlobal => "cbs-global".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_policy() {
        let g = Geometry::baseline_l2();
        for p in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random { seed: 1 },
            PolicyKind::lin4(),
            PolicyKind::Bcl(BclConfig::default_config()),
            PolicyKind::sbar_default(),
            PolicyKind::CbsLocal,
            PolicyKind::CbsGlobal,
        ] {
            let engine = p.build(g);
            assert!(!engine.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn labels_carry_parameters() {
        assert_eq!(PolicyKind::Lin { lambda: 2 }.label(), "lin(2)");
        assert_eq!(PolicyKind::sbar_default().label(), "sbar(k=32)");
    }
}
