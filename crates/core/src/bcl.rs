//! BCL — a basic cost-sensitive LRU engine in the style of Jeong &
//! Dubois, the paper's reference \[8\].
//!
//! The paper notes (§2, §5) that its contribution is the *cost metric*,
//! not the cost-sensitive mechanism: "In general, any cost-sensitive
//! replacement scheme, including the ones proposed in \[8\], can be used
//! for implementing an MLP-aware replacement policy." This module
//! provides that alternative CARE so the claim is testable: plug
//! [`BclEngine`] into the L2 instead of LIN and the MLP-based `cost_q`
//! still steers replacement.
//!
//! The mechanism (following Jeong & Dubois's BCL): the baseline victim is
//! the LRU block. If its cost exceeds the cost of some other block within
//! a bounded depth of the LRU stack, the cheapest such block is evicted
//! instead and the spared block's *credit* is charged; a block whose
//! credit is exhausted is evicted regardless of cost. The credit bounds
//! how long a costly block can squat, which is BCL's defense against the
//! dead-block pathology that pure LIN exhibits on parser/mgrid.

use mlpsim_cache::addr::LineAddr;
use mlpsim_cache::meta::CostQ;
use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};
use std::collections::HashMap;

/// Configuration for [`BclEngine`].
#[derive(Clone, Copy, Debug)]
pub struct BclConfig {
    /// How far up the LRU stack (in recency positions) the engine may look
    /// for a cheaper victim.
    pub depth: u8,
    /// Number of times a costly LRU block may be spared before it is
    /// evicted regardless (its *credit*).
    pub credit: u8,
}

impl BclConfig {
    /// A reasonable default: look 4 positions deep, spare a block at most
    /// 4 times.
    pub fn default_config() -> Self {
        BclConfig {
            depth: 4,
            credit: 4,
        }
    }
}

impl Default for BclConfig {
    fn default() -> Self {
        BclConfig::default_config()
    }
}

/// The BCL replacement engine.
///
/// # Example
///
/// ```
/// use mlpsim_core::bcl::{BclConfig, BclEngine};
/// let engine = BclEngine::new(BclConfig::default_config());
/// assert_eq!(engine.config().depth, 4);
/// ```
#[derive(Clone, Debug)]
pub struct BclEngine {
    config: BclConfig,
    /// Remaining spare-credit per resident costly line.
    credits: HashMap<LineAddr, u8>,
}

impl BclEngine {
    /// Creates a BCL engine.
    pub fn new(config: BclConfig) -> Self {
        BclEngine {
            config,
            credits: HashMap::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> BclConfig {
        self.config
    }
}

impl ReplacementEngine for BclEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let ranks = ctx.set.recency_ranks();
        // Order the valid ways by recency rank (0 = LRU first).
        let mut by_rank: Vec<usize> = ctx.set.valid_ways().collect();
        by_rank.sort_by_key(|&w| ranks[w]);
        let lru_way = by_rank[0];
        let lru_line = ctx.set.line_of(lru_way).expect("valid way");
        let lru_cost = ctx.set.cost_q(lru_way);

        // Cheapest block within the search depth that is cheaper than the
        // LRU block.
        let candidate = by_rank
            .iter()
            .take(usize::from(self.config.depth).min(by_rank.len()))
            .copied()
            .filter(|&w| ctx.set.cost_q(w) < lru_cost)
            .min_by_key(|&w| (ctx.set.cost_q(w), ranks[w]));

        match candidate {
            Some(cheap_way) => {
                // Spare the LRU block, charging its credit.
                let credit = self.credits.entry(lru_line).or_insert(self.config.credit);
                if *credit == 0 {
                    // Credit exhausted: the costly block goes anyway.
                    self.credits.remove(&lru_line);
                    lru_way
                } else {
                    *credit = credit.saturating_sub(1); // non-zero: checked above
                    if let Some(line) = ctx.set.line_of(cheap_way) {
                        self.credits.remove(&line);
                    }
                    cheap_way
                }
            }
            None => {
                self.credits.remove(&lru_line);
                lru_way
            }
        }
    }

    fn on_access(&mut self, line: LineAddr, _seq: u64, hit: bool, _cost: Option<CostQ>) {
        if hit {
            // A touched block earns its keep: restore its credit.
            self.credits.remove(&line);
        }
    }

    fn name(&self) -> &'static str {
        "bcl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::addr::Geometry;
    use mlpsim_cache::model::CacheModel;

    fn cache(config: BclConfig) -> CacheModel {
        CacheModel::new(
            Geometry::from_sets(1, 4, 64),
            Box::new(BclEngine::new(config)),
        )
    }

    /// Fill the 4-way set with lines 0..4; line 0 (the LRU) carries the
    /// given cost, others are free.
    fn prime(c: &mut CacheModel, lru_cost: CostQ) {
        for i in 0..4u64 {
            c.access(LineAddr(i), false, i);
            c.record_serviced_cost(LineAddr(i), if i == 0 { lru_cost } else { 0 });
        }
    }

    #[test]
    fn cheap_lru_block_is_evicted_normally() {
        let mut c = cache(BclConfig::default_config());
        prime(&mut c, 0);
        let r = c.access(LineAddr(10), false, 10);
        assert_eq!(
            r.evicted.unwrap().line,
            LineAddr(0),
            "plain LRU when costs tie"
        );
    }

    #[test]
    fn costly_lru_block_is_spared_for_a_cheaper_one() {
        let mut c = cache(BclConfig::default_config());
        prime(&mut c, 7);
        let r = c.access(LineAddr(10), false, 10);
        // Way with line 1 is the cheapest non-LRU block in depth.
        assert_eq!(r.evicted.unwrap().line, LineAddr(1));
        assert!(c.contains(LineAddr(0)), "costly block spared");
    }

    #[test]
    fn credit_exhaustion_evicts_the_squatter() {
        let mut c = cache(BclConfig {
            depth: 4,
            credit: 2,
        });
        prime(&mut c, 7);
        // Each new fill spares line 0 once; after `credit` spares it goes.
        let mut evicted = Vec::new();
        for (i, l) in (20..26u64).enumerate() {
            let r = c.access(LineAddr(l), false, 10 + i as u64);
            evicted.push(r.evicted.unwrap().line);
        }
        assert!(
            evicted.contains(&LineAddr(0)),
            "line 0 must eventually be evicted, got {evicted:?}"
        );
        // And it must not have been the first victim (it was spared).
        assert_ne!(evicted[0], LineAddr(0));
    }

    #[test]
    fn hit_restores_credit() {
        let mut c = cache(BclConfig {
            depth: 4,
            credit: 1,
        });
        prime(&mut c, 7);
        // Burn the credit once.
        c.access(LineAddr(20), false, 10);
        // Touch line 0: credit restored.
        c.access(LineAddr(0), false, 11);
        // Line 0 is now MRU anyway; make it LRU again by touching others.
        for (i, l) in [20u64, 2, 3].iter().enumerate() {
            c.access(LineAddr(*l), false, 12 + i as u64);
        }
        let r = c.access(LineAddr(30), false, 20);
        assert_ne!(
            r.evicted.unwrap().line,
            LineAddr(0),
            "refreshed credit spares it again"
        );
    }

    #[test]
    fn bcl_bounds_the_dead_block_pathology() {
        // A dead cost-7 block plus a live low-cost working set: under LIN
        // the dead block squats forever; under BCL it is gone after
        // `credit` spares.
        let g = Geometry::from_sets(1, 2, 64);
        let mut c = CacheModel::new(
            g,
            Box::new(BclEngine::new(BclConfig {
                depth: 2,
                credit: 3,
            })),
        );
        c.access(LineAddr(0), false, 0);
        c.record_serviced_cost(LineAddr(0), 7); // dead, never re-accessed
        let mut dead_survived = 0;
        for i in 1..20u64 {
            c.access(LineAddr(i), false, i);
            if c.contains(LineAddr(0)) {
                dead_survived += 1;
            }
        }
        assert!(
            dead_survived <= 4,
            "dead block evicted after its credit ({dead_survived})"
        );
    }
}
