//! Contest Based Selection (CBS) — paper §6.1–§6.2, Figs. 6 and 7a/b.
//!
//! CBS runs *two* full auxiliary tag directories — ATD-LIN and ATD-LRU —
//! on the cache's access stream and lets them race. PSEL counters track
//! which shadow policy incurs less MLP-based cost; the main tag directory
//! (MTD) follows the winner. `CBS-local` keeps one PSEL per set and decides
//! per set; `CBS-global` funnels every set into a single PSEL (the paper
//! uses a 7-bit counter there, footnote 7).
//!
//! CBS is the expensive reference design; SBAR (in [`crate::sbar`])
//! approximates it with 64× fewer ATD entries.

use crate::lin::LinEngine;
use crate::psel::{Psel, PselWatch};
use mlpsim_cache::addr::{Geometry, LineAddr};
use mlpsim_cache::atd::Atd;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::meta::CostQ;
use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};
use mlpsim_telemetry::{Event, SinkHandle};
use std::collections::HashMap;

/// Scope of the PSEL contest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CbsMode {
    /// One PSEL per set; each set follows its own contest (Fig. 7a's
    /// per-set variant, "CBS-local").
    Local,
    /// A single global PSEL fed by every set ("CBS-global", Fig. 7a).
    Global,
}

/// Configuration for [`CbsEngine`].
#[derive(Clone, Copy, Debug)]
pub struct CbsConfig {
    /// Contest scope.
    pub mode: CbsMode,
    /// λ of the LIN component.
    pub lambda: u32,
    /// PSEL width in bits. The paper uses 6 for CBS-local and 7 for
    /// CBS-global (footnote 7).
    pub psel_bits: u32,
}

impl CbsConfig {
    /// Paper configuration for CBS-local: λ = 4, 6-bit PSELs.
    pub fn local() -> Self {
        CbsConfig {
            mode: CbsMode::Local,
            lambda: 4,
            psel_bits: 6,
        }
    }

    /// Paper configuration for CBS-global: λ = 4, 7-bit PSEL (footnote 7).
    pub fn global() -> Self {
        CbsConfig {
            mode: CbsMode::Global,
            lambda: 4,
            psel_bits: 7,
        }
    }
}

/// Pending PSEL adjustments for a miss whose MLP-based cost is not yet
/// known (the miss is still in flight).
#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    increments: u32,
    decrements: u32,
}

/// The CBS replacement engine: MTD policy chosen per access by dueling
/// ATDs.
pub struct CbsEngine {
    geometry: Geometry,
    mode: CbsMode,
    lin: LinEngine,
    lru: LruEngine,
    atd_lin: Atd,
    atd_lru: Atd,
    /// One counter in `Global` mode, `sets` counters in `Local` mode.
    psels: Vec<Psel>,
    pending: HashMap<LineAddr, Pending>,
    sink: SinkHandle,
    /// One MSB watch per PSEL, for `psel_flip` telemetry.
    watches: Vec<PselWatch>,
    /// Sequence number of the most recent access, stamped on PSEL events
    /// settled later in `on_serviced`.
    last_seq: u64,
}

impl CbsEngine {
    /// Creates a CBS engine for a cache with the given geometry.
    pub fn new(geometry: Geometry, config: CbsConfig) -> Self {
        let psel_count = match config.mode {
            CbsMode::Local => crate::convert::idx(geometry.sets()),
            CbsMode::Global => 1,
        };
        let psels = vec![Psel::new(config.psel_bits); psel_count];
        let watches = psels.iter().map(PselWatch::new).collect();
        CbsEngine {
            geometry,
            mode: config.mode,
            lin: LinEngine::new(config.lambda),
            lru: LruEngine::new(),
            atd_lin: Atd::new(geometry, Box::new(LinEngine::new(config.lambda))),
            atd_lru: Atd::new(geometry, Box::new(LruEngine::new())),
            psels,
            pending: HashMap::new(),
            sink: SinkHandle::disabled(),
            watches,
            last_seq: 0,
        }
    }

    /// Moves PSEL `idx` by `cost` in the direction of `delta_sign`, with
    /// telemetry (`psel_update`, and `psel_flip` on MSB change, plus the
    /// `leader_divergence` that caused it).
    fn duel_update(&mut self, idx: usize, inc: bool, cost: CostQ, line: LineAddr, seq: u64) {
        let p = &mut self.psels[idx];
        if inc {
            p.inc_by(u32::from(cost));
        } else {
            p.dec_by(u32::from(cost));
        }
        if !self.sink.enabled() {
            return;
        }
        let unit = match self.mode {
            CbsMode::Local => "cbs-local",
            CbsMode::Global => "cbs-global",
        };
        let side = if inc { "atd_lru_miss" } else { "atd_lin_miss" };
        self.sink.emit(Event::LeaderDivergence {
            unit: unit.to_string(),
            side: side.to_string(),
            line: line.0,
            cost_q: cost,
            seq,
        });
        let p = self.psels[idx];
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "negating a widened u8 cannot overflow"
        )]
        let delta = if inc {
            i64::from(cost)
        } else {
            -i64::from(cost)
        };
        self.sink.emit(Event::PselUpdate {
            unit: unit.to_string(),
            index: crate::convert::idx_u64(idx),
            delta,
            value: u64::from(p.value()),
            msb: p.msb_set(),
            saturated: p.is_saturated(),
            seq,
        });
        if let Some(msb) = self.watches[idx].observe(&p) {
            self.sink.emit(Event::PselFlip {
                unit: unit.to_string(),
                index: crate::convert::idx_u64(idx),
                msb,
                value: u64::from(p.value()),
                seq,
            });
        }
    }

    /// The contest scope.
    pub fn mode(&self) -> CbsMode {
        self.mode
    }

    #[inline]
    fn psel_index(&self, set_index: u32) -> usize {
        match self.mode {
            CbsMode::Local => crate::convert::idx(set_index),
            CbsMode::Global => 0,
        }
    }

    /// The PSEL governing `set_index` (for diagnostics).
    pub fn psel_for(&self, set_index: u32) -> &Psel {
        &self.psels[self.psel_index(set_index)]
    }

    /// Census of the PSEL counters: `(sets_favoring_lin, total_counters)`.
    ///
    /// Under [`CbsMode::Local`] this measures the paper's §6.3 quantity
    /// `p` directly: the fraction of sets whose contest currently favors
    /// each policy ("Experimentally, we found that the average value of p
    /// for all benchmarks is between 0.74 and 0.99").
    pub fn psel_census(&self) -> (usize, usize) {
        let lin = self.psels.iter().filter(|p| p.msb_set()).count();
        (lin, self.psels.len())
    }
}

impl ReplacementEngine for CbsEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        if self.psel_for(ctx.set.set_index()).msb_set() {
            self.lin.victim(ctx)
        } else {
            self.lru.victim(ctx)
        }
    }

    fn on_access(
        &mut self,
        line: LineAddr,
        seq: u64,
        mtd_hit: bool,
        resident_cost_q: Option<CostQ>,
    ) {
        // Replay in both shadows. If the MTD holds the line, shadow fills
        // inherit the MTD's cost_q (footnote 6); otherwise the real cost is
        // patched in via `on_serviced`.
        self.last_seq = seq;
        let provisional = resident_cost_q.unwrap_or(0);
        let lin_hit = self.atd_lin.access(line, seq, provisional).hit;
        let lru_hit = self.atd_lru.access(line, seq, provisional).hit;
        let idx = self.psel_index(self.geometry.set_index(line));
        match (lin_hit, lru_hit) {
            (true, true) | (false, false) => {} // PSEL unchanged (Fig. 6)
            (false, true) => {
                // ATD-LIN missed: LRU is doing better; decrement by the
                // cost_q of ATD-LIN's miss.
                if mtd_hit {
                    // Not serviced by memory; cost from the MTD tag entry.
                    self.duel_update(idx, false, provisional, line, seq);
                } else {
                    let pending = self.pending.entry(line).or_default();
                    pending.decrements = pending.decrements.saturating_add(1);
                }
            }
            (true, false) => {
                // ATD-LRU missed: LIN is doing better; increment by the
                // cost_q of ATD-LRU's miss.
                if mtd_hit {
                    self.duel_update(idx, true, provisional, line, seq);
                } else {
                    let pending = self.pending.entry(line).or_default();
                    pending.increments = pending.increments.saturating_add(1);
                }
            }
        }
    }

    fn on_serviced(&mut self, line: LineAddr, cost_q: CostQ) {
        self.atd_lin.set_cost_q(line, cost_q);
        self.atd_lru.set_cost_q(line, cost_q);
        if let Some(p) = self.pending.remove(&line) {
            let idx = self.psel_index(self.geometry.set_index(line));
            let seq = self.last_seq;
            for _ in 0..p.increments {
                self.duel_update(idx, true, cost_q, line, seq);
            }
            for _ in 0..p.decrements {
                self.duel_update(idx, false, cost_q, line, seq);
            }
        }
    }

    fn name(&self) -> &'static str {
        match self.mode {
            CbsMode::Local => "cbs-local",
            CbsMode::Global => "cbs-global",
        }
    }

    fn policy_for_set(&self, set_index: u32) -> &'static str {
        // Mirrors `victim`: the governing PSEL's MSB picks the component.
        if self.psel_for(set_index).msb_set() {
            "lin"
        } else {
            "lru"
        }
    }

    fn debug_state(&self) -> Option<String> {
        let (lin, total) = self.psel_census();
        Some(format!("psel_lin={lin}/{total}"))
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }
}

impl std::fmt::Debug for CbsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CbsEngine")
            .field("geometry", &self.geometry)
            .field("mode", &self.mode)
            .field("psels", &self.psels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::model::CacheModel;

    #[test]
    fn mode_controls_psel_count_and_name() {
        let g = Geometry::from_sets(8, 2, 64);
        let mut local = CbsEngine::new(g, CbsConfig::local());
        let mut global = CbsEngine::new(g, CbsConfig::global());
        assert_eq!(local.name(), "cbs-local");
        assert_eq!(global.name(), "cbs-global");
        // Feed a divergence into set 3 only; in Local mode other sets'
        // PSELs stay put, in Global mode the single PSEL moves.
        for e in [&mut local, &mut global] {
            // Build divergent shadow state in set 3 (lines ≡ 3 mod 8).
            // LIN pins a high-cost block; LRU follows recency.
            e.on_access(LineAddr(3), 0, false, None);
            e.on_serviced(LineAddr(3), 7);
            e.on_access(LineAddr(11), 1, false, None);
            e.on_serviced(LineAddr(11), 0);
            e.on_access(LineAddr(19), 2, false, None);
            e.on_serviced(LineAddr(19), 0);
            // ATD-LIN now holds {3,19} (3 pinned, score 0+28 vs fills);
            // ATD-LRU holds {11,19}. Access 3: LIN hit, LRU miss → +7 via
            // MTD-resident path.
            e.on_access(LineAddr(3), 3, true, Some(7));
        }
        assert!(local.psel_for(3).value() > Psel::new(6).value());
        assert_eq!(local.psel_for(0).value(), Psel::new(6).value());
        assert!(global.psel_for(0).value() > Psel::new(7).value());
    }

    #[test]
    fn policy_for_set_follows_each_governing_psel() {
        let g = Geometry::from_sets(8, 2, 64);
        let mut e = CbsEngine::new(g, CbsConfig::local());
        assert_eq!(e.policy_for_set(3), "lru");
        // Drive set 3's PSEL over its midpoint (same divergence pattern
        // as `mode_controls_psel_count_and_name`, repeated until the MSB
        // sets); other sets' PSELs stay on the LRU side.
        let mut seq = 0u64;
        while !e.psel_for(3).msb_set() {
            e.on_access(LineAddr(3), seq, false, None);
            e.on_serviced(LineAddr(3), 7);
            e.on_access(LineAddr(11), seq + 1, false, None);
            e.on_serviced(LineAddr(11), 0);
            e.on_access(LineAddr(19), seq + 2, false, None);
            e.on_serviced(LineAddr(19), 0);
            e.on_access(LineAddr(3), seq + 3, true, Some(7));
            seq += 4;
        }
        assert_eq!(e.policy_for_set(3), "lin");
        assert_eq!(e.policy_for_set(0), "lru");
    }

    #[test]
    fn pending_updates_settle_with_real_cost() {
        let g = Geometry::from_sets(4, 2, 64);
        let mut e = CbsEngine::new(g, CbsConfig::global());
        let base = e.psel_for(0).value();
        // LIN-favoring divergence on an MTD miss: settle via on_serviced.
        e.on_access(LineAddr(0), 0, false, None);
        e.on_serviced(LineAddr(0), 7);
        e.on_access(LineAddr(4), 1, false, None);
        e.on_serviced(LineAddr(4), 0);
        e.on_access(LineAddr(8), 2, false, None);
        e.on_serviced(LineAddr(8), 0);
        // ATD-LIN = {0, 8}; ATD-LRU = {4, 8}. Access 0 with MTD miss:
        // lin hit, lru miss → pending increment.
        e.on_access(LineAddr(0), 3, false, None);
        assert_eq!(e.psel_for(0).value(), base, "waits for service");
        e.on_serviced(LineAddr(0), 6);
        assert_eq!(e.psel_for(0).value(), base + 6);
    }

    #[test]
    fn mtd_follows_the_winning_policy() {
        // Drive the global PSEL all the way down, then check the MTD evicts
        // like LRU.
        let g = Geometry::from_sets(4, 2, 64);
        let mut cache = CacheModel::new(g, Box::new(CbsEngine::new(g, CbsConfig::global())));
        let mut seq = 0u64;
        let mut acc = |c: &mut CacheModel, l: u64, q: u8| {
            let r = c.access(LineAddr(l), false, seq);
            if !r.hit {
                c.record_serviced_cost(LineAddr(l), q);
            }
            seq += 1;
            r
        };
        // In set 0: pin a cost-7 block under LIN, then alternate two
        // other lines. ATD-LIN keeps missing them; ATD-LRU keeps the
        // recent pair and hits. PSEL sinks toward LRU.
        acc(&mut cache, 0, 7);
        for _ in 0..30 {
            acc(&mut cache, 4, 1);
            acc(&mut cache, 8, 1);
        }
        // Set 1 (follower of the same global PSEL): LRU behavior expected.
        acc(&mut cache, 1, 7); // old, costly
        acc(&mut cache, 5, 0); // new, cheap
        let res = cache.access(LineAddr(9), false, seq);
        assert_eq!(
            res.evicted.unwrap().line,
            LineAddr(1),
            "LRU evicts the older block"
        );
    }
}
