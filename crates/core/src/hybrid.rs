//! Hybrid LIN/LRU replacement: Contest Based Selection (CBS, paper
//! §6.1–§6.2, Figs. 6 and 7a/b) and Sampling Based Adaptive Replacement
//! (SBAR, §6.4, Fig. 7c) as two settings of one contest.
//!
//! Shadow LIN and LRU directories replay the cache's access stream. When
//! one hits where the other misses, a saturating PSEL counter moves by the
//! `cost_q` of that miss, so the contest is decided on MLP-based cost
//! (≈ stall cycles), not raw misses; the main tag directory (MTD) follows
//! the counter's MSB. The settings are the data Fig. 7 varies:
//!
//! * **PSEL scope** ([`CbsMode`]): one counter per set (`CBS-local`) or
//!   one for the whole cache (`CBS-global`, SBAR). The paper uses 6 bits
//!   per set and 7 for CBS-global (footnote 7); SBAR uses 6.
//! * **Leader sets**: without them the contest runs in every set (CBS).
//!   With them it runs only in the leader sets, which run LIN in the MTD,
//!   and the follower sets obey the PSEL (SBAR).
//! * **ATD-LIN**: CBS shadows LIN in its own auxiliary tag directory.
//!   SBAR has none: a leader set runs LIN, so the MTD's hit *is*
//!   ATD-LIN's hit.
//!
//! A vote moves PSEL by the cost_q of the losing side's miss. When the MTD
//! hit, that miss is not serviced by memory and its cost is the MTD's
//! stored cost_q, so the vote lands at once; otherwise it waits for
//! [`ReplacementEngine::on_serviced`] to bring the real cost (footnote 6).
//! Under SBAR's identity (ATD-LIN hit ≡ MTD hit) every increment is
//! immediate and every decrement waits for the fill.

use crate::leader::{LeaderSets, SelectionPolicy};
use crate::lin::LinEngine;
use crate::psel::Psel;
use mlpsim_cache::addr::{Geometry, LineAddr, LineBuildHasher};
use mlpsim_cache::atd::Atd;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::meta::CostQ;
use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};
use mlpsim_telemetry::{Event, SinkHandle};
use std::collections::HashMap;

/// SBAR's settings (§6.4).
#[derive(Clone, Copy, Debug)]
pub struct SbarConfig {
    /// λ of the LIN component (paper default 4).
    pub lambda: u32,
    /// Number of leader sets (paper default 32).
    pub leader_sets: u32,
    /// Leader-set selection policy (paper default `simple-static`).
    pub selection: SelectionPolicy,
    /// PSEL width in bits (paper default 6).
    pub psel_bits: u32,
    /// Seed for `rand-dynamic` selection.
    pub seed: u64,
}

impl SbarConfig {
    /// The paper's default SBAR configuration: λ = 4, 32 leader sets,
    /// simple-static selection, 6-bit PSEL.
    pub fn paper_default() -> Self {
        SbarConfig {
            lambda: 4,
            leader_sets: 32,
            selection: SelectionPolicy::SimpleStatic,
            psel_bits: 6,
            seed: 0,
        }
    }
}

impl Default for SbarConfig {
    fn default() -> Self {
        SbarConfig::paper_default()
    }
}

/// Scope of the PSEL contest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CbsMode {
    /// One PSEL per set; each set follows its own contest (Fig. 7a's
    /// per-set variant, "CBS-local").
    Local,
    /// A single global PSEL fed by every set ("CBS-global", Fig. 7a).
    Global,
}

/// CBS's settings (§6.2).
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

/// Votes on a line whose miss is still in flight: they land with the cost
/// it is serviced with.
#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    increments: u32,
    decrements: u32,
}

/// Counters of the contest's outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ContestStats {
    /// Victims outside leader sets chosen with LIN.
    follower_lin_victims: u64,
    /// Victims outside leader sets chosen with LRU.
    follower_lru_victims: u64,
    /// PSEL increments (LIN beat LRU on an access).
    psel_increments: u64,
    /// PSEL decrements (LRU beat LIN on an access).
    psel_decrements: u64,
}

/// The hybrid replacement engine behind SBAR, CBS-local and CBS-global.
///
/// Plug it into a [`CacheModel`](mlpsim_cache::model::CacheModel) as the L2
/// replacement engine; the cache forwards every access through
/// [`ReplacementEngine::on_access`] (which drives the ATDs and PSEL) and
/// every serviced miss cost through [`ReplacementEngine::on_serviced`]
/// (which lands the votes that waited for it).
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::Geometry;
/// use mlpsim_cache::model::CacheModel;
/// use mlpsim_cache::policy::ReplacementEngine;
/// use mlpsim_core::hybrid::{HybridEngine, SbarConfig};
///
/// let geom = Geometry::baseline_l2();
/// let engine = HybridEngine::sbar(geom, SbarConfig::paper_default());
/// assert_eq!(engine.leaders().map(|l| l.k()), Some(32));
/// assert_eq!(engine.policy_for_set(0), "lin-leader");
/// assert_eq!(engine.policy_for_set(1), "lru"); // starts on the LRU side
/// let cache = CacheModel::new(geom, Box::new(engine));
/// assert_eq!(cache.policy_name(), "sbar");
/// ```
pub struct HybridEngine {
    geometry: Geometry,
    scope: CbsMode,
    /// `Some`: the contest runs only in these sets, which run LIN (SBAR).
    leaders: Option<LeaderSets>,
    /// `None`: the MTD's hit stands in for ATD-LIN's (SBAR).
    atd_lin: Option<Atd>,
    atd_lru: Atd,
    lin: LinEngine,
    lru: LruEngine,
    /// One counter under [`CbsMode::Global`], one per set under `Local`.
    psels: Vec<Psel>,
    /// Looked up on every serviced miss, so it uses the fixed
    /// [`LineHasher`](mlpsim_cache::addr::LineHasher) rather than SipHash.
    /// It is only read through `entry` and `remove`, never iterated, so
    /// bucket layout cannot reach the output.
    pending: HashMap<LineAddr, Pending, LineBuildHasher>,
    stats: ContestStats,
    sink: SinkHandle,
    /// Sequence number of the most recent access, stamped on votes that
    /// land later in `on_serviced` (engines have no cycle clock).
    last_seq: u64,
}

impl HybridEngine {
    /// SBAR: one global PSEL fed by the leader sets, which run LIN, against
    /// a single ATD-LRU shadowing only them.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's set count is not divisible by the leader
    /// count (constituencies must be equally sized).
    pub fn sbar(geometry: Geometry, config: SbarConfig) -> Self {
        let leaders = LeaderSets::new(
            geometry.sets(),
            config.leader_sets,
            config.selection,
            config.seed,
        );
        let mut engine = Self::new(geometry, CbsMode::Global, config.lambda, config.psel_bits);
        engine.leaders = Some(leaders);
        engine
    }

    /// CBS: full ATD-LIN and ATD-LRU directories racing in every set.
    pub fn cbs(geometry: Geometry, config: CbsConfig) -> Self {
        let mut engine = Self::new(geometry, config.mode, config.lambda, config.psel_bits);
        engine.atd_lin = Some(Atd::new(geometry, Box::new(LinEngine::new(config.lambda))));
        engine
    }

    fn new(geometry: Geometry, scope: CbsMode, lambda: u32, psel_bits: u32) -> Self {
        let psel_count = match scope {
            CbsMode::Local => crate::convert::idx(geometry.sets()),
            CbsMode::Global => 1,
        };
        HybridEngine {
            geometry,
            scope,
            leaders: None,
            atd_lin: None,
            atd_lru: Atd::new(geometry, Box::new(LruEngine::new())),
            lin: LinEngine::new(lambda),
            lru: LruEngine::new(),
            psels: vec![Psel::new(psel_bits); psel_count],
            pending: HashMap::default(),
            stats: ContestStats::default(),
            sink: SinkHandle::disabled(),
            last_seq: 0,
        }
    }

    /// The leader-set map, if the contest is sampled (SBAR).
    pub fn leaders(&self) -> Option<&LeaderSets> {
        self.leaders.as_ref()
    }

    #[inline]
    fn is_leader(&self, set_index: u32) -> bool {
        self.leaders
            .as_ref()
            .is_some_and(|l| l.is_leader(set_index))
    }

    #[inline]
    fn psel_index(&self, set_index: u32) -> usize {
        match self.scope {
            CbsMode::Local => crate::convert::idx(set_index),
            CbsMode::Global => 0,
        }
    }

    /// The PSEL governing `set_index`.
    pub fn psel_for(&self, set_index: u32) -> &Psel {
        &self.psels[self.psel_index(set_index)]
    }

    /// Moves the PSEL governing `set_index` by `cost` toward LIN when
    /// `lin_wins`, toward LRU otherwise, and reports the divergence, the
    /// update and any MSB flip.
    fn vote(&mut self, set_index: u32, lin_wins: bool, cost: CostQ, line: LineAddr, seq: u64) {
        let index = self.psel_index(set_index);
        let psel = &mut self.psels[index];
        let msb_before = psel.msb_set();
        if lin_wins {
            psel.inc_by(u32::from(cost));
            self.stats.psel_increments = self.stats.psel_increments.saturating_add(1);
        } else {
            psel.dec_by(u32::from(cost));
            self.stats.psel_decrements = self.stats.psel_decrements.saturating_add(1);
        }
        let psel = *psel;
        if !self.sink.enabled() {
            return;
        }
        let unit = self.name();
        let (side, delta) = if lin_wins {
            ("atd_lru_miss", i64::from(cost))
        } else if self.atd_lin.is_some() {
            ("atd_lin_miss", i64::from(cost).wrapping_neg())
        } else {
            ("leader_lin_miss", i64::from(cost).wrapping_neg())
        };
        let index = crate::convert::idx_u64(index);
        self.sink.emit(Event::LeaderDivergence {
            unit: unit.to_string(),
            side: side.to_string(),
            line: line.0,
            cost_q: cost,
            seq,
        });
        self.sink.emit(Event::PselUpdate {
            unit: unit.to_string(),
            index,
            delta,
            value: u64::from(psel.value()),
            msb: psel.msb_set(),
            saturated: psel.is_saturated(),
            seq,
        });
        if psel.msb_set() != msb_before {
            self.sink.emit(Event::PselFlip {
                unit: unit.to_string(),
                index,
                msb: psel.msb_set(),
                value: u64::from(psel.value()),
                seq,
            });
        }
    }
}

impl ReplacementEngine for HybridEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let set_index = ctx.set.set_index();
        if self.is_leader(set_index) {
            // Leader sets in the MTD implement only the LIN policy (§6.4).
            self.lin.victim(ctx)
        } else if self.psel_for(set_index).msb_set() {
            self.stats.follower_lin_victims = self.stats.follower_lin_victims.saturating_add(1);
            self.lin.victim(ctx)
        } else {
            self.stats.follower_lru_victims = self.stats.follower_lru_victims.saturating_add(1);
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
        self.last_seq = seq;
        let set_index = self.geometry.set_index(line);
        if self
            .leaders
            .as_ref()
            .is_some_and(|l| !l.is_leader(set_index))
        {
            return; // follower sets have no ATD entries and never vote
        }
        // Replay the access in the shadows. If the MTD holds the line,
        // shadow fills inherit its stored cost_q (footnote 6); otherwise
        // the real cost is patched in by `on_serviced`.
        let provisional = resident_cost_q.unwrap_or(0);
        let lin_hit = match &mut self.atd_lin {
            Some(atd) => atd.access(line, seq, provisional).hit,
            None => mtd_hit,
        };
        let lru_hit = self.atd_lru.access(line, seq, provisional).hit;
        if lin_hit == lru_hit {
            return; // neither policy is doing better: PSEL unchanged (Fig. 6)
        }
        if mtd_hit {
            self.vote(set_index, lin_hit, provisional, line, seq);
        } else {
            let pending = self.pending.entry(line).or_default();
            let count = if lin_hit {
                &mut pending.increments
            } else {
                &mut pending.decrements
            };
            *count = count.saturating_add(1);
        }
    }

    fn on_serviced(&mut self, line: LineAddr, cost_q: CostQ) {
        if let Some(atd) = &mut self.atd_lin {
            atd.set_cost_q(line, cost_q);
        }
        self.atd_lru.set_cost_q(line, cost_q);
        if let Some(p) = self.pending.remove(&line) {
            let set_index = self.geometry.set_index(line);
            let seq = self.last_seq;
            for _ in 0..p.increments {
                self.vote(set_index, true, cost_q, line, seq);
            }
            for _ in 0..p.decrements {
                self.vote(set_index, false, cost_q, line, seq);
            }
        }
    }

    /// Re-draws `rand-dynamic` leader sets; the paper does so every 25 M
    /// instructions.
    fn on_epoch(&mut self) {
        if let Some(leaders) = &mut self.leaders {
            leaders.reselect();
        }
    }

    fn debug_state(&self) -> Option<String> {
        if self.leaders.is_none() {
            // The census of counters favoring LIN. Under CBS-local it is
            // the paper's §6.3 `p`, the fraction of sets whose contest
            // favors LIN ("between 0.74 and 0.99"); `measure_p` parses it.
            let lin = self.psels.iter().filter(|p| p.msb_set()).count();
            return Some(format!("psel_lin={lin}/{}", self.psels.len()));
        }
        let psel = self.psels[0];
        Some(format!(
            "psel={} msb={} inc={} dec={} lin_victims={} lru_victims={}",
            psel.value(),
            psel.msb_set(),
            self.stats.psel_increments,
            self.stats.psel_decrements,
            self.stats.follower_lin_victims,
            self.stats.follower_lru_victims,
        ))
    }

    fn name(&self) -> &'static str {
        match (self.leaders.is_some(), self.scope) {
            (true, _) => "sbar",
            (false, CbsMode::Local) => "cbs-local",
            (false, CbsMode::Global) => "cbs-global",
        }
    }

    fn policy_for_set(&self, set_index: u32) -> &'static str {
        // Mirrors `victim`.
        if self.is_leader(set_index) {
            "lin-leader"
        } else if self.psel_for(set_index).msb_set() {
            "lin"
        } else {
            "lru"
        }
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }
}

impl std::fmt::Debug for HybridEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridEngine")
            .field("name", &self.name())
            .field("geometry", &self.geometry)
            .field("lambda", &self.lin.lambda())
            .field("leaders", &self.leaders.as_ref().map(LeaderSets::k))
            .field("psels", &self.psels.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::model::CacheModel;
    use mlpsim_cache::tagstore::TagStore;

    /// Four 2-way sets; with two leaders, sets 0 and 3 lead (constituency
    /// size 2, simple-static offsets 0 and 1).
    fn sbar_2_leaders() -> HybridEngine {
        let cfg = SbarConfig {
            leader_sets: 2,
            ..SbarConfig::paper_default()
        };
        HybridEngine::sbar(Geometry::from_sets(4, 2, 64), cfg)
    }

    /// Runs `line` through `cache`, servicing a miss with cost `q`.
    fn access(cache: &mut CacheModel, seq: &mut u64, line: u64, q: CostQ) {
        let r = cache.access(LineAddr(line), false, *seq);
        if !r.hit {
            cache.record_serviced_cost(LineAddr(line), q);
        }
        *seq += 1;
    }

    /// Builds divergent shadow state in `set` of an 8-set (or 4-set) CBS:
    /// a cost-7 block that ATD-LIN pins and ATD-LRU ages out, then the
    /// MTD-resident re-access that makes LIN win by 7.
    fn lin_wins_in_set(e: &mut HybridEngine, set: u64, sets: u64, seq: u64) {
        e.on_access(LineAddr(set), seq, false, None);
        e.on_serviced(LineAddr(set), 7);
        e.on_access(LineAddr(set + sets), seq + 1, false, None);
        e.on_serviced(LineAddr(set + sets), 0);
        e.on_access(LineAddr(set + 2 * sets), seq + 2, false, None);
        e.on_serviced(LineAddr(set + 2 * sets), 0);
        e.on_access(LineAddr(set), seq + 3, true, Some(7));
    }

    #[test]
    fn leader_sets_follow_the_sampling_map() {
        let engine = sbar_2_leaders();
        let leaders: Vec<u32> = engine.leaders().unwrap().leaders().collect();
        assert_eq!(leaders, vec![0, 3]);
        assert!(
            HybridEngine::cbs(Geometry::from_sets(4, 2, 64), CbsConfig::local())
                .leaders()
                .is_none()
        );
    }

    #[test]
    fn policy_for_set_tracks_leaders_and_psel() {
        let mut engine = sbar_2_leaders();
        // PSEL starts below its MSB: followers run LRU, leaders run LIN.
        assert_eq!(engine.policy_for_set(0), "lin-leader");
        assert_eq!(engine.policy_for_set(1), "lru");
        // Push the PSEL over the midpoint: followers flip to LIN.
        engine.psels[0].inc_by(64);
        assert_eq!(engine.policy_for_set(0), "lin-leader");
        assert_eq!(engine.policy_for_set(1), "lin");
    }

    #[test]
    fn follower_victims_are_lru_below_the_msb_and_lin_above_it() {
        let g = Geometry::from_sets(4, 4, 64);
        let mut engine = HybridEngine::sbar(
            g,
            SbarConfig {
                leader_sets: 2,
                ..SbarConfig::paper_default()
            },
        );
        let (leader, follower) = (0u32, 1u32);
        assert!(engine.is_leader(leader) && !engine.is_leader(follower));
        let mut lru = LruEngine::new();
        let mut lin = LinEngine::paper_default();
        // Each pattern fills both sets' four ways in order, then gives way
        // `w` the cost `costs[w]`; the oldest blocks cost most, so LRU and
        // LIN disagree.
        for costs in [[7u8, 3, 0, 1], [6, 6, 0, 2], [3, 7, 1, 0]] {
            let mut tags = TagStore::new(g);
            for set in [leader, follower] {
                for (way, &q) in costs.iter().enumerate() {
                    let line = LineAddr(way as u64 * 4 + u64::from(set));
                    tags.fill(line, way, false, q);
                }
            }
            for msb in [false, true] {
                engine.psels[0] = Psel::new(6);
                if msb {
                    engine.psels[0].inc_by(1);
                }
                for set in [leader, follower] {
                    let ctx = VictimCtx {
                        set: tags.view(set),
                        incoming: LineAddr(100 + u64::from(set)),
                        seq: 0,
                    };
                    let (want_lru, want_lin) = (lru.victim(&ctx), lin.victim(&ctx));
                    assert_ne!(
                        want_lru, want_lin,
                        "costs {costs:?} must split LRU from LIN"
                    );
                    let want = if msb || set == leader {
                        want_lin
                    } else {
                        want_lru
                    };
                    assert_eq!(engine.victim(&ctx), want, "set {set}, msb {msb}");
                }
            }
        }
    }

    #[test]
    fn psel_moves_toward_lru_when_lin_misses_more() {
        let mut cache = CacheModel::new(Geometry::from_sets(4, 2, 64), Box::new(sbar_2_leaders()));
        // Leader set 0 holds lines 0, 4, 8. Line 0 costs 7, so leader-LIN
        // pins it; alternating 4 and 8 then misses every time under LIN
        // but hits in ATD-LRU, which keeps the recent pair: the deferred
        // decrements land with the serviced costs.
        let mut seq = 0u64;
        access(&mut cache, &mut seq, 0, 7);
        for _ in 0..20 {
            access(&mut cache, &mut seq, 4, 1);
            access(&mut cache, &mut seq, 8, 1);
        }
        // Follower set 1 must now evict like LRU: of a high-cost older
        // block and a cheap newer one, LRU evicts the former, LIN the
        // latter.
        access(&mut cache, &mut seq, 1, 7);
        access(&mut cache, &mut seq, 5, 0);
        let res = cache.access(LineAddr(9), false, seq);
        assert_eq!(
            res.evicted.unwrap().line,
            LineAddr(1),
            "followers must behave like LRU after LIN loses the contest"
        );
    }

    #[test]
    fn psel_moves_toward_lin_when_lin_protects_useful_blocks() {
        let mut engine = sbar_2_leaders();
        let before = engine.psel_for(0).value();
        // Teach ATD-LRU lines 0, 4, 8 so it evicts 0; the MTD (LIN) still
        // holds 0 with cost 7, so the re-access is LIN's win by 7.
        engine.on_access(LineAddr(0), 0, false, None);
        engine.on_serviced(LineAddr(0), 7);
        engine.on_access(LineAddr(4), 1, false, None);
        engine.on_serviced(LineAddr(4), 1);
        engine.on_access(LineAddr(8), 2, false, None);
        engine.on_serviced(LineAddr(8), 1);
        engine.on_access(LineAddr(0), 3, true, Some(7));
        assert_eq!(engine.psel_for(0).value(), before + 7);
        assert_eq!(engine.stats.psel_increments, 1);
    }

    #[test]
    fn pending_decrements_wait_for_serviced_cost() {
        let mut engine = sbar_2_leaders();
        let start = engine.psel_for(0).value();
        // Teach ATD-LRU the line so it hits there while the MTD misses.
        engine.on_access(LineAddr(0), 0, false, None);
        engine.on_access(LineAddr(0), 1, false, None);
        assert_eq!(
            engine.psel_for(0).value(),
            start,
            "decrement deferred until service"
        );
        engine.on_serviced(LineAddr(0), 5);
        assert_eq!(engine.psel_for(0).value(), start - 5);
        assert_eq!(engine.stats.psel_decrements, 1);
    }

    #[test]
    fn follower_accesses_do_not_touch_psel() {
        let mut engine = sbar_2_leaders();
        let start = engine.psel_for(0).value();
        // Sets 1 and 2 are followers (leaders are 0 and 3).
        for seq in 0..50u64 {
            let line = LineAddr(1 + 4 * (seq % 3));
            engine.on_access(line, seq, seq % 2 == 0, Some(7));
            engine.on_serviced(line, 7);
        }
        assert_eq!(engine.psel_for(0).value(), start);
    }

    #[test]
    fn mode_controls_psel_count_and_name() {
        let g = Geometry::from_sets(8, 2, 64);
        let mut local = HybridEngine::cbs(g, CbsConfig::local());
        let mut global = HybridEngine::cbs(g, CbsConfig::global());
        assert_eq!(local.name(), "cbs-local");
        assert_eq!(global.name(), "cbs-global");
        assert_eq!(sbar_2_leaders().name(), "sbar");
        // A divergence in set 3 only: in Local mode the other sets' PSELs
        // stay put, in Global mode the single PSEL moves.
        for e in [&mut local, &mut global] {
            lin_wins_in_set(e, 3, 8, 0);
        }
        assert_eq!(local.debug_state().unwrap(), "psel_lin=1/8");
        assert!(local.psel_for(3).value() > Psel::new(6).value());
        assert_eq!(local.psel_for(0).value(), Psel::new(6).value());
        assert!(global.psel_for(0).value() > Psel::new(7).value());
        assert_eq!(global.debug_state().unwrap(), "psel_lin=1/1");
    }

    #[test]
    fn policy_for_set_follows_each_governing_psel() {
        let mut e = HybridEngine::cbs(Geometry::from_sets(8, 2, 64), CbsConfig::local());
        assert_eq!(e.policy_for_set(3), "lru");
        // Drive set 3's PSEL over its midpoint; other sets' PSELs stay on
        // the LRU side.
        let mut seq = 0u64;
        while !e.psel_for(3).msb_set() {
            lin_wins_in_set(&mut e, 3, 8, seq);
            seq += 4;
        }
        assert_eq!(e.policy_for_set(3), "lin");
        assert_eq!(e.policy_for_set(0), "lru");
        assert_eq!(e.debug_state().unwrap(), "psel_lin=1/8");
    }

    #[test]
    fn pending_updates_settle_with_real_cost() {
        let mut e = HybridEngine::cbs(Geometry::from_sets(4, 2, 64), CbsConfig::global());
        let base = e.psel_for(0).value();
        e.on_access(LineAddr(0), 0, false, None);
        e.on_serviced(LineAddr(0), 7);
        e.on_access(LineAddr(4), 1, false, None);
        e.on_serviced(LineAddr(4), 0);
        e.on_access(LineAddr(8), 2, false, None);
        e.on_serviced(LineAddr(8), 0);
        // ATD-LIN = {0, 8}; ATD-LRU = {4, 8}. Access 0 with an MTD miss:
        // LIN hit, LRU miss → the increment waits for the service.
        e.on_access(LineAddr(0), 3, false, None);
        assert_eq!(e.psel_for(0).value(), base, "waits for service");
        e.on_serviced(LineAddr(0), 6);
        assert_eq!(e.psel_for(0).value(), base + 6);
    }

    #[test]
    fn mtd_follows_the_winning_policy() {
        let g = Geometry::from_sets(4, 2, 64);
        let mut cache = CacheModel::new(g, Box::new(HybridEngine::cbs(g, CbsConfig::global())));
        // In set 0: pin a cost-7 block under LIN, then alternate two other
        // lines. ATD-LIN keeps missing them; ATD-LRU keeps the recent pair
        // and hits. The global PSEL sinks toward LRU.
        let mut seq = 0u64;
        access(&mut cache, &mut seq, 0, 7);
        for _ in 0..30 {
            access(&mut cache, &mut seq, 4, 1);
            access(&mut cache, &mut seq, 8, 1);
        }
        // Set 1 obeys the same global PSEL: LRU evicts the older block.
        access(&mut cache, &mut seq, 1, 7);
        access(&mut cache, &mut seq, 5, 0);
        let res = cache.access(LineAddr(9), false, seq);
        assert_eq!(
            res.evicted.unwrap().line,
            LineAddr(1),
            "LRU evicts the older block"
        );
    }
}
