//! Sampling Based Adaptive Replacement (SBAR) — paper §6.4, Fig. 7c.
//!
//! SBAR makes hybrid replacement cheap:
//!
//! * the main tag directory's sets are split into *leader sets* (which
//!   always run LIN and update the PSEL counter) and *follower sets*
//!   (which run whichever of LIN/LRU the PSEL output currently favors);
//! * a single auxiliary tag directory (ATD-LRU) shadows only the leader
//!   sets with the LRU policy;
//! * on a divergence between the leader set (LIN) and its ATD-LRU shadow,
//!   PSEL moves by the `cost_q` of the divergent miss, so the contest is
//!   decided on MLP-based cost (≈ stall cycles), not raw misses.

use crate::leader::{LeaderSets, SelectionPolicy};
use crate::lin::LinEngine;
use crate::psel::{Psel, PselWatch};
use mlpsim_cache::addr::{Geometry, LineAddr, LineBuildHasher};
use mlpsim_cache::atd::Atd;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::meta::CostQ;
use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};
use mlpsim_telemetry::{Event, SinkHandle};
use std::collections::HashMap;

/// Configuration for [`SbarEngine`].
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

/// Observability counters for SBAR's adaptation behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SbarStats {
    /// Follower-set victim decisions made with LIN.
    pub follower_lin_victims: u64,
    /// Follower-set victim decisions made with LRU.
    pub follower_lru_victims: u64,
    /// PSEL increments (LIN beat LRU on an access).
    pub psel_increments: u64,
    /// PSEL decrements (LRU beat LIN on an access).
    pub psel_decrements: u64,
}

/// The SBAR replacement engine.
///
/// Plug it into a [`CacheModel`](mlpsim_cache::model::CacheModel) as the L2
/// replacement engine; the cache forwards every access through
/// [`ReplacementEngine::on_access`] (which drives the ATD and PSEL) and
/// every serviced miss cost through [`ReplacementEngine::on_serviced`]
/// (which settles PSEL updates that had to wait for the real MLP-based
/// cost).
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::Geometry;
/// use mlpsim_cache::model::CacheModel;
/// use mlpsim_core::sbar::{SbarConfig, SbarEngine};
///
/// let geom = Geometry::baseline_l2();
/// let engine = SbarEngine::new(geom, SbarConfig::paper_default());
/// assert_eq!(engine.leaders().k(), 32);
/// assert!(!engine.followers_use_lin()); // starts on the LRU side
/// let cache = CacheModel::new(geom, Box::new(engine));
/// assert_eq!(cache.policy_name(), "sbar");
/// ```
pub struct SbarEngine {
    geometry: Geometry,
    lin: LinEngine,
    lru: LruEngine,
    leaders: LeaderSets,
    atd_lru: Atd,
    psel: Psel,
    /// Leader-set misses that hit in ATD-LRU: PSEL must be decremented by
    /// the miss's cost_q, which is only known when the miss is serviced.
    /// Looked up on every serviced miss, so it uses the fixed
    /// [`LineHasher`](mlpsim_cache::addr::LineHasher) rather than
    /// SipHash. It is only read through `entry` and `remove`, never
    /// iterated, so bucket layout cannot reach the output.
    pending_dec: HashMap<LineAddr, u32, LineBuildHasher>,
    stats: SbarStats,
    sink: SinkHandle,
    watch: PselWatch,
    /// Sequence number of the most recent access, stamped on PSEL events
    /// settled later in `on_serviced` (engines have no cycle clock).
    last_seq: u64,
}

impl SbarEngine {
    /// Creates an SBAR engine for a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's set count is not divisible by the leader
    /// count (constituencies must be equally sized).
    pub fn new(geometry: Geometry, config: SbarConfig) -> Self {
        let leaders = LeaderSets::new(
            geometry.sets(),
            config.leader_sets,
            config.selection,
            config.seed,
        );
        let psel = Psel::new(config.psel_bits);
        SbarEngine {
            geometry,
            lin: LinEngine::new(config.lambda),
            lru: LruEngine::new(),
            leaders,
            atd_lru: Atd::new(geometry, Box::new(LruEngine::new())),
            psel,
            pending_dec: HashMap::default(),
            stats: SbarStats::default(),
            sink: SinkHandle::disabled(),
            watch: PselWatch::new(&psel),
            last_seq: 0,
        }
    }

    /// Emits a `psel_update` (and a `psel_flip` when the MSB changed) after
    /// a PSEL movement of `delta` attributed to access `seq`.
    fn note_psel_update(&mut self, delta: i64, seq: u64) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.emit(Event::PselUpdate {
            unit: "sbar".to_string(),
            index: 0,
            delta,
            value: u64::from(self.psel.value()),
            msb: self.psel.msb_set(),
            saturated: self.psel.is_saturated(),
            seq,
        });
        if let Some(msb) = self.watch.observe(&self.psel) {
            self.sink.emit(Event::PselFlip {
                unit: "sbar".to_string(),
                index: 0,
                msb,
                value: u64::from(self.psel.value()),
                seq,
            });
        }
    }

    /// Current PSEL value (for time-series experiments).
    pub fn psel(&self) -> &Psel {
        &self.psel
    }

    /// Whether follower sets are currently using LIN.
    pub fn followers_use_lin(&self) -> bool {
        self.psel.msb_set()
    }

    /// The leader-set map.
    pub fn leaders(&self) -> &LeaderSets {
        &self.leaders
    }

    /// Adaptation counters.
    pub fn stats(&self) -> &SbarStats {
        &self.stats
    }

    /// Re-draws `rand-dynamic` leader sets (no-op under `simple-static`).
    /// The paper re-invokes this every 25 M instructions.
    pub fn reselect_leaders(&mut self) {
        self.leaders.reselect();
    }
}

impl ReplacementEngine for SbarEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let set_index = ctx.set.set_index();
        if self.leaders.is_leader(set_index) {
            // Leader sets in the MTD implement only the LIN policy (§6.4).
            self.lin.victim(ctx)
        } else if self.psel.msb_set() {
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
        if !self.leaders.is_leader(set_index) {
            return; // follower sets have no ATD entries and never update PSEL
        }
        // Replay the access in the ATD-LRU shadow. If the MTD holds the
        // line, the shadow block inherits the MTD's stored cost_q
        // (footnote 6); otherwise the real cost is patched in later via
        // `on_serviced`.
        let atd_hit = self
            .atd_lru
            .access(line, seq, resident_cost_q.unwrap_or(0))
            .hit;
        match (mtd_hit, atd_hit) {
            (true, true) | (false, false) => {} // neither policy is doing better
            (false, true) => {
                // The LIN-managed leader set missed where LRU would have
                // hit: LRU wins this access. The decrement amount is the
                // cost_q the miss is eventually serviced with.
                let pending = self.pending_dec.entry(line).or_insert(0);
                *pending = pending.saturating_add(1);
            }
            (true, false) => {
                // LIN kept a line LRU would have evicted: LIN wins. The
                // miss ATD-LRU incurred is not serviced by memory; its
                // cost_q comes from the MTD's tag-store entry.
                let cost = resident_cost_q.unwrap_or(0);
                self.psel.inc_by(u32::from(cost));
                self.stats.psel_increments = self.stats.psel_increments.saturating_add(1);
                self.sink.emit_with(|| Event::LeaderDivergence {
                    unit: "sbar".to_string(),
                    side: "atd_lru_miss".to_string(),
                    line: line.0,
                    cost_q: cost,
                    seq,
                });
                self.note_psel_update(i64::from(cost), seq);
            }
        }
    }

    fn on_serviced(&mut self, line: LineAddr, cost_q: CostQ) {
        // Keep the shadow directory's stored cost in sync (it matters only
        // for diagnostics under an LRU ATD, but is what hardware would do).
        self.atd_lru.set_cost_q(line, cost_q);
        if let Some(n) = self.pending_dec.remove(&line) {
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "negating a widened u8 cannot overflow"
            )]
            let delta = -i64::from(cost_q);
            for _ in 0..n {
                self.psel.dec_by(u32::from(cost_q));
                self.stats.psel_decrements = self.stats.psel_decrements.saturating_add(1);
                let seq = self.last_seq;
                self.sink.emit_with(|| Event::LeaderDivergence {
                    unit: "sbar".to_string(),
                    side: "leader_lin_miss".to_string(),
                    line: line.0,
                    cost_q,
                    seq,
                });
                self.note_psel_update(delta, seq);
            }
        }
    }

    fn on_epoch(&mut self) {
        self.reselect_leaders();
    }

    fn debug_state(&self) -> Option<String> {
        Some(format!(
            "psel={} msb={} inc={} dec={} lin_victims={} lru_victims={}",
            self.psel.value(),
            self.psel.msb_set(),
            self.stats.psel_increments,
            self.stats.psel_decrements,
            self.stats.follower_lin_victims,
            self.stats.follower_lru_victims,
        ))
    }

    fn name(&self) -> &'static str {
        "sbar"
    }

    fn policy_for_set(&self, set_index: u32) -> &'static str {
        // Mirrors `victim`: leaders always run LIN (§6.4); followers
        // track the PSEL's most-significant bit.
        if self.leaders.is_leader(set_index) {
            "lin-leader"
        } else if self.psel.msb_set() {
            "lin"
        } else {
            "lru"
        }
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }
}

impl std::fmt::Debug for SbarEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SbarEngine")
            .field("geometry", &self.geometry)
            .field("lambda", &self.lin.lambda())
            .field("k", &self.leaders.k())
            .field("psel", &self.psel)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::model::CacheModel;

    /// A small geometry where set 0 is the single leader set.
    fn tiny() -> (Geometry, SbarConfig) {
        let g = Geometry::from_sets(4, 2, 64);
        let cfg = SbarConfig {
            lambda: 4,
            leader_sets: 4, // every set a leader? no — use 2 leaders
            ..SbarConfig::paper_default()
        };
        (g, cfg)
    }

    #[test]
    fn leader_sets_always_use_lin() {
        let (g, mut cfg) = tiny();
        cfg.leader_sets = 2; // sets 0 and 3 lead (constituency size 2: offsets 0,1)
        let engine = SbarEngine::new(g, cfg);
        let leaders: Vec<u32> = engine.leaders().leaders().collect();
        assert_eq!(leaders, vec![0, 3]);
    }

    #[test]
    fn policy_for_set_tracks_leaders_and_psel() {
        let (g, mut cfg) = tiny();
        cfg.leader_sets = 2;
        let mut engine = SbarEngine::new(g, cfg);
        // PSEL starts below its MSB: followers run LRU, leaders run LIN.
        assert!(!engine.followers_use_lin());
        assert_eq!(engine.policy_for_set(0), "lin-leader");
        assert_eq!(engine.policy_for_set(1), "lru");
        // Push the PSEL over the midpoint: followers flip to LIN.
        while !engine.followers_use_lin() {
            engine.psel.inc_by(64);
        }
        assert_eq!(engine.policy_for_set(0), "lin-leader");
        assert_eq!(engine.policy_for_set(1), "lin");
    }

    #[test]
    fn psel_moves_toward_lru_when_lin_misses_more() {
        let (g, mut cfg) = tiny();
        cfg.leader_sets = 2;
        let mut cache = CacheModel::new(g, Box::new(SbarEngine::new(g, cfg)));
        // Leader set 0 lines: 0, 4, 8 (all ≡ 0 mod 4). Prime line 0 with a
        // huge cost so leader-LIN pins it, then thrash with 4 and 8 while
        // touching 0 rarely — LRU would keep the recent pair.
        let mut seq = 0u64;
        let mut acc = |c: &mut CacheModel, l: u64, q: u8| {
            let r = c.access(LineAddr(l), false, seq);
            if !r.hit {
                c.record_serviced_cost(LineAddr(l), q);
            }
            seq += 1;
        };
        acc(&mut cache, 0, 7); // pinned by LIN with cost 7
                               // Alternate 4, 8: under LIN (0 pinned) they evict each other and
                               // miss every time; under LRU in the ATD they... also alternate.
                               // But touching 0 occasionally hits in both. To force divergence,
                               // access pattern: 4, 8, 4, 8 — LIN keeps {0, last}, LRU keeps
                               // {last two} = {4, 8}. So re-access of 4/8 hits in ATD-LRU and
                               // misses in MTD → pending decrements, settled by serviced costs.
        for _ in 0..20 {
            acc(&mut cache, 4, 1);
            acc(&mut cache, 8, 1);
        }
        // Force settle-check: PSEL should have dropped to favor LRU.
        // (record_serviced_cost drives on_serviced through the model.)
        // We can't reach into the boxed engine; behavioural check instead:
        // follower set 1 should now evict like LRU. Fill follower set 1
        // with a high-cost LRU block and a low-cost MRU block: LRU evicts
        // the former, LIN the latter.
        acc(&mut cache, 1, 7); // set 1, cost 7, older
        acc(&mut cache, 5, 0); // set 1, cost 0, newer
        let res = cache.access(LineAddr(9), false, seq);
        assert_eq!(
            res.evicted.unwrap().line,
            LineAddr(1),
            "followers must behave like LRU after LIN loses the contest"
        );
    }

    #[test]
    fn psel_moves_toward_lin_when_lin_protects_useful_blocks() {
        let g = Geometry::from_sets(4, 2, 64);
        let cfg = SbarConfig {
            leader_sets: 2,
            ..SbarConfig::paper_default()
        };
        let mut engine = SbarEngine::new(g, cfg);
        let before = engine.psel().value();
        // Simulate: MTD hit while ATD-LRU misses on a line whose MTD entry
        // carries cost 7 → PSEL += 7.
        // First make the ATD know the line then evict it there:
        engine.on_access(LineAddr(0), 0, false, None); // both miss; ATD fills
        engine.on_serviced(LineAddr(0), 7);
        engine.on_access(LineAddr(4), 1, false, None); // ATD fills way 2? (2-way: 0,4)
        engine.on_serviced(LineAddr(4), 1);
        engine.on_access(LineAddr(8), 2, false, None); // ATD evicts LRU = 0
        engine.on_serviced(LineAddr(8), 1);
        // Now line 0 gone from ATD; pretend MTD still has it (LIN pinned).
        engine.on_access(LineAddr(0), 3, true, Some(7));
        assert_eq!(engine.psel().value(), before + 7);
        assert_eq!(engine.stats().psel_increments, 1);
    }

    #[test]
    fn pending_decrements_wait_for_serviced_cost() {
        let g = Geometry::from_sets(4, 2, 64);
        let cfg = SbarConfig {
            leader_sets: 2,
            ..SbarConfig::paper_default()
        };
        let mut engine = SbarEngine::new(g, cfg);
        let start = engine.psel().value();
        // Teach the ATD the line so it hits there while MTD misses.
        engine.on_access(LineAddr(0), 0, false, None);
        engine.on_access(LineAddr(0), 1, false, None); // ATD hit, MTD miss → pending dec
        assert_eq!(
            engine.psel().value(),
            start,
            "decrement deferred until service"
        );
        engine.on_serviced(LineAddr(0), 5);
        assert_eq!(engine.psel().value(), start - 5);
        assert_eq!(engine.stats().psel_decrements, 1);
    }

    #[test]
    fn follower_accesses_do_not_touch_psel() {
        let g = Geometry::from_sets(4, 2, 64);
        let cfg = SbarConfig {
            leader_sets: 2,
            ..SbarConfig::paper_default()
        };
        let mut engine = SbarEngine::new(g, cfg);
        let start = engine.psel().value();
        // Sets 1 and 2 are followers (leaders are 0 and 3).
        for seq in 0..50u64 {
            engine.on_access(LineAddr(1 + 4 * (seq % 3)), seq, seq % 2 == 0, Some(7));
            engine.on_serviced(LineAddr(1 + 4 * (seq % 3)), 7);
        }
        assert_eq!(engine.psel().value(), start);
    }
}
