//! A cache model: tag store + replacement engine + statistics.

use crate::addr::{Geometry, LineAddr, LineBuildHasher};
use crate::meta::CostQ;
use crate::policy::{ReplacementEngine, VictimCtx};
use crate::tagstore::{Evicted, TagStore};

use mlpsim_telemetry::{Event, SinkHandle};
use serde::{Deserialize, Serialize};

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// The way the line resides in after the access.
    pub way: usize,
    /// Block evicted to make room (misses into full sets only).
    pub evicted: Option<Evicted>,
}

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that found every way valid and had to evict.
    pub evictions: u64,
    /// Evictions of dirty blocks (writebacks generated).
    pub writebacks: u64,
    /// Misses that filled an invalid way — these are, by definition,
    /// *compulsory or capacity-fresh* fills; together with
    /// `first_touch_misses` they support the Table-3 compulsory-miss
    /// accounting.
    pub cold_fills: u64,
    /// Lines inserted by a prefetcher (not counted as hits or misses).
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Miss ratio in [0, 1]; 0 when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative cache with a pluggable replacement engine.
///
/// `CacheModel` updates tags *at access time* (standard trace-driven cache
/// simulation); the timing of miss service is owned by the MSHR/memory
/// models in `mlpsim-mem`, which call back into
/// [`CacheModel::record_serviced_cost`] once a miss's MLP-based cost is
/// known (paper §5: the cost is stored in the tag-store entry when the miss
/// gets serviced).
pub struct CacheModel {
    tags: TagStore,
    engine: Box<dyn ReplacementEngine>,
    stats: CacheStats,
    /// Lines missed at least once, for compulsory-miss accounting. It is
    /// hashed on every miss, so it uses the cheap fixed
    /// [`LineHasher`](crate::addr::LineHasher); only its insert results
    /// are counted and it is never iterated, so bucket layout cannot
    /// reach the output.
    seen: std::collections::HashSet<LineAddr, LineBuildHasher>,
    first_touch_misses: u64,
    /// Telemetry sink (disabled unless attached) and the cache-level tag
    /// stamped on emitted events (1 = L1, 2 = L2).
    sink: SinkHandle,
    level: u8,
}

impl CacheModel {
    /// Creates a cache with the given geometry and replacement engine.
    pub fn new(geometry: Geometry, engine: Box<dyn ReplacementEngine>) -> Self {
        CacheModel {
            tags: TagStore::new(geometry),
            engine,
            stats: CacheStats::default(),
            seen: std::collections::HashSet::default(),
            first_touch_misses: 0,
            sink: SinkHandle::disabled(),
            level: 0,
        }
    }

    /// Streams `cache_hit`/`cache_miss`/`cache_victim` events into `sink`,
    /// stamped with `level`, and hands the engine a clone for its own
    /// `psel_*`/`leader_divergence` events.
    pub fn set_sink(&mut self, sink: SinkHandle, level: u8) {
        self.engine.attach_sink(sink.clone());
        self.sink = sink;
        self.level = level;
    }

    /// The cache geometry.
    pub fn geometry(&self) -> Geometry {
        self.tags.geometry()
    }

    /// The replacement engine's name.
    pub fn policy_name(&self) -> &'static str {
        self.engine.name()
    }

    /// The policy governing victim selection in `set_index` right now
    /// (see [`ReplacementEngine::policy_for_set`]); distinguishes leader
    /// from PSEL-following sets in the dueling engines.
    pub fn policy_for_set(&self, set_index: u32) -> &'static str {
        self.engine.policy_for_set(set_index)
    }

    /// Immutable view of the tag store (for diagnostics and hybrid engines
    /// built *around* a `CacheModel`).
    pub fn tags(&self) -> &TagStore {
        &self.tags
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of misses to lines never seen before (compulsory misses in
    /// the simulated window).
    pub fn compulsory_misses(&self) -> u64 {
        self.first_touch_misses
    }

    /// Resets statistics (not contents), e.g. after cache warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.first_touch_misses = 0;
    }

    /// Performs one access.
    ///
    /// * `write` marks the line dirty (write-allocate, writeback).
    /// * `seq` is a monotonically increasing access sequence number; it is
    ///   forwarded to the engine (Belady's OPT keys its oracle on it).
    pub fn access(&mut self, line: LineAddr, write: bool, seq: u64) -> AccessResult {
        match self.tags.probe(line) {
            Some(way) => {
                let cost = self.tags.cost_q_at(line, way);
                self.engine.on_access(line, seq, true, Some(cost));
                self.tags.touch(line, way);
                if write {
                    self.tags.mark_dirty_at(line, way);
                }
                self.stats.hits = self.stats.hits.saturating_add(1);
                self.sink.emit_with(|| Event::CacheHit {
                    level: self.level,
                    set: u64::from(self.tags.geometry().set_index(line)),
                    line: line.0,
                    seq,
                });
                AccessResult {
                    hit: true,
                    way,
                    evicted: None,
                }
            }
            None => {
                self.engine.on_access(line, seq, false, None);
                self.stats.misses = self.stats.misses.saturating_add(1);
                if self.seen.insert(line) {
                    self.first_touch_misses = self.first_touch_misses.saturating_add(1);
                }
                let set_index = self.tags.geometry().set_index(line);
                self.sink.emit_with(|| Event::CacheMiss {
                    level: self.level,
                    set: u64::from(set_index),
                    line: line.0,
                    seq,
                });
                let way = match self.tags.view(set_index).first_invalid() {
                    Some(way) => {
                        self.stats.cold_fills = self.stats.cold_fills.saturating_add(1);
                        way
                    }
                    None => {
                        self.stats.evictions = self.stats.evictions.saturating_add(1);
                        let ctx = VictimCtx {
                            set: self.tags.view(set_index),
                            incoming: line,
                            seq,
                        };
                        let way = self.engine.victim(&ctx);
                        assert!(
                            way < usize::from(self.tags.geometry().ways()),
                            "engine returned out-of-range way"
                        );
                        way
                    }
                };
                // The victim's recency-stack position, read before the fill
                // moves it to MRU (meaningless for a cold fill, which
                // evicts nothing).
                let victim_rank = self.tags.view(set_index).recency_ranks()[way];
                let evicted = self.tags.fill(line, way, write, 0);
                if let Some(ev) = evicted {
                    if ev.dirty {
                        self.stats.writebacks = self.stats.writebacks.saturating_add(1);
                    }
                    self.sink.emit_with(|| Event::CacheVictim {
                        level: self.level,
                        set: u64::from(set_index),
                        way: way as u64,
                        rank: u64::from(victim_rank),
                        cost_q: ev.cost_q,
                        line: ev.line.0,
                        dirty: ev.dirty,
                        seq,
                    });
                }
                AccessResult {
                    hit: false,
                    way,
                    evicted,
                }
            }
        }
    }

    /// Inserts a prefetched line without touching hit/miss statistics
    /// (prefetches are not demand accesses). The line lands at MRU with
    /// `cost_q` 0; if the set is full the engine chooses the victim as
    /// usual. Returns the evicted block, if any; no-op when the line is
    /// already resident.
    pub fn insert_prefetched(&mut self, line: LineAddr, seq: u64) -> Option<Evicted> {
        if self.tags.contains(line) {
            return None;
        }
        let set_index = self.tags.geometry().set_index(line);
        let way = match self.tags.view(set_index).first_invalid() {
            Some(way) => way,
            None => {
                let ctx = VictimCtx {
                    set: self.tags.view(set_index),
                    incoming: line,
                    seq,
                };
                self.engine.victim(&ctx)
            }
        };
        self.stats.prefetch_fills = self.stats.prefetch_fills.saturating_add(1);
        let evicted = self.tags.fill(line, way, false, 0);
        if let Some(ev) = evicted {
            if ev.dirty {
                self.stats.writebacks = self.stats.writebacks.saturating_add(1);
            }
        }
        evicted
    }

    /// Records the quantized MLP-based cost of a serviced miss into the
    /// tag-store entry for `line` (if still resident) and notifies the
    /// engine. Returns whether the line was still resident.
    pub fn record_serviced_cost(&mut self, line: LineAddr, cost_q: CostQ) -> bool {
        self.engine.on_serviced(line, cost_q);
        self.tags.set_cost_q(line, cost_q)
    }

    /// Forwards the periodic epoch hook to the replacement engine (used by
    /// `rand-dynamic` leader-set reselection).
    pub fn on_epoch(&mut self) {
        self.engine.on_epoch();
    }

    /// The engine's one-line diagnostic state, if it has one.
    pub fn engine_debug_state(&self) -> Option<String> {
        self.engine.debug_state()
    }

    /// The stored `cost_q` for a resident line.
    pub fn cost_q_of(&self, line: LineAddr) -> Option<CostQ> {
        self.tags.cost_q_of(line)
    }

    /// Whether a line is currently resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.tags.contains(line)
    }
}

impl std::fmt::Debug for CacheModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheModel")
            .field("geometry", &self.tags.geometry())
            .field("policy", &self.engine.name())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruEngine;

    fn small() -> CacheModel {
        CacheModel::new(Geometry::from_sets(2, 2, 64), Box::new(LruEngine::new()))
    }

    #[test]
    fn miss_then_hit_updates_stats() {
        let mut c = small();
        assert!(!c.access(LineAddr(0), false, 0).hit);
        assert!(c.access(LineAddr(0), false, 1).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().cold_fills, 1);
        assert_eq!(c.compulsory_misses(), 1);
    }

    #[test]
    fn write_makes_block_dirty_and_evicts_writeback() {
        let mut c = small();
        c.access(LineAddr(0), true, 0); // set 0, dirty
        c.access(LineAddr(2), false, 1); // set 0
        let res = c.access(LineAddr(4), false, 2); // set 0, evict LRU = line 0
        let ev = res.evicted.unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn serviced_cost_lands_in_tag_store() {
        let mut c = small();
        c.access(LineAddr(1), false, 0);
        assert!(c.record_serviced_cost(LineAddr(1), 6));
        assert_eq!(c.cost_q_of(LineAddr(1)), Some(6));
        assert!(!c.record_serviced_cost(LineAddr(99), 6));
    }

    #[test]
    fn compulsory_misses_count_unique_lines() {
        let mut c = small();
        // 0,2,4 all map to set 0 of the 2-way cache: line 0 is evicted and
        // re-missed, which must NOT count as compulsory again.
        for (i, l) in [0u64, 2, 4, 0, 2, 4, 0].iter().enumerate() {
            c.access(LineAddr(*l), false, i as u64);
        }
        assert_eq!(c.compulsory_misses(), 3);
        assert!(c.stats().misses > 3);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(LineAddr(0), false, 0);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(
            c.access(LineAddr(0), false, 1).hit,
            "contents survive reset"
        );
    }

    #[test]
    fn miss_ratio_handles_empty() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}
