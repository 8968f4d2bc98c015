#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs

//! Differential test of the replacement layer (`CacheModel` over the
//! columnar `TagStore` with `LruEngine`, `FifoEngine` and `LinEngine`)
//! against a naive reference: one `Vec` of per-way records per set, each
//! way holding the full line address and two `u64` stamps from a global
//! clock. The reference derives every LRU-stack position by counting the
//! valid ways with a smaller stamp, and picks victims by a plain minimum
//! over its records, so it shares nothing with the fast path's in-place
//! `u8` rank columns. Hits, ways, evictions, statistics and the ranks of
//! every set must agree after every operation.

use mlpsim::cache::addr::{Geometry, LineAddr};
use mlpsim::cache::fifo::FifoEngine;
use mlpsim::cache::lru::LruEngine;
use mlpsim::cache::meta::CostQ;
use mlpsim::cache::model::CacheModel;
use mlpsim::cache::policy::ReplacementEngine;
use mlpsim::cache::tagstore::Evicted;
use mlpsim::core::lin::LinEngine;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The associativities under test: every width up to the paper's 16, and
/// a few odd and wide ones up to the widest the repository configures.
const WAYS: [u16; 19] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 63,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Policy {
    Lru,
    Fifo,
    Lin(u32),
}

const POLICIES: [Policy; 6] = [
    Policy::Lru,
    Policy::Fifo,
    Policy::Lin(0),
    Policy::Lin(1),
    Policy::Lin(4),
    Policy::Lin(7),
];

impl Policy {
    fn engine(self) -> Box<dyn ReplacementEngine> {
        match self {
            Policy::Lru => Box::new(LruEngine::new()),
            Policy::Fifo => Box::new(FifoEngine::new()),
            Policy::Lin(lambda) => Box::new(LinEngine::new(lambda)),
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct RefWay {
    valid: bool,
    line: u64,
    last_use: u64,
    filled: u64,
    cost_q: CostQ,
    dirty: bool,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RefStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
    cold_fills: u64,
    prefetch_fills: u64,
}

struct RefCache {
    policy: Policy,
    sets: Vec<Vec<RefWay>>,
    clock: u64,
    seen: BTreeSet<u64>,
    compulsory: u64,
    stats: RefStats,
}

/// `R(i)`: how many valid ways of the set were used before way `i`; 0 for
/// an invalid way.
fn stamp_ranks(set: &[RefWay], stamp: impl Fn(&RefWay) -> u64) -> Vec<u8> {
    set.iter()
        .map(|w| {
            if !w.valid {
                return 0;
            }
            let older = set
                .iter()
                .filter(|o| o.valid && stamp(o) < stamp(w))
                .count();
            u8::try_from(older).unwrap()
        })
        .collect()
}

impl RefCache {
    fn new(policy: Policy, sets: u32, ways: u16) -> Self {
        RefCache {
            policy,
            sets: vec![vec![RefWay::default(); usize::from(ways)]; sets as usize],
            clock: 0,
            seen: BTreeSet::new(),
            compulsory: 0,
            stats: RefStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn find(&self, line: u64) -> Option<usize> {
        self.sets[self.set_of(line)]
            .iter()
            .position(|w| w.valid && w.line == line)
    }

    fn recency_ranks(&self, set: usize) -> Vec<u8> {
        stamp_ranks(&self.sets[set], |w| w.last_use)
    }

    fn fill_ranks(&self, set: usize) -> Vec<u8> {
        stamp_ranks(&self.sets[set], |w| w.filled)
    }

    /// The victim of a full set: the minimum of the policy's key over the
    /// ways. LIN's key is `(R + λ·cost_q, R)`, which breaks score ties to
    /// the smallest recency rank as the paper specifies (§5.1).
    fn victim(&self, set: usize) -> usize {
        let ways = &self.sets[set];
        let ranks = self.recency_ranks(set);
        let key = |w: usize| -> (u64, u64) {
            match self.policy {
                Policy::Lru => (ways[w].last_use, 0),
                Policy::Fifo => (ways[w].filled, 0),
                Policy::Lin(lambda) => {
                    let rank = u64::from(ranks[w]);
                    (rank + u64::from(lambda) * u64::from(ways[w].cost_q), rank)
                }
            }
        };
        (0..ways.len()).min_by_key(|&w| key(w)).unwrap()
    }

    /// Fills `line` into its set (first invalid way, else the victim) and
    /// returns the way and what it evicted.
    fn fill(&mut self, line: u64, dirty: bool) -> (usize, Option<Evicted>) {
        let set = self.set_of(line);
        let way = match self.sets[set].iter().position(|w| !w.valid) {
            Some(way) => way,
            None => self.victim(set),
        };
        let old = self.sets[set][way];
        let evicted = old.valid.then_some(Evicted {
            line: LineAddr(old.line),
            dirty: old.dirty,
            cost_q: old.cost_q,
        });
        if evicted.is_some_and(|e| e.dirty) {
            self.stats.writebacks += 1;
        }
        let now = self.tick();
        self.sets[set][way] = RefWay {
            valid: true,
            line,
            last_use: now,
            filled: now,
            cost_q: 0,
            dirty,
        };
        (way, evicted)
    }

    fn access(&mut self, line: u64, write: bool) -> (bool, usize, Option<Evicted>) {
        if let Some(way) = self.find(line) {
            let now = self.tick();
            let set = self.set_of(line);
            let w = &mut self.sets[set][way];
            w.last_use = now;
            w.dirty |= write;
            self.stats.hits += 1;
            return (true, way, None);
        }
        self.stats.misses += 1;
        if self.seen.insert(line) {
            self.compulsory += 1;
        }
        let (way, evicted) = self.fill(line, write);
        if evicted.is_some() {
            self.stats.evictions += 1;
        } else {
            self.stats.cold_fills += 1;
        }
        (false, way, evicted)
    }

    fn insert_prefetched(&mut self, line: u64) -> Option<Evicted> {
        if self.find(line).is_some() {
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.fill(line, false).1
    }

    fn record_serviced_cost(&mut self, line: u64, cost_q: CostQ) -> bool {
        match self.find(line) {
            Some(way) => {
                let set = self.set_of(line);
                self.sets[set][way].cost_q = cost_q;
                true
            }
            None => false,
        }
    }

    fn cost_q_of(&self, line: u64) -> Option<CostQ> {
        self.find(line)
            .map(|way| self.sets[self.set_of(line)][way].cost_q)
    }
}

/// Where a difference showed up; formatted only when an assertion fails.
#[derive(Clone, Copy)]
struct Op {
    policy: Policy,
    sets: u32,
    ways: u16,
    seq: u64,
    kind: u8,
    line: u64,
    cost: u8,
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} {}x{} op {} (kind {}, line {}, cost {})",
            self.policy, self.sets, self.ways, self.seq, self.kind, self.line, self.cost
        )
    }
}

/// Replays `ops` through both caches and fails on the first difference.
///
/// Each op is `(kind, line, cost)`: kinds 0–9 access the line (7–9 as a
/// write), 10–12 record `cost` as the line's serviced cost, 13–14 record
/// it for the most recently missed line, and 15 prefetches the line.
fn diff(policy: Policy, sets: u32, ways: u16, lines_per_set: u64, ops: &[(u8, u64, u8)]) {
    let geometry = Geometry::from_sets(sets, ways, 64);
    let mut model = CacheModel::new(geometry, policy.engine());
    let mut reference = RefCache::new(policy, sets, ways);
    let universe = u64::from(sets) * lines_per_set;
    let mut last_miss = 0u64;
    for (seq, &(kind, raw, cost)) in (0u64..).zip(ops) {
        let line = raw % universe;
        let ctx = Op {
            policy,
            sets,
            ways,
            seq,
            kind,
            line,
            cost,
        };
        match kind {
            0..=9 => {
                let write = kind >= 7;
                let got = model.access(LineAddr(line), write, seq);
                let (hit, way, evicted) = reference.access(line, write);
                prop_assert_eq!(got.hit, hit, "hit: {}", ctx);
                prop_assert_eq!(got.way, way, "way: {}", ctx);
                prop_assert_eq!(got.evicted, evicted, "evicted: {}", ctx);
                if !hit {
                    last_miss = line;
                }
            }
            10..=14 => {
                let target = if kind <= 12 { line } else { last_miss };
                prop_assert_eq!(
                    model.record_serviced_cost(LineAddr(target), cost),
                    reference.record_serviced_cost(target, cost),
                    "resident: {}",
                    ctx
                );
            }
            _ => {
                prop_assert_eq!(
                    model.insert_prefetched(LineAddr(line), seq),
                    reference.insert_prefetched(line),
                    "prefetch eviction: {}",
                    ctx
                );
            }
        }
        prop_assert_eq!(
            model.cost_q_of(LineAddr(line)),
            reference.cost_q_of(line),
            "cost_q: {}",
            ctx
        );
        for set in 0..sets {
            let view = model.tags().view(set);
            prop_assert_eq!(
                view.recency_ranks(),
                &reference.recency_ranks(set as usize)[..],
                "recency ranks of set {}: {}",
                set,
                ctx
            );
            prop_assert_eq!(
                view.fill_ranks(),
                &reference.fill_ranks(set as usize)[..],
                "fill ranks of set {}: {}",
                set,
                ctx
            );
        }
    }
    let s = model.stats();
    let got = RefStats {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        writebacks: s.writebacks,
        cold_fills: s.cold_fills,
        prefetch_fills: s.prefetch_fills,
    };
    prop_assert_eq!(
        got,
        reference.stats,
        "stats: {:?} {}x{}",
        policy,
        sets,
        ways
    );
    prop_assert_eq!(
        model.compulsory_misses(),
        reference.compulsory,
        "compulsory misses: {:?} {}x{}",
        policy,
        sets,
        ways
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random geometries, policies and traces: the optimized replacement
    /// layer matches the reference op for op.
    #[test]
    fn replacement_layer_matches_the_naive_reference(
        sets in 1u32..9,
        ways_pick in 0usize..WAYS.len(),
        policy_pick in 0usize..POLICIES.len(),
        extra_lines in 1u64..64,
        ops in prop::collection::vec((0u8..16, 0u64..1 << 20, 0u8..8), 1..1200),
    ) {
        let ways = WAYS[ways_pick];
        // Between one and two sets' worth of lines per set (plus one), so
        // every set both hits and evicts.
        let lines_per_set = u64::from(ways) + 1 + extra_lines % (u64::from(ways) + 1);
        diff(POLICIES[policy_pick], sets, ways, lines_per_set, &ops);
    }
}

/// Every policy at every associativity, on one long deterministic trace
/// per geometry, so no (policy, width) pair depends on the random draw.
#[test]
fn every_policy_at_every_width_matches_the_naive_reference() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for &ways in &WAYS {
        for policy in POLICIES {
            let ops: Vec<(u8, u64, u8)> = (0..600)
                .map(|_| {
                    let r = next();
                    ((r % 16) as u8, r >> 16, ((r >> 8) % 8) as u8)
                })
                .collect();
            diff(policy, 3, ways, u64::from(ways) + 3, &ops);
        }
    }
}
