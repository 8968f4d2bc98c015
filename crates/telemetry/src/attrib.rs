//! The stall-attribution ledger: where did `mem_stall_cycles` go?
//!
//! The paper's whole argument is denominated in stall cycles — Algorithm 1
//! charges each outstanding demand miss `1/N` per cycle, and the
//! set-dueling engines pick the policy with fewer *stall* cycles, not
//! fewer misses. An aggregate `mem_stall_cycles` cannot say which sets,
//! which `cost_q` buckets, or which policy decisions those cycles came
//! from. The ledger closes that gap: every full-window memory-stall span
//! is apportioned across the demand misses concurrently outstanding in
//! the MSHR with the same `1/N` divisor as Algorithm 1, and each miss's
//! share lands under the key ([`LedgerKey`]) naming the L2 set it mapped
//! to, its quantized mlp-cost bucket, and the replacement policy that
//! governed that set.
//!
//! The apportionment is *integer-exact*: a sub-interval of `delta` cycles
//! with `N` outstanding demand misses gives each miss `delta / N` cycles
//! and the first `delta % N` misses (in ascending MSHR slot order) one
//! extra, so every interval — and therefore the grand total — reconciles
//! with `mem_stall_cycles` as a `u64` equality, not an approximate float
//! comparison. The `mlpsim-cpu` crate enforces the reconciliation as a
//! `debug_assert!` on every run of a debug build; [`StallLedger::total`]
//! gives report tooling the same check over an event stream.

use crate::event::Event;
use std::collections::BTreeMap;

/// Number of `cost_q` buckets (the 3-bit quantization of Fig. 3b).
pub const COST_Q_BUCKETS: usize = 8;

/// One attribution bucket: the L2 set a miss mapped to, its quantized
/// mlp-cost at service time, and the replacement policy that governed
/// the set ("lru", "lin", "lin-leader", "sbar", ...).
///
/// `BTreeMap` ordering (set, then cost_q, then policy) keeps every
/// iteration deterministic — rule D1 territory.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LedgerKey {
    /// L2 set index the missing line mapped to.
    pub set: u64,
    /// 3-bit quantized mlp-cost bucket (0..=7).
    pub cost_q: u8,
    /// Deciding replacement policy for that set at allocation time.
    pub policy: String,
}

/// Attributed stall cycles keyed by (set, cost_q, policy).
///
/// Sums exactly to the run's `mem_stall_cycles` when built from a
/// complete stream (or by the in-simulator tracker).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallLedger {
    cycles: BTreeMap<LedgerKey, u64>,
}

impl StallLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `cycles` under `key`.
    pub fn charge(&mut self, key: LedgerKey, cycles: u64) {
        if cycles > 0 {
            *self.cycles.entry(key).or_insert(0) += cycles;
        }
    }

    /// Fold one event; only `stall_attrib` events contribute.
    pub fn observe(&mut self, ev: &Event) {
        if let Event::StallAttrib {
            set,
            cost_q,
            policy,
            cycles,
            ..
        } = ev
        {
            self.charge(
                LedgerKey {
                    set: *set,
                    cost_q: *cost_q,
                    policy: policy.clone(),
                },
                *cycles,
            );
        }
    }

    /// Build a ledger from a complete event stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut ledger = Self::new();
        for ev in events {
            ledger.observe(ev);
        }
        ledger
    }

    /// Grand total of attributed cycles — reconciles exactly with
    /// `mem_stall_cycles` for a complete run.
    pub fn total(&self) -> u64 {
        self.cycles.values().sum()
    }

    /// Number of distinct (set, cost_q, policy) buckets.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True when nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Iterate buckets in (set, cost_q, policy) order.
    pub fn iter(&self) -> impl Iterator<Item = (&LedgerKey, u64)> {
        self.cycles.iter().map(|(k, v)| (k, *v))
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &StallLedger) {
        for (k, v) in other.iter() {
            self.charge(k.clone(), v);
        }
    }

    /// Top `k` sets by attributed stall cycles, descending; ties break on
    /// ascending set index so the ranking is deterministic.
    pub fn top_sets(&self, k: usize) -> Vec<(u64, u64)> {
        let mut per_set: BTreeMap<u64, u64> = BTreeMap::new();
        for (key, v) in self.iter() {
            *per_set.entry(key.set).or_insert(0) += v;
        }
        let mut rows: Vec<(u64, u64)> = per_set.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// Attributed cycles per `cost_q` bucket — the stall-denominated twin
    /// of the paper's Fig. 5 miss distribution.
    pub fn cost_q_totals(&self) -> [u64; COST_Q_BUCKETS] {
        let mut totals = [0u64; COST_Q_BUCKETS];
        for (key, v) in self.iter() {
            totals[usize::from(key.cost_q.min(7))] += v;
        }
        totals
    }

    /// Attributed cycles per policy tag, in lexicographic policy order.
    pub fn policy_totals(&self) -> Vec<(String, u64)> {
        let mut per_policy: BTreeMap<String, u64> = BTreeMap::new();
        for (key, v) in self.iter() {
            *per_policy.entry(key.policy.clone()).or_insert(0) += v;
        }
        per_policy.into_iter().collect()
    }

    /// Per-set LIN-vs-LRU attributed-stall split: for each set that has
    /// cycles under a policy tag containing `"lin"` *or* under `"lru"`,
    /// the pair (lin_cycles, lru_cycles). Sets governed by neither tag
    /// (e.g. a pure `srrip` run) are omitted.
    pub fn lin_lru_split_by_set(&self) -> Vec<(u64, u64, u64)> {
        let mut split: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (key, v) in self.iter() {
            let slot = if key.policy.contains("lin") {
                Some(0)
            } else if key.policy == "lru" {
                Some(1)
            } else {
                None
            };
            if let Some(which) = slot {
                let e = split.entry(key.set).or_insert((0, 0));
                if which == 0 {
                    e.0 += v;
                } else {
                    e.1 += v;
                }
            }
        }
        split.into_iter().map(|(s, (a, b))| (s, a, b)).collect()
    }
}

/// Split `delta` cycles across `n` parties integer-exactly: party `i`
/// (0-based, ascending MSHR slot order) receives `delta / n`, plus one
/// extra cycle when `i < delta % n`. The shares always sum to `delta`.
///
/// Returns 0 for `n == 0` (no parties — callers route such residual
/// cycles to the span head instead).
#[inline]
pub fn exact_share(delta: u64, n: u64, i: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    delta / n + u64::from(i < delta % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(set: u64, cost_q: u8, policy: &str) -> LedgerKey {
        LedgerKey {
            set,
            cost_q,
            policy: policy.to_string(),
        }
    }

    #[test]
    fn exact_share_sums_to_delta() {
        for delta in [0u64, 1, 2, 3, 7, 100, 443, 1_000_003] {
            for n in 1u64..=9 {
                let sum: u64 = (0..n).map(|i| exact_share(delta, n, i)).sum();
                assert_eq!(sum, delta, "delta={delta} n={n}");
            }
        }
    }

    #[test]
    fn exact_share_remainder_goes_to_low_slots() {
        // 10 cycles over 3 parties: 4, 3, 3.
        assert_eq!(exact_share(10, 3, 0), 4);
        assert_eq!(exact_share(10, 3, 1), 3);
        assert_eq!(exact_share(10, 3, 2), 3);
        assert_eq!(exact_share(10, 0, 0), 0);
    }

    #[test]
    fn charge_and_total() {
        let mut l = StallLedger::new();
        l.charge(key(3, 7, "lin"), 100);
        l.charge(key(3, 7, "lin"), 44);
        l.charge(key(5, 0, "lru"), 6);
        l.charge(key(9, 1, "lru"), 0); // zero charges are dropped
        assert_eq!(l.total(), 150);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn observe_folds_stall_attrib_only() {
        let evs = vec![
            Event::Stall { cycle: 1, len: 2 },
            Event::StallAttrib {
                cycle: 10,
                line: 64,
                set: 4,
                cost_q: 2,
                policy: "lin".into(),
                cycles: 30,
            },
            Event::StallAttrib {
                cycle: 20,
                line: 65,
                set: 4,
                cost_q: 2,
                policy: "lin".into(),
                cycles: 12,
            },
        ];
        let l = StallLedger::from_events(&evs);
        assert_eq!(l.total(), 42);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn top_sets_orders_by_cycles_then_set() {
        let mut l = StallLedger::new();
        l.charge(key(7, 0, "lru"), 50);
        l.charge(key(2, 1, "lin"), 50);
        l.charge(key(4, 2, "lin"), 80);
        assert_eq!(l.top_sets(2), vec![(4, 80), (2, 50)]);
        assert_eq!(l.top_sets(10), vec![(4, 80), (2, 50), (7, 50)]);
    }

    #[test]
    fn cost_q_and_policy_rollups() {
        let mut l = StallLedger::new();
        l.charge(key(1, 7, "lin"), 10);
        l.charge(key(2, 7, "lru"), 20);
        l.charge(key(2, 0, "lin-leader"), 5);
        let per_q = l.cost_q_totals();
        assert_eq!(per_q[7], 30);
        assert_eq!(per_q[0], 5);
        assert_eq!(
            l.policy_totals(),
            vec![
                ("lin".to_string(), 10),
                ("lin-leader".to_string(), 5),
                ("lru".to_string(), 20),
            ]
        );
        assert_eq!(l.lin_lru_split_by_set(), vec![(1, 10, 0), (2, 5, 20)]);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = StallLedger::new();
        a.charge(key(1, 1, "lin"), 7);
        let mut b = StallLedger::new();
        b.charge(key(1, 1, "lin"), 3);
        b.charge(key(2, 2, "lru"), 4);
        a.merge(&b);
        assert_eq!(a.total(), 14);
        assert_eq!(a.len(), 2);
    }
}
