#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property-based tests for the MLP-aware replacement mechanisms.

use mlpsim_cache::addr::LineAddr;
use mlpsim_cache::meta::COST_Q_MAX;
use mlpsim_core::ccl::{update_mlp_cost_per_cycle, AdderMode, Ccl};
use mlpsim_core::leader::{LeaderSets, SelectionPolicy};
use mlpsim_core::psel::Psel;
use mlpsim_core::quant::{bucket_range, quantize};
use mlpsim_mem::Mshr;
use proptest::prelude::*;

proptest! {
    /// Quantization is monotone, 3-bit, and consistent with its bucket
    /// ranges.
    #[test]
    fn quantize_is_monotone_and_in_range(a in 0.0f64..2000.0, b in 0.0f64..2000.0) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(quantize(lo) <= quantize(hi));
        let q = quantize(lo);
        prop_assert!(q <= COST_Q_MAX);
        let (rlo, rhi) = bucket_range(q);
        prop_assert!(rlo <= lo && lo < rhi);
    }

    /// The event-driven CCL equals the literal per-cycle Algorithm 1 for
    /// arbitrary interleavings of allocations, frees, and time.
    #[test]
    fn ccl_matches_per_cycle_reference(
        events in prop::collection::vec((0u8..3, 0u64..40, 1u64..200), 1..40)
    ) {
        let mut fast_mshr = Mshr::new(8);
        let mut slow_mshr = Mshr::new(8);
        let mut ccl = Ccl::new(AdderMode::PerEntry);
        let mut now = 0u64;
        let mut next_line = 0u64;
        for &(op, pick, dt) in &events {
            // Advance both models by dt cycles.
            ccl.advance(&mut fast_mshr, now + dt);
            update_mlp_cost_per_cycle(&mut slow_mshr, dt);
            now += dt;
            match op {
                0 if !fast_mshr.is_full() => {
                    let line = LineAddr(next_line);
                    next_line += 1;
                    let demand = pick % 4 != 0; // mix demand and writeback
                    fast_mshr.allocate(line, now, now + 444, demand).unwrap();
                    slow_mshr.allocate(line, now, now + 444, demand).unwrap();
                }
                1 if !fast_mshr.is_empty() => {
                    let ids: Vec<_> = fast_mshr.iter().map(|(id, _)| id).collect();
                    let id = ids[pick as usize % ids.len()];
                    let a = fast_mshr.free(id);
                    let b = slow_mshr.free(id);
                    prop_assert!((a.mlp_cost - b.mlp_cost).abs() < 1e-6,
                        "event-driven {} vs per-cycle {}", a.mlp_cost, b.mlp_cost);
                }
                _ => {}
            }
        }
        for ((_, a), (_, b)) in fast_mshr.iter().zip(slow_mshr.iter()) {
            prop_assert!((a.mlp_cost - b.mlp_cost).abs() < 1e-6);
        }
    }

    /// The event-driven CCL still matches the per-cycle reference when
    /// Algorithm 1's `N` divisor changes via promotions and demotions
    /// (prefetch merges, wrong-path resolution), not just alloc/free.
    /// In a debug build this also asserts every increment is finite and
    /// non-negative and recounts the MSHR's demand slots.
    #[test]
    fn ccl_divisor_tracks_promotions(
        events in prop::collection::vec((0u8..4, 0u64..40, 1u64..200), 1..40)
    ) {
        let mut fast_mshr = Mshr::new(8);
        let mut slow_mshr = Mshr::new(8);
        let mut ccl = Ccl::new(AdderMode::PerEntry);
        let mut now = 0u64;
        let mut next_line = 0u64;
        for &(op, pick, dt) in &events {
            ccl.advance(&mut fast_mshr, now + dt);
            update_mlp_cost_per_cycle(&mut slow_mshr, dt);
            now += dt;
            let ids: Vec<_> = fast_mshr.iter().map(|(id, _)| id).collect();
            match op {
                0 if !fast_mshr.is_full() => {
                    let line = LineAddr(next_line);
                    next_line += 1;
                    let demand = pick % 3 != 0;
                    fast_mshr.allocate(line, now, now + 444, demand).unwrap();
                    slow_mshr.allocate(line, now, now + 444, demand).unwrap();
                }
                1 if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    fast_mshr.promote_to_demand(id);
                    slow_mshr.promote_to_demand(id);
                }
                2 if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    fast_mshr.demote_from_demand(id);
                    slow_mshr.demote_from_demand(id);
                }
                _ if !ids.is_empty() => {
                    let id = ids[pick as usize % ids.len()];
                    let a = fast_mshr.free(id);
                    let b = slow_mshr.free(id);
                    prop_assert!((a.mlp_cost - b.mlp_cost).abs() < 1e-6);
                }
                _ => {}
            }
            prop_assert_eq!(fast_mshr.demand_count(), slow_mshr.demand_count());
        }
        for ((_, a), (_, b)) in fast_mshr.iter().zip(slow_mshr.iter()) {
            prop_assert!((a.mlp_cost - b.mlp_cost).abs() < 1e-6);
        }
    }

    /// Shared adders never overshoot the ideal accumulation and lose less
    /// than one visit-stride worth of cost.
    #[test]
    fn shared_adders_bounded_below_ideal(n in 1usize..8, dt in 1u64..2000) {
        let build = |count: usize| {
            let mut m = Mshr::new(8);
            for i in 0..count {
                m.allocate(LineAddr(i as u64), 0, 10_000, true).unwrap();
            }
            m
        };
        let mut ideal = build(n);
        let mut shared = build(n);
        Ccl::new(AdderMode::PerEntry).advance(&mut ideal, dt);
        Ccl::new(AdderMode::paper_shared()).advance(&mut shared, dt);
        for ((_, a), (_, b)) in ideal.iter().zip(shared.iter()) {
            prop_assert!(b.mlp_cost <= a.mlp_cost + 1e-9);
            let stride = (n as f64 / 4.0).ceil();
            prop_assert!(a.mlp_cost - b.mlp_cost <= stride / n as f64 * stride + 1e-9);
        }
    }

    /// PSEL is a `bits`-wide saturating counter: after every update its
    /// value, MSB and saturation flag equal an `i64` clamp model's. An
    /// amount is a full-range `u32` shifted right by 0..32 bits, so
    /// small steps and amounts up to `u32::MAX` both occur.
    #[test]
    fn psel_is_bounded(
        bits in 1u32..=31,
        updates in prop::collection::vec((prop::bool::ANY, 0u32..=u32::MAX, 0u32..32), 0..200)
    ) {
        let mut p = Psel::new(bits);
        let max = (1i64 << bits) - 1;
        let half = 1i64 << (bits - 1);
        let mut model = half - 1;
        for (up, raw, shift) in updates {
            let amount = raw >> shift;
            if up {
                p.inc_by(amount);
                model = (model + i64::from(amount)).clamp(0, max);
            } else {
                p.dec_by(amount);
                model = (model - i64::from(amount)).clamp(0, max);
            }
            prop_assert_eq!(i64::from(p.value()), model);
            prop_assert_eq!(i64::from(p.max()), max);
            prop_assert_eq!(p.msb_set(), model >= half);
            prop_assert_eq!(p.is_saturated(), model == 0 || model == max);
        }
    }

    /// PSEL saturates rather than wraps at both rails, even for update
    /// amounts far beyond the counter width. In a debug build each step
    /// also fires the counter's internal saturation assertion.
    #[test]
    fn psel_saturates_at_extremes(
        bits in 1u32..12,
        updates in prop::collection::vec((prop::bool::ANY, 0u32..u32::MAX), 0..60)
    ) {
        let mut p = Psel::new(bits);
        for (up, amount) in updates {
            let before = p.value();
            if up {
                p.inc_by(amount);
                prop_assert!(p.value() >= before, "inc must never wrap below");
            } else {
                p.dec_by(amount);
                prop_assert!(p.value() <= before, "dec must never wrap above");
            }
            prop_assert!(p.value() <= p.max());
        }
        p.inc_by(u32::MAX);
        prop_assert_eq!(p.value(), p.max(), "top rail is sticky under overflow");
        p.dec_by(u32::MAX);
        prop_assert_eq!(p.value(), 0, "bottom rail is sticky under underflow");
    }

    /// Leader-set maps always choose exactly one leader per constituency,
    /// for both selection policies and across reselections.
    #[test]
    fn leader_sets_partition(k_log in 0u32..6, reselects in 0usize..4, seed in 0u64..1000) {
        let sets = 1024u32;
        let k = 1u32 << k_log;
        for policy in [SelectionPolicy::SimpleStatic, SelectionPolicy::RandDynamic] {
            let mut l = LeaderSets::new(sets, k, policy, seed);
            for _ in 0..=reselects {
                let leaders: Vec<u32> = l.leaders().collect();
                prop_assert_eq!(leaders.len() as u32, k);
                let size = sets / k;
                for (c, &s) in leaders.iter().enumerate() {
                    prop_assert_eq!(s / size, c as u32);
                    prop_assert!(l.is_leader(s));
                }
                let count = (0..sets).filter(|&s| l.is_leader(s)).count();
                prop_assert_eq!(count as u32, k);
                l.reselect();
            }
        }
    }
}

/// LIN's victim really is the arg-min of `R + λ·cost_q` (cross-checked
/// against a brute-force evaluation on random set states).
#[test]
fn lin_victim_is_argmin() {
    use mlpsim_cache::addr::Geometry;
    use mlpsim_cache::meta::WayMeta;
    use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};
    use mlpsim_cache::set::OwnedSet;

    let geom = Geometry::from_sets(2, 8, 64);
    let mut state = 0xDEADBEEFu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for lambda in [0u32, 1, 2, 4, 8] {
        let mut lin = mlpsim_core::lin::LinEngine::new(lambda);
        for _ in 0..200 {
            // A random LRU stack: the tag store keeps the valid ways'
            // recency ranks a permutation of 0..8 (Fisher-Yates).
            let mut stack: Vec<u8> = (0..8).collect();
            for i in (1..stack.len()).rev() {
                stack.swap(i, (rng() % (i as u64 + 1)) as usize);
            }
            let ways: Vec<WayMeta> = (0..8)
                .map(|i| WayMeta {
                    valid: true,
                    tag: i,
                    rank: stack[i as usize],
                    fill_rank: 0,
                    cost_q: (rng() % 8) as u8,
                    dirty: false,
                })
                .collect();
            let set = OwnedSet::from_ways(&ways, 0, geom);
            let view = set.view();
            let ranks = view.recency_ranks();
            let victim = lin.victim(&VictimCtx {
                set: view,
                incoming: mlpsim_cache::addr::LineAddr(99),
                seq: 0,
            });
            let score = |w: usize| u32::from(ranks[w]) + lambda * u32::from(ways[w].cost_q);
            let best = (0..8).map(score).min().unwrap();
            assert_eq!(score(victim), best, "victim must minimize the LIN score");
            // Tie-break: no way with the same score has a smaller rank.
            for w in 0..8 {
                if score(w) == best {
                    assert!(ranks[victim] <= ranks[w], "ties break to smallest recency");
                }
            }
        }
    }
}
