#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property-based tests for the cache substrate.

use mlpsim_cache::addr::{Geometry, LineAddr};
use mlpsim_cache::belady::BeladyEngine;
use mlpsim_cache::fifo::FifoEngine;
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::model::CacheModel;
use mlpsim_cache::random::RandomEngine;
use mlpsim_cache::tagstore::TagStore;
use proptest::prelude::*;

fn arb_lines(universe: u64, len: usize) -> impl Strategy<Value = Vec<LineAddr>> {
    prop::collection::vec((0..universe).prop_map(LineAddr), 1..len)
}

proptest! {
    /// Recency ranks always form a permutation of 0..valid_count.
    #[test]
    fn recency_ranks_are_a_permutation(lines in arb_lines(64, 200)) {
        let geom = Geometry::from_sets(4, 4, 64);
        let mut tags = TagStore::new(geom);
        for (i, &line) in lines.iter().enumerate() {
            match tags.probe(line) {
                Some(way) => tags.touch(line, way),
                None => {
                    let set = geom.set_index(line);
                    let way = tags.view(set).first_invalid().unwrap_or(i % 4);
                    tags.fill(line, way, false, 0);
                }
            }
        }
        for set in 0..geom.sets() {
            let view = tags.view(set);
            let mut ranks: Vec<u8> = view
                .valid_ways()
                .map(|w| view.recency_ranks()[w])
                .collect();
            ranks.sort_unstable();
            let expect: Vec<u8> = (0..ranks.len() as u8).collect();
            prop_assert_eq!(ranks, expect);
        }
    }

    /// A cache never reports more resident lines than its capacity, and
    /// hits + misses always equals accesses.
    #[test]
    fn occupancy_and_counts(lines in arb_lines(512, 400)) {
        let geom = Geometry::from_sets(8, 2, 64);
        let mut c = CacheModel::new(geom, Box::new(LruEngine::new()));
        for (i, &line) in lines.iter().enumerate() {
            c.access(line, i % 3 == 0, i as u64);
            prop_assert!(c.tags().resident_count() as u64 <= geom.lines());
        }
        prop_assert_eq!(c.stats().accesses(), lines.len() as u64);
    }

    /// Belady's OPT is miss-optimal against every other engine we ship.
    #[test]
    fn belady_dominates(lines in arb_lines(96, 300)) {
        let geom = Geometry::from_sets(4, 2, 64);
        let run = |engine: Box<dyn mlpsim_cache::policy::ReplacementEngine>| {
            let mut c = CacheModel::new(geom, engine);
            for (i, &line) in lines.iter().enumerate() {
                c.access(line, false, i as u64);
            }
            c.stats().misses
        };
        let opt = run(Box::new(BeladyEngine::from_accesses(lines.iter().copied())));
        prop_assert!(opt <= run(Box::new(LruEngine::new())));
        prop_assert!(opt <= run(Box::new(FifoEngine::new())));
        prop_assert!(opt <= run(Box::new(RandomEngine::new(1))));
    }

    /// An immediate re-access always hits (temporal locality is honored).
    #[test]
    fn re_access_hits(lines in arb_lines(1024, 200)) {
        let geom = Geometry::from_sets(16, 4, 64);
        let mut c = CacheModel::new(geom, Box::new(LruEngine::new()));
        for (i, &line) in lines.iter().enumerate() {
            c.access(line, false, 2 * i as u64);
            let r = c.access(line, false, 2 * i as u64 + 1);
            prop_assert!(r.hit);
        }
    }

    /// The LRU recency stack stays a permutation of the valid ways under
    /// arbitrary interleavings of fills, touches, and cost updates, and a
    /// touch always moves its way to MRU (the highest rank; rank 0 is the
    /// LRU block Eq. 1's `R(i)` wants to victimize first). Run with
    /// `--features invariants` this also routes every operation through
    /// the tag store's internal structural checks (unique tags, recency
    /// and fill ranks each a permutation, 3-bit cost_q).
    #[test]
    fn lru_stack_survives_arbitrary_ops(
        ops in prop::collection::vec((0u64..48, 0u8..3, 0u8..8), 1..250)
    ) {
        let geom = Geometry::from_sets(4, 4, 64);
        let mut tags = TagStore::new(geom);
        for &(raw, op, cost) in &ops {
            let line = LineAddr(raw);
            let set = geom.set_index(line);
            match (op, tags.probe(line)) {
                (0, Some(way)) => {
                    tags.touch(line, way);
                    let view = tags.view(set);
                    let mru = view.valid_ways().count() as u8 - 1;
                    prop_assert_eq!(view.recency_ranks()[way], mru,
                        "a touched way must become MRU");
                }
                (1, Some(_)) => {
                    tags.set_cost_q(line, cost);
                }
                (_, found) => {
                    let way = match found {
                        Some(w) => w,
                        None => tags.view(set).first_invalid().unwrap_or((raw % 4) as usize),
                    };
                    tags.fill(line, way, false, cost);
                    let view = tags.view(set);
                    let mru = view.valid_ways().count() as u8 - 1;
                    prop_assert_eq!(view.recency_ranks()[way], mru,
                        "a filled way must become MRU");
                }
            }
            let view = tags.view(set);
            let mut ranks: Vec<u8> = view
                .valid_ways()
                .map(|w| view.recency_ranks()[w])
                .collect();
            ranks.sort_unstable();
            let expect: Vec<u8> = (0..ranks.len() as u8).collect();
            prop_assert_eq!(ranks, expect, "ranks must be a permutation of 0..valid");
        }
    }

    /// Tag-store invariant: a filled line is resident exactly until it is
    /// evicted, and cost updates stick.
    #[test]
    fn fill_probe_agree(ops in prop::collection::vec((0u64..64, 0u8..8), 1..300)) {
        let geom = Geometry::from_sets(4, 2, 64);
        let mut tags = TagStore::new(geom);
        for &(raw, cost) in &ops {
            let line = LineAddr(raw);
            let set = geom.set_index(line);
            if let Some(way) = tags.probe(line) {
                tags.touch(line, way);
                tags.set_cost_q(line, cost);
                prop_assert_eq!(tags.cost_q_of(line), Some(cost));
            } else {
                let way = tags.view(set).first_invalid().unwrap_or(0);
                tags.fill(line, way, false, cost);
                prop_assert!(tags.contains(line));
            }
        }
    }
}
