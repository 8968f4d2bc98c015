//! Mattson's inclusion property for LRU (Mattson et al. 1970, restated as
//! a stack property by Monniaux & Touzeau, arXiv:1811.01740): at a fixed
//! set count, an LRU cache with one more way holds a superset of the lines
//! the smaller one holds after every access. So every hit of the smaller
//! cache is a hit of the larger, and misses never rise with associativity.
//! FIFO gets no such check: Bélády's anomaly breaks it.

#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs

use mlpsim::cache::addr::{Geometry, LineAddr};
use mlpsim::cache::lru::LruEngine;
use mlpsim::cache::model::CacheModel;
use proptest::prelude::*;

/// Per-access hit flags of a pure LRU replay of `lines`.
fn lru_hits(lines: &[u64], sets: u32, ways: u16) -> Vec<bool> {
    let mut cache = CacheModel::new(
        Geometry::from_sets(sets, ways, 64),
        Box::new(LruEngine::new()),
    );
    (0u64..)
        .zip(lines)
        .map(|(seq, &line)| cache.access(LineAddr(line), false, seq).hit)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ways 1..=16 at 1–8 sets, over streams whose footprint ranges from
    /// far below to far above the largest cache's capacity.
    #[test]
    fn lru_hits_are_included_as_associativity_grows(
        raw in prop::collection::vec(0u64..u64::MAX, 1..800),
        sets_log2 in 0u32..4,
        footprint_log2 in 3u32..10,
    ) {
        let sets = 1u32 << sets_log2;
        let lines: Vec<u64> = raw.iter().map(|r| r % (1 << footprint_log2)).collect();
        let mut smaller = lru_hits(&lines, sets, 1);
        for ways in 2..=16u16 {
            let larger = lru_hits(&lines, sets, ways);
            for (i, (&small, &large)) in smaller.iter().zip(&larger).enumerate() {
                prop_assert!(
                    !small || large,
                    "access {i}: hit at {} ways but missed at {ways} ({sets} sets)",
                    ways - 1
                );
            }
            let misses = |hits: &[bool]| hits.iter().filter(|&&h| !h).count();
            prop_assert!(misses(&larger) <= misses(&smaller));
            smaller = larger;
        }
    }
}
