#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs

//! Property-based tests for the trace characterizer: histogram mass
//! conservation, and per-set stack distances permutation-consistent with
//! `cache::lru`.

use mlpsim_cache::addr::{Geometry, LineAddr};
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::model::CacheModel;
use mlpsim_model::characterize::{profile_trace, CharacterizeConfig};
use mlpsim_trace::record::{Access, AccessKind, Trace};
use proptest::prelude::*;

fn trace_of(lines: &[u64], stores: &[bool]) -> Trace {
    Trace::from_accesses(
        lines
            .iter()
            .zip(stores.iter().cycle())
            .map(|(&line, &st)| Access {
                line,
                kind: if st {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                gap: 0,
            })
            .collect(),
    )
}

proptest! {
    /// The reuse-distance histogram plus cold accesses accounts for every
    /// access exactly once, and cold accesses equal distinct lines.
    #[test]
    fn histogram_total_equals_access_count(
        lines in prop::collection::vec(0u64..200, 1..2000),
        stores in prop::collection::vec(prop::bool::ANY, 1..8),
    ) {
        let t = trace_of(&lines, &stores);
        let p = profile_trace(&t, &CharacterizeConfig::unfiltered());
        prop_assert_eq!(p.raw_accesses, lines.len() as u64);
        prop_assert_eq!(p.accesses, lines.len() as u64);
        prop_assert_eq!(p.hist.total() + p.cold, p.accesses);
        prop_assert_eq!(p.cold, p.distinct_lines);
        let bucket_mass: u64 = p.buckets().iter().map(|b| b.count).sum();
        prop_assert_eq!(bucket_mass, p.hist.total());
    }

    /// Per-set stack distances predict a real `cache::lru` model exactly:
    /// the profile's LRU miss count equals the simulated cache's at every
    /// geometry sharing the profiled set count. (The stack property —
    /// what makes distances "permutation-consistent" with LRU's recency
    /// ordering — is that one profile answers every associativity.)
    #[test]
    fn set_profile_is_consistent_with_cache_lru(
        lines in prop::collection::vec(0u64..500, 1..1500),
        sets in 1u32..9,
        ways in 1u16..7,
    ) {
        let t = trace_of(&lines, &[false]);
        let cfg = CharacterizeConfig::unfiltered().with_set_profiles(&[sets]);
        let p = profile_trace(&t, &cfg);
        let g = Geometry::from_sets(sets, ways, 64);
        let mut cache = CacheModel::new(g, Box::new(LruEngine::new()));
        for (seq, a) in t.iter().enumerate() {
            cache.access(LineAddr(a.line), false, seq as u64);
        }
        let predicted = p.set_profile(sets).and_then(|sp| sp.lru_misses(ways));
        prop_assert_eq!(predicted, Some(cache.stats().misses));
    }
}
