//! Trace characterization: everything the estimator needs, extracted
//! from one read of the trace.
//!
//! For each (optionally L1-filtered) access the characterizer updates:
//!
//! - an **exact global reuse-distance histogram** (Mattson stack via
//!   [`StackDist`]) — the fully-associative view;
//! - **per-set stack-distance profiles** at one or more reference set
//!   counts, distances capped at [`SET_WAY_CAP`] — these make LRU miss
//!   counts *exact* (not modeled) for any geometry whose set count
//!   matches a reference and whose associativity is below the cap.
//!
//! The optional L1 filter matters because the simulator's L2 only sees
//! L1 misses: running the same baseline L1 LRU model in front of the
//! characterizer reproduces the reference stream the simulated L2
//! receives, which is what lets the set-profile path predict the
//! simulator's L2 miss counts exactly at the baseline (DESIGN.md §17).
//!
//! [`profile_trace`] runs in three phases, each a tight loop over flat
//! arrays: filter the trace down to the characterized line stream;
//! intern each line to a dense id in first-touch order; then walk the id
//! stream through the global stack and the per-set recency rows. The id stream costs 4 bytes per characterized
//! access, a quarter of the trace it came from; everything else is
//! O(distinct lines + sets). A per-set profile keeps, per set, a
//! move-to-front row of at most [`SET_WAY_CAP`] ids: a hit at position
//! `p` is set-local distance `p`, and a line not in its row is either
//! cold (its first touch anywhere — a line never changes set) or at
//! distance `≥ SET_WAY_CAP`. The row's first `SET_WAY_CAP` entries are
//! exactly the top of the set's LRU stack, so this is exact for every
//! associativity [`SetLruProfile::lru_misses`] answers.
//!
//! Determinism: the interning map is a `HashMap` under the fixed
//! [`LineHasher`](mlpsim_cache::addr::LineHasher), and it is only ever looked up, never iterated,
//! so its layout cannot reach the output. Ids are assigned in
//! first-touch order and everything downstream is indexed by id or
//! distance, so a profile is a pure function of the access sequence.

use crate::stackdist::StackDist;
use mlpsim_cache::addr::{Geometry, LineAddr, LineBuildHasher};
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::model::CacheModel;
use mlpsim_trace::record::{AccessKind, Trace};
use std::collections::HashMap;

/// Per-set stack distances are tracked exactly up to this many ways; an
/// associativity at or above the cap falls back to the estimator's
/// associativity correction. 64 covers every geometry the sweeps use (the baseline L2
/// is 16-way).
pub const SET_WAY_CAP: usize = 64;

/// Recency-row entry that holds no line id.
const EMPTY: u32 = u32::MAX;

/// How to characterize a trace.
#[derive(Clone, Debug)]
pub struct CharacterizeConfig {
    /// Run this LRU cache in front of the characterizer and only
    /// characterize its misses — the stream a downstream L2 would see.
    pub l1_filter: Option<Geometry>,
    /// Reference set counts for exact per-set LRU profiles. Empty
    /// disables set profiling (the estimator then always uses the
    /// fully-associative histogram plus the associativity correction).
    pub set_profile_sets: Vec<u32>,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig::baseline()
    }
}

impl CharacterizeConfig {
    /// The planner's configuration: baseline L1D filter, set profile at
    /// the baseline L2's 1024 sets.
    pub fn baseline() -> Self {
        CharacterizeConfig {
            l1_filter: Some(Geometry::baseline_l1d()),
            set_profile_sets: vec![Geometry::baseline_l2().sets()],
        }
    }

    /// No filter, no set profiles: the raw reference stream's histogram
    /// only (what the characterizer proptests pin down).
    pub fn unfiltered() -> Self {
        CharacterizeConfig {
            l1_filter: None,
            set_profile_sets: Vec::new(),
        }
    }

    /// Replace the reference set counts.
    #[must_use]
    pub fn with_set_profiles(mut self, sets: &[u32]) -> Self {
        self.set_profile_sets = sets.to_vec();
        self
    }
}

/// One log2 bucket of the reuse-distance histogram: the exact mean
/// distance of the accesses that landed in the bucket, and how many did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistBucket {
    /// Mean stack distance within the bucket.
    pub mean: f64,
    /// Accesses in the bucket.
    pub count: u64,
}

/// Exact reuse-distance histogram over distinct-line stack distances.
#[derive(Clone, Debug, Default)]
pub struct ReuseHistogram {
    /// `counts[d]`: reuses at stack distance `d`.
    counts: Vec<u64>,
    total: u64,
}

impl ReuseHistogram {
    /// Total recorded reuses (excludes cold accesses, which have no
    /// distance).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact `(distance, count)` pairs with a non-zero count, in
    /// ascending distance order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(d, &c)| (d as u64, c))
    }

    /// Reuses with distance in `[lo, hi)`.
    pub fn mass_in(&self, lo: u64, hi: u64) -> u64 {
        let len = self.counts.len();
        let clamp = |x: u64| usize::try_from(x).map_or(len, |x| x.min(len));
        let (lo, hi) = (clamp(lo), clamp(hi));
        if lo >= hi {
            return 0;
        }
        self.counts[lo..hi].iter().sum()
    }

    /// Collapse into ~64 log2 buckets (distance 0 alone in bucket 0),
    /// each carrying its exact within-bucket mean — the summary the
    /// estimator iterates so scoring a cell is O(buckets), not
    /// O(distinct distances).
    pub fn buckets(&self) -> Vec<HistBucket> {
        let mut sums = [0.0f64; 66];
        let mut counts = [0u64; 66];
        for (d, c) in self.iter() {
            let b = if d == 0 {
                0
            } else {
                64 - (d.leading_zeros() as usize)
            };
            sums[b] += d as f64 * c as f64;
            counts[b] += c;
        }
        let mut out = Vec::new();
        for b in 0..66 {
            if counts[b] > 0 {
                out.push(HistBucket {
                    mean: sums[b] / counts[b] as f64,
                    count: counts[b],
                });
            }
        }
        out
    }
}

/// Exact capped per-set stack-distance profile at one reference set
/// count: predicts LRU hit/miss counts exactly for `sets()` sets and any
/// associativity `< SET_WAY_CAP`. Only the sum over sets matters for a
/// miss count, so the sets share one distance row.
#[derive(Clone, Debug)]
pub struct SetLruProfile {
    sets: u32,
    /// `dist[min(d, SET_WAY_CAP)]`: non-cold accesses at set-local
    /// distance `d`, summed over sets.
    dist: [u64; SET_WAY_CAP + 1],
    accesses: u64,
}

impl SetLruProfile {
    /// Walk `ids` (the interned stream, ids in first-touch order) through
    /// one capped move-to-front row per set; `line_of[id]` places an id
    /// in its set.
    fn collect(sets: u32, ids: &[u32], line_of: &[u64]) -> Self {
        let nsets = sets as usize;
        let set_of: Vec<u32> = line_of
            .iter()
            .map(|&line| {
                u32::try_from(line % u64::from(sets)).expect("set index below a u32 set count")
            })
            .collect();
        // Unused row entries hold `EMPTY`, which no id equals, so a
        // lookup scans the whole row and a miss shifts the whole row.
        let mut rows = vec![EMPTY; nsets * SET_WAY_CAP];
        let mut dist = [0u64; SET_WAY_CAP + 1];
        let mut fresh = 0u32;
        for &id in ids {
            let set = set_of[id as usize] as usize;
            let row = &mut rows[set * SET_WAY_CAP..(set + 1) * SET_WAY_CAP];
            let end = match row.iter().position(|&x| x == id) {
                Some(p) => {
                    dist[p] += 1;
                    p
                }
                None => {
                    // Ids are handed out in first-touch order, so the
                    // next unseen id is exactly the cold access.
                    if id == fresh {
                        fresh += 1;
                    } else {
                        dist[SET_WAY_CAP] += 1;
                    }
                    SET_WAY_CAP - 1
                }
            };
            row.copy_within(..end, 1);
            row[0] = id;
        }
        SetLruProfile {
            sets,
            dist,
            accesses: ids.len() as u64,
        }
    }

    /// The reference set count this profile was collected at.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Accesses the profile covers (post-filter).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Exact LRU miss count for a `sets() × ways` cache, or `None` when
    /// `ways` reaches the tracked cap (the capped bucket can no longer
    /// split hits from misses).
    pub fn lru_misses(&self, ways: u16) -> Option<u64> {
        let w = usize::from(ways);
        if w >= SET_WAY_CAP {
            return None;
        }
        Some(self.accesses - self.dist[..w].iter().sum::<u64>())
    }
}

/// Everything one pass extracted from a trace.
#[derive(Clone, Debug)]
pub struct TraceProfile {
    /// Accesses in the raw trace.
    pub raw_accesses: u64,
    /// Accesses the characterizer saw (equals `raw_accesses` without a
    /// filter; the L1-miss stream with one).
    pub accesses: u64,
    /// Cold (first-touch) accesses among `accesses`.
    pub cold: u64,
    /// Distinct lines among `accesses`.
    pub distinct_lines: u64,
    /// Exact fully-associative reuse-distance histogram.
    pub hist: ReuseHistogram,
    /// Exact per-set LRU profiles, one per configured reference set
    /// count.
    pub set_profiles: Vec<SetLruProfile>,
    /// Whether an L1 filter ran in front of the characterizer.
    pub l1_filtered: bool,
    buckets: Vec<HistBucket>,
}

impl TraceProfile {
    /// The precomputed log2 summary of [`TraceProfile::hist`].
    pub fn buckets(&self) -> &[HistBucket] {
        &self.buckets
    }

    /// The exact per-set profile collected at `sets`, if configured.
    pub fn set_profile(&self, sets: u32) -> Option<&SetLruProfile> {
        self.set_profiles.iter().find(|p| p.sets() == sets)
    }

    /// Fraction of accesses whose stack distance falls in the *transition
    /// band* `[capacity/2, 8·capacity)` of a cache holding
    /// `capacity_lines` lines — the reuses whose hit/miss outcome is
    /// actually in play at that size. Cold misses are excluded: they miss
    /// under every policy equally. This is the planner's per-cell
    /// improvement potential (DESIGN.md §17).
    pub fn transition_mass(&self, capacity_lines: u64) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        let lo = capacity_lines / 2;
        let hi = capacity_lines.saturating_mul(8);
        self.hist.mass_in(lo, hi) as f64 / self.accesses as f64
    }
}

/// Characterize a whole trace: filter, intern, walk (module docs).
pub fn profile_trace(trace: &Trace, cfg: &CharacterizeConfig) -> TraceProfile {
    let (ids, line_of) = intern(characterized_lines(trace, cfg.l1_filter));
    // A stack distance is below the number of distinct lines.
    let mut counts = vec![0u64; line_of.len()];
    let mut global = StackDist::new();
    let mut cold = 0u64;
    for &id in &ids {
        match global.record(id) {
            Some(d) => counts[usize::try_from(d).expect("distance below distinct lines")] += 1,
            None => cold += 1,
        }
    }
    let accesses = ids.len() as u64;
    let hist = ReuseHistogram {
        counts,
        total: accesses - cold,
    };
    let set_profiles = cfg
        .set_profile_sets
        .iter()
        .map(|&sets| SetLruProfile::collect(sets, &ids, &line_of))
        .collect();
    let buckets = hist.buckets();
    TraceProfile {
        raw_accesses: trace.len() as u64,
        accesses,
        cold,
        distinct_lines: global.distinct(),
        hist,
        set_profiles,
        l1_filtered: cfg.l1_filter.is_some(),
        buckets,
    }
}

/// The line stream the profile characterizes: every access of `trace`,
/// or only the misses of an LRU cache of geometry `l1` in front of it.
fn characterized_lines(trace: &Trace, l1: Option<Geometry>) -> Vec<u64> {
    let Some(g) = l1 else {
        return trace.iter().map(|a| a.line).collect();
    };
    let mut l1 = CacheModel::new(g, Box::new(LruEngine::new()));
    let mut lines = Vec::new();
    for (seq, access) in (1u64..).zip(trace.iter()) {
        let write = matches!(access.kind, AccessKind::Store);
        if !l1.access(LineAddr(access.line), write, seq).hit {
            lines.push(access.line);
        }
    }
    lines
}

/// Dense ids for a line stream, assigned in first-touch order: the
/// stream as ids, and `line_of[id]`, each distinct line once.
fn intern(lines: Vec<u64>) -> (Vec<u32>, Vec<u64>) {
    let mut index: HashMap<u64, u32, LineBuildHasher> = HashMap::default();
    let mut line_of = Vec::new();
    let ids = lines
        .into_iter()
        .map(|line| {
            *index.entry(line).or_insert_with(|| {
                line_of.push(line);
                u32::try_from(line_of.len() - 1)
                    .ok()
                    .filter(|&id| id != EMPTY)
                    .expect("fewer than u32::MAX distinct lines")
            })
        })
        .collect();
    (ids, line_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_trace::record::Access;

    fn toy_trace() -> Trace {
        // Cyclic scan over 40 lines, 50 rounds.
        let mut v = Vec::new();
        for _ in 0..50 {
            for line in 0..40u64 {
                v.push(Access::load(line, 0));
            }
        }
        Trace::from_accesses(v)
    }

    #[test]
    fn unfiltered_totals_add_up() {
        let p = profile_trace(&toy_trace(), &CharacterizeConfig::unfiltered());
        assert_eq!(p.raw_accesses, 2000);
        assert_eq!(p.accesses, 2000);
        assert_eq!(p.cold, 40);
        assert_eq!(p.distinct_lines, 40);
        assert_eq!(p.hist.total() + p.cold, p.accesses);
        // Every reuse in a 40-line cycle has distance 39.
        assert_eq!(p.hist.mass_in(39, 40), 1960);
    }

    #[test]
    fn set_profile_matches_a_real_lru_cache() {
        let cfg = CharacterizeConfig::unfiltered().with_set_profiles(&[4]);
        let p = profile_trace(&toy_trace(), &cfg);
        for ways in [1u16, 2, 8, 16] {
            let g = Geometry::from_sets(4, ways, 64);
            let mut cache = CacheModel::new(g, Box::new(LruEngine::new()));
            for (seq, a) in toy_trace().iter().enumerate() {
                cache.access(LineAddr(a.line), false, seq as u64);
            }
            let predicted = p.set_profile(4).and_then(|sp| sp.lru_misses(ways));
            assert_eq!(predicted, Some(cache.stats().misses), "ways {ways}");
        }
    }

    #[test]
    fn recency_rows_are_exact_up_to_the_cap() {
        // One set, so every line shares the one capped row. A cycle over
        // k lines puts every reuse at distance k − 1: inside the row for
        // k ≤ 64, pushed off it and re-touched for k = 65 and 70. The
        // pseudo-random tail spreads reuses over every row position.
        for k in [63u64, 64, 65, 70] {
            let mut lines: Vec<u64> = (0..5).flat_map(|_| 0..k).collect();
            let mut x = k;
            for _ in 0..4000 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                lines.push((x >> 33) % k);
            }
            let trace = Trace::from_accesses(lines.iter().map(|&l| Access::load(l, 0)).collect());
            let cfg = CharacterizeConfig::unfiltered().with_set_profiles(&[1]);
            let sp = profile_trace(&trace, &cfg).set_profile(1).cloned().unwrap();
            for ways in 1..SET_WAY_CAP as u16 {
                let g = Geometry::from_sets(1, ways, 64);
                let mut cache = CacheModel::new(g, Box::new(LruEngine::new()));
                for (seq, a) in trace.iter().enumerate() {
                    cache.access(LineAddr(a.line), false, seq as u64);
                }
                assert_eq!(
                    sp.lru_misses(ways),
                    Some(cache.stats().misses),
                    "k {k} ways {ways}"
                );
            }
            assert_eq!(sp.lru_misses(SET_WAY_CAP as u16), None, "k {k}");
        }
    }

    #[test]
    fn l1_filter_shrinks_the_characterized_stream() {
        let raw = profile_trace(&toy_trace(), &CharacterizeConfig::unfiltered());
        let filtered = profile_trace(
            &toy_trace(),
            &CharacterizeConfig {
                l1_filter: Some(Geometry::baseline_l1d()),
                set_profile_sets: Vec::new(),
            },
        );
        assert!(filtered.l1_filtered);
        assert_eq!(filtered.raw_accesses, raw.raw_accesses);
        // 40 lines fit in the 256-line L1, so after the cold pass
        // everything hits the filter.
        assert_eq!(filtered.accesses, 40);
        assert_eq!(filtered.cold, 40);
    }

    #[test]
    fn bucket_summary_conserves_mass() {
        let p = profile_trace(&toy_trace(), &CharacterizeConfig::unfiltered());
        let sum: u64 = p.buckets().iter().map(|b| b.count).sum();
        assert_eq!(sum, p.hist.total());
    }
}
