#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs

//! Differential test of the planner's trace characterizer
//! (`mlpsim_model::characterize::profile_trace`) against a naive
//! reference: one `Vec` recency list for the whole stream and one per
//! set, an ordered set of the lines seen, and the same L1 `CacheModel`
//! filter. The reference finds every stack distance by a linear search
//! of its list and keeps distances uncapped, so it shares no data
//! structure with the fast path (dense ids, Fenwick stack, capped recency
//! rows). Every field the estimator reads must agree exactly, floats bit
//! for bit.

use mlpsim::cache::addr::LineAddr;
use mlpsim::cache::lru::LruEngine;
use mlpsim::cache::model::CacheModel;
use mlpsim::trace::record::{Access, AccessKind, Trace};
use mlpsim::trace::spec::SpecBench;
use mlpsim_model::characterize::{
    profile_trace, CharacterizeConfig, HistBucket, TraceProfile, SET_WAY_CAP,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// What the naive walk extracts from a trace.
struct Reference {
    raw_accesses: u64,
    accesses: u64,
    cold: u64,
    /// Global stack distance → reuses.
    hist: BTreeMap<u64, u64>,
    /// Per reference set count: uncapped set-local distance → reuses.
    set_hists: Vec<(u32, BTreeMap<u64, u64>)>,
    lines: BTreeSet<u64>,
}

/// Move `line` to the front of `list`; its previous position, if any, is
/// its stack distance.
fn touch(list: &mut Vec<u64>, line: u64) -> Option<u64> {
    let pos = list.iter().position(|&l| l == line);
    if let Some(p) = pos {
        list.remove(p);
    }
    list.insert(0, line);
    pos.map(|p| p as u64)
}

fn reference(trace: &Trace, cfg: &CharacterizeConfig) -> Reference {
    let mut l1 = cfg
        .l1_filter
        .map(|g| CacheModel::new(g, Box::new(LruEngine::new())));
    let mut global = Vec::new();
    let mut set_lists: Vec<Vec<Vec<u64>>> = cfg
        .set_profile_sets
        .iter()
        .map(|&s| vec![Vec::new(); s as usize])
        .collect();
    let mut r = Reference {
        raw_accesses: 0,
        accesses: 0,
        cold: 0,
        hist: BTreeMap::new(),
        set_hists: cfg
            .set_profile_sets
            .iter()
            .map(|&s| (s, BTreeMap::new()))
            .collect(),
        lines: BTreeSet::new(),
    };
    for (seq, a) in (1u64..).zip(trace.iter()) {
        r.raw_accesses += 1;
        if let Some(l1) = &mut l1 {
            let write = matches!(a.kind, AccessKind::Store);
            if l1.access(LineAddr(a.line), write, seq).hit {
                continue;
            }
        }
        r.accesses += 1;
        r.lines.insert(a.line);
        match touch(&mut global, a.line) {
            Some(d) => *r.hist.entry(d).or_insert(0) += 1,
            None => r.cold += 1,
        }
        for (lists, (sets, hist)) in set_lists.iter_mut().zip(&mut r.set_hists) {
            let set = (a.line % u64::from(*sets)) as usize;
            if let Some(d) = touch(&mut lists[set], a.line) {
                *hist.entry(d).or_insert(0) += 1;
            }
        }
    }
    r
}

/// Log2 buckets with exact means, summed in ascending distance order.
fn reference_buckets(hist: &BTreeMap<u64, u64>) -> Vec<HistBucket> {
    let mut by_bucket: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
    for (&d, &c) in hist {
        let b = 64 - d.leading_zeros();
        let e = by_bucket.entry(b).or_insert((0.0, 0));
        e.0 += d as f64 * c as f64;
        e.1 += c;
    }
    by_bucket
        .values()
        .map(|&(sum, count)| HistBucket {
            mean: sum / count as f64,
            count,
        })
        .collect()
}

/// `None` when the fast path compares equal to the reference, else the
/// first field that differs.
fn diff(p: &TraceProfile, r: &Reference, cfg: &CharacterizeConfig) -> Option<String> {
    let scalars = [
        ("raw_accesses", p.raw_accesses, r.raw_accesses),
        ("accesses", p.accesses, r.accesses),
        ("cold", p.cold, r.cold),
        ("distinct_lines", p.distinct_lines, r.lines.len() as u64),
        ("hist.total", p.hist.total(), r.hist.values().sum()),
    ];
    for (name, got, want) in scalars {
        if got != want {
            return Some(format!("{name}: {got} vs {want}"));
        }
    }
    if p.l1_filtered != cfg.l1_filter.is_some() {
        return Some("l1_filtered".into());
    }
    let hist: Vec<(u64, u64)> = r.hist.iter().map(|(&d, &c)| (d, c)).collect();
    if p.hist.iter().collect::<Vec<_>>() != hist {
        return Some("hist.iter()".into());
    }
    for (lo, hi) in [
        (0, 1),
        (1, 8),
        (5, 5),
        (16, 300),
        (100, u64::MAX),
        (0, u64::MAX),
        (1 << 40, u64::MAX),
    ] {
        let want: u64 = r.hist.range(lo..hi).map(|(_, &c)| c).sum();
        if p.hist.mass_in(lo, hi) != want {
            return Some(format!("mass_in({lo}, {hi})"));
        }
    }
    if p.buckets() != reference_buckets(&r.hist).as_slice() {
        return Some("buckets()".into());
    }
    for (sets, hist) in &r.set_hists {
        let Some(sp) = p.set_profile(*sets) else {
            return Some(format!("no set profile at {sets} sets"));
        };
        for w in 1..=SET_WAY_CAP as u16 {
            let want = (usize::from(w) < SET_WAY_CAP)
                .then(|| r.cold + hist.range(u64::from(w)..).map(|(_, &c)| c).sum::<u64>());
            if sp.lru_misses(w) != want {
                return Some(format!("sets {sets} lru_misses({w})"));
            }
        }
    }
    None
}

fn check(trace: &Trace, cfg: &CharacterizeConfig) -> Option<String> {
    diff(&profile_trace(trace, cfg), &reference(trace, cfg), cfg)
}

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
    /// Random traces, raw and behind the baseline L1, at two arbitrary
    /// small set counts plus the baseline L2's. Footprints range from a
    /// few lines (every reuse inside the capped rows) to 2000 (most
    /// reuses beyond them).
    #[test]
    fn profile_matches_the_naive_reference(
        lines in prop::collection::vec(0u64..2000, 1..3000),
        footprint_log2 in 0u32..11,
        stores in prop::collection::vec(prop::bool::ANY, 1..8),
        sets_a in 1u32..9,
        sets_b in 1u32..9,
        filtered in prop::bool::ANY,
    ) {
        let footprint = (1u64 << footprint_log2) + u64::from(footprint_log2);
        let lines: Vec<u64> = lines.iter().map(|l| l % footprint).collect();
        let t = trace_of(&lines, &stores);
        let base = if filtered {
            CharacterizeConfig::baseline()
        } else {
            CharacterizeConfig::unfiltered()
        };
        let mut sets = vec![sets_a, 1024];
        if sets_b != sets_a {
            sets.push(sets_b);
        }
        let cfg = base.with_set_profiles(&sets);
        prop_assert_eq!(check(&t, &cfg), None);
    }
}

#[test]
fn bundled_traces_match_the_naive_reference() {
    for bench in [
        SpecBench::Mcf,
        SpecBench::Art,
        SpecBench::Twolf,
        SpecBench::Lucas,
    ] {
        let t = bench.generate(20_000, 42);
        for cfg in [
            CharacterizeConfig::baseline().with_set_profiles(&[64, 1024]),
            CharacterizeConfig::unfiltered().with_set_profiles(&[1024]),
        ] {
            assert_eq!(check(&t, &cfg), None, "{bench} {cfg:?}");
        }
    }
}
