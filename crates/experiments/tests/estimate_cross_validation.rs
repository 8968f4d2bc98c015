//! Cross-validation of the analytical miss-rate estimator (reuse
//! distance, what `score_cell` reports) against the real simulator: every
//! bundled trace, LRU at three L2 capacities on short traces and at the
//! baseline L2 on the 120k-access traces the planner is run at, the error
//! within the estimator's own stated band.
//!
//! The tolerance is pinned here as a constant rather than read from the
//! estimator, so a future change that silently widens the band fails
//! this test instead of passing by construction.

#![allow(clippy::unwrap_used)]

use mlpsim_cache::addr::Geometry;
use mlpsim_cpu::config::SystemConfig;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::system::System;
use mlpsim_model::characterize::{profile_trace, CharacterizeConfig};
use mlpsim_model::estimate::ReuseDistEstimator;
use mlpsim_trace::spec::SpecBench;

const SEED: u64 = 42;
/// The inputs validated, as (accesses, L2 capacities). Short traces
/// cover 512 KiB, 1 MiB (the paper's baseline) and 2 MiB — all 16-way,
/// 64-byte lines, so 512/1024/2048 sets. The long traces are the length
/// the sweep planner is run at (`fig5 --accesses 120000 --plan
/// estimate`), where reuse distances reach L2 scale, at the baseline L2
/// only.
const CASES: [(usize, &[u64]); 2] = [
    (30_000, &[512 << 10, 1 << 20, 2 << 20]),
    (120_000, &[1 << 20]),
];
/// Pinned ceiling on the reuse-distance estimator's band at geometries it
/// profiled exactly. 2% of all accesses, asserted so the "exact" path
/// cannot quietly degrade into an approximation.
const MAX_REUSE_DIST_BAND: f64 = 0.02;

#[test]
fn estimators_stay_within_their_stated_bands_for_lru() {
    for (accesses, capacities) in CASES {
        check_case(accesses, capacities);
    }
}

fn check_case(accesses: usize, capacities: &[u64]) {
    let set_counts: Vec<u32> = capacities
        .iter()
        .map(|&cap| Geometry::new(cap, 16, 64).unwrap().sets())
        .collect();
    for bench in SpecBench::ALL {
        let trace = bench.generate(accesses, SEED);
        // One profile answers every capacity: the characterizer keeps a
        // per-set stack-distance profile for each set count, all behind
        // the same baseline L1 filter the simulator uses.
        let mut cfg = CharacterizeConfig::baseline();
        cfg.set_profile_sets = set_counts.clone();
        let profile = profile_trace(&trace, &cfg);
        for &capacity in capacities {
            let geometry = Geometry::new(capacity, 16, 64).unwrap();
            let mut sys_cfg = SystemConfig::baseline(PolicyKind::Lru);
            sys_cfg.l2 = geometry;
            let sim = System::new(sys_cfg).run(trace.iter()).l2.miss_ratio();
            let at = format!("{} ({accesses} accesses) @{capacity}B", bench.name());

            let exact = ReuseDistEstimator.estimate(&profile, geometry);
            assert!(
                exact.band <= MAX_REUSE_DIST_BAND,
                "{at}: reuse-dist band {} exceeds the pinned {MAX_REUSE_DIST_BAND} \
                 — the exact path regressed to an approximation",
                exact.band,
            );
            let err = (exact.miss_rate - sim).abs();
            assert!(
                err <= exact.band,
                "{at}: reuse-dist estimate {:.4} vs simulated {sim:.4} \
                 (err {err:.4}) outside its stated band {:.4}",
                exact.miss_rate,
                exact.band,
            );
        }
    }
}
