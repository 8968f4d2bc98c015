//! Throughput floors for the analytical sweep planner: profiling a trace
//! and scoring a cell must both stay well below the cost of simulating
//! the cells they prune, or estimate→prune→simulate no longer pays for
//! itself. Every bundled trace is profiled at 120k accesses (the best of
//! three runs per trace, so one descheduled run cannot fail the floor),
//! then the 14 × 3 grid (LRU, LIN(4), SBAR) is scored 200 times so the
//! timer integrates over thousands of cells instead of one
//! microsecond-scale pass.
//!
//! Timing tests are `#[ignore]`d so the default suite stays deterministic;
//! run them optimized:
//!
//! ```text
//! cargo test --release -p mlpsim-experiments --test planner_throughput -- --ignored
//! ```

use mlpsim_cache::addr::Geometry;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_experiments::runner::DEFAULT_SEED;
use mlpsim_model::characterize::{profile_trace, CharacterizeConfig, TraceProfile};
use mlpsim_model::plan::{score_cell, DEFAULT_PRUNE_MARGIN};
use mlpsim_trace::spec::SpecBench;
use std::hint::black_box;
use std::time::Instant;

const ACCESSES: usize = 120_000;
const SCORE_ROUNDS: usize = 200;
const MIN_CELLS_PER_SEC: f64 = 10_000.0;
const PROFILE_RUNS: usize = 3;
/// Raw trace accesses profiled per second under the planner's baseline
/// configuration. On a 2-vCPU x86-64 host the `BTreeMap`-based
/// characterizer profiled 0.9–1.2M/s and the dense-id one 7.8–8.6M/s;
/// the floor sits between the two.
const MIN_PROFILE_ACCESSES_PER_SEC: f64 = 3_000_000.0;

#[test]
#[ignore = "timing test; run with --release -- --ignored"]
fn profiling_keeps_its_accesses_per_second_floor() {
    let cfg = CharacterizeConfig::baseline();
    let mut accesses = 0u64;
    let mut best_s = 0.0f64;
    for b in SpecBench::ALL {
        let t = b.generate(ACCESSES, DEFAULT_SEED);
        accesses += t.len() as u64;
        best_s += (0..PROFILE_RUNS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(profile_trace(black_box(&t), &cfg));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
    }
    let rate = accesses as f64 / best_s;
    println!(
        "profile: {:.1} ms for {accesses} accesses = {rate:.0} accesses/sec",
        best_s * 1e3
    );
    assert!(
        rate >= MIN_PROFILE_ACCESSES_PER_SEC,
        "trace profiling too slow: {rate:.0} accesses/sec < {MIN_PROFILE_ACCESSES_PER_SEC} \
         — the planner costs more than the cells it prunes"
    );
}

#[test]
#[ignore = "timing test; run with --release -- --ignored"]
fn planner_scores_at_least_ten_thousand_cells_per_second() {
    let policies = [
        PolicyKind::Lru,
        PolicyKind::lin4(),
        PolicyKind::sbar_default(),
    ];
    let profiles: Vec<TraceProfile> = SpecBench::ALL
        .iter()
        .map(|b| {
            let t = b.generate(ACCESSES, DEFAULT_SEED);
            profile_trace(&t, &CharacterizeConfig::baseline())
        })
        .collect();

    let geometry = Geometry::baseline_l2();
    let t0 = Instant::now();
    let mut scored = 0u64;
    let mut checksum = 0.0f64;
    for _ in 0..SCORE_ROUNDS {
        for p in &profiles {
            for policy in &policies {
                let s = score_cell(p, geometry, &policy.label(), DEFAULT_PRUNE_MARGIN);
                checksum += s.estimate.miss_rate;
                scored += 1;
            }
        }
    }
    black_box(checksum);
    let score_s = t0.elapsed().as_secs_f64();
    let cells_per_sec = scored as f64 / score_s;
    println!(
        "score: {:.1} ms for {scored} cells = {cells_per_sec:.0} cells/sec",
        score_s * 1e3
    );
    assert!(
        cells_per_sec >= MIN_CELLS_PER_SEC,
        "planner scoring too slow: {cells_per_sec:.0} cells/sec < {MIN_CELLS_PER_SEC} \
         — estimate-then-prune no longer pays for itself"
    );
}
