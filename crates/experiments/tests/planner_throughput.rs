//! Throughput floor for the analytical sweep planner: scoring a cell must
//! stay orders of magnitude cheaper than simulating it, or
//! estimate→prune→simulate no longer pays for itself. Every bundled trace
//! is profiled once at 120k accesses, then the 14 × 3 grid (LRU, LIN(4),
//! SBAR) is scored 200 times so the timer integrates over thousands of
//! cells instead of one microsecond-scale pass.
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
