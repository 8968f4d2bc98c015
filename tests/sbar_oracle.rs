//! Knob-free oracle for the hybrid engine's leader path: SBAR whose every
//! set is a leader set runs LIN in every set of the main tag directory,
//! and its ATD-LRU/PSEL contest only observes. It must therefore simulate
//! exactly what LIN(4) simulates: the same cycles, instructions, cache and
//! memory statistics, cost histogram and stall cycles. Only the labels and
//! the engine's own diagnostics may differ.

use mlpsim::core::hybrid::SbarConfig;
use mlpsim::cpu::{PolicyKind, SimResult, System, SystemConfig};
use mlpsim::trace::spec::SpecBench;

/// Long enough that every benchmark evicts from the L2; at 30k accesses
/// twolf, vpr, equake, bzip2 and parser still fit and never choose a
/// victim, which would make their comparison vacuous.
const ACCESSES: usize = 60_000;

fn run(policy: PolicyKind, bench: SpecBench) -> SimResult {
    let trace = bench.generate(ACCESSES, 42);
    System::new(SystemConfig::baseline(policy)).run(trace.iter())
}

#[test]
fn sbar_with_every_set_leading_is_lin() {
    let l2_sets = SystemConfig::baseline(PolicyKind::Lru).l2.sets();
    assert_eq!(l2_sets, 1024, "the baseline L2 has 1024 sets");
    let all_leaders = PolicyKind::Sbar(SbarConfig {
        leader_sets: l2_sets,
        ..SbarConfig::paper_default()
    });
    for bench in SpecBench::ALL {
        let sbar = run(all_leaders, bench);
        let lin = run(PolicyKind::lin4(), bench);
        assert!(
            lin.l2.evictions > 0,
            "{bench}: no L2 eviction, so no victim was ever chosen"
        );
        assert_eq!(sbar.cycles, lin.cycles, "{bench}: cycles");
        assert_eq!(sbar.instructions, lin.instructions, "{bench}: instructions");
        assert_eq!(sbar.l1, lin.l1, "{bench}: L1 stats");
        assert_eq!(sbar.l2, lin.l2, "{bench}: L2 stats");
        assert_eq!(sbar.mem, lin.mem, "{bench}: memory stats");
        assert_eq!(sbar.cost_hist, lin.cost_hist, "{bench}: cost histogram");
        assert_eq!(
            sbar.mem_stall_cycles, lin.mem_stall_cycles,
            "{bench}: memory stall cycles"
        );
    }
}
