//! End-to-end integration tests: the full system (trace generation →
//! OoO core → caches → MSHR/CCL → DRAM) reproducing the paper's headline
//! claims.

use mlpsim::cache::addr::{Geometry, LineAddr};
use mlpsim::cache::belady::BeladyEngine;
use mlpsim::cpu::{PolicyKind, System, SystemConfig};
use mlpsim::telemetry::{ServicedLog, SinkHandle, SinkProbe};
use mlpsim::trace::figure1::{figure1_lines, figure1_trace};
use mlpsim::trace::spec::SpecBench;
use std::sync::{Arc, Mutex};

fn run_bench(bench: SpecBench, policy: PolicyKind, accesses: usize) -> mlpsim::cpu::SimResult {
    let trace = bench.generate(accesses, 42);
    System::new(SystemConfig::baseline(policy)).run(trace.iter())
}

#[test]
fn figure1_reproduces_the_papers_exact_counts() {
    let iterations = 100;
    let trace = figure1_trace(iterations);
    let cache = Geometry::from_sets(1, 4, 64);
    let cfg = |policy| {
        let mut c = SystemConfig::baseline(policy);
        c.l1 = None;
        c.l2 = cache;
        c
    };
    let opt = System::with_l2_engine(
        cfg(PolicyKind::Lru),
        Box::new(BeladyEngine::from_accesses(
            figure1_lines(iterations).into_iter().map(LineAddr),
        )),
    )
    .run(trace.iter());
    let lru = System::new(cfg(PolicyKind::Lru)).run(trace.iter());
    let lin = System::new(cfg(PolicyKind::lin4())).run(trace.iter());

    let per_iter = |x: u64| (x as f64 / iterations as f64).round() as u64;
    // Paper: OPT 4 misses / 4 stalls; LRU 6 / 4; MLP-aware 6 / 2.
    assert_eq!(per_iter(opt.l2.misses), 4);
    assert_eq!(per_iter(opt.stall_episodes), 4);
    assert_eq!(per_iter(lru.l2.misses), 6);
    assert_eq!(per_iter(lru.stall_episodes), 4);
    assert_eq!(per_iter(lin.l2.misses), 6);
    assert_eq!(per_iter(lin.stall_episodes), 2);
    // And the punchline: LIN finishes the loop faster than the
    // miss-optimal oracle.
    assert!(
        lin.cycles < opt.cycles,
        "lin {} vs opt {}",
        lin.cycles,
        opt.cycles
    );
    assert!(lin.cycles < lru.cycles);
}

#[test]
fn lin_helps_the_papers_winners() {
    for bench in [
        SpecBench::Mcf,
        SpecBench::Vpr,
        SpecBench::Sixtrack,
        SpecBench::Art,
    ] {
        let lru = run_bench(bench, PolicyKind::Lru, 150_000);
        let lin = run_bench(bench, PolicyKind::lin4(), 150_000);
        assert!(
            lin.ipc() > lru.ipc() * 1.02,
            "{bench}: LIN {:.3} should clearly beat LRU {:.3}",
            lin.ipc(),
            lru.ipc()
        );
    }
}

#[test]
fn lin_hurts_the_papers_losers() {
    for bench in [SpecBench::Parser, SpecBench::Mgrid] {
        let lru = run_bench(bench, PolicyKind::Lru, 150_000);
        let lin = run_bench(bench, PolicyKind::lin4(), 150_000);
        assert!(
            lin.ipc() < lru.ipc() * 0.98,
            "{bench}: LIN {:.3} should clearly lose to LRU {:.3}",
            lin.ipc(),
            lru.ipc()
        );
    }
}

#[test]
fn sbar_limits_lin_degradation() {
    // "The most important contribution of SBAR is that it eliminates the
    // performance degradation caused by LIN" — SBAR must stay within a few
    // percent of LRU on the LIN-hostile benchmarks.
    for bench in [SpecBench::Parser, SpecBench::Mgrid] {
        let lru = run_bench(bench, PolicyKind::Lru, 200_000);
        let lin = run_bench(bench, PolicyKind::lin4(), 200_000);
        let sbar = run_bench(bench, PolicyKind::sbar_default(), 200_000);
        assert!(sbar.ipc() > lin.ipc(), "{bench}: SBAR must beat pure LIN");
        assert!(
            sbar.ipc() > lru.ipc() * 0.90,
            "{bench}: SBAR {:.3} must stay near LRU {:.3}",
            sbar.ipc(),
            lru.ipc()
        );
    }
}

#[test]
fn sbar_beats_both_pure_policies_on_phased_workloads() {
    let lru = run_bench(SpecBench::Ammp, PolicyKind::Lru, 420_000);
    let lin = run_bench(SpecBench::Ammp, PolicyKind::lin4(), 420_000);
    let sbar = run_bench(SpecBench::Ammp, PolicyKind::sbar_default(), 420_000);
    assert!(
        sbar.ipc() > lru.ipc(),
        "ammp: SBAR {:.3} vs LRU {:.3}",
        sbar.ipc(),
        lru.ipc()
    );
    assert!(
        sbar.ipc() > lin.ipc(),
        "ammp: SBAR {:.3} vs LIN {:.3}",
        sbar.ipc(),
        lin.ipc()
    );
}

#[test]
fn mlp_cost_distribution_is_bench_specific() {
    // Fig. 2's qualitative content: art is parallel-dominated, twolf is
    // isolated-heavy, facerec carries a pair peak.
    let art = run_bench(SpecBench::Art, PolicyKind::Lru, 150_000);
    let twolf = run_bench(SpecBench::Twolf, PolicyKind::Lru, 150_000);
    assert!(
        art.cost_hist.percent(7) < 5.0,
        "art has almost no isolated misses"
    );
    assert!(twolf.cost_hist.percent(7) > 10.0, "twolf is isolated-heavy");
    assert!(art.cost_hist.mean() < twolf.cost_hist.mean());
}

#[test]
fn unpredictable_benchmarks_have_large_deltas() {
    // Table 1's discriminator, measured on the live system.
    let sixtrack = run_bench(SpecBench::Sixtrack, PolicyKind::Lru, 150_000);
    let mgrid = run_bench(SpecBench::Mgrid, PolicyKind::Lru, 420_000);
    assert!(
        sixtrack.deltas.pct_lt60() > 95.0,
        "sixtrack is deterministic"
    );
    assert!(
        mgrid.deltas.average() > 100.0,
        "mgrid's costs flip between phases"
    );
}

#[test]
fn isolated_miss_latency_is_the_papers_444_cycles() {
    use mlpsim::trace::record::{Access, Trace};
    let trace = Trace::from_accesses(vec![Access::load(1, 400), Access::load((1 << 21) + 3, 400)]);
    let r = System::new(SystemConfig::baseline(PolicyKind::Lru)).run(trace.iter());
    assert_eq!(r.l2.misses, 2);
    assert!((r.mean_cost() - 444.0).abs() < 0.5);
}

#[test]
fn all_optional_substrates_compose() {
    use mlpsim::cpu::icache::IcacheConfig;
    use mlpsim::cpu::prefetch::PrefetchConfig;
    use mlpsim::cpu::wrongpath::WrongPathConfig;
    let trace = SpecBench::Mcf.generate(20_000, 3);
    let mut cfg = SystemConfig::baseline(PolicyKind::sbar_default());
    cfg.icache = Some(IcacheConfig::baseline(64));
    cfg.wrong_path = Some(WrongPathConfig::baseline());
    cfg.prefetch = Some(PrefetchConfig { degree: 2 });
    cfg.sample_interval = Some(200_000);
    let log = Arc::new(Mutex::new(ServicedLog::default()));
    let probe = SinkProbe::new(SinkHandle::shared(log.clone()));
    let r = System::with_probe(cfg, probe).run(trace.iter());
    let misses = std::mem::take(&mut log.lock().unwrap().misses);
    assert_eq!(r.instructions, trace.instructions());
    assert!(r.ipc() > 0.0 && r.ipc() <= 8.0);
    assert!(r.icache.accesses() > 0);
    assert!(r.wrong_path_accesses > 0);
    assert!(r.prefetches_issued > 0);
    assert_eq!(misses.len() as u64, r.cost_hist.count());
    assert!(!r.samples.is_empty());
}

#[test]
fn every_policy_runs_every_benchmark() {
    // Smoke coverage of the full matrix at small scale.
    for bench in SpecBench::ALL {
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random { seed: 3 },
            PolicyKind::lin4(),
            PolicyKind::sbar_default(),
            PolicyKind::CbsLocal,
            PolicyKind::CbsGlobal,
        ] {
            let r = run_bench(bench, policy, 4_000);
            assert!(r.ipc() > 0.0 && r.ipc() <= 8.0, "{bench}/{}", r.policy);
            assert_eq!(
                r.instructions,
                bench.generate(4_000, 42).instructions(),
                "all instructions must retire"
            );
        }
    }
}
