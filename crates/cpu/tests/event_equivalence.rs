//! Differential test for the event-driven core loop.
//!
//! The simulator fast-forwards idle dispatch cycles in O(1)
//! (`System::gap_fast_forward`); `SystemConfig::legacy_stepping` keeps the
//! original cycle-by-cycle path alive as the reference model. The two must
//! be *indistinguishable*: identical `SimResult` (stats, samples and the
//! stall-attribution ledger) and an identical telemetry event stream
//! (which carries every serviced miss's line and cost), over workloads
//! that exercise every discrete event the jump has to stop for — fills,
//! squashes, epochs, sampler boundaries, synthetic branches, prefetches,
//! and footnote-4 gated-cost spans.

use mlpsim_cpu::{PolicyKind, SimResult, System, SystemConfig};
use mlpsim_telemetry::{Event, EventSink, SinkHandle, SinkProbe};
use mlpsim_trace::gen::spec::SpecBench;
use mlpsim_trace::record::Trace;
use std::sync::{Arc, Mutex};

const ACCESSES: usize = 6_000;

/// Sink that mirrors every event into a shared vector the test can read
/// back after the run.
struct Capture(Arc<Mutex<Vec<Event>>>);

impl EventSink for Capture {
    fn record(&mut self, ev: Event) {
        self.0.lock().expect("capture mutex poisoned").push(ev);
    }
}

/// Runs `cfg` over `trace` with a recording probe; returns the result and
/// the captured event stream.
fn run_instrumented(cfg: SystemConfig, trace: &Trace) -> (SimResult, Vec<Event>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let probe = SinkProbe::new(SinkHandle::of(Capture(Arc::clone(&events))));
    let result = System::with_probe(cfg, probe).run(trace.iter());
    let events = std::mem::take(&mut *events.lock().expect("capture mutex poisoned"));
    (result, events)
}

/// Asserts that the event-driven path and the legacy cycle-stepping path
/// are indistinguishable for `cfg` over `trace`.
#[allow(clippy::needless_pass_by_value)]
fn assert_paths_equivalent(label: &str, cfg: SystemConfig, trace: &Trace) {
    let mut legacy_cfg = cfg.clone();
    legacy_cfg.legacy_stepping = true;

    let (fast, fast_events) = run_instrumented(cfg, trace);
    let (slow, slow_events) = run_instrumented(legacy_cfg, trace);

    assert_eq!(
        fast, slow,
        "[{label}] SimResult diverged between event-driven and legacy paths"
    );
    assert_eq!(
        fast_events.len(),
        slow_events.len(),
        "[{label}] event stream lengths diverged"
    );
    for (i, (f, s)) in fast_events.iter().zip(slow_events.iter()).enumerate() {
        assert_eq!(
            f, s,
            "[{label}] event #{i} diverged between event-driven and legacy paths"
        );
    }
    // The ledger must not just match the legacy path — it must still be an
    // exact partition of the memory-stall cycles (instrumented runs always
    // carry the tracker).
    let ledger = fast
        .stall_ledger
        .as_ref()
        .expect("instrumented runs carry the attribution ledger");
    assert_eq!(
        ledger.total(),
        fast.mem_stall_cycles,
        "[{label}] ledger must reconcile exactly with mem_stall_cycles"
    );
}

fn fig5_trace(bench: SpecBench) -> Trace {
    bench.generate(ACCESSES, 42)
}

#[test]
fn fig5_workloads_match_under_lru_and_lin() {
    for bench in [SpecBench::Mcf, SpecBench::Art, SpecBench::Ammp] {
        let trace = fig5_trace(bench);
        for policy in [PolicyKind::Lru, PolicyKind::lin4()] {
            assert_paths_equivalent(
                &format!("{bench}/{policy:?}"),
                SystemConfig::baseline(policy),
                &trace,
            );
        }
    }
}

#[test]
fn sampler_and_small_epochs_match() {
    let trace = fig5_trace(SpecBench::Parser);
    let mut cfg = SystemConfig::baseline(PolicyKind::lin4());
    // Force many boundary crossings so jumps must stop at each one.
    cfg.sample_interval = Some(500);
    cfg.epoch_insts = 2_000;
    assert_paths_equivalent("parser/sampler+epochs", cfg, &trace);
}

#[test]
fn gated_cost_spans_match() {
    let trace = fig5_trace(SpecBench::Twolf);
    let mut cfg = SystemConfig::baseline(PolicyKind::lin4());
    cfg.cost_accounting = mlpsim_cpu::config::CostAccounting::StallCyclesOnly;
    assert_paths_equivalent("twolf/gated-cost", cfg, &trace);
}

#[test]
fn wrong_path_and_prefetch_match() {
    let trace = fig5_trace(SpecBench::Facerec);
    let mut cfg = SystemConfig::baseline(PolicyKind::lin4());
    cfg.wrong_path = Some(mlpsim_cpu::wrongpath::WrongPathConfig {
        interval_insts: 700,
        burst: 4,
        resolve_cycles: 15,
    });
    cfg.prefetch = Some(mlpsim_cpu::prefetch::PrefetchConfig { degree: 2 });
    assert_paths_equivalent("facerec/wrong-path+prefetch", cfg, &trace);
}

#[test]
fn icache_path_matches() {
    let trace = fig5_trace(SpecBench::Vpr);
    let mut cfg = SystemConfig::baseline(PolicyKind::Lru);
    cfg.icache = Some(mlpsim_cpu::icache::IcacheConfig::baseline(256));
    assert_paths_equivalent("vpr/icache", cfg, &trace);
}

#[test]
fn uninstrumented_results_match_too() {
    // `System::new` (NoProbe) drops the attribution tracker in release
    // builds — a different hot path worth covering there; debug builds
    // keep it, so finalize checks the ledger reconciliation.
    let trace = fig5_trace(SpecBench::Mcf);
    let cfg = SystemConfig::baseline(PolicyKind::lin4());
    let mut legacy_cfg = cfg.clone();
    legacy_cfg.legacy_stepping = true;
    let fast = System::new(cfg).run(trace.iter());
    let slow = System::new(legacy_cfg).run(trace.iter());
    assert_eq!(fast, slow);
}
