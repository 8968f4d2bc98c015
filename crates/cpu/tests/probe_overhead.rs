//! The telemetry layer's core promise, timed: `System<NoProbe>` (the
//! default) must cost no more than a `SinkProbe` whose handle is disabled
//! at runtime. The disabled probe keeps every emission site compiled in,
//! each taking the null-check branch, so it stands in for "baseline plus
//! checks"; the no-probe build matching it within 2% shows the generic
//! compiles away.
//!
//! Timing tests are `#[ignore]`d so the default suite stays deterministic;
//! run them optimized:
//!
//! ```text
//! cargo test --release -p mlpsim-cpu --test probe_overhead -- --ignored
//! ```

use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::{System, SystemConfig};
use mlpsim_telemetry::{SinkHandle, SinkProbe};
use mlpsim_trace::spec::SpecBench;
use std::hint::black_box;

const ACCESSES: usize = 40_000;
const ROUNDS: usize = 11;
/// How much slower the no-probe run may be than the runtime-disabled one.
const MAX_OVERHEAD: f64 = 1.02;

/// Best-case wall time of one run per closure, with the variants sampled
/// round-robin so frequency/thermal drift hits all of them alike. The
/// minimum is the noise-robust estimator here: preemption only ever adds
/// time, so the fastest sample is the closest view of the code's cost.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "timing test: host time is the quantity under test"
)]
fn interleaved_minimums<const N: usize>(mut runs: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    // One untimed warm-up pass per variant.
    for r in runs.iter_mut() {
        r();
    }
    for _ in 0..ROUNDS {
        for (i, r) in runs.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            r();
            best[i] = best[i].min(t0.elapsed().as_nanos() as f64);
        }
    }
    best
}

/// Times LIN(4) on `bench` with no probe and with a runtime-disabled
/// probe; returns `(no_probe_ns, runtime_off_ns)`.
fn no_probe_vs_runtime_off(bench: SpecBench, seed: u64) -> (f64, f64) {
    let trace = bench.generate(ACCESSES, seed);
    let cfg = || SystemConfig::baseline(PolicyKind::lin4());
    let mut no_probe = || {
        black_box(System::new(cfg()).run(trace.iter()));
    };
    let mut runtime_off = || {
        let probe = SinkProbe::new(SinkHandle::disabled());
        black_box(System::with_probe(cfg(), probe).run(trace.iter()));
    };
    let [t_off, t_checks] = interleaved_minimums([&mut no_probe, &mut runtime_off]);
    println!(
        "{}: no_probe {t_off:.0} ns, runtime_disabled {t_checks:.0} ns ({:+.2}%)",
        bench.name(),
        (t_off / t_checks - 1.0) * 100.0
    );
    (t_off, t_checks)
}

/// Event emission: mcf, where misses and their telemetry are plentiful.
#[test]
#[ignore = "timing test; run with --release -- --ignored"]
fn no_probe_costs_no_more_than_a_disabled_probe() {
    let (t_off, t_checks) = no_probe_vs_runtime_off(SpecBench::Mcf, 7);
    assert!(
        t_off <= t_checks * MAX_OVERHEAD,
        "System<NoProbe> ({t_off:.0} ns) runs >2% slower than the runtime-checked \
         build ({t_checks:.0} ns): the disabled probe is not compiling away"
    );
}

/// Stall attribution: twolf, where nearly every miss opens a full-window
/// stall episode. With a `SinkProbe` the attribution tracker runs and
/// apportions every span; with `NoProbe` it is never constructed.
#[test]
#[ignore = "timing test; run with --release -- --ignored"]
fn no_probe_skips_the_stall_attribution_tracker() {
    let (t_off, t_attrib) = no_probe_vs_runtime_off(SpecBench::Twolf, 11);
    assert!(
        t_off <= t_attrib * MAX_OVERHEAD,
        "System<NoProbe> ({t_off:.0} ns) runs >2% slower than the span-tracing \
         build ({t_attrib:.0} ns) on a stall-heavy run: the attribution \
         tracker is not compiling away"
    );
}
