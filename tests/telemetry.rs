#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs
//! End-to-end telemetry invariants: run real workloads with a probe
//! attached and check that the emitted event stream is internally
//! consistent — ordering, pairing, and cross-subsystem agreement with the
//! simulator's own statistics.

use mlpsim::cpu::{PolicyKind, System, SystemConfig};
use mlpsim::telemetry::{Event, EventSink, SinkHandle, SinkProbe, VecSink};
use mlpsim::trace::spec::SpecBench;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Runs `bench` under `policy` with a collecting probe; returns the event
/// stream and the run's results.
fn run_with_events(
    bench: SpecBench,
    policy: PolicyKind,
    accesses: usize,
) -> (Vec<Event>, mlpsim::cpu::stats::SimResult) {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let dyn_sink: Arc<Mutex<dyn EventSink + Send>> = Arc::clone(&sink) as _;
    let probe = SinkProbe::new(SinkHandle::shared(dyn_sink));
    let trace = bench.generate(accesses, 42);
    let result = System::with_probe(SystemConfig::baseline(policy), probe).run(trace.iter());
    let events = std::mem::take(&mut sink.lock().unwrap().events);
    (events, result)
}

#[test]
fn stream_is_bracketed_and_counts_agree_with_stats() {
    let (events, r) = run_with_events(SpecBench::Mcf, PolicyKind::Lru, 4_000);
    assert!(matches!(events.first(), Some(Event::RunStart { .. })));
    assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count() as u64;
    assert_eq!(count("cache_miss"), r.l2.misses);
    assert_eq!(count("cache_hit"), r.l2.hits);
    assert_eq!(count("stall"), r.stall_episodes);
    // Victim events fire only for evictions out of full sets.
    assert_eq!(count("cache_victim"), r.l2.evictions);
    match events.last().unwrap() {
        Event::RunEnd {
            instructions,
            l2_misses,
            peak_mlp,
            ..
        } => {
            assert_eq!(*instructions, r.instructions);
            assert_eq!(*l2_misses, r.l2.misses);
            assert_eq!(*peak_mlp, r.peak_mlp as u64);
        }
        _ => unreachable!(),
    }
}

#[test]
fn mshr_release_never_precedes_allocate() {
    let (events, r) = run_with_events(SpecBench::Art, PolicyKind::Lru, 6_000);
    // Track in-flight lines; a release for a line that is not in flight
    // would mean the stream (or the MSHR) re-ordered allocate/release.
    let mut in_flight: HashMap<u64, u64> = HashMap::new();
    let mut peak_demand = 0u64;
    let mut allocs = 0u64;
    let mut releases = 0u64;
    for ev in &events {
        match ev {
            Event::MshrAlloc {
                line,
                live,
                demand_live,
                ..
            } => {
                *in_flight.entry(*line).or_default() += 1;
                allocs += 1;
                peak_demand = peak_demand.max(*demand_live);
                assert_eq!(
                    *live,
                    in_flight.values().sum::<u64>(),
                    "alloc live count disagrees with event-reconstructed occupancy"
                );
            }
            Event::MshrMerge { line, .. } => {
                assert!(
                    in_flight.contains_key(line),
                    "merge into line not in flight"
                );
            }
            Event::MshrRelease { line, live, .. } => {
                let n = in_flight.get_mut(line).unwrap_or_else(|| {
                    panic!("release of line {line:#x} with no preceding allocate")
                });
                *n -= 1;
                if *n == 0 {
                    in_flight.remove(line);
                }
                releases += 1;
                assert_eq!(*live, in_flight.values().sum::<u64>());
            }
            _ => {}
        }
    }
    assert!(allocs > 0);
    assert_eq!(allocs, releases, "every miss eventually completes");
    assert!(in_flight.is_empty(), "stream ends with all misses serviced");
    assert_eq!(
        peak_demand, r.peak_mlp as u64,
        "peak MLP reconstructible from stream"
    );
}

#[test]
fn every_serviced_line_missed_first_and_costs_match_quantization() {
    let (events, _) = run_with_events(SpecBench::Mcf, PolicyKind::lin4(), 4_000);
    let mut missed: HashMap<u64, u64> = HashMap::new();
    for ev in &events {
        match ev {
            Event::CacheMiss { line, .. } => *missed.entry(*line).or_default() += 1,
            Event::Serviced {
                line, cost, cost_q, ..
            } => {
                assert!(
                    missed.get(line).copied().unwrap_or(0) > 0,
                    "serviced line {line:#x} never missed"
                );
                assert_eq!(*cost_q, mlpsim::core::quant::quantize(*cost));
            }
            _ => {}
        }
    }
}

#[test]
fn psel_flips_pair_with_updates_and_divergences() {
    for policy in [
        PolicyKind::sbar_default(),
        PolicyKind::CbsLocal,
        PolicyKind::CbsGlobal,
    ] {
        let (events, _) = run_with_events(SpecBench::Ammp, policy, 40_000);
        let mut updates: HashMap<String, u64> = HashMap::new();
        let mut divergences: HashMap<String, u64> = HashMap::new();
        let mut update_seqs: Vec<(String, u64)> = Vec::new();
        let mut flips = 0u64;
        for ev in &events {
            match ev {
                Event::PselUpdate { unit, seq, .. } => {
                    *updates.entry(unit.clone()).or_default() += 1;
                    update_seqs.push((unit.clone(), *seq));
                }
                Event::LeaderDivergence { unit, .. } => {
                    *divergences.entry(unit.clone()).or_default() += 1;
                }
                Event::PselFlip { unit, seq, .. } => {
                    flips += 1;
                    // A flip is only ever the consequence of an update; the
                    // immediately preceding update carries the same stamp.
                    let last = update_seqs
                        .iter()
                        .rev()
                        .find(|(u, _)| u == unit)
                        .expect("flip without any update");
                    assert_eq!((&last.0, last.1), (unit, *seq), "flip/update seq mismatch");
                }
                _ => {}
            }
        }
        assert!(
            !updates.is_empty(),
            "{}: adaptive policy must duel",
            policy.label()
        );
        assert_eq!(
            updates,
            divergences,
            "{}: one update per divergent miss",
            policy.label()
        );
        // Phased ammp makes every adaptive scheme change its mind at least
        // once; a zero here means flips are not being detected at all.
        assert!(
            flips > 0,
            "{}: no PSEL flips over a phased workload",
            policy.label()
        );
    }
}

#[test]
fn disabled_and_enabled_runs_simulate_identically() {
    // The probe must be observation-only: attaching it cannot change any
    // architectural outcome.
    let trace = SpecBench::Ammp.generate(30_000, 42);
    let plain = System::new(SystemConfig::baseline(PolicyKind::sbar_default())).run(trace.iter());
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let dyn_sink: Arc<Mutex<dyn EventSink + Send>> = Arc::clone(&sink) as _;
    let probed = System::with_probe(
        SystemConfig::baseline(PolicyKind::sbar_default()),
        SinkProbe::new(SinkHandle::shared(dyn_sink)),
    )
    .run(trace.iter());
    assert_eq!(plain.cycles, probed.cycles);
    assert_eq!(plain.instructions, probed.instructions);
    assert_eq!(plain.l2, probed.l2);
    assert_eq!(plain.peak_mlp, probed.peak_mlp);
    assert!(!sink.lock().unwrap().events.is_empty());
}
