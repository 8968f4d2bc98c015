#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property tests for stall-cycle attribution: for any trace, the ledger
//! is an exact partition of `mem_stall_cycles` (conservation), the event
//! stream folds back to the same ledger, and attaching a probe changes
//! nothing architectural.

use mlpsim_cpu::{PolicyKind, SimResult, System, SystemConfig};
use mlpsim_telemetry::{Event, SinkHandle, SinkProbe, StallLedger, VecSink};
use mlpsim_trace::record::{Access, Trace};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A random access: `sel` picks a line from a pool small enough to create
/// merges, conflicts, and re-misses; `gap` spans isolated-to-overlapped.
fn trace_from(parts: &[(u64, u32, u32)]) -> Trace {
    parts
        .iter()
        .map(|&(sel, gap, kind)| {
            // Mix tight reuse (same lines), set conflicts (multiples of
            // 1024 share an L2 set), and distinct-bank streaming.
            let line = match sel % 4 {
                0 => sel % 8,
                1 => (sel % 24) * 1024,
                2 => (sel % 16) << 13,
                _ => 4_000 + sel % 64,
            };
            if kind < 15 {
                Access::store(line, gap)
            } else {
                Access::load(line, gap)
            }
        })
        .collect()
}

fn run_with_probe(cfg: SystemConfig, trace: &Trace) -> (SimResult, Vec<Event>) {
    let buf = Arc::new(Mutex::new(VecSink::new()));
    let handle =
        SinkHandle::shared(buf.clone() as Arc<Mutex<dyn mlpsim_telemetry::EventSink + Send>>);
    let r = System::with_probe(cfg, SinkProbe::new(handle)).run(trace.iter());
    let events = std::mem::take(&mut buf.lock().unwrap().events);
    (r, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: the ledger partitions `mem_stall_cycles` exactly,
    /// the `stall_attrib` stream folds back to the same totals, and the
    /// spans tile the memory-stall time.
    #[test]
    fn ledger_partitions_mem_stall_cycles_exactly(
        parts in prop::collection::vec((0u64..64, 0u32..500, 0u32..100), 1..250),
        sbar in prop::bool::ANY,
    ) {
        let trace = trace_from(&parts);
        let policy = if sbar {
            PolicyKind::Sbar(mlpsim_core::hybrid::SbarConfig::paper_default())
        } else {
            PolicyKind::Lru
        };
        let (r, events) = run_with_probe(SystemConfig::baseline(policy), &trace);

        let ledger = r.stall_ledger.as_ref().expect("probe-enabled runs carry a ledger");
        prop_assert_eq!(ledger.total(), r.mem_stall_cycles, "ledger conservation");

        // The event stream is a faithful mirror of the in-memory ledger.
        let mut folded = StallLedger::new();
        for ev in &events {
            folded.observe(ev);
        }
        prop_assert_eq!(folded.total(), r.mem_stall_cycles, "event-stream conservation");

        // Spans tile the memory-stall intervals: lengths sum to the total
        // and they never overlap (they are emitted in time order).
        let spans: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::StallSpan { begin, end, .. } => Some((*begin, *end)),
                _ => None,
            })
            .collect();
        let span_cycles: u64 = spans.iter().map(|(begin, end)| end - begin).sum();
        prop_assert_eq!(span_cycles, r.mem_stall_cycles, "spans tile the stall time");
        for pair in spans.windows(2) {
            prop_assert!(pair[0].0 <= pair[0].1 && pair[0].1 <= pair[1].0, "{:?}", pair);
        }
    }

    /// Observer transparency: attaching a probe (and with it the
    /// attribution tracker) changes no architectural result — same miss
    /// counts, same victim behavior, same PSEL state, same timing.
    #[test]
    fn probe_attachment_is_architecturally_invisible(
        parts in prop::collection::vec((0u64..64, 0u32..500, 0u32..100), 1..200),
        sbar in prop::bool::ANY,
    ) {
        let trace = trace_from(&parts);
        let policy = if sbar {
            PolicyKind::Sbar(mlpsim_core::hybrid::SbarConfig::paper_default())
        } else {
            PolicyKind::Lru
        };
        let plain = System::new(SystemConfig::baseline(policy)).run(trace.iter());
        let (mut probed, _) = run_with_probe(SystemConfig::baseline(policy), &trace);
        // The ledger itself is the one sanctioned difference (`Some` vs.
        // `None` in a release build); everything else —
        // cycles, miss counts, cost histogram, PSEL debug state — must be
        // bit-identical.
        probed.stall_ledger = plain.stall_ledger.clone();
        prop_assert_eq!(probed, plain);
    }
}
