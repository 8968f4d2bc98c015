//! Event sinks: where emitted events go, and the cloneable runtime handle
//! subsystems hold.

use crate::event::{Event, EventParseError};
use crate::registry::Registry;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Consumer of telemetry events.
pub trait EventSink {
    fn record(&mut self, ev: Event);
    fn flush(&mut self) {}
}

/// Cloneable, possibly-disabled reference to a shared sink.
///
/// This is the *runtime* half of the telemetry design: subsystems that live
/// behind `Box<dyn ReplacementEngine>` (or are plain structs, like `Mshr`)
/// can't be generic over a [`crate::Probe`], so they hold one of these.
/// When telemetry is off the handle is `None` and `emit`/`emit_with` cost a
/// single null-check — and the call sites are miss/update paths, never the
/// hit fast path.
///
/// The shared sink is `Arc<Mutex<..>>` so a handle can cross into the
/// sweep executor's worker threads. Each individual simulation remains
/// single-threaded (see DESIGN.md), so the lock is uncontended within a
/// run; parallel sweeps additionally give every run its own buffering
/// sink and replay buffers in submission order, so `run_start`/`run_end`
/// brackets never interleave mid-run whatever the worker schedule.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Arc<Mutex<dyn EventSink + Send>>>);

// `Rc<RefCell<dyn ..>>` has no `Debug`; show only enablement, which is the
// part that matters when a containing struct (e.g. `Mshr`) is dumped.
impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "SinkHandle(enabled)"
        } else {
            "SinkHandle(disabled)"
        })
    }
}

impl SinkHandle {
    /// A handle that drops everything (telemetry off).
    pub fn disabled() -> Self {
        SinkHandle(None)
    }

    /// Wrap an owned sink.
    pub fn of(sink: impl EventSink + Send + 'static) -> Self {
        SinkHandle(Some(Arc::new(Mutex::new(sink))))
    }

    /// Share an existing sink.
    pub fn shared(sink: Arc<Mutex<dyn EventSink + Send>>) -> Self {
        SinkHandle(Some(sink))
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Deliver an already-built event.
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(sink) = &self.0 {
            lock_sink(sink).record(ev);
        }
    }

    /// Build the event only if a sink is attached — use this on paths
    /// where constructing the event itself does measurable work.
    #[inline]
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.0 {
            lock_sink(sink).record(build());
        }
    }

    pub fn flush(&self) {
        if let Some(sink) = &self.0 {
            lock_sink(sink).flush();
        }
    }
}

/// Telemetry must never take the simulation down: a sink whose lock was
/// poisoned by a panicking sibling thread keeps recording rather than
/// cascading the panic into every other run.
#[inline]
fn lock_sink<'a>(
    sink: &'a Arc<Mutex<dyn EventSink + Send>>,
) -> MutexGuard<'a, dyn EventSink + Send + 'static> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-memory sink for tests and report tooling.
#[derive(Default)]
pub struct VecSink {
    pub events: Vec<Event>,
}

impl VecSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

/// Fan events out to several sinks — e.g. an NDJSON stream *and* a
/// Chrome trace file from one `--telemetry --trace-out` run. Each sink
/// receives its own clone of every event, in order.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn EventSink + Send>>,
}

impl FanoutSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a downstream sink; builder-style.
    #[must_use]
    pub fn with(mut self, sink: impl EventSink + Send + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Number of downstream sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl EventSink for FanoutSink {
    fn record(&mut self, ev: Event) {
        if let Some((last, rest)) = self.sinks.split_last_mut() {
            for sink in rest {
                sink.record(ev.clone());
            }
            last.record(ev);
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// Streaming NDJSON writer with interval snapshotting.
///
/// Every event becomes one line. Every `snapshot_every` events a
/// `snapshot` line with cumulative per-kind counts is interleaved, so a
/// partially-read (or truncated) stream still carries running totals.
/// Closing (or dropping) the sink writes one final cumulative snapshot,
/// so even a short run — fewer events than the interval — ends in its
/// totals.
pub struct NdjsonSink<W: Write> {
    out: BufWriter<W>,
    registry: Registry,
    snapshot_every: u64,
    /// `events_seen` at the last snapshot written, so close/drop skips
    /// the final snapshot when the count landed exactly on the interval.
    last_snapshot_at: u64,
    closed: bool,
    io_error: bool,
}

/// Default snapshot interval: frequent enough that a truncated multi-
/// megabyte stream has recent totals, rare enough to be noise in volume.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 100_000;

impl NdjsonSink<File> {
    /// Create/truncate `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write> NdjsonSink<W> {
    pub fn new(writer: W) -> Self {
        NdjsonSink {
            out: BufWriter::new(writer),
            registry: Registry::new(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            last_snapshot_at: 0,
            closed: false,
            io_error: false,
        }
    }

    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every.max(1);
        self
    }

    /// Running totals accumulated so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn write_line(&mut self, ev: &Event) {
        if self.io_error {
            return;
        }
        let line = ev.to_ndjson_line();
        if writeln!(self.out, "{line}").is_err() {
            // Telemetry must never take the simulation down; drop the
            // stream on the first I/O failure and keep simulating.
            self.io_error = true;
        }
    }

    fn write_final_snapshot(&mut self) {
        if !self.closed {
            self.closed = true;
            // Skip when nothing was recorded, or when the interval snapshot
            // already captured the exact final count — no duplicate line.
            if self.registry.events_seen() > 0
                && self.registry.events_seen() != self.last_snapshot_at
            {
                let snap = self.registry.snapshot();
                self.write_line(&snap);
            }
        }
        // Flush *unconditionally*: events recorded after `close()` (e.g. a
        // cancelled server job replaying a tail of buffered events into an
        // already-closed sink) must still reach the file on drop, or the
        // stream ends in a torn tail.
        EventSink::flush(self);
    }

    /// Write the final cumulative snapshot and flush. Idempotent; drop
    /// calls this if the caller didn't. After `close` further events are
    /// still written (the sink stays usable) but no second final
    /// snapshot will be emitted.
    pub fn close(&mut self) {
        self.write_final_snapshot();
    }
}

impl<W: Write> EventSink for NdjsonSink<W> {
    fn record(&mut self, ev: Event) {
        self.write_line(&ev);
        self.registry.observe(&ev);
        if self
            .registry
            .events_seen()
            .is_multiple_of(self.snapshot_every)
        {
            self.last_snapshot_at = self.registry.events_seen();
            let snap = self.registry.snapshot();
            self.write_line(&snap);
            // Flush at every snapshot boundary so an abruptly-killed
            // process (the serving layer's kill -9 case) leaves a stream
            // that ends at a recent complete snapshot, not mid-buffer.
            EventSink::flush(self);
        }
    }

    fn flush(&mut self) {
        if !self.io_error {
            let _ = self.out.flush();
        }
    }
}

impl<W: Write> Drop for NdjsonSink<W> {
    fn drop(&mut self) {
        // Final snapshot so every complete stream ends with its totals.
        self.write_final_snapshot();
    }
}

/// Read a whole NDJSON file back into events. Blank lines are skipped;
/// the first malformed line aborts with its line number in the error.
pub fn read_ndjson(path: impl AsRef<Path>) -> io::Result<Vec<Event>> {
    let reader = BufReader::new(File::open(path)?);
    let mut events = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_line(&line).map_err(|e: EventParseError| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {}", idx + 1, e),
            )
        })?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_drops_events() {
        let h = SinkHandle::disabled();
        assert!(!h.enabled());
        h.emit(Event::Stall { cycle: 1, len: 2 });
        h.emit_with(|| unreachable!("emit_with must not build when disabled"));
        h.flush();
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let h = SinkHandle::of(VecSink::new());
        h.emit(Event::Stall { cycle: 1, len: 150 });
        h.emit(Event::Stall { cycle: 9, len: 400 });
        // The handle owns the only reference; rebuild access via clone
        // semantics is exercised in the integration tests — here we just
        // check enablement.
        assert!(h.enabled());
    }

    #[test]
    fn ndjson_sink_writes_lines_and_snapshots() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut buf).with_snapshot_every(2);
            sink.record(Event::Stall { cycle: 1, len: 150 });
            sink.record(Event::Stall { cycle: 2, len: 151 });
            sink.record(Event::Stall { cycle: 3, len: 152 });
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 3 events + interval snapshot after #2 + final snapshot on drop.
        assert_eq!(lines.len(), 5, "{text}");
        let snap = Event::parse_line(lines[2]).unwrap();
        match snap {
            Event::Snapshot { events, counts } => {
                assert_eq!(events, 2);
                assert_eq!(counts, vec![("stall".to_string(), 2)]);
            }
            other => panic!("expected interval snapshot, got {other:?}"),
        }
        for line in lines {
            Event::parse_line(line).unwrap();
        }
    }

    #[test]
    fn short_run_still_ends_in_a_final_snapshot() {
        // Fewer events than the snapshot interval: the only snapshot is
        // the cumulative one written at close/drop.
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut buf).with_snapshot_every(1_000);
            sink.record(Event::Stall { cycle: 1, len: 150 });
            sink.record(Event::Stall { cycle: 2, len: 151 });
        }
        let text = String::from_utf8(buf).unwrap();
        let last = text.lines().last().expect("stream is non-empty");
        match Event::parse_line(last).unwrap() {
            Event::Snapshot { events, counts } => {
                assert_eq!(events, 2);
                assert_eq!(counts, vec![("stall".to_string(), 2)]);
            }
            other => panic!("expected final snapshot, got {other:?}"),
        }
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn exact_interval_multiple_does_not_duplicate_final_snapshot() {
        // events_seen lands exactly on the interval: the interval
        // snapshot doubles as the final one.
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut buf).with_snapshot_every(2);
            sink.record(Event::Stall { cycle: 1, len: 150 });
            sink.record(Event::Stall { cycle: 2, len: 151 });
        }
        let text = String::from_utf8(buf).unwrap();
        let snapshots = text
            .lines()
            .filter(|l| l.contains("\"type\":\"snapshot\""))
            .count();
        assert_eq!(snapshots, 1, "{text}");
    }

    #[test]
    fn close_is_idempotent_and_drop_adds_nothing_after() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = NdjsonSink::new(&mut buf).with_snapshot_every(1_000);
            sink.record(Event::Stall { cycle: 1, len: 150 });
            sink.close();
            sink.close();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
    }

    /// A writer that only exposes what was *flushed*, not what sits in
    /// the sink's internal buffer — the on-disk view after a crash of
    /// everything above the OS.
    #[derive(Clone, Default)]
    struct FlushSpy(Arc<Mutex<Vec<u8>>>);

    impl Write for FlushSpy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_after_close_are_flushed_on_drop() {
        // Regression: a cancelled server job can replay buffered events
        // into a sink whose final snapshot was already written. Those
        // trailing events must still hit the writer when the sink drops —
        // the old early-return in the closed path skipped the flush and
        // left a torn tail.
        let spy = FlushSpy::default();
        let bytes = Arc::clone(&spy.0);
        {
            let mut sink = NdjsonSink::new(spy).with_snapshot_every(1_000);
            sink.record(Event::Stall { cycle: 1, len: 10 });
            sink.close();
            sink.record(Event::Stall { cycle: 2, len: 20 });
        }
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // event, final snapshot (at close), then the post-close event.
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            Event::parse_line(line).unwrap();
        }
        assert_eq!(
            Event::parse_line(lines[2]).unwrap(),
            Event::Stall { cycle: 2, len: 20 }
        );
    }

    #[test]
    fn early_drop_without_close_leaves_complete_final_snapshot() {
        // The cancellation path drops the sink without a clean close();
        // the stream must still end in a parseable cumulative snapshot.
        let spy = FlushSpy::default();
        let bytes = Arc::clone(&spy.0);
        {
            let mut sink = NdjsonSink::new(spy).with_snapshot_every(1_000);
            for i in 0..7 {
                sink.record(Event::Stall { cycle: i, len: 100 });
            }
            // No close(): simulate a cancelled job's unwinding drop.
        }
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let last = text.lines().last().expect("stream is non-empty");
        match Event::parse_line(last).unwrap() {
            Event::Snapshot { events, counts } => {
                assert_eq!(events, 7);
                assert_eq!(counts, vec![("stall".to_string(), 7)]);
            }
            other => panic!("expected final snapshot, got {other:?}"),
        }
    }

    #[test]
    fn interval_snapshots_are_flushed_as_written() {
        // kill -9 leaves only flushed bytes: after crossing a snapshot
        // interval the flushed view must already end at that snapshot.
        let spy = FlushSpy::default();
        let bytes = Arc::clone(&spy.0);
        let mut sink = NdjsonSink::new(spy).with_snapshot_every(2);
        sink.record(Event::Stall { cycle: 1, len: 1 });
        sink.record(Event::Stall { cycle: 2, len: 2 });
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let last = text.lines().last().expect("interval snapshot flushed");
        assert!(
            matches!(
                Event::parse_line(last),
                Ok(Event::Snapshot { events: 2, .. })
            ),
            "{text}"
        );
        sink.close(); // keep the io path clean for the drop
    }

    #[test]
    fn empty_stream_gets_no_snapshot() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let _sink = NdjsonSink::new(&mut buf);
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn fanout_reaches_every_sink_in_order() {
        let a = Arc::new(Mutex::new(VecSink::new()));
        let b = Arc::new(Mutex::new(VecSink::new()));

        struct Tee(Arc<Mutex<VecSink>>);
        impl EventSink for Tee {
            fn record(&mut self, ev: Event) {
                self.0.lock().unwrap().record(ev);
            }
        }

        let mut fan = FanoutSink::new()
            .with(Tee(Arc::clone(&a)))
            .with(Tee(Arc::clone(&b)));
        assert_eq!(fan.len(), 2);
        fan.record(Event::Stall { cycle: 1, len: 2 });
        fan.record(Event::Stall { cycle: 3, len: 4 });
        fan.flush();
        for sink in [&a, &b] {
            let events = &sink.lock().unwrap().events;
            assert_eq!(events.len(), 2);
            assert_eq!(events[0], Event::Stall { cycle: 1, len: 2 });
        }
    }

    #[test]
    fn shared_handle_clones_reach_one_sink() {
        let sink: Arc<Mutex<dyn EventSink + Send>> = Arc::new(Mutex::new(VecSink::new()));
        let a = SinkHandle::shared(Arc::clone(&sink));
        let b = a.clone();
        a.emit(Event::Stall { cycle: 1, len: 1 });
        b.emit(Event::Stall { cycle: 2, len: 2 });
        drop((a, b));
        assert_eq!(Arc::strong_count(&sink), 1, "clones must not leak refs");
    }

    #[test]
    fn handle_crosses_threads() {
        let sink = Arc::new(Mutex::new(VecSink::new()));
        let h = SinkHandle::shared(sink.clone() as Arc<Mutex<dyn EventSink + Send>>);
        let worker = std::thread::spawn(move || {
            h.emit(Event::Stall { cycle: 3, len: 9 });
        });
        worker.join().unwrap();
        assert_eq!(sink.lock().unwrap().events.len(), 1);
    }
}
