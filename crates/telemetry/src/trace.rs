//! Request-scoped distributed tracing for the serve tier.
//!
//! The simulator already attributes every simulated stall cycle to a named
//! cause (the Algorithm-1 ledger); this module applies the same discipline
//! to the *serving* path: every millisecond of a request's wall time lands
//! in a named span, and the span tree reconciles against the measured
//! total. Three pieces:
//!
//! - **Ids and context propagation** ([`TraceCtx`], [`parse_traceparent`],
//!   [`format_traceparent`]): 128-bit trace ids and 64-bit span ids drawn
//!   from the audited [`prof::now_ns`] clock shim mixed through
//!   splitmix64, carried across processes in the W3C `traceparent` header
//!   format (`00-<32 hex>-<16 hex>-<2 hex>`). An incoming header is
//!   honored — the server continues the caller's trace — which is the
//!   contract a future sharded coordinator/worker tier needs.
//! - **Span recording** ([`SpanGuard`], [`TraceCtx::record_span`]): guards
//!   for phases that open and close in the serving code (a guard may cross
//!   threads: a job's `queue_wait` opens at admission and closes on the
//!   scheduler), explicit timestamped records for the worker-pool cells.
//!   [`SpanGuard::close`] hands back the duration the trace records, so a
//!   caller that also keeps a histogram of the phase feeds it from the
//!   same two timestamps. Timing uses [`prof::now_ns`] exclusively, so
//!   rule D2 keeps its single-shim guarantee.
//! - **The flight recorder** ([`FlightRecorder`]): a bounded ring of the
//!   last N completed traces, with error/backpressure/cancel traces pinned
//!   in a separate ring so a burst of healthy traffic cannot evict the
//!   evidence of the one request that failed. A writer claims its slot with
//!   a `fetch_add` and swaps one `Arc` pointer under the slot's mutex, so
//!   the publish path never allocates.
//!
//! A completed trace renders as JSON for the `/debug/traces` endpoints and
//! as a Chrome trace-event document (reusing [`crate::traceevent`]'s slice
//! constructors) for `chrome://tracing`/Perfetto. [`CompletedTrace::reconcile`]
//! is the wall-time sibling of the stall ledger's reconciliation line: for
//! every span, the durations of its direct children must fit inside it,
//! and the root's uncovered residue is reported as a fraction callers can
//! alert on.

use crate::json::Json;
use crate::prof;
use crate::traceevent;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The W3C `trace-flags` bit meaning "this trace is sampled".
pub const FLAG_SAMPLED: u8 = 0x01;

/// Lock helper for the span buffer and the recorder slots: a poisoned
/// mutex yields its guard (each critical section is a single write; no
/// invariant spans a panic).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Host time for span bounds and ids. Spans and ids are host-side
/// records; no `Event` or `SimResult` field is built from them.
#[expect(clippy::disallowed_methods, reason = "D9: spans measure host time")]
fn host_ns() -> u64 {
    prof::now_ns()
}

// ---------------------------------------------------------------------------
// Id generation
// ---------------------------------------------------------------------------

/// splitmix64: the standard 64-bit finalizer-style mixer. Statistically
/// strong enough for id generation and fully deterministic in its inputs
/// (the audited clock plus a process-local sequence number).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Process-local sequence so two ids drawn in the same nanosecond differ.
static SEQ: AtomicU64 = AtomicU64::new(1);

/// A fresh non-zero 64-bit span id.
pub fn next_span_id() -> u64 {
    loop {
        let seq = SEQ.fetch_add(1, Ordering::SeqCst);
        let id = splitmix64(host_ns() ^ splitmix64(seq));
        if id != 0 {
            return id;
        }
    }
}

/// A fresh non-zero 128-bit trace id (two independent span-id draws).
pub fn next_trace_id() -> u128 {
    // The high half is non-zero by construction, so the whole id is.
    (u128::from(next_span_id()) << 64) | u128::from(next_span_id())
}

// ---------------------------------------------------------------------------
// W3C traceparent
// ---------------------------------------------------------------------------

/// Render a `traceparent` header value: version 00, lowercase hex.
pub fn format_traceparent(trace_id: u128, span_id: u64, flags: u8) -> String {
    format!("00-{trace_id:032x}-{span_id:016x}-{flags:02x}")
}

/// Strict lowercase-hex field parse; `None` on any other byte or on a
/// length mismatch with `want` digits.
fn hex_field(s: &str, want: usize) -> Option<u128> {
    if s.len() != want || !s.is_ascii() {
        return None;
    }
    let mut v: u128 = 0;
    for b in s.bytes() {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            // Uppercase hex is explicitly invalid per the W3C spec.
            _ => return None,
        };
        v = (v << 4) | u128::from(d);
    }
    Some(v)
}

/// Parse a `traceparent` header value into `(trace_id, parent_span_id,
/// flags)`. Rejects everything the W3C grammar rejects: wrong field
/// count/lengths, uppercase or non-hex digits, the unknown version `ff`,
/// and all-zero trace or span ids. Version `00` is required (this server
/// does not forward unknown future versions).
pub fn parse_traceparent(raw: &str) -> Option<(u128, u64, u8)> {
    let mut parts = raw.trim().split('-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let parent = parts.next()?;
    let flags = parts.next()?;
    if parts.next().is_some() || version != "00" {
        return None;
    }
    let trace_id = hex_field(trace, 32)?;
    let parent_id = hex_field(parent, 16)?;
    let flags = hex_field(flags, 2)?;
    if trace_id == 0 || parent_id == 0 {
        return None;
    }
    // Field widths above bound both casts.
    #[allow(clippy::cast_possible_truncation)]
    Some((trace_id, parent_id as u64, flags as u8))
}

// ---------------------------------------------------------------------------
// Spans and the in-flight trace
// ---------------------------------------------------------------------------

/// One finished span inside a trace.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Phase name (`parse`, `queue_wait`, `run(cell=1,2)`, ...).
    pub name: String,
    /// This span's id.
    pub id: u64,
    /// Parent span id (the root's parent is the propagated upstream span,
    /// or 0 when the trace started here).
    pub parent: u64,
    /// Start, [`prof::now_ns`] timebase.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form annotations (`status`, `lines`, job ids, ...).
    pub tags: Vec<(String, String)>,
}

struct TraceInner {
    trace_id: u128,
    root: u64,
    /// Parent span the trace inherited from an incoming `traceparent`
    /// (0 when the trace originated here).
    upstream: u64,
    name: String,
    start_ns: u64,
    status: AtomicU64,
    pinned: AtomicBool,
    /// Set when a long-lived owner (a queued job) takes over completion,
    /// so the request handler must not finish the trace itself.
    adopted: AtomicBool,
    spans: Mutex<Vec<SpanRec>>,
}

/// A handle into an in-flight trace: the shared span buffer plus the span
/// id new children should attach under. Clones share the buffer; `parent`
/// is per-handle, which is how the context "moves down" the tree.
#[derive(Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
    /// Span id children of this handle attach to.
    pub parent: u64,
}

impl TraceCtx {
    /// Open a trace. With `inherited` (a parsed `traceparent`), the new
    /// root continues the caller's trace under the caller's span;
    /// otherwise fresh ids are drawn. The root span is recorded when the
    /// trace finishes.
    pub fn begin(name: &str, inherited: Option<(u128, u64, u8)>) -> TraceCtx {
        Self::begin_at(name, inherited, host_ns())
    }

    /// [`TraceCtx::begin`] with an explicit root start time — for callers
    /// that read the clock before the request name was known (the server
    /// stamps `start_ns` before reading the socket, so the root span
    /// covers the read).
    pub fn begin_at(name: &str, inherited: Option<(u128, u64, u8)>, start_ns: u64) -> TraceCtx {
        let (trace_id, upstream) = match inherited {
            Some((t, p, _flags)) => (t, p),
            None => (next_trace_id(), 0),
        };
        let root = next_span_id();
        let inner = TraceInner {
            trace_id,
            root,
            upstream,
            name: name.to_string(),
            start_ns,
            status: AtomicU64::new(0),
            pinned: AtomicBool::new(false),
            adopted: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(8)),
        };
        TraceCtx {
            inner: Arc::new(inner),
            parent: root,
        }
    }

    /// The id of the root span.
    pub fn root_span(&self) -> u64 {
        self.inner.root
    }

    /// A handle on the same trace whose children attach directly under
    /// the root span — for long-lived phases (queue wait, run) that
    /// outlive the sub-span the trace was handed over from.
    pub fn at_root(&self) -> TraceCtx {
        TraceCtx {
            inner: Arc::clone(&self.inner),
            parent: self.inner.root,
        }
    }

    /// 32-lowercase-hex form of the trace id.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.inner.trace_id)
    }

    /// Record the final status (HTTP status code, or the job-outcome
    /// mapping the serve tier uses). A status of 400 or above pins the
    /// trace for preferential retention (errors, 429s, deadline kills,
    /// cancellations).
    pub fn set_status(&self, status: u16) {
        self.inner.status.store(u64::from(status), Ordering::SeqCst);
        if status >= 400 {
            self.inner.pinned.store(true, Ordering::SeqCst);
        }
    }

    /// Hand completion duty to a longer-lived owner (a submitted job).
    /// The request handler checks [`TraceCtx::adopted`] before finishing.
    pub fn adopt(&self) {
        self.inner.adopted.store(true, Ordering::SeqCst);
    }

    /// Whether a longer-lived owner will finish this trace.
    pub fn adopted(&self) -> bool {
        self.inner.adopted.load(Ordering::SeqCst)
    }

    /// Start a child span under this handle; the span closes (and is
    /// recorded) when the guard drops.
    pub fn child(&self, name: &str) -> SpanGuard {
        SpanGuard {
            ctx: TraceCtx {
                inner: Arc::clone(&self.inner),
                parent: next_span_id(),
            },
            attach_to: self.parent,
            name: name.to_string(),
            start_ns: host_ns(),
            end_ns: None,
            tags: Vec::new(),
        }
    }

    /// Record a span from explicit timestamps — the form used for spans
    /// timed elsewhere (worker-pool cells, the request parse that precedes
    /// the context). Returns the new span's id so callers can parent
    /// further records under it.
    pub fn record_span(
        &self,
        name: &str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        tags: Vec<(String, String)>,
    ) -> u64 {
        let id = next_span_id();
        self.record_span_with_id(id, name, parent, start_ns, end_ns, tags);
        id
    }

    fn record_span_with_id(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        tags: Vec<(String, String)>,
    ) {
        lock(&self.inner.spans).push(SpanRec {
            name: name.to_string(),
            id,
            parent,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            tags,
        });
    }

    /// Close the trace: record the root span, freeze the span list, and
    /// publish the completed trace to `recorder`. Returns the completed
    /// trace so the caller can run the reconciliation invariant or log a
    /// summary. Idempotent via [`TraceCtx::adopted`] conventions at the
    /// call sites (each trace has exactly one finisher).
    pub fn finish(&self, recorder: &FlightRecorder) -> Arc<CompletedTrace> {
        let end_ns = host_ns();
        let status_raw = self.inner.status.load(Ordering::SeqCst);
        // Stored from a u16; the min guard keeps the cast total anyway.
        #[allow(clippy::cast_possible_truncation)]
        let status = status_raw.min(u64::from(u16::MAX)) as u16;
        let mut spans = std::mem::take(&mut *lock(&self.inner.spans));
        spans.push(SpanRec {
            name: "request".to_string(),
            id: self.inner.root,
            parent: self.inner.upstream,
            start_ns: self.inner.start_ns,
            dur_ns: end_ns.saturating_sub(self.inner.start_ns),
            tags: Vec::new(),
        });
        spans.sort_by_key(|s| s.start_ns);
        let done = Arc::new(CompletedTrace {
            trace_id: self.inner.trace_id,
            root: self.inner.root,
            name: self.inner.name.clone(),
            status,
            pinned: self.inner.pinned.load(Ordering::SeqCst),
            start_ns: self.inner.start_ns,
            dur_ns: end_ns.saturating_sub(self.inner.start_ns),
            spans,
        });
        recorder.push(Arc::clone(&done));
        done
    }
}

/// RAII child span: times `name` from construction to [`SpanGuard::close`]
/// or drop, then records it into the trace.
pub struct SpanGuard {
    ctx: TraceCtx,
    attach_to: u64,
    name: String,
    start_ns: u64,
    /// Set by [`SpanGuard::close`]; a dropped guard ends when it drops.
    end_ns: Option<u64>,
    tags: Vec<(String, String)>,
}

impl SpanGuard {
    /// The phase name this span records under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Close the span now and return its duration in nanoseconds — the
    /// `dur_ns` the trace records for it.
    pub fn close(mut self) -> u64 {
        let end_ns = host_ns();
        self.end_ns = Some(end_ns);
        end_ns.saturating_sub(self.start_ns)
    }

    /// A context whose children attach under this span — pass it down to
    /// nest further work inside the guarded phase.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx.clone()
    }

    /// Attach a key/value annotation.
    pub fn tag(&mut self, key: &str, value: impl ToString) {
        self.tags.push((key.to_string(), value.to_string()));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.ctx.record_span_with_id(
            self.ctx.parent,
            &self.name,
            self.attach_to,
            self.start_ns,
            self.end_ns.unwrap_or_else(host_ns),
            std::mem::take(&mut self.tags),
        );
    }
}

// ---------------------------------------------------------------------------
// Completed traces
// ---------------------------------------------------------------------------

/// A finished trace: the immutable record the flight recorder retains and
/// the `/debug/traces` endpoints serve.
#[derive(Clone, Debug)]
pub struct CompletedTrace {
    /// 128-bit trace id (possibly inherited from upstream).
    pub trace_id: u128,
    /// Root span id.
    pub root: u64,
    /// Request name, e.g. `POST /jobs`.
    pub name: String,
    /// Final status (HTTP code; job outcomes use the serve tier's
    /// mapping: done→200, cancelled→499, failed→500).
    pub status: u16,
    /// Whether this trace is retained preferentially.
    pub pinned: bool,
    /// Root start, [`prof::now_ns`] timebase.
    pub start_ns: u64,
    /// Root duration in nanoseconds — the request's wall time.
    pub dur_ns: u64,
    /// Every span including the root, sorted by start time.
    pub spans: Vec<SpanRec>,
}

/// The wall-time reconciliation report for one trace.
#[derive(Clone, Copy, Debug)]
pub struct Reconciliation {
    /// Root span duration (request wall time), ns.
    pub root_dur_ns: u64,
    /// Sum of the root's direct children durations, ns.
    pub children_dur_ns: u64,
    /// `(root - children) / root`: the wall time no child span explains.
    /// Negative means the children overlap or overrun the root.
    pub residue_frac: f64,
    /// True when some span's direct children sum past the span itself —
    /// the tree double-books time and the instrumentation is wrong.
    pub overrun: bool,
}

impl CompletedTrace {
    /// 32-lowercase-hex form of the trace id (the `/debug/traces/:id`
    /// path segment).
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }

    /// Check the span tree against the measured wall time: for every
    /// span, its direct children's durations must sum to no more than its
    /// own (one-retirement-head rule: the serve phases are sequential),
    /// and the root residue is reported for alerting. The 0.1% slack per
    /// comparison absorbs clock-read granularity at span edges.
    pub fn reconcile(&self) -> Reconciliation {
        let mut overrun = false;
        let mut root_children: u64 = 0;
        for parent in &self.spans {
            let covered: u64 = self
                .spans
                .iter()
                .filter(|s| s.parent == parent.id && s.id != parent.id)
                .map(|s| s.dur_ns)
                .sum();
            if parent.id == self.root {
                root_children = covered;
            }
            let slack = parent.dur_ns / 1000 + 50_000;
            if covered > parent.dur_ns.saturating_add(slack) {
                overrun = true;
            }
        }
        let root = self.dur_ns.max(1) as f64;
        Reconciliation {
            root_dur_ns: self.dur_ns,
            children_dur_ns: root_children,
            residue_frac: (self.dur_ns as f64 - root_children as f64) / root,
            overrun,
        }
    }

    /// Duration of the first span with `name`, if present (the access log
    /// reads the serve phases out of completed traces).
    pub fn span_dur_ns(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.dur_ns)
    }

    /// Full JSON document: summary fields plus the span tree. Span and
    /// parent ids render as 16-hex strings (u64 does not survive an f64
    /// JSON number), times as integer microseconds relative to the root.
    pub fn to_json(&self) -> Json {
        let recon = self.reconcile();
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("id".to_string(), Json::Str(format!("{:016x}", s.id))),
                    (
                        "parent".to_string(),
                        Json::Str(format!("{:016x}", s.parent)),
                    ),
                    (
                        "start_us".to_string(),
                        Json::Num(ns_to_us(s.start_ns.saturating_sub(self.start_ns)) as f64),
                    ),
                    ("dur_us".to_string(), Json::Num(ns_to_us(s.dur_ns) as f64)),
                ];
                if !s.tags.is_empty() {
                    pairs.push((
                        "tags".to_string(),
                        Json::Obj(
                            s.tags
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ));
                }
                Json::Obj(pairs)
            })
            .collect();
        Json::Obj(vec![
            ("trace_id".to_string(), Json::Str(self.trace_id_hex())),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("status".to_string(), Json::Num(f64::from(self.status))),
            ("pinned".to_string(), Json::Bool(self.pinned)),
            ("start_ns".to_string(), Json::Num(self.start_ns as f64)),
            (
                "dur_us".to_string(),
                Json::Num(ns_to_us(self.dur_ns) as f64),
            ),
            (
                "residue_pct".to_string(),
                Json::Num(recon.residue_frac * 100.0),
            ),
            ("spans".to_string(), Json::Arr(spans)),
        ])
    }

    /// Chrome trace-event document for this one trace: every span becomes
    /// a complete ("X") slice on one process/thread row, microsecond
    /// timestamps relative to the root — loadable directly in
    /// `chrome://tracing`/Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events = vec![traceevent::name_event(
            "process_name",
            1,
            0,
            &format!("{} [{}]", self.name, self.trace_id_hex()),
        )];
        events.extend(self.spans.iter().map(|s| {
            traceevent::complete_event(
                &s.name,
                ns_to_us(s.start_ns.saturating_sub(self.start_ns)),
                ns_to_us(s.dur_ns),
                1,
                0,
                s.tags
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            )
        }));
        Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))])
    }
}

fn ns_to_us(ns: u64) -> u64 {
    ns / 1000
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One recorder slot. The lock is held only across a pointer move
/// (publish) or an `Arc` clone (snapshot), once per completed request.
type Slot = Mutex<Option<Arc<CompletedTrace>>>;

/// A fixed-capacity overwrite-oldest ring of completed traces.
struct Ring {
    slots: Vec<Slot>,
    cursor: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn push(&self, trace: Arc<CompletedTrace>) {
        let idx = self.cursor.fetch_add(1, Ordering::SeqCst) % self.slots.len();
        if let Some(slot) = self.slots.get(idx) {
            // The old occupant's Arc drops outside the guard.
            let _evicted = lock(slot).replace(trace);
        }
    }

    fn snapshot_into(&self, out: &mut Vec<Arc<CompletedTrace>>) {
        for slot in &self.slots {
            let occupant = lock(slot).clone();
            if let Some(t) = occupant {
                out.push(t);
            }
        }
    }
}

/// The in-memory flight recorder: the most recent completed traces plus
/// a separate pinned ring for error/429/deadline/
/// cancel traces, so failures survive a burst of healthy traffic. Total
/// retention never exceeds the sum of the two capacities.
pub struct FlightRecorder {
    recent: Ring,
    pinned: Ring,
}

/// Default retention of healthy traces.
pub const DEFAULT_RECENT_TRACES: usize = 64;
/// Default retention of pinned (error) traces.
pub const DEFAULT_PINNED_TRACES: usize = 32;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RECENT_TRACES, DEFAULT_PINNED_TRACES)
    }
}

impl FlightRecorder {
    /// A recorder retaining up to `recent` healthy and `pinned` error
    /// traces (each clamped to at least one slot).
    pub fn new(recent: usize, pinned: usize) -> FlightRecorder {
        FlightRecorder {
            recent: Ring::new(recent),
            pinned: Ring::new(pinned),
        }
    }

    /// Publish one completed trace (called once per finished trace; the
    /// hot path is a cursor `fetch_add` plus one pointer exchange).
    pub fn push(&self, trace: Arc<CompletedTrace>) {
        if trace.pinned {
            self.pinned.push(trace);
        } else {
            self.recent.push(trace);
        }
    }

    /// Every retained trace, newest first (pinned and recent merged).
    pub fn snapshot(&self) -> Vec<Arc<CompletedTrace>> {
        let mut out = Vec::with_capacity(self.recent.slots.len() + self.pinned.slots.len());
        self.recent.snapshot_into(&mut out);
        self.pinned.snapshot_into(&mut out);
        out.sort_by(|a, b| {
            b.start_ns
                .cmp(&a.start_ns)
                .then(a.trace_id.cmp(&b.trace_id))
        });
        out
    }

    /// Look one trace up by id.
    pub fn find(&self, trace_id: u128) -> Option<Arc<CompletedTrace>> {
        self.snapshot().into_iter().find(|t| t.trace_id == trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let s1 = next_span_id();
        let s2 = next_span_id();
        assert_ne!(s1, 0);
        assert_ne!(s1, s2);
    }

    #[test]
    fn traceparent_formats_and_parses() {
        let tp = format_traceparent(0xabc_d123, 0x42, FLAG_SAMPLED);
        assert_eq!(
            tp,
            "00-0000000000000000000000000abcd123-0000000000000042-01"
        );
        assert_eq!(parse_traceparent(&tp), Some((0xabc_d123, 0x42, 1)));
    }

    #[test]
    fn traceparent_rejects_malformed_values() {
        for bad in [
            "",
            "00",
            "00-00000000000000000000000000000000-0000000000000001-01", // zero trace id
            "00-00000000000000000000000000000001-0000000000000000-01", // zero span id
            "00-0000000000000000000000000ABCD123-0000000000000042-01", // uppercase
            "01-0000000000000000000000000abcd123-0000000000000042-01", // wrong version
            "00-0abcd123-0000000000000042-01",                         // short trace id
            "00-0000000000000000000000000abcd123-42-01",               // short span id
            "00-0000000000000000000000000abcd123-0000000000000042-1",  // short flags
            "00-0000000000000000000000000abcd123-0000000000000042-01-extra",
            "00-0000000000000000000000000abcdx23-0000000000000042-01", // non-hex
        ] {
            assert_eq!(parse_traceparent(bad), None, "{bad:?} should be rejected");
        }
    }

    #[test]
    fn span_guard_records_nested_spans() {
        let ctx = TraceCtx::begin("GET /x", None);
        let parent_id;
        {
            let outer = ctx.child("outer");
            parent_id = outer.ctx().parent;
            {
                let mut inner = outer.ctx().child("inner");
                inner.tag("k", "v");
            }
        }
        let rec = FlightRecorder::new(4, 4);
        ctx.set_status(200);
        let done = ctx.finish(&rec);
        assert_eq!(done.spans.len(), 3, "outer + inner + root");
        let inner = done
            .spans
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span recorded");
        assert_eq!(inner.parent, parent_id);
        assert_eq!(inner.tags, vec![("k".to_string(), "v".to_string())]);
        let recon = done.reconcile();
        assert!(!recon.overrun, "{recon:?}");
    }

    #[test]
    fn closed_span_records_the_duration_it_returns() {
        let ctx = TraceCtx::begin("POST /jobs", None);
        let span = ctx.child("queue_wait");
        assert_eq!(span.name(), "queue_wait");
        let dur_ns = span.close();
        let done = ctx.finish(&FlightRecorder::new(2, 2));
        assert_eq!(done.span_dur_ns("queue_wait"), Some(dur_ns));
    }

    #[test]
    fn inherited_context_keeps_the_upstream_ids() {
        let tp = format_traceparent(7, 9, 1);
        let parsed = parse_traceparent(&tp);
        let ctx = TraceCtx::begin("POST /jobs", parsed);
        let rec = FlightRecorder::new(2, 2);
        let done = ctx.finish(&rec);
        assert_eq!(done.trace_id, 7);
        let root = done
            .spans
            .iter()
            .find(|s| s.id == done.root)
            .expect("root span present");
        assert_eq!(root.parent, 9, "root attaches under the upstream span");
    }

    #[test]
    fn recorder_wraps_without_exceeding_capacity_and_keeps_pinned() {
        let rec = FlightRecorder::new(4, 2);
        // 20 healthy traces (wraps the 4-slot ring five times) with two
        // pinned failures early on.
        for i in 0..20u16 {
            let ctx = TraceCtx::begin(&format!("req {i}"), None);
            ctx.set_status(if i < 2 { 500 } else { 200 });
            ctx.finish(&rec);
        }
        let snap = rec.snapshot();
        assert!(snap.len() <= 4 + 2, "{} traces retained", snap.len());
        let pinned: Vec<_> = snap.iter().filter(|t| t.pinned).collect();
        assert_eq!(pinned.len(), 2, "both early failures survive wraparound");
        assert!(pinned.iter().all(|t| t.status == 500));
        // The healthy ring holds exactly its capacity after wrapping.
        assert_eq!(snap.iter().filter(|t| !t.pinned).count(), 4);
    }

    #[test]
    fn recorder_find_returns_the_full_trace() {
        let rec = FlightRecorder::default();
        let ctx = TraceCtx::begin("GET /y", None);
        let id = ctx.inner.trace_id;
        ctx.set_status(200);
        ctx.finish(&rec);
        let found = rec.find(id).expect("trace retained");
        assert_eq!(found.name, "GET /y");
        assert!(rec.find(id.wrapping_add(1)).is_none());
    }

    #[test]
    fn concurrent_pushes_and_snapshots_stay_within_capacity() {
        let rec = Arc::new(FlightRecorder::new(8, 4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let ctx = TraceCtx::begin(&format!("t{t} r{i}"), None);
                    ctx.set_status(if i % 50 == 0 { 429 } else { 200 });
                    ctx.finish(&rec);
                    if i % 17 == 0 {
                        let snap = rec.snapshot();
                        assert!(snap.len() <= 12, "snapshot grew past capacity");
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        assert!(rec.snapshot().len() <= 12);
    }

    #[test]
    fn chrome_export_is_a_trace_event_document() {
        let ctx = TraceCtx::begin("POST /jobs", None);
        {
            let _g = ctx.child("parse");
        }
        let rec = FlightRecorder::new(2, 2);
        let done = ctx.finish(&rec);
        let doc = done.to_chrome_trace();
        let events = doc.get("traceEvents").expect("traceEvents key");
        let Json::Arr(evs) = events else {
            panic!("traceEvents must be an array");
        };
        // process_name metadata + parse span + root span.
        assert_eq!(evs.len(), 3);
        assert!(doc.to_string_compact().contains("\"ph\":\"X\""));
    }

    #[test]
    fn reconcile_flags_overbooked_trees() {
        let t = CompletedTrace {
            trace_id: 1,
            root: 10,
            name: "x".into(),
            status: 200,
            pinned: false,
            start_ns: 0,
            dur_ns: 1_000_000,
            spans: vec![
                SpanRec {
                    name: "request".into(),
                    id: 10,
                    parent: 0,
                    start_ns: 0,
                    dur_ns: 1_000_000,
                    tags: vec![],
                },
                SpanRec {
                    name: "a".into(),
                    id: 11,
                    parent: 10,
                    start_ns: 0,
                    dur_ns: 900_000,
                    tags: vec![],
                },
                SpanRec {
                    name: "b".into(),
                    id: 12,
                    parent: 10,
                    start_ns: 0,
                    dur_ns: 900_000,
                    tags: vec![],
                },
            ],
        };
        let recon = t.reconcile();
        assert!(recon.overrun, "children double-book the root");
        assert!(recon.residue_frac < 0.0);
    }

    #[test]
    fn publish_path_is_cheap() {
        // The ≤2% overhead claim for the serve hot path: a full
        // trace lifecycle (begin, three spans, finish/publish) must cost
        // microseconds, i.e. well under 2% of even a 1 ms request.
        let rec = FlightRecorder::default();
        let iters = 2_000u32;
        let t0 = host_ns();
        for i in 0..iters {
            let ctx = TraceCtx::begin("bench", None);
            {
                let _a = ctx.child("parse");
            }
            {
                let _b = ctx.child("admission");
            }
            ctx.record_span("queue_wait", ctx.root_span(), 0, 100, Vec::new());
            ctx.set_status(if i % 2 == 0 { 200 } else { 500 });
            ctx.finish(&rec);
        }
        let per_trace_ns = host_ns().saturating_sub(t0) / u64::from(iters);
        assert!(
            per_trace_ns < 20_000,
            "tracing a request costs {per_trace_ns} ns — more than 2% of a 1 ms request"
        );
    }
}
