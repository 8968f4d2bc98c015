//! The HTTP front end and the single-job scheduler.
//!
//! Threading model: one accept loop (nonblocking, polling the shutdown
//! flag), one connection thread per accepted socket (requests are tiny;
//! `Connection: close`), one scheduler thread executing jobs strictly in
//! admission order (a job may itself fan out over the worker pool via its
//! spec's `jobs` field), plus a short-lived watchdog thread per deadlined
//! job.
//!
//! API surface (all responses `Connection: close`):
//!
//! | route | effect |
//! |---|---|
//! | `POST /jobs` | admit a spec → `201 {"id":N,"state":"queued"}`, `400` bad spec, `429` + `Retry-After` full, `503` draining |
//! | `GET /jobs` | all jobs, id order |
//! | `GET /jobs/:id` | one job's status document |
//! | `GET /jobs/:id/events` | chunked NDJSON live telemetry (ends when the job is terminal) |
//! | `GET /jobs/:id/result` | the report text (`404` until done) |
//! | `POST /jobs/:id/cancel` | cancel queued/running job (idempotent) |
//! | `POST /estimate` | score a spec's grid with the analytical model (no simulation; `"model":true` in the body) |
//! | `POST /drain` | stop admitting; finish the running job; exit |
//! | `GET /healthz` | `200 ok` (`503` when draining) |
//! | `GET /metrics` | Prometheus text exposition 0.0.4: counters, gauges, latency histograms |

use crate::http::{self, ChunkedWriter, HttpError, Request};
use crate::journal::{JobStatus, Journal};
use crate::log;
use crate::state::{EventLog, LogSink, State, SubmitError};
use mlpsim_exec::CancelToken;
use mlpsim_experiments::jobspec::{prune_margin_from_json, JobSpec};
use mlpsim_experiments::CellSpanSink;
use mlpsim_telemetry::trace::{self, TraceCtx};
use mlpsim_telemetry::{Json, SinkHandle};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Everything the server needs to start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Journal + result files live here (created if absent).
    pub data_dir: PathBuf,
    /// Bounded admission queue length; `0` rejects every submit with 429.
    pub queue_capacity: usize,
    /// Seconds advertised in `Retry-After` on 429.
    pub retry_after_secs: u64,
    /// Read timeout armed on every accepted socket (rule D6).
    pub read_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: PathBuf::from("mlpsim-serve-data"),
            queue_capacity: 64,
            retry_after_secs: 1,
            read_timeout_ms: 5_000,
        }
    }
}

/// A running server: listener bound, journal recovered, scheduler live.
pub struct Server {
    state: Arc<State>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    cfg: ServerConfig,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Recover the journal, re-enqueue unfinished jobs, bind the listener,
    /// and start the scheduler. `serve` must be called to accept traffic.
    ///
    /// # Errors
    ///
    /// Bind/journal failures, or a journal that no longer parses.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&cfg.data_dir)
            .map_err(|e| format!("cannot create data dir {}: {e}", cfg.data_dir.display()))?;
        let journal_path = cfg.data_dir.join("journal.ndjson");
        let recovered = Journal::recover(&journal_path)?;
        if recovered.torn_tail {
            log::server_event(
                None,
                "journal_torn_tail",
                &format!(
                    "journal {} had a torn final line (crash mid-append); dropped it",
                    journal_path.display()
                ),
            );
        }
        let pending = recovered.pending().len();
        if pending > 0 {
            log::server_event(
                None,
                "journal_recovered",
                &format!("recovered {pending} unfinished job(s); re-enqueued in id order"),
            );
        }
        let journal = Journal::open(&journal_path)
            .map_err(|e| format!("cannot open journal {}: {e}", journal_path.display()))?;
        let state =
            State::from_recovered(recovered, journal, cfg.data_dir.clone(), cfg.queue_capacity)?;
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let scheduler = {
            let state = Arc::clone(&state);
            thread::spawn(move || scheduler_loop(&state))
        };
        Ok(Server {
            state,
            listener,
            shutdown,
            cfg,
            scheduler: Some(scheduler),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag external code (signal handlers, tests) may set to stop the
    /// accept loop and begin the graceful drain.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared state (tests submit/inspect through it directly).
    pub fn state(&self) -> Arc<State> {
        Arc::clone(&self.state)
    }

    /// Accept connections until the shutdown flag rises (via signal,
    /// `POST /drain`, or `shutdown_handle`), then drain: the running job
    /// finishes and is journaled; queued jobs stay journaled for the next
    /// boot. Returns once the scheduler has exited.
    pub fn serve(mut self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match http::accept(&self.listener, self.cfg.read_timeout_ms) {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    let shutdown = Arc::clone(&self.shutdown);
                    let cfg = self.cfg.clone();
                    thread::spawn(move || handle_connection(stream, &state, &shutdown, &cfg));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    log::server_event(None, "accept_failed", &format!("accept failed: {e}"));
                    thread::sleep(Duration::from_millis(10));
                }
            }
        }
        // Graceful drain: no new admissions, scheduler stops after the
        // in-flight job (its terminal op is journaled by `finish`).
        self.state.begin_drain();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

/// Execute jobs strictly in admission order until drain.
fn scheduler_loop(state: &Arc<State>) {
    while let Some((id, spec, log, token, trace)) = state.take_next() {
        let outcome = execute(state, &spec, &log, &token, &trace);
        state.finish(id, outcome);
    }
}

/// Run one job: wire its telemetry to the event log, arm the deadline
/// watchdog, execute through the shared `figures` run path. The whole
/// execution is a `run` span under the job's root, and every matrix cell
/// a `run(cell=i,j)` child under it (timed on the worker threads via the
/// exec span hook).
fn execute(
    state: &State,
    spec: &JobSpec,
    log: &Arc<EventLog>,
    token: &CancelToken,
    trace: &TraceCtx,
) -> Result<String, JobStatus> {
    let _watchdog = spec.deadline_ms.map(|ms| {
        let token = token.clone();
        let log = Arc::clone(log);
        thread::spawn(move || {
            let deadline = crate::host_ns().saturating_add(ms.saturating_mul(1_000_000));
            // Poll in short chunks so a finished job releases the thread
            // promptly (the log closes when the job reaches a terminal
            // state).
            while crate::host_ns() < deadline {
                if log.is_done() {
                    return;
                }
                thread::sleep(Duration::from_millis(20));
            }
            token.cancel();
        })
    });
    let telemetry = SinkHandle::of(LogSink(Arc::clone(log)));
    let run = trace.child("run");
    let ctx = run.ctx();
    let cell_spans = CellSpanSink(Arc::new(move |row, col, t0, t1| {
        ctx.record_span(
            &format!("run(cell={row},{col})"),
            ctx.parent,
            t0,
            t1,
            Vec::new(),
        );
    }));
    let result = spec.run_traced(telemetry, token, Some(cell_spans));
    state.close_span(run);
    match result {
        // A fired token always reports Cancelled, even if the sweep
        // happened to finish first — the client asked for it to stop.
        Ok(_) if token.is_cancelled() => Err(JobStatus::Cancelled),
        Ok(report) => Ok(report),
        Err(_cancelled) => Err(JobStatus::Cancelled),
    }
}

/// The panic boundary for one connection (rule D8): a panic anywhere in
/// `handle` becomes a 500 on the connection and a `handler_panicked` log
/// line, instead of a silently dropped socket. The crate denies the panic
/// sinks clippy can see; this catches the rest (indexing in a dependency,
/// an overflow, a debug-build lock-order check).
fn panic_boundary(stream: &mut TcpStream, handle: impl FnOnce(&mut TcpStream)) {
    if panic::catch_unwind(AssertUnwindSafe(|| handle(stream))).is_err() {
        log::server_event(None, "handler_panicked", "a request handler panicked");
        let _ = respond_json(
            stream,
            500,
            &err_json("internal error: the handler panicked"),
        );
    }
}

/// One request per connection, behind the panic boundary.
fn handle_connection(
    mut stream: TcpStream,
    state: &Arc<State>,
    shutdown: &Arc<AtomicBool>,
    cfg: &ServerConfig,
) {
    panic_boundary(&mut stream, |stream| {
        serve_request(stream, state, shutdown, cfg);
    });
}

/// Answers the connection's one request. Every request gets a [`TraceCtx`] —
/// continuing the caller's trace when a W3C `traceparent` header came in,
/// fresh otherwise — whose root span covers the whole exchange. The
/// handler finishes the trace unless a submitted job adopted it (then the
/// trace runs until the job is terminal); either way one structured
/// access-log line goes to stderr here.
fn serve_request(
    stream: &mut TcpStream,
    state: &Arc<State>,
    shutdown: &Arc<AtomicBool>,
    cfg: &ServerConfig,
) {
    state.count("http_requests_total");
    let t0_ns = crate::host_ns();
    let req = match http::read_request(stream) {
        Ok(req) => req,
        Err(HttpError::TooLarge) => {
            let _ = respond_json(stream, 413, &err_json("request body too large"));
            finish_rejected(state, t0_ns, 413);
            return;
        }
        Err(HttpError::Malformed(m)) => {
            let _ = respond_json(stream, 400, &err_json(&m));
            finish_rejected(state, t0_ns, 400);
            return;
        }
        Err(HttpError::Io(_)) => return, // stalled or vanished client
    };
    let inherited = req.header("traceparent").and_then(trace::parse_traceparent);
    let name = format!("{} {}", req.method, req.path);
    let ctx = TraceCtx::begin_at(&name, inherited, t0_ns);
    // The socket read + header/body parse happened before the context
    // could exist; record it retroactively as the first child span.
    ctx.record_span(
        "parse",
        ctx.root_span(),
        t0_ns,
        crate::host_ns(),
        Vec::new(),
    );
    // A write error means the client went away mid-response: 499.
    let status = route(stream, &req, state, &ctx, shutdown, cfg).unwrap_or(499);
    let dur_us = crate::host_ns().saturating_sub(t0_ns) / 1000;
    state.observe(|h| &mut h.http_request_duration_us, dur_us);
    if ctx.adopted() {
        // A job owns the trace now; log the HTTP exchange itself here
        // (the job's completion line comes later with the phase times).
        log::access(&ctx.trace_id_hex(), &name, status, dur_us, &[]);
    } else {
        ctx.set_status(status);
        state.complete_trace(&ctx);
    }
}

/// Complete a trace for a request rejected before it had a parseable
/// request line (oversized or malformed): pinned, named by the failure.
fn finish_rejected(state: &Arc<State>, t0_ns: u64, status: u16) {
    let ctx = TraceCtx::begin_at("(unparseable request)", None, t0_ns);
    ctx.record_span(
        "parse",
        ctx.root_span(),
        t0_ns,
        crate::host_ns(),
        Vec::new(),
    );
    ctx.set_status(status);
    state.complete_trace(&ctx);
}

/// Dispatch one parsed request; returns the response status for the
/// access log and the trace. Socket errors mean the client went away —
/// the caller drops the connection either way.
fn route(
    stream: &mut TcpStream,
    req: &Request,
    state: &Arc<State>,
    ctx: &TraceCtx,
    shutdown: &Arc<AtomicBool>,
    cfg: &ServerConfig,
) -> io::Result<u16> {
    let segs = req.segments();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => {
            if state.draining() {
                http::write_response(stream, 503, "text/plain", &[], b"draining\n").map(|()| 503)
            } else {
                http::write_response(stream, 200, "text/plain", &[], b"ok\n").map(|()| 200)
            }
        }
        ("GET", ["metrics"]) => {
            let text = state.metrics_text();
            http::write_response(
                stream,
                200,
                crate::metrics::CONTENT_TYPE,
                &[],
                text.as_bytes(),
            )
            .map(|()| 200)
        }
        ("POST", ["jobs"]) => {
            // Admission covers spec parse + journaled submit; the
            // journal_append span nests under it and `submit` closes it.
            let admission = ctx.child("admission");
            let body = String::from_utf8_lossy(&req.body);
            let spec = match JobSpec::parse(&body) {
                Ok(spec) => spec,
                Err(e) => {
                    drop(admission);
                    return respond_json(stream, 400, &err_json(&e));
                }
            };
            match state.submit(spec, admission) {
                Ok(id) => {
                    let doc = Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("state".into(), Json::Str("queued".into())),
                        ("trace_id".into(), Json::Str(ctx.trace_id_hex())),
                    ]);
                    respond_json(stream, 201, &doc)
                }
                Err(SubmitError::Full) => {
                    let retry = cfg.retry_after_secs.to_string();
                    http::write_response(
                        stream,
                        429,
                        "application/json",
                        &[("Retry-After", retry.as_str())],
                        err_json("queue full").to_string_compact().as_bytes(),
                    )
                    .map(|()| 429)
                }
                Err(SubmitError::Draining) => {
                    respond_json(stream, 503, &err_json("server is draining"))
                }
                Err(SubmitError::Journal(e)) => respond_json(stream, 500, &err_json(&e)),
            }
        }
        ("POST", ["estimate"]) => {
            // Analytical model only — nothing is enqueued and nothing
            // simulates; the response carries `"model": true` so a caller
            // can never mistake an estimate for a measured result. The
            // body is the same spec `/jobs` accepts, plus an optional
            // `prune_margin` field.
            let body = String::from_utf8_lossy(&req.body);
            let parsed = Json::parse(&body).map_err(|e| e.to_string()).and_then(|v| {
                let margin = prune_margin_from_json(&v)?;
                JobSpec::from_json(&v).map(|spec| (spec, margin))
            });
            let (spec, margin) = match parsed {
                Ok(x) => x,
                Err(e) => return respond_json(stream, 400, &err_json(&e)),
            };
            // The `estimate` span covers the model evaluation alone; its
            // duration is the estimate-latency histogram's sample. A model
            // bug that panics here becomes the connection's 500
            // (`panic_boundary`), like a panic in any other route.
            let est = ctx.child("estimate");
            let doc = spec.estimate_doc(margin);
            state.close_span(est);
            state.count("estimates_total");
            let summary = doc.get("summary");
            if let Some(cells) = summary.and_then(|s| s.get("cells")).and_then(Json::as_u64) {
                state.count_n("planner_cells_scored_total", cells);
            }
            if let Some(pruned) = summary.and_then(|s| s.get("pruned")).and_then(Json::as_u64) {
                state.count_n("planner_cells_pruned_total", pruned);
            }
            respond_json(stream, 200, &doc)
        }
        ("GET", ["jobs"]) => respond_json(stream, 200, &state.list_json()),
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match state.status_json(id) {
                Some(doc) => respond_json(stream, 200, &doc),
                None => respond_json(stream, 404, &err_json("no such job")),
            },
            None => respond_json(stream, 400, &err_json("job id wants an integer")),
        },
        ("GET", ["jobs", id, "events"]) => {
            let Some(id) = parse_id(id) else {
                return respond_json(stream, 400, &err_json("job id wants an integer"));
            };
            let Some(log) = state.event_log(id) else {
                return respond_json(stream, 404, &err_json("no such job"));
            };
            stream_events(stream, &log, state, ctx)
        }
        ("GET", ["jobs", id, "result"]) => {
            let Some(id) = parse_id(id) else {
                return respond_json(stream, 400, &err_json("job id wants an integer"));
            };
            if state.status_json(id).is_none() {
                return respond_json(stream, 404, &err_json("no such job"));
            }
            match std::fs::read(state.result_path(id)) {
                Ok(bytes) => {
                    http::write_response(stream, 200, "text/plain", &[], &bytes).map(|()| 200)
                }
                Err(_) => respond_json(stream, 404, &err_json("result not available yet")),
            }
        }
        ("POST", ["jobs", id, "cancel"]) => match parse_id(id) {
            Some(id) => match state.cancel(id) {
                Some(status) => {
                    let doc = Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("state".into(), Json::Str(status.name().into())),
                    ]);
                    respond_json(stream, 200, &doc)
                }
                None => respond_json(stream, 404, &err_json("no such job")),
            },
            None => respond_json(stream, 400, &err_json("job id wants an integer")),
        },
        ("GET", ["debug", "traces"]) => respond_json(stream, 200, &state.traces_json()),
        ("GET", ["debug", "traces", id, format @ ..]) if matches!(format, [] | ["chrome"]) => {
            match parse_trace_id(id) {
                Some(tid) => match state.trace_json(tid, !format.is_empty()) {
                    Some(doc) => respond_json(stream, 200, &doc),
                    None => {
                        respond_json(stream, 404, &err_json("no such trace (evicted or unknown)"))
                    }
                },
                None => respond_json(
                    stream,
                    400,
                    &err_json("trace id wants 32 lowercase hex digits"),
                ),
            }
        }
        ("POST", ["drain"]) => {
            let _drain = ctx.child("drain");
            state.begin_drain();
            shutdown.store(true, Ordering::SeqCst);
            http::write_response(stream, 202, "text/plain", &[], b"draining\n").map(|()| 202)
        }
        (_, ["jobs", ..])
        | (_, ["estimate"])
        | (_, ["drain"])
        | (_, ["healthz"])
        | (_, ["metrics"])
        | (_, ["debug", ..]) => respond_json(stream, 405, &err_json("method not allowed")),
        _ => respond_json(stream, 404, &err_json("no such route")),
    }
}

/// Stream a job's NDJSON event lines as chunks until the job is terminal.
/// Each flush's line count lands in the backlog histogram — how far
/// behind this reader had fallen when it was woken.
fn stream_events(
    stream: &mut TcpStream,
    log: &EventLog,
    state: &Arc<State>,
    ctx: &TraceCtx,
) -> io::Result<u16> {
    let mut span = ctx.child("stream_write");
    let mut total_lines = 0u64;
    let mut w = ChunkedWriter::begin(stream, 200, "application/x-ndjson")?;
    let mut cursor = 0usize;
    loop {
        let (lines, done) = log.wait_from(cursor);
        cursor += lines.len();
        if !lines.is_empty() {
            state.observe(|h| &mut h.event_stream_backlog_lines, lines.len() as u64);
            total_lines += lines.len() as u64;
            let mut payload = String::new();
            for line in &lines {
                payload.push_str(line);
                payload.push('\n');
            }
            let t0 = crate::host_ns();
            let wrote = w.chunk(payload.as_bytes());
            let micros = (crate::host_ns() - t0) / 1000;
            state.observe(|h| &mut h.request_phase_stream_write_us, micros);
            wrote?;
        }
        if done && lines.is_empty() {
            span.tag("lines", total_lines.to_string());
            w.finish()?;
            return Ok(200);
        }
        if done {
            // Loop once more to pick up any lines racing the close.
            continue;
        }
    }
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

/// Trace ids travel as exactly 32 lowercase hex digits, the same shape
/// the traceparent header and `/debug/traces` listing use.
fn parse_trace_id(raw: &str) -> Option<u128> {
    if raw.len() != 32
        || !raw
            .bytes()
            .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
    {
        return None;
    }
    u128::from_str_radix(raw, 16).ok()
}

fn err_json(message: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
}

fn respond_json(stream: &mut TcpStream, status: u16, doc: &Json) -> io::Result<u16> {
    let mut body = doc.to_string_compact();
    body.push('\n');
    http::write_response(stream, status, "application/json", &[], body.as_bytes())?;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn a_panic_below_the_boundary_answers_500() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            reply
        });
        let mut stream = http::accept(&listener, 2_000).unwrap();
        panic_boundary(&mut stream, |stream| {
            let _req = http::read_request(stream).unwrap();
            panic!("planted handler fault");
        });
        drop(stream);
        let reply = client.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 500"), "{reply}");
        assert!(reply.contains("the handler panicked"), "{reply}");
    }
}
