//! Structured one-line JSON logging for the serve tier.
//!
//! Every line the server writes to stderr goes through this module, so
//! each one is machine-parseable and carries the trace id of the request
//! it belongs to (rule D11: the crate denies `clippy::print_stderr`, and
//! the private `emit` below holds its one `#[expect]`). Two shapes:
//!
//! - [`access`]: one line per completed request *or* job — `kind:
//!   "access"`, the trace id, request name, status, duration, and
//!   whatever phase durations the caller extracted from the trace
//!   (`queue_wait_ms`, `run_ms`, ...).
//! - [`server_event`]: operational warnings (journal append failures,
//!   accept errors, recovery notes) — `kind: "server"`, an event tag,
//!   the message, and the trace id when one is in scope.
//!
//! Timestamps are [`mlpsim_telemetry::prof::now_ns`] readings — the same timebase the spans
//! in `/debug/traces` use, so a log line correlates with its trace by
//! simple subtraction.

use mlpsim_telemetry::Json;

/// Emit one access-log line: a completed HTTP exchange or a finished job.
/// `extra` carries numeric phase durations (e.g. `("queue_wait_ms", 12.0)`).
pub fn access(trace_id: &str, name: &str, status: u16, dur_us: u64, extra: &[(&str, f64)]) {
    let mut pairs: Vec<(String, Json)> = vec![
        ("ts_ns".into(), Json::Num(crate::host_ns() as f64)),
        ("kind".into(), Json::Str("access".into())),
        ("trace_id".into(), Json::Str(trace_id.to_string())),
        ("req".into(), Json::Str(name.to_string())),
        ("status".into(), Json::Num(f64::from(status))),
        ("dur_us".into(), Json::Num(dur_us as f64)),
    ];
    for (k, v) in extra {
        pairs.push(((*k).to_string(), Json::Num(*v)));
    }
    emit(&Json::Obj(pairs));
}

/// Emit one operational line: `event` is a stable machine tag
/// (`journal_append_failed`, `accept_failed`, `journal_recovered`, ...),
/// `msg` the human detail, `trace_id` the owning trace when one exists.
pub fn server_event(trace_id: Option<&str>, event: &str, msg: &str) {
    let mut pairs: Vec<(String, Json)> = vec![
        ("ts_ns".into(), Json::Num(crate::host_ns() as f64)),
        ("kind".into(), Json::Str("server".into())),
        ("event".into(), Json::Str(event.to_string())),
        ("msg".into(), Json::Str(msg.to_string())),
    ];
    if let Some(id) = trace_id {
        pairs.push(("trace_id".into(), Json::Str(id.to_string())));
    }
    emit(&Json::Obj(pairs));
}

/// The single stderr write site for the serve tier.
#[expect(
    clippy::print_stderr,
    reason = "D11: the one structured-log write site"
)]
fn emit(doc: &Json) {
    eprintln!("{}", doc.to_string_compact());
}

#[cfg(test)]
mod tests {
    // The helpers write to stderr, which tests cannot capture portably
    // without process spawning; the serve smoke script greps the real
    // server's log for access lines carrying an injected trace id. Here
    // we only pin that the document shapes stay parseable JSON.
    use mlpsim_telemetry::Json;

    #[test]
    fn access_document_shape_is_stable_json() {
        let doc = Json::Obj(vec![
            ("ts_ns".into(), Json::Num(1.0)),
            ("kind".into(), Json::Str("access".into())),
            ("trace_id".into(), Json::Str("00ff".into())),
            ("req".into(), Json::Str("POST /jobs".into())),
            ("status".into(), Json::Num(201.0)),
            ("dur_us".into(), Json::Num(42.0)),
            ("queue_wait_ms".into(), Json::Num(3.0)),
        ]);
        let line = doc.to_string_compact();
        let back = Json::parse(&line).expect("one parseable line");
        assert_eq!(back.get("kind").and_then(Json::as_str), Some("access"));
        assert_eq!(back.get("trace_id").and_then(Json::as_str), Some("00ff"));
    }
}
