//! In-process end-to-end tests: a real listener on an ephemeral port, the
//! real client, the real journal on a temp directory. The CI smoke script
//! (`scripts/serve_smoke.sh`) covers the cross-process pieces (`kill -9`,
//! separate binaries); everything else lives here.

#![allow(clippy::unwrap_used)]

use mlpsim_serve::client;
use mlpsim_serve::{Server, ServerConfig};
use mlpsim_telemetry::{Event, Json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

static NEXT: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mlpsim-smoke-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TestServer {
    url: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl TestServer {
    fn start(dir: &Path, queue_capacity: usize) -> TestServer {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.to_path_buf(),
            queue_capacity,
            retry_after_secs: 7,
            read_timeout_ms: 2_000,
        };
        let server = Server::start(cfg).expect("server starts");
        let addr = server.local_addr().expect("bound address");
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        TestServer {
            url: format!("http://{addr}"),
            shutdown,
            thread,
        }
    }

    /// Stop accepting and wait for the drain to complete.
    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().expect("serve thread exits");
    }
}

#[test]
fn submitted_fig5_is_byte_identical_to_the_cli_run_path() {
    use mlpsim_experiments::figures::fig5_report;
    use mlpsim_experiments::runner::RunOptions;

    let dir = tmp_dir("fig5");
    let srv = TestServer::start(&dir, 8);

    let id =
        client::submit(&srv.url, r#"{"kind":"fig5","accesses":1200,"jobs":2}"#).expect("submitted");
    // Stream events live while the job runs.
    let mut streamed = Vec::new();
    let raw = client::watch(&srv.url, id, &mut |chunk| streamed.extend_from_slice(chunk))
        .expect("watched");
    assert_eq!(raw, streamed, "callback sees exactly the stream bytes");
    let lines: Vec<&str> = std::str::from_utf8(&raw)
        .expect("utf8 stream")
        .lines()
        .collect();
    assert!(!lines.is_empty(), "a running sweep emits telemetry");
    for line in &lines {
        Event::parse_line(line).unwrap_or_else(|e| panic!("bad event line {line:?}: {e}"));
    }
    assert!(
        lines.iter().any(|l| l.contains("\"type\":\"run_start\"")),
        "stream carries run brackets"
    );

    assert_eq!(client::wait(&srv.url, id).expect("terminal"), "done");
    let via_server = client::result(&srv.url, id).expect("result");
    let direct = fig5_report(&RunOptions {
        accesses: 1200,
        jobs: 2,
        ..RunOptions::default()
    });
    assert_eq!(via_server, direct, "server and CLI share one run path");

    // Health and metrics reflect the finished job.
    let health = client::request(&srv.url, "GET", "/healthz", None, None).expect("healthz");
    assert_eq!(health.status, 200);
    let metrics = client::request(&srv.url, "GET", "/metrics", None, None).expect("metrics");
    let text = metrics.text();
    assert!(text.contains("jobs_submitted_total 1"), "{text}");
    assert!(text.contains("jobs_completed_total 1"), "{text}");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn estimate_endpoint_scores_without_simulating() {
    let dir = tmp_dir("estimate");
    let srv = TestServer::start(&dir, 8);

    let doc = client::estimate(
        &srv.url,
        r#"{"kind":"sweep","benches":["mcf","art"],"policies":["lru","lin(4)"],
            "accesses":2000,"jobs":2,"prune_margin":0.01}"#,
    )
    .expect("estimated");
    assert_eq!(
        doc.get("model").and_then(Json::as_bool),
        Some(true),
        "an estimate must label itself as a model, not a measurement"
    );
    let cells = match doc.get("cells") {
        Some(Json::Arr(cells)) => cells,
        other => panic!("expected cells array, got {other:?}"),
    };
    assert_eq!(cells.len(), 4);
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(4));

    // No job was admitted; the planner counters and latency histogram moved.
    let text = client::metrics(&srv.url).expect("metrics");
    assert!(!text.contains("mlpsim_jobs_submitted_total"), "{text}");
    assert!(text.contains("mlpsim_estimates_total 1"), "{text}");
    assert!(
        text.contains("mlpsim_planner_cells_scored_total 4"),
        "{text}"
    );
    assert!(text.contains("mlpsim_planner_cells_pruned_total"), "{text}");
    assert!(
        text.contains("mlpsim_estimate_duration_us_count 1"),
        "{text}"
    );

    // Garbage margins and bad specs report 400 with the field named.
    let bad = client::request(
        &srv.url,
        "POST",
        "/estimate",
        Some(br#"{"kind":"fig5","prune_margin":-1}"#),
        None,
    )
    .expect("responded");
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("prune_margin"), "{}", bad.text());
    let err = client::estimate(&srv.url, r#"{"kind":"fig6"}"#).expect_err("bad kind");
    assert!(err.contains("unknown job kind"), "{err}");

    // Wrong method on the route is 405, not 404.
    let wrong = client::request(&srv.url, "GET", "/estimate", None, None).expect("responded");
    assert_eq!(wrong.status, 405);

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_cancels_a_long_job() {
    let dir = tmp_dir("deadline");
    let srv = TestServer::start(&dir, 8);

    let id = client::submit(
        &srv.url,
        r#"{"kind":"sweep","accesses":6000,"deadline_ms":1}"#,
    )
    .expect("submitted");
    assert_eq!(client::wait(&srv.url, id).expect("terminal"), "cancelled");
    assert!(
        client::result(&srv.url, id).is_err(),
        "no result for a cancelled job"
    );

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_hits_queued_and_running_jobs() {
    let dir = tmp_dir("cancel");
    let srv = TestServer::start(&dir, 8);

    // A slow job occupies the single scheduler; B sits queued behind it.
    let a = client::submit(&srv.url, r#"{"kind":"sweep","accesses":60000}"#).expect("a");
    let b = client::submit(&srv.url, r#"{"kind":"fig5","accesses":400}"#).expect("b");

    // Queued cancel is immediate.
    assert_eq!(client::cancel(&srv.url, b).expect("cancel b"), "cancelled");
    assert_eq!(client::wait(&srv.url, b).expect("terminal"), "cancelled");

    // Running cancel fires the token; the scheduler records the state.
    client::cancel(&srv.url, a).expect("cancel a");
    assert_eq!(client::wait(&srv.url, a).expect("terminal"), "cancelled");
    // Cancel is idempotent on terminal jobs.
    assert_eq!(client::cancel(&srv.url, a).expect("again"), "cancelled");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_backpressures_with_retry_after() {
    let dir = tmp_dir("backpressure");
    let srv = TestServer::start(&dir, 0); // capacity 0: every submit bounces

    let resp = client::request(
        &srv.url,
        "POST",
        "/jobs",
        Some(br#"{"kind":"fig5","accesses":100}"#),
        None,
    )
    .expect("response");
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("7"));
    assert!(resp.text().contains("queue full"), "{}", resp.text());

    // Bad specs are 400 with the field named, not 429.
    let resp = client::request(&srv.url, "POST", "/jobs", Some(b"{}"), None).expect("response");
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("kind"), "{}", resp.text());

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `raw` on a fresh connection that stays open, and returns what
/// the server sent back before it closed. The reply must end in a clean
/// EOF: the server discards the input it refused rather than resetting
/// the connection, so a read error fails the test.
fn raw_exchange(url: &str, raw: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(client::host_of(url)).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    s.write_all(raw).unwrap();
    let mut reply = Vec::new();
    s.read_to_end(&mut reply)
        .expect("the reply ends in a clean EOF, not a reset");
    String::from_utf8_lossy(&reply).into_owned()
}

/// One trace named for an unparseable request is retained.
fn assert_one_refusal_traced(url: &str) {
    let traces = match client::traces(url) {
        Ok(Json::Arr(traces)) => Some(traces),
        _ => None,
    }
    .expect("the trace listing is an array");
    let refused = traces
        .iter()
        .filter(|t| t.get("name").and_then(Json::as_str) == Some("(unparseable request)"))
        .count();
    assert_eq!(refused, 1);
}

#[test]
fn a_head_without_a_newline_past_the_cap_gets_a_400() {
    let dir = tmp_dir("head-cap");
    let srv = TestServer::start(&dir, 8);

    // 70 KiB without a newline, on a socket the client keeps open: the
    // server must refuse at its 64 KiB head cap, not wait for a newline.
    let mut raw = b"GET /".to_vec();
    raw.resize(70 * 1024, b'a');
    let reply = raw_exchange(&srv.url, &raw);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert!(reply.contains("request head too large"), "{reply:?}");
    assert_one_refusal_traced(&srv.url);

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_body_over_the_cap_gets_a_413() {
    let dir = tmp_dir("body-cap");
    let srv = TestServer::start(&dir, 8);

    // A declared length past the cap, with the first 256 KiB of the body
    // already sent: the server refuses without reading the rest.
    let mut raw = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        mlpsim_serve::http::MAX_BODY + 1
    )
    .into_bytes();
    raw.resize(raw.len() + 256 * 1024, b'x');
    let reply = raw_exchange(&srv.url, &raw);
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply:?}");
    assert!(reply.contains("request body too large"), "{reply:?}");
    assert_one_refusal_traced(&srv.url);

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_non_utf8_header_gets_a_400() {
    let dir = tmp_dir("head-utf8");
    let srv = TestServer::start(&dir, 8);

    // Byte 0xFF in a header is a malformed request, not a dropped
    // connection.
    let reply = raw_exchange(&srv.url, b"GET /healthz HTTP/1.1\r\nX-Bad: \xff\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert!(reply.contains("not UTF-8"), "{reply:?}");
    assert_one_refusal_traced(&srv.url);

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_preserves_queued_jobs_and_restart_resumes_them() {
    let dir = tmp_dir("resume");

    // --- First server lifetime -------------------------------------------
    let srv = TestServer::start(&dir, 16);
    let fast = client::submit(&srv.url, r#"{"kind":"fig5","accesses":400}"#).expect("fast");
    assert_eq!(client::wait(&srv.url, fast).expect("terminal"), "done");
    let fast_result = client::result(&srv.url, fast).expect("fast result");

    // One job that will be running at drain time, one still queued.
    let running = client::submit(&srv.url, r#"{"kind":"sweep","accesses":4000}"#).expect("b");
    let queued = client::submit(
        &srv.url,
        r#"{"kind":"sweep","benches":["mcf"],"policies":["lru"],"accesses":500}"#,
    )
    .expect("c");

    client::drain(&srv.url).expect("drain accepted");
    srv.stop(); // returns once the in-flight job is finished and journaled

    // --- Second server lifetime, same data dir ---------------------------
    let srv = TestServer::start(&dir, 16);

    // No job lost: all three still known.
    let list = client::request(&srv.url, "GET", "/jobs", None, None)
        .expect("list")
        .json()
        .expect("json");
    let Json::Arr(jobs) = list else {
        panic!("list is an array")
    };
    assert_eq!(jobs.len(), 3, "restart preserves every journaled job");

    // The completed job's result is re-served from disk, byte-identical.
    assert_eq!(
        client::result(&srv.url, fast).expect("re-served"),
        fast_result
    );
    // Its event stream is finished (live telemetry died with process one).
    let raw = client::watch(&srv.url, fast, &mut |_| {}).expect("finished stream");
    assert!(raw.is_empty(), "terminal recovered job has no live events");

    // The queued job (and the drained-or-finished one) complete.
    assert_eq!(client::wait(&srv.url, running).expect("terminal"), "done");
    assert_eq!(client::wait(&srv.url, queued).expect("terminal"), "done");
    assert!(client::result(&srv.url, queued)
        .expect("result")
        .contains("Sweep"));

    // Each job resumed here ran on a trace of its own: it is in
    // /debug/traces (published just after the status flips, so poll) and
    // in both job histograms. `running` resumes too if the drain came
    // before the scheduler took it.
    let want = format!("recovered job {queued}");
    let recovered = (0..50)
        .find_map(|_| {
            let Ok(Json::Arr(traces)) = client::traces(&srv.url) else {
                return None;
            };
            let names: Vec<String> = traces
                .iter()
                .filter_map(|t| t.get("name").and_then(Json::as_str))
                .filter(|n| n.starts_with("recovered job "))
                .map(str::to_string)
                .collect();
            if names.contains(&want) {
                return Some(names);
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            None
        })
        .expect("the resumed job's trace is retained");
    let text = client::metrics(&srv.url).expect("metrics");
    for family in ["mlpsim_job_queue_wait_ms", "mlpsim_job_wall_time_ms"] {
        assert!(
            text.contains(&format!("{family}_count {}\n", recovered.len())),
            "{recovered:?} vs {text}"
        );
    }

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_traceparent_propagates_to_the_flight_recorder() {
    let dir = tmp_dir("traces");
    let srv = TestServer::start(&dir, 8);

    let tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
    let (id, trace_id) = client::submit_traced(
        &srv.url,
        r#"{"kind":"fig5","accesses":800,"jobs":1}"#,
        Some(tp),
    )
    .expect("submitted");
    assert_eq!(
        trace_id, "0af7651916cd43dd8448eb211c80319c",
        "the 201 echoes the inherited trace id"
    );
    assert_eq!(client::wait(&srv.url, id).expect("terminal"), "done");

    // The trace completes just after the job status flips; poll briefly.
    let doc = (0..50)
        .find_map(|_| {
            client::trace(&srv.url, &trace_id, false).ok().or_else(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                None
            })
        })
        .expect("trace retained in the flight recorder");

    assert_eq!(
        doc.get("trace_id").and_then(Json::as_str),
        Some(trace_id.as_str())
    );
    // An adopted trace closes at the job's terminal state (Done -> 200),
    // not at the 201 the submission handler wrote.
    assert_eq!(doc.get("status").and_then(Json::as_u64), Some(200));
    let Some(Json::Arr(spans)) = doc.get("spans") else {
        panic!("trace carries a spans array: {doc:?}");
    };
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for want in [
        "request",
        "parse",
        "admission",
        "journal_append",
        "queue_wait",
        "run",
    ] {
        assert!(
            names.contains(&want),
            "span {want:?} missing from {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("run(cell=")),
        "per-cell run spans present: {names:?}"
    );
    // Reconciliation: the span tree explains the root's wall time; the
    // residue the server computed is present and sane.
    let residue = doc
        .get("residue_pct")
        .and_then(|r| r.as_f64())
        .expect("residue_pct present");
    assert!(
        (0.0..=100.0).contains(&residue),
        "residue {residue}% out of range"
    );
    // The root's direct children never double-book wall time: sorted by
    // start, each one ends before the next begins (times are floored to
    // whole microseconds, which keeps disjoint spans disjoint).
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_str).map(str::to_string);
    let root_id = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("request"))
        .and_then(|s| field(s, "id"))
        .expect("root span has an id");
    let mut children: Vec<(String, u64, u64)> = spans
        .iter()
        .filter(|s| field(s, "parent").as_deref() == Some(root_id.as_str()))
        .map(|s| {
            let name = field(s, "name").unwrap_or_default();
            let start = s.get("start_us").and_then(Json::as_u64).expect("start_us");
            let dur = s.get("dur_us").and_then(Json::as_u64).expect("dur_us");
            (name, start, start + dur)
        })
        .collect();
    children.sort_by_key(|&(_, start, _)| start);
    for pair in children.windows(2) {
        let ((a, _, a_end), (b, b_start, _)) = (&pair[0], &pair[1]);
        assert!(
            a_end <= b_start,
            "root children overlap: {a:?} ends at {a_end} us after {b:?} starts at {b_start} us \
             in {children:?}"
        );
    }

    let root_dur = doc.get("dur_us").and_then(Json::as_u64).expect("dur_us");
    for s in spans {
        let d = s.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
        assert!(
            d <= root_dur + 1,
            "span {:?} ({d} us) outlives the request ({root_dur} us)",
            s.get("name")
        );
    }

    // The Chrome export is a valid trace-event document for the same id.
    let chrome = client::trace(&srv.url, &trace_id, true).expect("chrome export");
    let Some(Json::Arr(events)) = chrome.get("traceEvents") else {
        panic!("chrome export has traceEvents: {chrome:?}");
    };
    assert!(
        events.len() > spans.len(),
        "one X event per span plus metadata"
    );

    // The listing includes the trace; unknown ids 404.
    let all = client::traces(&srv.url).expect("listing");
    let Json::Arr(all) = all else {
        panic!("listing is an array")
    };
    assert!(all
        .iter()
        .any(|t| t.get("trace_id").and_then(Json::as_str) == Some(trace_id.as_str())));
    let missing = client::trace(&srv.url, "00000000000000000000000000000001", false);
    assert!(missing.is_err(), "unknown trace id must 404");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
