//! End-to-end `/metrics` correctness: a real server, a real scrape, and
//! the exposition body parsed line by line the way a Prometheus scraper
//! would — every histogram's buckets cumulative and nondecreasing, the
//! `+Inf` bucket equal to `_count`, and the `_sum`/`_count` pair present
//! for every `# TYPE ... histogram` family.

#![allow(clippy::unwrap_used)]

use mlpsim_serve::client;
use mlpsim_serve::{Server, ServerConfig};
use mlpsim_telemetry::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

static NEXT: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mlpsim-metrics-{tag}-{}-{}",
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
    fn start(dir: &Path) -> TestServer {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.to_path_buf(),
            queue_capacity: 8,
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

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().expect("serve thread exits");
    }
}

/// One parsed histogram family.
#[derive(Debug, Default)]
struct Family {
    /// `(le, cumulative)` in exposition order; `le == f64::INFINITY` for
    /// the `+Inf` bucket.
    buckets: Vec<(f64, u64)>,
    sum: Option<u64>,
    count: Option<u64>,
}

/// Parse the exposition body: `# TYPE name histogram` declarations plus
/// every `name_bucket{le="..."}` / `name_sum` / `name_count` sample.
fn parse_histograms(text: &str) -> BTreeMap<String, Family> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some("histogram")) = (it.next(), it.next()) else {
                continue;
            };
            families.entry(name.to_string()).or_default();
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((sample, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: u64 = match value.parse() {
            Ok(v) => v,
            Err(_) => continue, // gauges may be floats; histograms are integral
        };
        if let Some((name, label)) = sample.split_once("_bucket{le=\"") {
            let family = name.to_string();
            let le_raw = label.strip_suffix("\"}").expect("closed le label");
            let le = if le_raw == "+Inf" {
                f64::INFINITY
            } else {
                le_raw.parse().expect("numeric le")
            };
            families
                .entry(family)
                .or_default()
                .buckets
                .push((le, value));
        } else if let Some(name) = sample.strip_suffix("_sum") {
            families.entry(name.to_string()).or_default().sum = Some(value);
        } else if let Some(name) = sample.strip_suffix("_count") {
            families.entry(name.to_string()).or_default().count = Some(value);
        }
    }
    families
}

/// `name → dur_us` of a retained trace's spans (first span of each
/// name). A job's trace publishes just after its status flips terminal,
/// so the lookup polls briefly.
fn span_durations_us(url: &str, trace_id: &str) -> BTreeMap<String, u64> {
    let doc = (0..50)
        .find_map(|_| {
            client::trace(url, trace_id, false).ok().or_else(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                None
            })
        })
        .expect("trace retained in the flight recorder");
    let spans = match doc.get("spans") {
        Some(Json::Arr(spans)) => Some(spans),
        _ => None,
    }
    .expect("trace carries a spans array");
    let mut out = BTreeMap::new();
    for s in spans {
        let name = s.get("name").and_then(Json::as_str).unwrap().to_string();
        let dur = s.get("dur_us").and_then(Json::as_u64).unwrap();
        out.entry(name).or_insert(dur);
    }
    out
}

#[test]
fn scraped_metrics_are_valid_prometheus_exposition() {
    let dir = tmp_dir("scrape");
    let srv = TestServer::start(&dir);

    // Run one real job so the wall-time and queue-wait histograms have a
    // sample, and stream its events so the backlog histogram does too.
    let (id, trace_id) =
        client::submit_traced(&srv.url, r#"{"kind":"fig5","accesses":1200}"#, None)
            .expect("submitted");
    let mut streamed = Vec::new();
    client::watch(&srv.url, id, &mut |chunk| {
        streamed.extend_from_slice(chunk);
    })
    .expect("watched");
    assert_eq!(client::wait(&srv.url, id).expect("waited"), "done");
    // One estimate, traced under a known id, feeds the estimate family.
    let estimate_trace = "0af7651916cd43dd8448eb211c80319c";
    let resp = client::request_with_headers(
        &srv.url,
        "POST",
        "/estimate",
        Some(br#"{"kind":"sweep","benches":["mcf"],"policies":["lru"],"accesses":1200}"#),
        &[(
            "traceparent",
            &format!("00-{estimate_trace}-b7ad6b7169203331-01"),
        )],
        None,
    )
    .expect("estimated");
    assert_eq!(resp.status, 200, "{}", resp.text());

    let resp = client::request(&srv.url, "GET", "/metrics", None, None).expect("scraped");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "exposition content type"
    );
    let text = resp.text();

    // Counters and gauges carry the shared prefix.
    assert!(text.contains("mlpsim_jobs_submitted_total 1"), "{text}");
    assert!(text.contains("mlpsim_jobs_completed_total 1"), "{text}");
    assert!(text.contains("mlpsim_queue_depth 0"), "{text}");
    assert!(text.contains("mlpsim_build_info{version=\""), "{text}");

    let families = parse_histograms(&text);
    for family in [
        "mlpsim_job_wall_time_ms",
        "mlpsim_job_queue_wait_ms",
        "mlpsim_http_request_duration_us",
        "mlpsim_event_stream_backlog_lines",
    ] {
        let f = families.get(family).unwrap_or_else(|| {
            panic!("histogram family {family} missing from:\n{text}");
        });
        let count = f.count.unwrap_or_else(|| panic!("{family}_count missing"));
        assert!(f.sum.is_some(), "{family}_sum missing");
        assert!(!f.buckets.is_empty(), "{family} has no buckets");

        // Buckets arrive in increasing le order, cumulative and
        // nondecreasing, closing at +Inf == _count.
        let mut last_le = 0.0f64;
        let mut last_cum = 0u64;
        for &(le, cum) in &f.buckets {
            assert!(le > last_le, "{family}: le {le} out of order");
            assert!(
                cum >= last_cum,
                "{family}: cumulative count decreased at le={le}"
            );
            last_le = le;
            last_cum = cum;
        }
        let (inf_le, inf_cum) = *f.buckets.last().expect("nonempty");
        assert!(inf_le.is_infinite(), "{family}: last bucket must be +Inf");
        assert_eq!(inf_cum, count, "{family}: +Inf bucket != _count");
    }

    // The job actually ran, so the job histograms hold a sample each and
    // the request histogram saw every call this test made.
    assert_eq!(families["mlpsim_job_wall_time_ms"].count, Some(1));
    assert_eq!(families["mlpsim_job_queue_wait_ms"].count, Some(1));
    assert!(families["mlpsim_http_request_duration_us"].count.unwrap() >= 2);
    assert!(families["mlpsim_event_stream_backlog_lines"].count.unwrap() >= 1);

    // A span-fed family's sample is its span's duration: the sums equal
    // the job trace's `queue_wait` and `run` spans in whole ms, and the
    // estimate trace's `estimate` span in whole us.
    let job_spans = span_durations_us(&srv.url, &trace_id);
    assert_eq!(
        families["mlpsim_job_queue_wait_ms"].sum,
        Some(job_spans["queue_wait"] / 1000)
    );
    assert_eq!(
        families["mlpsim_job_wall_time_ms"].sum,
        Some(job_spans["run"] / 1000)
    );
    let estimate_spans = span_durations_us(&srv.url, estimate_trace);
    assert_eq!(families["mlpsim_estimate_duration_us"].count, Some(1));
    assert_eq!(
        families["mlpsim_estimate_duration_us"].sum,
        Some(estimate_spans["estimate"])
    );
    // The phase families that duplicated those spans are gone.
    assert!(
        !text.contains("mlpsim_request_phase_queue_wait_ms"),
        "{text}"
    );
    assert!(!text.contains("mlpsim_request_phase_run_ms"), "{text}");
    assert_eq!(families.len(), 6, "{text}");

    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_metrics_helper_returns_the_exposition_body() {
    let dir = tmp_dir("helper");
    let srv = TestServer::start(&dir);
    let text = client::metrics(&srv.url).expect("metrics helper");
    assert!(
        text.contains("# TYPE mlpsim_http_requests_total counter"),
        "{text}"
    );
    assert!(text.contains("mlpsim_build_info{version=\""), "{text}");
    srv.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
