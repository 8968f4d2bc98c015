//! Prometheus text-exposition rendering for the server's metrics.
//!
//! The registry's counters and gauges plus six operational histograms
//! are rendered in [exposition format 0.0.4] — `# TYPE` lines, cumulative
//! `_bucket{le="..."}` series ending in `+Inf`, and the `_sum`/`_count`
//! pair — so a stock Prometheus scraper (or `curl | grep`) can consume
//! `GET /metrics` directly. Everything is name-prefixed `mlpsim_` to keep
//! the exported namespace collision-free.
//!
//! Three of the histograms are serve phases whose span is the record
//! ([`SPAN_FAMILIES`]): the span's duration lands in the family when the
//! span closes, so a trace explains one request and the family aggregates
//! the same interval fleet-wide. The other three are recorded directly,
//! because none of them is a span's duration.
//!
//! The histogram buckets reuse [`EpisodeHistogram`]'s power-of-two axis:
//! episode lengths there, milliseconds / microseconds / line counts here.
//! Those buckets are half-open `[lo, hi)` while Prometheus `le` is `≤`,
//! so a value landing exactly on a boundary is attributed one bucket up —
//! a half-ulp of pessimism that bucket-grade latency data cannot resolve
//! anyway.
//!
//! [exposition format 0.0.4]: https://prometheus.io/docs/instrumenting/exposition_formats/

use mlpsim_analysis::ephist::{EpisodeHistogram, EPISODE_BUCKETS};
use mlpsim_telemetry::Registry;

/// The Content-Type a 0.0.4 exposition body must be served under.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside the quotes.
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// The one map from a serve phase's span to its histogram family, as
/// `(span name, family, nanoseconds per recorded unit, access-log field
/// carrying the span's duration in ms)`. A phase's host time has one
/// record, the span; the family and the access log read its duration.
pub const SPAN_FAMILIES: [(&str, &str, u64, &str); 3] = [
    (
        "queue_wait",
        "mlpsim_job_queue_wait_ms",
        1_000_000,
        "queue_wait_ms",
    ),
    ("run", "mlpsim_job_wall_time_ms", 1_000_000, "run_ms"),
    (
        "estimate",
        "mlpsim_estimate_duration_us",
        1_000,
        "estimate_ms",
    ),
];

/// The operational histograms the server maintains. All land on the
/// shared power-of-two axis; the unit lives in the metric name.
#[derive(Clone, Debug, Default)]
pub struct Histograms {
    /// One family per [`SPAN_FAMILIES`] entry, in table order.
    spans: [EpisodeHistogram; SPAN_FAMILIES.len()],
    /// End-to-end handling latency of each HTTP request, microseconds:
    /// the response, not the root span, which an admitted job keeps open.
    pub http_request_duration_us: EpisodeHistogram,
    /// Lines delivered per event-stream flush — how far behind a
    /// `/jobs/:id/events` reader had fallen when it was woken.
    pub event_stream_backlog_lines: EpisodeHistogram,
    /// Per-chunk `stream_write` flush latency on `/jobs/:id/events`,
    /// microseconds (one span covers the whole stream).
    pub request_phase_stream_write_us: EpisodeHistogram,
}

impl Histograms {
    /// Record a closed span's duration in its family, if its phase has
    /// one.
    pub fn record_span(&mut self, span: &str, dur_ns: u64) {
        for (&(name, _, unit_ns, _), h) in SPAN_FAMILIES.iter().zip(&mut self.spans) {
            if name == span {
                h.record(dur_ns / unit_ns);
            }
        }
    }

    /// Every `(name, histogram)` for rendering, in name order.
    fn families(&self) -> Vec<(&'static str, &EpisodeHistogram)> {
        let mut all: Vec<_> = SPAN_FAMILIES
            .iter()
            .map(|&(_, family, _, _)| family)
            .zip(&self.spans)
            .collect();
        all.extend([
            (
                "mlpsim_event_stream_backlog_lines",
                &self.event_stream_backlog_lines,
            ),
            (
                "mlpsim_http_request_duration_us",
                &self.http_request_duration_us,
            ),
            (
                "mlpsim_request_phase_stream_write_us",
                &self.request_phase_stream_write_us,
            ),
        ]);
        all.sort_by_key(|&(name, _)| name);
        all
    }
}

/// Render the full exposition body: counters, gauges, a `build_info`
/// gauge carrying the crate version as a label, then the histograms.
pub fn render(registry: &Registry, hists: &Histograms) -> String {
    let mut out = String::new();
    for (name, v) in registry.counters() {
        let name = prefixed(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (name, v) in registry.gauges() {
        let name = prefixed(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    out.push_str(&format!(
        "# TYPE mlpsim_build_info gauge\nmlpsim_build_info{{version=\"{}\"}} 1\n",
        escape_label_value(env!("CARGO_PKG_VERSION"))
    ));
    for (name, h) in hists.families() {
        render_histogram(&mut out, name, h);
    }
    out
}

/// Counters and gauges are registered unprefixed (`jobs_submitted_total`);
/// export them under the shared namespace.
fn prefixed(name: &str) -> String {
    if name.starts_with("mlpsim_") {
        name.to_string()
    } else {
        format!("mlpsim_{name}")
    }
}

fn render_histogram(out: &mut String, name: &str, h: &EpisodeHistogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for b in 0..EPISODE_BUCKETS {
        cum += h.bucket(b);
        match EpisodeHistogram::bucket_upper(b) {
            Some(le) => out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n")),
            None => out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n")),
        }
    }
    out.push_str(&format!("{name}_sum {}\n", h.total_cycles()));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_escaping_covers_the_three_specials() {
        assert_eq!(escape_label_value("plain-1.2.3"), "plain-1.2.3");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
    }

    #[test]
    fn render_emits_prefixed_counters_and_build_info() {
        let mut r = Registry::new();
        r.incr("jobs_submitted_total", 3);
        r.set_gauge("queue_depth", 2.0);
        let text = render(&r, &Histograms::default());
        assert!(text.contains("# TYPE mlpsim_jobs_submitted_total counter\n"));
        assert!(text.contains("mlpsim_jobs_submitted_total 3\n"));
        assert!(text.contains("# TYPE mlpsim_queue_depth gauge\n"));
        assert!(text.contains("mlpsim_queue_depth 2\n"));
        assert!(text.contains("mlpsim_build_info{version=\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_at_inf() {
        let mut hists = Histograms::default();
        for ms in [1, 444, 1 << 20] {
            hists.record_span("run", ms * 1_000_000 + 999_999);
        }
        hists.record_span("parse", 5_000_000); // no family: not recorded
        let text = render(&Registry::new(), &hists);
        assert!(text.contains("# TYPE mlpsim_job_wall_time_ms histogram\n"));
        assert!(text.contains("mlpsim_job_wall_time_ms_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("mlpsim_job_wall_time_ms_bucket{le=\"512\"} 2\n"));
        assert!(text.contains("mlpsim_job_wall_time_ms_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains(&format!(
            "mlpsim_job_wall_time_ms_sum {}\n",
            1 + 444 + (1u64 << 20)
        )));
        assert!(text.contains("mlpsim_job_wall_time_ms_count 3\n"));
    }

    #[test]
    fn every_family_renders_even_when_empty() {
        let text = render(&Registry::new(), &Histograms::default());
        for family in [
            "mlpsim_estimate_duration_us",
            "mlpsim_job_wall_time_ms",
            "mlpsim_job_queue_wait_ms",
            "mlpsim_http_request_duration_us",
            "mlpsim_event_stream_backlog_lines",
            "mlpsim_request_phase_stream_write_us",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} histogram\n")),
                "{family}"
            );
            assert!(text.contains(&format!("{family}_count 0\n")), "{family}");
        }
        assert_eq!(text.matches(" histogram\n").count(), 6, "{text}");
    }
}
