//! In-memory spans for the traced run, written out once at the end.
//!
//! Every operation (cell, job or estimate) is a root span; each call the
//! benchmark makes into a layer on its behalf is a child span. Per-call
//! engine timings are not spans: they are aggregated into counts on the
//! cell's `core.run` span.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, f64)>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span under `parent` (0 for an operation) and
    /// returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            counts,
        });
        id
    }

    /// Reserves an id for an operation whose span is recorded when it
    /// ends, so its children can name it as their parent.
    pub fn open(&mut self, name: impl Into<String>) -> u64 {
        let now = self.now();
        self.record(name, 0, now, now, Vec::new())
    }

    /// Closes an operation opened with [`Spans::open`].
    pub fn close(&mut self, id: u64) {
        let now = self.now();
        if let Some(s) = self.spans.iter_mut().find(|s| s.id == id) {
            s.end_ns = now;
        }
    }

    /// Writes every span as one NDJSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
                s.id,
                s.parent,
                s.name.replace('"', "'"),
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns)
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
