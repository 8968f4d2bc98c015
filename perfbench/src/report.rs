//! Collects one run's metrics and prints them: a provenance header, one
//! `name value unit` line per metric, and the final JSON result line.

use std::fmt::Write as _;
use std::path::Path;

/// One run's result.
pub struct Report {
    workload: String,
    trace: bool,
    provenance: Vec<(String, String)>,
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted and failed (a failed output check is a failed
    /// operation).
    pub attempted: u64,
    pub failed: u64,
    /// Set when any check outside an operation failed (warm-up results,
    /// transparency of the traced run).
    pub broken: bool,
}

impl Report {
    pub fn new(workload: &str, seed: u64, input_seed: u64, trace: bool) -> Report {
        let mut r = Report {
            workload: workload.to_string(),
            trace,
            provenance: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            broken: false,
        };
        r.note("git_sha", &git_sha(Path::new(".")));
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        r.note("nproc", &nproc.to_string());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        r.note("build", &format!("{profile}, no cargo features"));
        r.note(
            "seed",
            &format!("{seed} (inputs drawn with seed {input_seed})"),
        );
        r.note("loadavg_at_start", &loadavg());
        r
    }

    /// Adds a provenance line.
    pub fn note(&mut self, key: &str, value: &str) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Records one metric. Non-finite values are a bug in the benchmark.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Counts one operation and whether its output check passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the report; the JSON object is the last line of stdout.
    pub fn finish(&self) {
        let mode = if self.trace { "traced" } else { "untraced" };
        println!("perfbench {} ({mode})", self.workload);
        for (k, v) in &self.provenance {
            println!("  {k}: {v}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} {value} {unit}");
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        let correct = !self.broken && self.failed == 0 && self.attempted > 0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark may run from an exported tree, which has no `.git`).
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// A `/proc/self/status` field in MB (`VmHWM` is the peak resident set,
/// `VmRSS` the current one); 0 where procfs is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)
                    .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
