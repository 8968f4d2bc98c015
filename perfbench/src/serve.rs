//! The `serve_jobs` workload: an in-process `mlpsim-serve` server on a
//! fresh data directory, driven by one client in a closed loop with one
//! connection at a time. Each iteration estimates the job's grid
//! (`POST /estimate`), submits it (`POST /jobs`), reads its event stream to
//! the end and fetches the result.
//!
//! Here `job_ms` and `estimate_ms` are medians over at least 100 jobs,
//! not best-of-run figures as on the simulator workloads: the server keeps
//! every finished job's event log, so later jobs run slower, and a minimum
//! would hide that from the benchmark.

use crate::digest::{self, Digests};
use crate::report::{proc_status_mb, Report};
use crate::sim::{ms, p50_p90, report_end_to_end, Grid, SETUP_REPEATS};
use crate::stats::median;
use mlpsim_exec::CancelToken;
use mlpsim_experiments::figures::try_sweep_report;
use mlpsim_experiments::jobspec::JobSpec;
use mlpsim_model::plan::DEFAULT_PRUNE_MARGIN;
use mlpsim_serve::client;
use mlpsim_serve::{Server, ServerConfig};
use mlpsim_telemetry::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The closed loop runs at least `MIN_JOBS` jobs, whatever `--seconds`
/// says, so its job p90 has ten samples beyond it, and at most
/// `MAX_JOBS`: finished jobs keep their event logs (~13 MB each), so the
/// job count, not the run time, sets the memory a run needs.
pub const MIN_JOBS: usize = 100;
pub const MAX_JOBS: usize = 110;

/// What the server must answer for one grid, computed in process through
/// the same library paths the server uses.
pub struct Expected {
    pub spec: String,
    pub estimate_body: String,
    pub result: String,
    pub cells: usize,
}

impl Expected {
    pub fn compute(grid: &Grid, seed: u64) -> Expected {
        let spec = grid.spec_json(seed);
        let parsed = JobSpec::parse(&spec).expect("the benchmark's own spec parses");
        let mut estimate_body = parsed
            .estimate_doc(DEFAULT_PRUNE_MARGIN)
            .to_string_compact();
        estimate_body.push('\n');
        let result = try_sweep_report(
            &grid.benches,
            &grid.policies,
            &grid.run_options(seed),
            &CancelToken::new(),
        )
        .expect("a private cancel token never fires");
        Expected {
            spec,
            estimate_body,
            result,
            cells: grid.cells().len(),
        }
    }
}

/// A server running on its own thread until [`Running::stop`].
pub struct Running {
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    dir: PathBuf,
}

impl Running {
    /// Starts a server on a fresh data directory under `.perfbench/`.
    pub fn start(tag: &str) -> Result<Running, String> {
        let dir = PathBuf::from(".perfbench").join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.clone(),
            ..ServerConfig::default()
        })?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?
            .to_string();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Running {
            addr,
            shutdown,
            thread,
            dir,
        })
    }

    /// Stops accepting, waits for the scheduler, removes the data dir.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One closed-loop iteration's outcome and round-trip times.
#[derive(Default)]
pub struct Iteration {
    pub estimate_ms: f64,
    pub estimate_ok: bool,
    pub job_ms: f64,
    pub job_ok: bool,
    pub refused: bool,
    pub submit_ms: f64,
    pub stream_ms: f64,
    pub result_ms: f64,
    pub lines: u64,
    pub bytes: u64,
    pub job_id: u64,
    pub trace_id: String,
}

/// Estimate, submit, stream, fetch the result; check every answer.
pub fn iterate(addr: &str, exp: &Expected) -> Iteration {
    let mut it = Iteration::default();
    let t0 = Instant::now();
    let est = client::request(addr, "POST", "/estimate", Some(exp.spec.as_bytes()), None);
    it.estimate_ms = ms(t0);
    it.estimate_ok = est.is_ok_and(|r| {
        let doc = r.json().unwrap_or(Json::Null);
        let cells = match doc.get("cells") {
            Some(Json::Arr(c)) => c.len(),
            _ => 0,
        };
        r.status == 200
            && doc.get("model").and_then(Json::as_bool) == Some(true)
            && cells == exp.cells
            && r.body == exp.estimate_body.as_bytes()
    });

    let t1 = Instant::now();
    let submitted = client::request(addr, "POST", "/jobs", Some(exp.spec.as_bytes()), None);
    it.submit_ms = ms(t1);
    let Ok(resp) = submitted else {
        it.job_ms = ms(t1);
        return it;
    };
    if resp.status != 201 {
        it.refused = resp.status == 429;
        it.job_ms = ms(t1);
        return it;
    }
    let doc = resp.json().unwrap_or(Json::Null);
    it.job_id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
    it.trace_id = doc
        .get("trace_id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();

    let t2 = Instant::now();
    let (mut lines, mut bytes, mut run_ends) = (0u64, 0u64, 0usize);
    let mut count = |chunk: &[u8]| {
        bytes += chunk.len() as u64;
        lines += chunk.iter().filter(|&&b| b == b'\n').count() as u64;
        run_ends += count_matches(chunk, b"\"type\":\"run_end\"");
    };
    let events = client::request(
        addr,
        "GET",
        &format!("/jobs/{}/events", it.job_id),
        None,
        Some(&mut count),
    );
    it.stream_ms = ms(t2);
    let stream_ok = events.is_ok_and(|r| r.status == 200) && run_ends == exp.cells;
    it.lines = lines;
    it.bytes = bytes;

    let t3 = Instant::now();
    let result = client::request(
        addr,
        "GET",
        &format!("/jobs/{}/result", it.job_id),
        None,
        None,
    );
    it.result_ms = ms(t3);
    it.job_ms = ms(t1);
    let result_ok = result.is_ok_and(|r| r.status == 200 && r.body == exp.result.as_bytes());

    // Outside the timed window: the job must have ended `done`.
    let done = client::status(addr, it.job_id)
        .is_ok_and(|d| d.get("state").and_then(Json::as_str) == Some("done"));
    it.job_ok = stream_ok && result_ok && done;
    it
}

/// Occurrences of `needle` in `hay` (event kinds never straddle a chunk:
/// the server writes whole lines per chunk).
fn count_matches(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len()).filter(|w| *w == needle).count()
}

/// The untraced `serve_jobs` run.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let grid = Grid::of("serve_jobs");
    let exp = Expected::compute(&grid, seed);
    let digests = Digests::load();
    if !digests.matches(seed, "serve_jobs", "result", digest::text(&exp.result))
        || !digests.matches(
            seed,
            "serve_jobs",
            "estimate_body",
            digest::text(&exp.estimate_body),
        )
    {
        report.broken = true;
    }
    report.note("job_spec", &exp.spec);
    report.note("client", "closed loop, 1 client, 1 connection at a time");

    // Set-up: start the server until one warm-up job's result is back.
    let mut setup_s = Vec::new();
    let mut server: Option<Running> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            previous.stop();
        }
        let t0 = Instant::now();
        let running = Running::start(&format!("setup{k}"))?;
        let warm = iterate(&running.addr, &exp);
        setup_s.push(t0.elapsed().as_secs_f64());
        if !(warm.job_ok && warm.estimate_ok) {
            report.broken = true;
        }
        server = Some(running);
    }
    let server = server.expect("at least one set-up");

    let (mut est_ms, mut job_ms) = (Vec::new(), Vec::new());
    let mut job_s = 0.0;
    let mut instructions = 0u64;
    let per_job_instructions = grid_instructions(&grid, seed)?;
    let start = Instant::now();
    while job_ms.len() < MIN_JOBS
        || (job_ms.len() < MAX_JOBS && start.elapsed().as_secs_f64() < seconds)
    {
        let it = iterate(&server.addr, &exp);
        est_ms.push(it.estimate_ms);
        report.op(it.estimate_ok);
        job_ms.push(it.job_ms);
        job_s += it.job_ms / 1e3;
        report.op(it.job_ok);
        if it.job_ok {
            instructions += per_job_instructions;
        }
    }
    let peak = proc_status_mb("VmHWM");
    server.stop();
    report.note("job", &p50_p90(&job_ms, "jobs"));
    report.note("estimate", &p50_p90(&est_ms, "estimates"));
    report_end_to_end(
        report,
        &setup_s,
        instructions as f64 / job_s / 1e6,
        peak,
        median(&job_ms),
        median(&est_ms),
    );
    Ok(())
}

/// Simulated instructions one job of the grid retires, from an
/// in-process run of its cells.
pub fn grid_instructions(grid: &Grid, seed: u64) -> Result<u64, String> {
    let results = crate::sim::run_grid(grid, &grid.generate(seed), seed)?;
    Ok(results.iter().map(|r| r.instructions).sum())
}
