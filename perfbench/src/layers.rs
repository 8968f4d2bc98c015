//! The traced run: per-layer metrics, measured from outside each crate by
//! timing the benchmark's own calls into the crates' public functions.
//!
//! | layer | what is timed or counted |
//! |---|---|
//! | trace | `SpecBench::generate` per bench |
//! | cpu | `System::run` per cell, on a one-worker `WorkerPool` |
//! | core | every engine call, through [`TimingEngine`] wrapped around `PolicyKind::build(cfg.l2)` and handed to `System::with_l2_engine` |
//! | cache | each bench's L1-filtered stream replayed through an LRU L2 `CacheModel::access` |
//! | mem | simulated counters of the cells' `SimResult`s |
//! | exec | the pool pass's wall time minus its cells (served jobs: `run` minus `run(cell=i,j)` spans) |
//! | telemetry | cells under `SinkProbe` into a `VecSink` vs plain, then `Event::to_ndjson_line` per event |
//! | model | `profile_trace` per bench, `score_cell` per cell |
//! | serve | client round trips plus the job's spans from `GET /debug/traces/:id` |
//!
//! Every `*_ns` metric is reported net of the measured cost of the
//! instrument (the `probe.*` metrics) next to its gross value and call
//! count.

use crate::digest::{self, Digests};
use crate::report::{proc_status_mb, Report};
use crate::serve::{self, Expected, Running};
use crate::sim::{self, elapsed_ns, Grid, SERVE_ACCESSES};
use crate::spans::Spans;
use crate::stats::median;
use mlpsim_cache::addr::{Geometry, LineAddr};
use mlpsim_cache::lru::LruEngine;
use mlpsim_cache::meta::{CostQ, WayMeta};
use mlpsim_cache::model::CacheModel;
use mlpsim_cache::policy::{ReplacementEngine, VictimCtx};
use mlpsim_cache::set::OwnedSet;
use mlpsim_cpu::config::SystemConfig;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_cpu::stats::SimResult;
use mlpsim_cpu::system::System;
use mlpsim_exec::{CancelToken, SpanHook, WorkerPool};
use mlpsim_serve::client;
use mlpsim_telemetry::{EventSink, Json, SinkHandle, SinkProbe, VecSink};
use mlpsim_trace::record::{AccessKind, Trace};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls per floor measurement, and how many measurements the median is
/// taken over.
const FLOOR_CALLS: u64 = 200_000;
const FLOOR_REPEATS: usize = 5;

/// Closed-loop iterations of the serve phase in a simulator workload's
/// traced run (`serve_jobs` runs its whole `--seconds`).
const SIM_SERVE_ITERATIONS: usize = 6;

/// Calls and gross nanoseconds per engine hook.
#[derive(Clone, Copy, Debug, Default)]
struct EngineCounts {
    victim_calls: u64,
    victim_ns: u64,
    access_calls: u64,
    access_ns: u64,
    serviced_calls: u64,
    serviced_ns: u64,
}

impl EngineCounts {
    fn add(&mut self, o: &EngineCounts) {
        self.victim_calls += o.victim_calls;
        self.victim_ns += o.victim_ns;
        self.access_calls += o.access_calls;
        self.access_ns += o.access_ns;
        self.serviced_calls += o.serviced_calls;
        self.serviced_ns += o.serviced_ns;
    }
}

/// A forwarding engine that counts and times every call into the wrapped
/// one. Counts accumulate locally and are published to `out` on drop
/// (`System::run` consumes the system, and the engine with it).
struct TimingEngine {
    inner: Box<dyn ReplacementEngine>,
    /// A fixed delay added inside every timed `victim()` call; non-zero
    /// only in `--selftest`.
    plant_ns: u64,
    counts: EngineCounts,
    out: Rc<RefCell<EngineCounts>>,
}

impl TimingEngine {
    fn new(
        inner: Box<dyn ReplacementEngine>,
        plant_ns: u64,
        out: Rc<RefCell<EngineCounts>>,
    ) -> Self {
        TimingEngine {
            inner,
            plant_ns,
            counts: EngineCounts::default(),
            out,
        }
    }
}

impl Drop for TimingEngine {
    fn drop(&mut self) {
        self.out.borrow_mut().add(&self.counts);
    }
}

impl ReplacementEngine for TimingEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let t0 = Instant::now();
        let way = self.inner.victim(ctx);
        if self.plant_ns > 0 {
            spin(self.plant_ns);
        }
        self.counts.victim_ns += elapsed_ns(t0);
        self.counts.victim_calls += 1;
        way
    }

    fn on_access(&mut self, line: LineAddr, seq: u64, hit: bool, resident_cost_q: Option<CostQ>) {
        let t0 = Instant::now();
        self.inner.on_access(line, seq, hit, resident_cost_q);
        self.counts.access_ns += elapsed_ns(t0);
        self.counts.access_calls += 1;
    }

    fn on_serviced(&mut self, line: LineAddr, cost_q: CostQ) {
        let t0 = Instant::now();
        self.inner.on_serviced(line, cost_q);
        self.counts.serviced_ns += elapsed_ns(t0);
        self.counts.serviced_calls += 1;
    }

    fn on_epoch(&mut self) {
        self.inner.on_epoch();
    }

    fn debug_state(&self) -> Option<String> {
        self.inner.debug_state()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn policy_for_set(&self, set_index: u32) -> &'static str {
        self.inner.policy_for_set(set_index)
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.inner.attach_sink(sink);
    }
}

fn spin(ns: u64) {
    let t0 = Instant::now();
    while elapsed_ns(t0) < ns {
        std::hint::spin_loop();
    }
}

/// An engine that does nothing, for measuring the instrument itself.
struct NullEngine;

impl ReplacementEngine for NullEngine {
    fn victim(&mut self, _ctx: &VictimCtx<'_>) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// The instrument's own cost on this host.
#[derive(Clone, Copy, Debug)]
struct Floors {
    /// One `Instant::now()`.
    clock_ns: f64,
    /// What [`TimingEngine`] records for an empty call, per hook
    /// (victim, on_access, on_serviced): subtracted from every recorded
    /// call.
    recorded_ns: [f64; 3],
    /// Host time one instrumented empty call adds over an uninstrumented
    /// one, per hook: subtracted with the engine's net time from a traced
    /// cell to leave the cpu layer's own time.
    added_ns: [f64; 3],
}

impl Floors {
    fn measure() -> Floors {
        let samples: Vec<Floors> = (0..FLOOR_REPEATS).map(|_| measure_floors_once()).collect();
        let pick = |f: &dyn Fn(&Floors) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        Floors {
            clock_ns: pick(&|s| s.clock_ns),
            recorded_ns: [0, 1, 2].map(|i| pick(&|s| s.recorded_ns[i])),
            added_ns: [0, 1, 2].map(|i| pick(&|s| s.added_ns[i])),
        }
    }
}

fn measure_floors_once() -> Floors {
    let n = FLOOR_CALLS;
    let per_call = |t0: Instant| elapsed_ns(t0) as f64 / n as f64;
    let ways = vec![
        WayMeta {
            valid: true,
            ..WayMeta::invalid()
        };
        16
    ];
    let set = OwnedSet::from_ways(&ways, 0, Geometry::baseline_l2());
    let ctx = VictimCtx {
        set: set.view(),
        incoming: LineAddr(1),
        seq: 0,
    };

    let t0 = Instant::now();
    for _ in 0..n {
        black_box(Instant::now());
    }
    let clock_ns = per_call(t0);

    // The same three loops through a bare and through a timed null engine.
    let run = |engine: &mut Box<dyn ReplacementEngine>| -> [f64; 3] {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(engine.victim(black_box(&ctx)));
        }
        let victim = per_call(t0);
        let t0 = Instant::now();
        for i in 0..n {
            engine.on_access(black_box(LineAddr(i)), i, false, None);
        }
        let access = per_call(t0);
        let t0 = Instant::now();
        for i in 0..n {
            engine.on_serviced(black_box(LineAddr(i)), 0);
        }
        [victim, access, per_call(t0)]
    };
    let bare = run(&mut (Box::new(NullEngine) as Box<dyn ReplacementEngine>));
    let out = Rc::new(RefCell::new(EngineCounts::default()));
    let timed = {
        let mut engine: Box<dyn ReplacementEngine> =
            Box::new(TimingEngine::new(Box::new(NullEngine), 0, Rc::clone(&out)));
        run(&mut engine)
    };
    let c = *out.borrow();
    Floors {
        clock_ns,
        recorded_ns: [
            c.victim_ns as f64 / n as f64,
            c.access_ns as f64 / n as f64,
            c.serviced_ns as f64 / n as f64,
        ],
        added_ns: [0, 1, 2].map(|i| (timed[i] - bare[i]).max(0.0)),
    }
}

/// Per-layer totals over one pass of a grid.
#[derive(Default)]
struct Layers {
    generate_ns: u64,
    /// Accesses generated, and accesses simulated over all cells.
    generated: u64,
    accesses: u64,
    /// Σ plain `System::run` time, and the same cells under the timing
    /// engine.
    plain_run_ns: u64,
    timed_run_ns: u64,
    pool_overhead_ns: i64,
    instructions: u64,
    cycles: u64,
    engine: EngineCounts,
    replay_ns: u64,
    replay_floor_ns: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub l1_misses: u64,
    fills: u64,
    fill_latency: u64,
    stall_cycles: u64,
    peak_mlp: usize,
    events: u64,
    event_bytes: u64,
    probe_extra_ns: i64,
    encode_ns: u64,
    profile_ns: u64,
    score_ns: Vec<u64>,
    pruned: usize,
    scored: usize,
}

impl Layers {
    /// Net engine time per hook: gross minus calls × recorded floor.
    fn engine_net_ns(&self, floors: &Floors) -> [f64; 3] {
        let e = &self.engine;
        [
            (e.victim_ns, e.victim_calls),
            (e.access_ns, e.access_calls),
            (e.serviced_ns, e.serviced_calls),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(ns, calls))| ns as f64 - calls as f64 * floors.recorded_ns[i])
        .collect::<Vec<_>>()
        .try_into()
        .expect("three hooks")
    }

    /// The cpu layer's own time per access: a timed cell minus the
    /// engine's net time and the instrument's added cost.
    fn cpu_net_ns_per_access(&self, floors: &Floors) -> f64 {
        let net: f64 = self.engine_net_ns(floors).iter().sum();
        let e = &self.engine;
        let added = e.victim_calls as f64 * floors.added_ns[0]
            + e.access_calls as f64 * floors.added_ns[1]
            + e.serviced_calls as f64 * floors.added_ns[2];
        (self.timed_run_ns as f64 - net - added) / self.accesses as f64
    }

    fn per_call(ns: f64, calls: u64) -> f64 {
        if calls == 0 {
            0.0
        } else {
            ns / calls as f64
        }
    }
}

/// Runs one cell with every engine call timed, `plant_ns` added to each
/// `victim()`. Returns the result, the cell's host time and the counts.
fn timed_cell(policy: PolicyKind, trace: &Trace, plant_ns: u64) -> (SimResult, u64, EngineCounts) {
    let cfg = SystemConfig::baseline(policy);
    let counts = Rc::new(RefCell::new(EngineCounts::default()));
    let engine = TimingEngine::new(cfg.policy.build(cfg.l2), plant_ns, Rc::clone(&counts));
    let t0 = Instant::now();
    let result = System::with_l2_engine(cfg, Box::new(engine)).run(trace.iter());
    let ns = elapsed_ns(t0);
    let c = *counts.borrow();
    (result, ns, c)
}

/// `timed` equals `plain` but for the label: `with_l2_engine` labels a
/// run with the engine's name ("lin"), `System::new` with the policy's
/// ("lin(4)").
fn transparent(timed: SimResult, plain: &SimResult) -> bool {
    SimResult {
        policy: plain.policy.clone(),
        ..timed
    } == *plain
}

/// Measures every in-process layer over one pass of the grid: trace,
/// exec, cpu, core, cache, mem, telemetry and model. Checks every cell
/// against its digest and the traced runs against the untraced one.
fn layer_suite(
    workload: &str,
    grid: &Grid,
    seed: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<Layers, String> {
    let digests = Digests::load();
    let mut l = Layers::default();
    let cells = grid.cells();

    // trace: one span per bench.
    let mut traces = Vec::new();
    let mut bench_ops = Vec::new();
    for bench in &grid.benches {
        let op = spans.open(format!("bench {}", bench.name()));
        let t0 = spans.now();
        let trace = Arc::new(bench.generate(grid.accesses, seed));
        let t1 = spans.now();
        spans.record(
            "trace.generate",
            op,
            t0,
            t1,
            vec![("accesses", trace.len() as f64)],
        );
        l.generate_ns += t1 - t0;
        l.generated += trace.len() as u64;
        l.accesses += trace.len() as u64 * grid.policies.len() as u64;
        traces.push(trace);
        bench_ops.push(op);
    }

    // exec + cpu: one pass of plain cells through a one-worker pool.
    let cell_times = Arc::new(Mutex::new(vec![(0u64, 0u64); cells.len()]));
    let hook = SpanHook {
        clock: mlpsim_telemetry::prof::now_ns,
        record: {
            let times = Arc::clone(&cell_times);
            Arc::new(move |idx, t0, t1| {
                if let Some(slot) = times.lock().expect("cell timing lock").get_mut(idx) {
                    *slot = (t0, t1);
                }
            })
        },
    };
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(b, policy)| {
            let trace = Arc::clone(&traces[b]);
            move || System::new(SystemConfig::baseline(policy)).run(trace.iter())
        })
        .collect();
    let pool = WorkerPool::new(1);
    // The pool's hook reads the prof clock; spans use their own epoch.
    let offset = spans.now() as i64 - mlpsim_telemetry::prof::now_ns() as i64;
    let pass_op = spans.open("pool pass");
    let wall0 = mlpsim_telemetry::prof::now_ns();
    let plain: Vec<SimResult> = pool
        .try_map_ordered_spanned(jobs, &CancelToken::new(), Some(&hook))
        .map_err(|_| "a private cancel token fired".to_string())?;
    let wall = mlpsim_telemetry::prof::now_ns() - wall0;
    drop(pool);
    spans.close(pass_op);
    let cell_times = cell_times.lock().expect("cell timing lock").clone();
    for (&(t0, t1), &cell) in cell_times.iter().zip(&cells) {
        let at = |t: u64| (t as i64 + offset).max(0) as u64;
        spans.record(
            format!("cpu.run {}", grid.cell_key(cell)),
            pass_op,
            at(t0),
            at(t1),
            Vec::new(),
        );
    }
    let cell_ns: Vec<u64> = cell_times.iter().map(|&(t0, t1)| t1 - t0).collect();
    l.plain_run_ns = cell_ns.iter().sum();
    l.pool_overhead_ns = wall as i64 - l.plain_run_ns as i64;

    for (i, (&cell, r)) in cells.iter().zip(&plain).enumerate() {
        let ok = digests.matches(seed, workload, &grid.cell_key(cell), digest::sim_result(r));
        report.op(ok);
        l.instructions += r.instructions;
        l.cycles += r.cycles;
        l.fills += r.mem.fills;
        l.fill_latency += r.mem.total_fill_latency;
        l.stall_cycles += r.mem_stall_cycles;
        l.peak_mlp = l.peak_mlp.max(r.peak_mlp);

        // core: the same cell with every engine call timed.
        let op = spans.open(format!("cell {}", grid.cell_key(cell)));
        let (timed, ns, c) = timed_cell(cell.1, &traces[cell.0], 0);
        let t1 = spans.now();
        let t0 = t1.saturating_sub(ns);
        spans.record(
            "core.run",
            op,
            t0,
            t1,
            vec![
                ("victim_calls", c.victim_calls as f64),
                ("victim_ns", c.victim_ns as f64),
                ("on_access_calls", c.access_calls as f64),
                ("on_access_ns", c.access_ns as f64),
                ("on_serviced_calls", c.serviced_calls as f64),
                ("on_serviced_ns", c.serviced_ns as f64),
            ],
        );
        l.timed_run_ns += t1 - t0;
        l.engine.add(&c);
        if !transparent(timed, r) {
            eprintln!(
                "traced run of {} differs from the untraced run",
                grid.cell_key(cell)
            );
            report.broken = true;
        }

        telemetry_cell(
            cell.1,
            &traces[cell.0],
            cell_ns[i],
            r,
            &mut l,
            op,
            spans,
            report,
        );
        spans.close(op);
    }

    // cache: each bench's L1-filtered stream through an LRU L2.
    for (b, trace) in traces.iter().enumerate() {
        let op = bench_ops[b];
        let lru_ref = match cells
            .iter()
            .position(|&(cb, p)| cb == b && matches!(p, PolicyKind::Lru))
        {
            Some(i) => plain[i].clone(),
            None => {
                let t0 = spans.now();
                let r = System::new(SystemConfig::baseline(PolicyKind::Lru)).run(trace.iter());
                spans.record("cpu.run_lru_reference", op, t0, spans.now(), Vec::new());
                r
            }
        };
        let t0 = spans.now();
        let stream = l1_filter(trace);
        let t1 = spans.now();
        spans.record(
            "cache.l1_filter",
            op,
            t0,
            t1,
            vec![("l1_misses", stream.len() as f64)],
        );
        let (replay, floor, stats) = replay_l2(&stream);
        spans.record(
            "cache.l2_replay",
            op,
            t1,
            spans.now(),
            vec![
                ("accesses", stats.0 as f64),
                ("misses", stats.1 as f64),
                ("ns", replay as f64),
            ],
        );
        if stats != (lru_ref.l2.accesses(), lru_ref.l2.misses) {
            eprintln!(
                "LRU replay of {} gave {stats:?} accesses/misses, the simulator {}/{}",
                grid.benches[b].name(),
                lru_ref.l2.accesses(),
                lru_ref.l2.misses
            );
            report.broken = true;
        }
        l.replay_ns += replay;
        l.replay_floor_ns += floor;
        l.l2_accesses += stats.0;
        l.l2_misses += stats.1;
        l.l1_misses += stream.len() as u64;
        spans.close(op);
    }

    // model: the grid's estimate.
    {
        let op = spans.open("estimate");
        let t0 = spans.now();
        let est = sim::estimate(grid, &traces);
        let t1 = spans.now();
        spans.record(
            "model.profile_and_score",
            op,
            t0,
            t1,
            vec![("profile_ns", est.profile_ns.iter().sum::<u64>() as f64)],
        );
        spans.close(op);
        report.op(digests.matches(seed, workload, "model", digest::text(&est.canonical())));
        l.profile_ns = est.profile_ns.iter().sum();
        l.score_ns = est.score_ns.clone();
        l.pruned = est.pruned();
        l.scored = est.scores.len();
    }
    Ok(l)
}

/// The telemetry layer for one cell: the probe's cost per event and the
/// NDJSON encoding cost per event.
#[allow(clippy::too_many_arguments)]
fn telemetry_cell(
    policy: PolicyKind,
    trace: &Trace,
    plain_ns: u64,
    plain: &SimResult,
    l: &mut Layers,
    op: u64,
    spans: &mut Spans,
    report: &mut Report,
) {
    let buf = Arc::new(Mutex::new(VecSink::new()));
    let handle = SinkHandle::shared(Arc::clone(&buf) as Arc<Mutex<dyn EventSink + Send>>);
    let t0 = spans.now();
    let probed = System::with_probe(SystemConfig::baseline(policy), SinkProbe::new(handle))
        .run(trace.iter());
    let t1 = spans.now();
    let events = std::mem::take(&mut buf.lock().expect("event buffer lock").events);
    if digest::sim_result(&probed) != digest::sim_result(plain) {
        eprintln!("the probe changed a simulated result");
        report.broken = true;
    }
    let mut bytes = 0u64;
    for ev in &events {
        bytes += black_box(ev.to_ndjson_line()).len() as u64 + 1;
    }
    let t2 = spans.now();
    spans.record(
        "telemetry.probe_run",
        op,
        t0,
        t1,
        vec![("events", events.len() as f64)],
    );
    spans.record(
        "telemetry.encode",
        op,
        t1,
        t2,
        vec![("bytes", bytes as f64)],
    );
    l.events += events.len() as u64;
    l.event_bytes += bytes;
    l.probe_extra_ns += (t1 - t0) as i64 - plain_ns as i64;
    l.encode_ns += t2 - t1;
}

/// The L2 access stream of a trace: its accesses that miss a baseline
/// LRU L1D, with the simulator's sequence numbers.
fn l1_filter(trace: &Trace) -> Vec<(LineAddr, bool, u64)> {
    let mut l1 = CacheModel::new(Geometry::baseline_l1d(), Box::new(LruEngine::new()));
    trace
        .iter()
        .enumerate()
        .filter_map(|(seq, a)| {
            let line = LineAddr(a.line);
            let store = a.kind == AccessKind::Store;
            let seq = seq as u64;
            (!l1.access(line, store, seq).hit).then_some((line, store, seq))
        })
        .collect()
}

/// Replays an L2 stream through a baseline LRU L2. Returns the replay's
/// nanoseconds, the same loop's nanoseconds without the access (the
/// floor), and the L2's (accesses, misses).
fn replay_l2(stream: &[(LineAddr, bool, u64)]) -> (u64, u64, (u64, u64)) {
    let mut l2 = CacheModel::new(Geometry::baseline_l2(), Box::new(LruEngine::new()));
    let t0 = Instant::now();
    for &(line, store, seq) in stream {
        black_box(l2.access(line, store, seq));
    }
    let replay = elapsed_ns(t0);
    let t0 = Instant::now();
    for &entry in stream {
        black_box(entry);
    }
    let floor = elapsed_ns(t0);
    (replay, floor, (l2.stats().accesses(), l2.stats().misses))
}

/// Per-job serve-layer numbers from traced iterations.
#[derive(Default)]
struct ServeLayer {
    submit: Vec<f64>,
    queue_wait: Vec<f64>,
    run: Vec<f64>,
    journal: Vec<f64>,
    stream: Vec<f64>,
    result: Vec<f64>,
    exec_overhead: Vec<f64>,
    lines: Vec<f64>,
    bytes: Vec<f64>,
    traced_job_ms: Vec<f64>,
    plain_job_ms: Vec<f64>,
    refused: u64,
    jobs: u64,
    rss_growth_mb: f64,
}

/// Runs the closed loop against a fresh server, alternating plain
/// iterations with traced ones that also read the job's spans back.
fn serve_phase(
    grid: &Grid,
    seed: u64,
    until: &dyn Fn(usize, f64) -> bool,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<ServeLayer, String> {
    let exp = Expected::compute(grid, seed);
    let server = Running::start("traced")?;
    let warm = serve::iterate(&server.addr, &exp);
    if !(warm.job_ok && warm.estimate_ok) {
        report.broken = true;
    }
    let mut s = ServeLayer::default();
    let rss0 = proc_status_mb("VmRSS");
    let start = Instant::now();
    let mut i = 0usize;
    while !until(i, start.elapsed().as_secs_f64()) {
        let traced = i % 2 == 1;
        let op = spans.open("job");
        let t0 = spans.now();
        let it = serve::iterate(&server.addr, &exp);
        let t1 = spans.now();
        report.op(it.estimate_ok);
        report.op(it.job_ok);
        s.refused += u64::from(it.refused);
        s.jobs += 1;
        i += 1;
        if !traced {
            s.plain_job_ms.push(it.job_ms);
            spans.close(op);
            continue;
        }
        s.traced_job_ms.push(it.job_ms);
        let est_ns = (it.estimate_ms * 1e6) as u64;
        spans.record("serve.estimate", op, t0, t0 + est_ns, Vec::new());
        spans.record(
            "serve.job",
            op,
            t0 + est_ns,
            t1,
            vec![
                ("submit_ms", it.submit_ms),
                ("stream_ms", it.stream_ms),
                ("result_ms", it.result_ms),
            ],
        );
        s.submit.push(it.submit_ms);
        s.stream.push(it.stream_ms);
        s.result.push(it.result_ms);
        s.lines.push(it.lines as f64);
        s.bytes.push(it.bytes as f64);
        if let Some(server_spans) = fetch_job_spans(&server.addr, &it.trace_id) {
            let get = |name: &str| -> f64 {
                server_spans
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, ms)| ms)
                    .sum()
            };
            let cells: f64 = server_spans
                .iter()
                .filter(|(n, _)| n.starts_with("run(cell="))
                .map(|(_, ms)| ms)
                .sum();
            s.queue_wait.push(get("queue_wait"));
            s.run.push(get("run"));
            s.journal.push(get("journal_append"));
            s.exec_overhead.push(get("run") - cells);
        } else {
            eprintln!(
                "trace {} of job {} was not retained",
                it.trace_id, it.job_id
            );
            report.broken = true;
        }
        spans.close(op);
    }
    s.rss_growth_mb = proc_status_mb("VmRSS") - rss0;
    server.stop();
    Ok(s)
}

/// `(name, duration ms)` of every span of one trace, retried briefly:
/// the server completes a job's trace just after closing its stream.
fn fetch_job_spans(addr: &str, trace_id: &str) -> Option<Vec<(String, f64)>> {
    for _ in 0..50 {
        if let Ok(doc) = client::trace(addr, trace_id, false) {
            let Some(Json::Arr(items)) = doc.get("spans") else {
                return None;
            };
            let spans = items
                .iter()
                .filter_map(|s| {
                    let name = s.get("name").and_then(Json::as_str)?.to_string();
                    let us = s.get("dur_us").and_then(Json::as_f64)?;
                    Some((name, us / 1e3))
                })
                .collect();
            return Some(spans);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    None
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// The traced run of any workload.
pub fn traced(workload: &str, seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let grid = Grid::of(workload);
    let mut spans = Spans::new();
    let floors = Floors::measure();
    let l = layer_suite(workload, &grid, seed, &mut spans, report)?;

    let serve_grid = grid.with_accesses(SERVE_ACCESSES);
    let s = if workload == "serve_jobs" {
        let until = |jobs, t| jobs >= serve::MAX_JOBS || (jobs >= serve::MIN_JOBS && t >= seconds);
        serve_phase(&serve_grid, seed, &until, &mut spans, report)?
    } else {
        serve_phase(
            &serve_grid,
            seed,
            &|i, _| i >= SIM_SERVE_ITERATIONS,
            &mut spans,
            report,
        )?
    };
    let streamed_other = |v: &[f64], n: u64| v.iter().any(|&x| x as u64 != n);
    if workload == "serve_jobs"
        && (streamed_other(&s.lines, l.events) || streamed_other(&s.bytes, l.event_bytes))
    {
        eprintln!("a served stream differs in lines or bytes from the in-process events");
        report.broken = true;
    }
    report.note(
        "serve_phase",
        &format!(
            "{} jobs of {} at {} accesses ({} read back through /debug/traces)",
            s.jobs,
            serve_grid.spec_json(seed),
            SERVE_ACCESSES,
            s.traced_job_ms.len()
        ),
    );

    let ms = |ns: f64| ns / 1e6;
    let net = l.engine_net_ns(&floors);
    let e = &l.engine;
    let overhead_pct = if workload == "serve_jobs" {
        let plain = median_or_zero(&s.plain_job_ms);
        (median_or_zero(&s.traced_job_ms) - plain) / plain * 100.0
    } else {
        (l.timed_run_ns as f64 - l.plain_run_ns as f64) / l.plain_run_ns as f64 * 100.0
    };
    let exec_overhead_ms = if workload == "serve_jobs" {
        median_or_zero(&s.exec_overhead)
    } else {
        ms(l.pool_overhead_ns as f64)
    };

    report.metric("probe.clock_ns", floors.clock_ns, "ns");
    report.metric("probe.floor_ns", floors.recorded_ns[0], "ns");
    report.metric("probe.call_cost_ns", floors.added_ns[0], "ns");
    report.metric("tracing.overhead_pct", overhead_pct, "%");
    report.metric("trace.generate_ms", ms(l.generate_ns as f64), "ms");
    report.metric("trace.accesses", l.generated as f64, "count");
    report.metric("cpu.run_ms", ms(l.plain_run_ns as f64), "ms");
    report.metric("cpu.ns_per_access", l.cpu_net_ns_per_access(&floors), "ns");
    report.metric(
        "cpu.ns_per_access_gross",
        l.plain_run_ns as f64 / l.accesses as f64,
        "ns",
    );
    report.metric("cpu.instructions", l.instructions as f64, "count");
    report.metric("cpu.cycles", l.cycles as f64, "count");
    for (i, (name, ns, calls)) in [
        ("victim", e.victim_ns, e.victim_calls),
        ("on_access", e.access_ns, e.access_calls),
        ("on_serviced", e.serviced_ns, e.serviced_calls),
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(&format!("core.{name}_calls"), calls as f64, "count");
        report.metric(
            &format!("core.{name}_ns"),
            Layers::per_call(net[i], calls),
            "ns",
        );
        report.metric(
            &format!("core.{name}_ns_gross"),
            Layers::per_call(ns as f64, calls),
            "ns",
        );
    }
    report.metric(
        "core.share",
        net.iter().sum::<f64>() / l.plain_run_ns as f64,
        "ratio",
    );
    let replay_net = l.replay_ns as f64 - l.replay_floor_ns as f64;
    report.metric(
        "cache.l2_access_ns",
        replay_net / l.l2_accesses as f64,
        "ns",
    );
    report.metric(
        "cache.l2_access_ns_gross",
        l.replay_ns as f64 / l.l2_accesses as f64,
        "ns",
    );
    report.metric("cache.l2_accesses", l.l2_accesses as f64, "count");
    report.metric("cache.l2_misses", l.l2_misses as f64, "count");
    report.metric(
        "cache.l2_hit_ratio",
        1.0 - l.l2_misses as f64 / l.l2_accesses as f64,
        "ratio",
    );
    report.metric("cache.l1_misses", l.l1_misses as f64, "count");
    report.metric("mem.fills", l.fills as f64, "count");
    report.metric(
        "mem.mean_fill_latency_cycles",
        l.fill_latency as f64 / l.fills.max(1) as f64,
        "cycles",
    );
    report.metric("mem.stall_cycles", l.stall_cycles as f64, "cycles");
    report.metric("mem.peak_mlp", l.peak_mlp as f64, "count");
    report.metric("exec.overhead_ms", exec_overhead_ms, "ms");
    report.metric("telemetry.lines_per_job", l.events as f64, "count");
    report.metric("telemetry.bytes_per_job", l.event_bytes as f64, "bytes");
    report.metric(
        "telemetry.probe_ns_per_event",
        l.probe_extra_ns as f64 / l.events.max(1) as f64,
        "ns",
    );
    report.metric(
        "telemetry.encode_ns_per_event",
        l.encode_ns as f64 / l.events.max(1) as f64,
        "ns",
    );
    report.metric("model.profile_ms", ms(l.profile_ns as f64), "ms");
    report.metric(
        "model.score_us",
        l.score_ns.iter().sum::<u64>() as f64 / l.score_ns.len().max(1) as f64 / 1e3,
        "us",
    );
    report.metric(
        "model.pruned_ratio",
        l.pruned as f64 / l.scored.max(1) as f64,
        "ratio",
    );
    report.metric("serve.submit_ms", median_or_zero(&s.submit), "ms");
    // The server's spans have microsecond resolution, so the two short
    // ones are averaged rather than taking a median of a few integer µs.
    report.metric("serve.queue_wait_ms", mean(&s.queue_wait), "ms");
    report.metric("serve.run_ms", median_or_zero(&s.run), "ms");
    report.metric("serve.journal_append_ms", mean(&s.journal), "ms");
    report.metric("serve.stream_ms", median_or_zero(&s.stream), "ms");
    report.metric("serve.result_ms", median_or_zero(&s.result), "ms");
    report.metric(
        "serve.rss_per_job_mb",
        s.rss_growth_mb / s.jobs.max(1) as f64,
        "MB",
    );
    report.metric("serve.refused", s.refused as f64, "count");

    let path = PathBuf::from(".perfbench").join(format!("spans-{workload}-seed{seed}.ndjson"));
    spans
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.note("spans", &path.display().to_string());
    Ok(())
}

/// Plants a fixed delay in `TimingEngine::victim()` and checks that the
/// per-layer numbers attribute it to the core layer alone, and that it
/// weighs several times more on the miss-heavy workload. Planted and
/// unplanted runs alternate cell by cell so host drift cancels.
pub fn selftest() -> bool {
    const PLANT_NS: u64 = 1_000;
    let seed = mlpsim_experiments::runner::DEFAULT_SEED;
    let floors = Floors::measure();
    println!(
        "floors: clock {:.1} ns, recorded {:?} ns, added {:?} ns",
        floors.clock_ns, floors.recorded_ns, floors.added_ns
    );
    let mut ok = true;
    let mut shares = Vec::new();
    for workload in ["sim_miss_heavy", "sim_hit_heavy"] {
        let grid = Grid::of(workload);
        let traces = grid.generate(seed);
        let (mut base, mut planted) = (Layers::default(), Layers::default());
        let mut same_results = true;
        for (b, policy) in grid.cells() {
            let t0 = Instant::now();
            let plain = System::new(SystemConfig::baseline(policy)).run(traces[b].iter());
            base.plain_run_ns += elapsed_ns(t0);
            for (plant_ns, l) in [(0, &mut base), (PLANT_NS, &mut planted)] {
                let (r, ns, c) = timed_cell(policy, &traces[b], plant_ns);
                same_results &= transparent(r, &plain);
                l.timed_run_ns += ns;
                l.engine.add(&c);
                l.accesses += traces[b].len() as u64;
            }
        }
        for trace in &traces {
            let stream = l1_filter(trace);
            for l in [&mut base, &mut planted] {
                let (replay, floor, (accesses, _)) = replay_l2(&stream);
                l.replay_ns += replay;
                l.replay_floor_ns += floor;
                l.l2_accesses += accesses;
            }
        }
        let calls = planted.engine.victim_calls as f64;
        let victim = |l: &Layers| l.engine_net_ns(&floors)[0] / l.engine.victim_calls.max(1) as f64;
        let d_victim = victim(&planted) - victim(&base);
        let cache = |l: &Layers| {
            l.replay_ns.saturating_sub(l.replay_floor_ns) as f64 / l.l2_accesses as f64
        };
        let d_cache = cache(&planted) - cache(&base);
        let d_cpu = planted.cpu_net_ns_per_access(&floors) - base.cpu_net_ns_per_access(&floors);
        let planted_per_access = calls * PLANT_NS as f64 / planted.accesses as f64;
        let share = calls * PLANT_NS as f64 / base.plain_run_ns as f64;
        shares.push(share);
        println!(
            "{workload}: {calls} victim calls; {PLANT_NS} ns planted per call = {planted_per_access:.1} ns per access, {:.1}% of the untraced run",
            share * 100.0
        );
        println!(
            "  change: core.victim_ns {d_victim:+.1} ns, cache.l2_access_ns {d_cache:+.2} ns, cpu.ns_per_access (net of core) {d_cpu:+.2} ns"
        );
        let checks = [
            ("planted runs simulate the same results", same_results),
            (
                "core.victim_ns moves by the planted delay",
                d_victim > 0.8 * PLANT_NS as f64 && d_victim < 1.5 * PLANT_NS as f64,
            ),
            (
                "cache.l2_access_ns moves by under a tenth of the planted delay",
                d_cache.abs() < 0.1 * PLANT_NS as f64,
            ),
            (
                "cpu.ns_per_access net of core moves by under a quarter of the planted ns per access",
                d_cpu.abs() < 0.25 * planted_per_access,
            ),
        ];
        for (what, pass) in checks {
            println!("  {} {what}", if pass { "PASS" } else { "FAIL" });
            ok &= pass;
        }
    }
    let ratio = shares[0] / shares[1];
    let pass = ratio >= 2.5;
    println!(
        "{} the planted share is {ratio:.1}x larger on sim_miss_heavy than on sim_hit_heavy",
        if pass { "PASS" } else { "FAIL" }
    );
    ok && pass
}
