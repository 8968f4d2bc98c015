//! Shared server state: the job table, the bounded admission queue, the
//! per-job live event logs, and the metrics registry.
//!
//! Everything here is plain `Mutex`/`Condvar` coordination — no async
//! runtime. Every lock goes through the private `lock` helper, which
//! names the lock's `Level`: a thread takes locks in strictly increasing
//! level order, so no two threads can deadlock on a pair (rule D10), and
//! debug builds assert the order on every acquisition. A poisoned lock yields its
//! guard, so a panicked connection thread cannot wedge the whole server.

use crate::journal::{JobStatus, Journal, JournalOp, Recovered};
use crate::log;
use crate::metrics::{self, Histograms};
use mlpsim_exec::CancelToken;
use mlpsim_experiments::jobspec::JobSpec;
use mlpsim_telemetry::trace::{CompletedTrace, FlightRecorder, SpanGuard, TraceCtx};
use mlpsim_telemetry::{Event, EventSink, Json, Registry};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The order in which a thread may take serve's locks: only a lock whose
/// level is above every lock the thread already holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// `State::inner`: the job table and the admission queue.
    Jobs,
    /// `State::journal`, taken under `Jobs` to journal a transition.
    Journal,
    /// An [`EventLog`], closed under `Jobs` when its job ends.
    Log,
    /// `State::metrics`.
    Metrics,
    /// `State::hists`, read under `Metrics` to render `/metrics`.
    Hists,
}

thread_local! {
    /// Levels of the locks this thread holds (checked in debug builds).
    static HELD: RefCell<Vec<Level>> = const { RefCell::new(Vec::new()) };
}

/// Records a lock level as held by this thread until dropped.
struct Held(Level);

impl Held {
    fn take(level: Level) -> Held {
        if cfg!(debug_assertions) {
            HELD.with_borrow_mut(|held| {
                if let Some(&top) = held.iter().max() {
                    assert!(
                        level > top,
                        "lock order: {level:?} taken while holding {top:?}"
                    );
                }
                held.push(level);
            });
        }
        Held(level)
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        let level = self.0;
        if cfg!(debug_assertions) {
            HELD.with_borrow_mut(|held| {
                if let Some(i) = held.iter().rposition(|&l| l == level) {
                    held.remove(i);
                }
            });
        }
    }
}

/// A locked mutex. Fields drop in order: the mutex unlocks, then its
/// level is released.
pub(crate) struct Guard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Guard<'_, T> {
    /// Waits on `cond` with the lock released; its level stays held,
    /// since the thread takes nothing else while it sleeps.
    fn wait_timeout(self, cond: &Condvar, dur: Duration) -> Self {
        let Guard { guard, _held } = self;
        let (guard, _timeout) = cond
            .wait_timeout(guard, dur)
            .unwrap_or_else(PoisonError::into_inner);
        Guard { guard, _held }
    }
}

/// The one way serve takes a lock. The order check runs before blocking,
/// so an out-of-order acquisition fails even when it would not deadlock
/// this time. A poisoned mutex yields its guard anyway (the protected
/// data is simple enough that every mutation is atomic with respect to a
/// panic).
pub(crate) fn lock<T>(m: &Mutex<T>, level: Level) -> Guard<'_, T> {
    let held = Held::take(level);
    Guard {
        guard: m.lock().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

/// A job's live telemetry stream: NDJSON lines appended by the executor,
/// consumed by any number of `/jobs/:id/events` readers at their own
/// cursors.
#[derive(Debug, Default)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    cond: Condvar,
}

#[derive(Debug, Default)]
struct LogInner {
    lines: Vec<String>,
    done: bool,
}

impl EventLog {
    /// A fresh, open log.
    pub fn new() -> Arc<EventLog> {
        Arc::new(EventLog::default())
    }

    /// A log that is already finished (recovered terminal jobs: the live
    /// stream died with the previous process; results persist on disk).
    pub fn finished() -> Arc<EventLog> {
        let log = EventLog::default();
        lock(&log.inner, Level::Log).done = true;
        Arc::new(log)
    }

    /// Append one NDJSON line and wake waiting readers.
    pub fn push(&self, line: String) {
        lock(&self.inner, Level::Log).lines.push(line);
        self.cond.notify_all();
    }

    /// Mark the stream complete and wake waiting readers.
    pub fn close(&self) {
        lock(&self.inner, Level::Log).done = true;
        self.cond.notify_all();
    }

    /// Lines past `cursor`, blocking until there is something new or the
    /// stream finishes. Returns `(new_lines, done)`; when `done` is true
    /// and the lines are empty the reader has drained everything.
    pub fn wait_from(&self, cursor: usize) -> (Vec<String>, bool) {
        let mut inner = lock(&self.inner, Level::Log);
        loop {
            if inner.lines.len() > cursor || inner.done {
                let fresh = inner.lines.get(cursor..).unwrap_or(&[]).to_vec();
                return (fresh, inner.done);
            }
            inner = inner.wait_timeout(&self.cond, Duration::from_millis(200));
        }
    }

    /// Whether the stream has finished (non-blocking; watchdogs poll it).
    pub fn is_done(&self) -> bool {
        lock(&self.inner, Level::Log).done
    }

    /// Total lines appended so far.
    pub fn len(&self) -> usize {
        lock(&self.inner, Level::Log).lines.len()
    }

    /// Whether no lines have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`EventSink`] adapter: telemetry events from a running job become
/// NDJSON lines on its [`EventLog`].
pub struct LogSink(pub Arc<EventLog>);

impl EventSink for LogSink {
    fn record(&mut self, ev: Event) {
        self.0.push(ev.to_ndjson_line());
    }

    fn flush(&mut self) {}
}

/// One job as the server tracks it.
pub struct Job {
    /// The parsed spec (canonical JSON via `spec.to_json()`).
    pub spec: JobSpec,
    /// Current status.
    pub status: JobStatus,
    /// Live telemetry stream.
    pub log: Arc<EventLog>,
    /// Cooperative cancellation token the executor checks per cell.
    pub cancel: CancelToken,
    /// Host time ([`mlpsim_telemetry::prof::now_ns`] timebase) when the
    /// job entered the queue — recovery counts as re-admission. It is the
    /// `queue_wait` span's start on the job's trace.
    pub submitted_ns: u64,
    /// Host time when the scheduler took it, once running.
    pub started_ns: Option<u64>,
    /// The request trace that admitted this job, root-parented; the job's
    /// lifecycle phases (queue wait, run, terminal journal append) land
    /// on it and it completes when the job does. `None` for recovered
    /// jobs (their admitting request died with the previous process).
    pub trace: Option<TraceCtx>,
}

/// Why a submission was not admitted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is draining; no new work.
    Draining,
    /// The bounded queue is at capacity; retry later.
    Full,
    /// The write-ahead journal could not record the submit.
    Journal(String),
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
    draining: bool,
}

/// The server's shared state. One instance per process, behind `Arc`.
pub struct State {
    inner: Mutex<Inner>,
    /// Wakes the scheduler on submit / drain.
    sched_cond: Condvar,
    journal: Mutex<Journal>,
    metrics: Mutex<Registry>,
    hists: Mutex<Histograms>,
    recorder: FlightRecorder,
    data_dir: PathBuf,
    queue_capacity: usize,
}

impl State {
    /// Build state from a recovered journal: terminal jobs are re-served
    /// from disk, queued/running jobs are re-enqueued in id order, and a
    /// `done` job whose result file vanished is demoted back to queued.
    ///
    /// # Errors
    ///
    /// A recovered spec that no longer parses (the journal predates a
    /// format change) is reported rather than silently dropped.
    pub fn from_recovered(
        recovered: Recovered,
        journal: Journal,
        data_dir: PathBuf,
        queue_capacity: usize,
    ) -> Result<Arc<State>, String> {
        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = 1;
        for r in &recovered.jobs {
            let spec = JobSpec::from_json(&r.spec)
                .map_err(|e| format!("journaled spec for job {} no longer parses: {e}", r.id))?;
            let mut status = r.status.clone();
            if status == JobStatus::Done && !result_path(&data_dir, r.id).exists() {
                status = JobStatus::Queued; // result lost: rerun (deterministic)
            }
            if status == JobStatus::Running {
                status = JobStatus::Queued; // died mid-run: rerun
            }
            let terminal = status.is_terminal();
            if !terminal {
                queue.push_back(r.id);
            }
            jobs.insert(
                r.id,
                Job {
                    spec,
                    status,
                    log: if terminal {
                        EventLog::finished()
                    } else {
                        EventLog::new()
                    },
                    cancel: CancelToken::new(),
                    submitted_ns: crate::host_ns(),
                    started_ns: None,
                    trace: None,
                },
            );
            next_id = next_id.max(r.id + 1);
        }
        let state = State {
            inner: Mutex::new(Inner {
                jobs,
                queue,
                next_id,
                draining: false,
            }),
            sched_cond: Condvar::new(),
            journal: Mutex::new(journal),
            metrics: Mutex::new(Registry::new()),
            hists: Mutex::new(Histograms::default()),
            recorder: FlightRecorder::default(),
            data_dir,
            queue_capacity,
        };
        state.refresh_queue_gauge();
        Ok(Arc::new(state))
    }

    /// Where job `id`'s result text lives.
    pub fn result_path(&self, id: u64) -> PathBuf {
        result_path(&self.data_dir, id)
    }

    /// Admit a job: journal the submit write-ahead, then enqueue. With an
    /// `admission` span (the admitting request's, under which the
    /// `journal_append` span nests), the job *adopts* the trace: the
    /// request handler must not finish it — the trace runs until the job
    /// reaches a terminal state, so its root span covers accept → terminal
    /// and the `queue_wait`/`run` phases land inside. The admission span
    /// closes here, before the job is queued, so `queue_wait` starts where
    /// it ends and the root's children never overlap.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when draining, at capacity, or unjournalable.
    pub fn submit(&self, spec: JobSpec, admission: Option<SpanGuard>) -> Result<u64, SubmitError> {
        let trace = admission.as_ref().map(SpanGuard::ctx);
        let mut inner = lock(&self.inner, Level::Jobs);
        if inner.draining {
            self.count("jobs_rejected_total");
            return Err(SubmitError::Draining);
        }
        if inner.queue.len() >= self.queue_capacity {
            self.count("jobs_rejected_total");
            return Err(SubmitError::Full);
        }
        let id = inner.next_id;
        lock(&self.journal, Level::Journal)
            .append_traced(
                &JournalOp::Submit {
                    id,
                    spec: spec.to_json(),
                },
                trace.as_ref(),
            )
            .map_err(|e| SubmitError::Journal(e.to_string()))?;
        inner.next_id += 1;
        inner.queue.push_back(id);
        let adopted = trace.map(|ctx| {
            // Adopt before the job is visible to the scheduler, so the
            // handler and the scheduler cannot both finish the trace.
            ctx.adopt();
            ctx.at_root()
        });
        drop(admission);
        inner.jobs.insert(
            id,
            Job {
                spec,
                status: JobStatus::Queued,
                log: EventLog::new(),
                cancel: CancelToken::new(),
                submitted_ns: crate::host_ns(),
                started_ns: None,
                trace: adopted,
            },
        );
        drop(inner);
        self.count("jobs_submitted_total");
        self.refresh_queue_gauge();
        self.sched_cond.notify_all();
        Ok(id)
    }

    /// Scheduler side: block for the next queued job, journal its start,
    /// mark it running, and hand back what the executor needs — including
    /// the job's adopted trace, on which the measured `queue_wait` span is
    /// recorded here (submit-time to dequeue, root-parented; the start's
    /// `journal_append` follows it as a sibling). Returns `None`
    /// once the server is draining (queued jobs stay journaled for the
    /// next boot).
    #[allow(clippy::type_complexity)]
    pub fn take_next(
        &self,
    ) -> Option<(u64, JobSpec, Arc<EventLog>, CancelToken, Option<TraceCtx>)> {
        let mut inner = lock(&self.inner, Level::Jobs);
        loop {
            if inner.draining {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let Some(job) = inner.jobs.get_mut(&id) else {
                    continue; // cancelled-while-queued already removed it
                };
                let trace = job.trace.clone();
                let taken_ns = crate::host_ns();
                let start = lock(&self.journal, Level::Journal)
                    .append_traced(&JournalOp::Start { id }, trace.as_ref());
                if let Err(e) = start {
                    job.status = JobStatus::Failed(format!("journal start failed: {e}"));
                    job.log.close();
                    if let Some(ctx) = job.trace.take() {
                        ctx.set_status(500);
                        self.complete_trace(&ctx);
                    }
                    continue;
                }
                job.status = JobStatus::Running;
                let started_ns = crate::host_ns();
                job.started_ns = Some(started_ns);
                let waited_ms = started_ns.saturating_sub(job.submitted_ns) / 1_000_000;
                if let Some(ctx) = &trace {
                    ctx.record_span(
                        "queue_wait",
                        ctx.parent,
                        job.submitted_ns,
                        taken_ns,
                        Vec::new(),
                    );
                }
                let out = (
                    id,
                    job.spec.clone(),
                    Arc::clone(&job.log),
                    job.cancel.clone(),
                    trace,
                );
                drop(inner);
                let mut hists = lock(&self.hists, Level::Hists);
                hists.job_queue_wait_ms.record(waited_ms);
                hists.request_phase_queue_wait_ms.record(waited_ms);
                drop(hists);
                self.refresh_queue_gauge();
                return Some(out);
            }
            inner = inner.wait_timeout(&self.sched_cond, Duration::from_millis(100));
        }
    }

    /// Executor side: record a job's terminal state — journal it, persist
    /// the result text (for `Done`), close the event log, and complete
    /// the job's trace (status-mapped: done → 200, cancelled/deadline →
    /// 499, failed → 500 — the non-2xx ones land pinned in the flight
    /// recorder).
    pub fn finish(&self, id: u64, outcome: Result<String, JobStatus>) {
        let (op, status, metric) = match outcome {
            Ok(report) => {
                if let Err(e) = std::fs::write(self.result_path(id), &report) {
                    (
                        JournalOp::Failed {
                            id,
                            error: format!("cannot persist result: {e}"),
                        },
                        JobStatus::Failed(format!("cannot persist result: {e}")),
                        "jobs_failed_total",
                    )
                } else {
                    (
                        JournalOp::Done { id },
                        JobStatus::Done,
                        "jobs_completed_total",
                    )
                }
            }
            Err(JobStatus::Cancelled) => (
                JournalOp::Cancelled { id },
                JobStatus::Cancelled,
                "jobs_cancelled_total",
            ),
            Err(JobStatus::Failed(e)) => (
                JournalOp::Failed {
                    id,
                    error: e.clone(),
                },
                JobStatus::Failed(e),
                "jobs_failed_total",
            ),
            Err(other) => (
                JournalOp::Failed {
                    id,
                    error: format!("executor reported non-terminal state {}", other.name()),
                },
                JobStatus::Failed("internal: non-terminal finish".into()),
                "jobs_failed_total",
            ),
        };
        let http_status: u16 = match &status {
            JobStatus::Done => 200,
            JobStatus::Cancelled => 499,
            _ => 500,
        };
        let trace = lock(&self.inner, Level::Jobs)
            .jobs
            .get(&id)
            .and_then(|j| j.trace.clone());
        if let Err(e) = lock(&self.journal, Level::Journal).append_traced(&op, trace.as_ref()) {
            // The in-memory state still advances; the next boot reruns it.
            log::server_event(
                trace.as_ref().map(TraceCtx::trace_id_hex).as_deref(),
                "journal_append_failed",
                &format!("journal append for job {id} failed: {e}"),
            );
        }
        let mut inner = lock(&self.inner, Level::Jobs);
        let mut finished_trace = None;
        let ran_ms = inner.jobs.get_mut(&id).and_then(|job| {
            job.status = status;
            job.log.close();
            finished_trace = job.trace.take();
            job.started_ns
                .map(|t| crate::host_ns().saturating_sub(t) / 1_000_000)
        });
        drop(inner);
        if let Some(ms) = ran_ms {
            let mut hists = lock(&self.hists, Level::Hists);
            hists.job_wall_time_ms.record(ms);
            hists.request_phase_run_ms.record(ms);
        }
        self.count(metric);
        if let Some(ctx) = finished_trace {
            ctx.set_status(http_status);
            self.complete_trace(&ctx);
        }
    }

    /// Cancel a job. Queued jobs transition immediately; running jobs get
    /// their token fired and the scheduler records the terminal state.
    /// Idempotent: terminal jobs report their status unchanged. Returns
    /// `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let mut inner = lock(&self.inner, Level::Jobs);
        let job = inner.jobs.get(&id)?;
        match job.status {
            JobStatus::Queued => {
                let trace = job.trace.clone();
                if let Err(e) = lock(&self.journal, Level::Journal)
                    .append_traced(&JournalOp::Cancelled { id }, trace.as_ref())
                {
                    log::server_event(
                        trace.as_ref().map(TraceCtx::trace_id_hex).as_deref(),
                        "journal_append_failed",
                        &format!("journal append for job {id} failed: {e}"),
                    );
                }
                inner.queue.retain(|&q| q != id);
                // Present: looked up above under the same lock. Treat the
                // impossible miss as an unknown id rather than panicking a
                // handler thread.
                let job = inner.jobs.get_mut(&id)?;
                job.status = JobStatus::Cancelled;
                job.log.close();
                let cancelled_trace = job.trace.take();
                drop(inner);
                self.count("jobs_cancelled_total");
                self.refresh_queue_gauge();
                if let Some(ctx) = cancelled_trace {
                    // A cancelled-while-queued job never runs; its trace
                    // ends here, pinned like every other cancellation.
                    ctx.set_status(499);
                    self.complete_trace(&ctx);
                }
                Some(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                job.cancel.cancel();
                Some(JobStatus::Running)
            }
            ref terminal => Some(terminal.clone()),
        }
    }

    /// Begin draining: refuse new submissions, stop the scheduler after
    /// the in-flight job (queued jobs remain journaled for the next boot).
    pub fn begin_drain(&self) {
        lock(&self.inner, Level::Jobs).draining = true;
        self.sched_cond.notify_all();
    }

    /// Whether draining has begun.
    pub fn draining(&self) -> bool {
        lock(&self.inner, Level::Jobs).draining
    }

    /// The job's live event log, if the id exists.
    pub fn event_log(&self, id: u64) -> Option<Arc<EventLog>> {
        lock(&self.inner, Level::Jobs)
            .jobs
            .get(&id)
            .map(|j| Arc::clone(&j.log))
    }

    /// Status document for one job.
    pub fn status_json(&self, id: u64) -> Option<Json> {
        let inner = lock(&self.inner, Level::Jobs);
        inner.jobs.get(&id).map(|job| job_json(id, job))
    }

    /// Status documents for every job, id order.
    pub fn list_json(&self) -> Json {
        let inner = lock(&self.inner, Level::Jobs);
        Json::Arr(inner.jobs.iter().map(|(id, j)| job_json(*id, j)).collect())
    }

    /// Bump a counter.
    pub fn count(&self, name: &str) {
        lock(&self.metrics, Level::Metrics).incr(name, 1);
    }

    /// Bump a counter by `n` (planner cell totals arrive in batches).
    pub fn count_n(&self, name: &str, n: u64) {
        lock(&self.metrics, Level::Metrics).incr(name, n);
    }

    /// Record one `/estimate` model evaluation's latency.
    pub fn observe_estimate(&self, micros: u64) {
        lock(&self.hists, Level::Hists)
            .estimate_duration_us
            .record(micros);
    }

    /// Record one handled HTTP request's end-to-end latency.
    pub fn observe_request(&self, micros: u64) {
        lock(&self.hists, Level::Hists)
            .http_request_duration_us
            .record(micros);
    }

    /// Record how many event lines one stream flush delivered — the
    /// reader's backlog at wake-up.
    pub fn observe_backlog(&self, lines: u64) {
        lock(&self.hists, Level::Hists)
            .event_stream_backlog_lines
            .record(lines);
    }

    /// Record how long one event-stream chunk write took.
    pub fn observe_stream_write(&self, micros: u64) {
        lock(&self.hists, Level::Hists)
            .request_phase_stream_write_us
            .record(micros);
    }

    /// Close a trace: publish it to the flight recorder, check the
    /// wall-time reconciliation invariant (the span tree must not
    /// double-book the measured total — the serving-path sibling of the
    /// stall ledger's exact reconciliation), and emit the structured
    /// access-log line carrying the trace id and the phase durations.
    pub fn complete_trace(&self, ctx: &TraceCtx) -> Arc<CompletedTrace> {
        let done = ctx.finish(&self.recorder);
        #[allow(unused_variables)]
        let recon = done.reconcile();
        mlpsim_exec::invariant!(
            !recon.overrun,
            "trace {} span tree double-books wall time: {recon:?}",
            done.trace_id_hex()
        );
        let mut extra: Vec<(&str, f64)> = Vec::new();
        if let Some(ns) = done.span_dur_ns("queue_wait") {
            extra.push(("queue_wait_ms", ns as f64 / 1e6));
        }
        if let Some(ns) = done.span_dur_ns("run") {
            extra.push(("run_ms", ns as f64 / 1e6));
        }
        log::access(
            &done.trace_id_hex(),
            &done.name,
            done.status,
            done.dur_ns / 1000,
            &extra,
        );
        done
    }

    /// The flight recorder (`/debug/traces` reads it).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Every retained trace as a JSON array, newest first — the
    /// `GET /debug/traces` body (full span trees; `mlpsim
    /// telemetry-report --traces` consumes this dump directly).
    pub fn traces_json(&self) -> Json {
        Json::Arr(
            self.recorder
                .snapshot()
                .iter()
                .map(|t| t.to_json())
                .collect(),
        )
    }

    /// One retained trace by 32-hex id, as JSON or as a Chrome trace
    /// document.
    pub fn trace_json(&self, trace_id: u128, chrome: bool) -> Option<Json> {
        let t = self.recorder.find(trace_id)?;
        Some(if chrome {
            t.to_chrome_trace()
        } else {
            t.to_json()
        })
    }

    fn refresh_queue_gauge(&self) {
        let depth = lock(&self.inner, Level::Jobs).queue.len() as f64;
        lock(&self.metrics, Level::Metrics).set_gauge("queue_depth", depth);
    }

    /// The `GET /metrics` body: Prometheus text exposition 0.0.4 —
    /// `mlpsim_`-prefixed counters and gauges, a `build_info` gauge, and
    /// the four operational histograms (see [`crate::metrics`]).
    pub fn metrics_text(&self) -> String {
        self.refresh_queue_gauge();
        let m = lock(&self.metrics, Level::Metrics);
        let h = lock(&self.hists, Level::Hists);
        metrics::render(&m, &h)
    }
}

/// `data_dir/job-<id>.result.txt`.
fn result_path(data_dir: &Path, id: u64) -> PathBuf {
    data_dir.join(format!("job-{id}.result.txt"))
}

fn job_json(id: u64, job: &Job) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("id".into(), Json::Num(id as f64)),
        ("state".into(), Json::Str(job.status.name().into())),
        ("spec".into(), job.spec.to_json()),
        ("events".into(), Json::Num(job.log.len() as f64)),
    ];
    if let JobStatus::Failed(e) = &job.status {
        pairs.push(("error".into(), Json::Str(e.clone())));
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_taken_in_level_order_nest_and_release() {
        let (jobs, journal, hists) = (Mutex::new(1), Mutex::new(2), Mutex::new(3));
        {
            let a = lock(&jobs, Level::Jobs);
            let b = lock(&journal, Level::Journal);
            drop(a);
            let c = lock(&hists, Level::Hists);
            assert_eq!(*b + *c, 5);
        }
        // Everything was released: the lowest level is takeable again.
        assert_eq!(*lock(&jobs, Level::Jobs), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: Jobs taken while holding Hists")]
    fn out_of_order_acquisition_panics_in_debug_builds() {
        let (jobs, hists) = (Mutex::new(()), Mutex::new(()));
        let _h = lock(&hists, Level::Hists);
        let _j = lock(&jobs, Level::Jobs);
    }

    fn state(capacity: usize) -> Arc<State> {
        let dir =
            std::env::temp_dir().join(format!("mlpsim-state-{}-{capacity}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("journal.ndjson");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).expect("temp journal");
        State::from_recovered(Recovered::default(), journal, dir, capacity).expect("fresh state")
    }

    fn spec() -> JobSpec {
        JobSpec::parse(r#"{"kind":"fig5","accesses":100}"#).expect("literal spec")
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let s = state(2);
        assert_eq!(s.submit(spec(), None), Ok(1));
        assert_eq!(s.submit(spec(), None), Ok(2));
        assert_eq!(s.submit(spec(), None), Err(SubmitError::Full));
        // Scheduler takes one; a slot frees up.
        let (id, ..) = s.take_next().expect("job queued");
        assert_eq!(id, 1);
        assert_eq!(s.submit(spec(), None), Ok(3));
    }

    #[test]
    fn draining_refuses_submissions_and_stops_scheduler() {
        let s = state(8);
        s.submit(spec(), None).expect("admitted");
        s.begin_drain();
        assert_eq!(s.submit(spec(), None), Err(SubmitError::Draining));
        assert!(s.take_next().is_none(), "queued job stays journaled");
    }

    #[test]
    fn queued_cancel_removes_from_queue() {
        let s = state(8);
        let a = s.submit(spec(), None).expect("admitted");
        let b = s.submit(spec(), None).expect("admitted");
        assert_eq!(s.cancel(a), Some(JobStatus::Cancelled));
        assert_eq!(s.cancel(a), Some(JobStatus::Cancelled), "idempotent");
        let (next, ..) = s.take_next().expect("remaining job");
        assert_eq!(next, b, "cancelled job skipped");
    }

    #[test]
    fn running_cancel_fires_the_token() {
        let s = state(8);
        let id = s.submit(spec(), None).expect("admitted");
        let (_, _, _, token, _) = s.take_next().expect("job");
        assert!(!token.is_cancelled());
        assert_eq!(s.cancel(id), Some(JobStatus::Running));
        assert!(token.is_cancelled());
    }

    #[test]
    fn event_log_cursor_sees_all_lines_then_done() {
        let log = EventLog::new();
        log.push("a".into());
        log.push("b".into());
        let (lines, done) = log.wait_from(0);
        assert_eq!(lines, vec!["a".to_string(), "b".to_string()]);
        assert!(!done);
        log.close();
        let (rest, done) = log.wait_from(2);
        assert!(rest.is_empty());
        assert!(done);
    }

    #[test]
    fn metrics_text_lists_counters_and_gauges() {
        let s = state(4);
        s.submit(spec(), None).expect("admitted");
        let text = s.metrics_text();
        assert!(text.contains("mlpsim_jobs_submitted_total 1"), "{text}");
        assert!(text.contains("mlpsim_queue_depth 1"), "{text}");
        assert!(
            text.contains("# TYPE mlpsim_jobs_submitted_total counter"),
            "{text}"
        );
    }

    #[test]
    fn lifecycle_populates_latency_histograms() {
        let s = state(4);
        let id = s.submit(spec(), None).expect("admitted");
        let (taken, ..) = s.take_next().expect("job queued");
        assert_eq!(taken, id);
        s.finish(id, Ok("report\n".into()));
        s.observe_request(1234);
        s.observe_backlog(7);
        let text = s.metrics_text();
        assert!(text.contains("mlpsim_job_queue_wait_ms_count 1"), "{text}");
        assert!(text.contains("mlpsim_job_wall_time_ms_count 1"), "{text}");
        assert!(
            text.contains("mlpsim_http_request_duration_us_count 1"),
            "{text}"
        );
        assert!(
            text.contains("mlpsim_event_stream_backlog_lines_count 1"),
            "{text}"
        );
        assert!(
            text.contains("mlpsim_event_stream_backlog_lines_sum 7"),
            "{text}"
        );
    }
}
