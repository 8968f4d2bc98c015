//! The worker pool and its ordered fan-out helper.

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "MLPSIM_JOBS";

/// The default worker count: `MLPSIM_JOBS` when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 when even that is
/// unknowable). A set-but-useless `MLPSIM_JOBS` — empty, `0`, or garbage —
/// falls back to the hardware default *with a warning on stderr*: a sweep
/// silently running serial (or at an unintended width) because of a typo'd
/// variable would defeat the point of the pool.
pub fn default_jobs() -> usize {
    let raw = std::env::var(JOBS_ENV).ok();
    let (explicit, warning) = jobs_from_var(raw.as_deref());
    if let Some(w) = warning {
        eprintln!("warning: {w}");
    }
    explicit.unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Pure resolution of the `MLPSIM_JOBS` value: the explicitly requested
/// worker count (if the value is a positive integer), plus the warning the
/// caller should surface when the variable is set but unusable. `None`
/// input means the variable is unset — no count, no warning.
pub fn jobs_from_var(raw: Option<&str>) -> (Option<usize>, Option<String>) {
    let Some(raw) = raw else {
        return (None, None);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return (
            None,
            Some(format!(
                "{JOBS_ENV} is set but empty; using the hardware default"
            )),
        );
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n >= 1 => (Some(n), None),
        Ok(_) => (
            None,
            Some(format!(
                "ignoring {JOBS_ENV}=0 (want a positive integer); using the hardware default"
            )),
        ),
        Err(_) => (
            None,
            Some(format!(
                "ignoring invalid {JOBS_ENV}={raw:?} (want a positive integer); \
                 using the hardware default"
            )),
        ),
    }
}

/// Cooperative cancellation flag shared between a job's submitter and the
/// pool workers (and, in the serving layer, a deadline watchdog). The
/// token carries no clock — deadlines are built *on top* by whoever owns
/// wall time (rule D2 keeps this crate clock-free): a watchdog thread
/// sleeps, then calls [`CancelToken::cancel`].
///
/// Cancellation is observed at job granularity by
/// [`WorkerPool::try_map_ordered`] (a worker checks the token before
/// starting each queued job) and may additionally be polled from inside a
/// job closure for finer-grained early exit.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Error returned by [`WorkerPool::try_map_ordered`] when the token fired
/// before every job ran: `completed` of `submitted` jobs finished (their
/// results are discarded — a partial ordered map is not a meaningful
/// sweep).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// Jobs that ran to completion before the token was observed.
    pub completed: usize,
    /// Total jobs submitted to the batch.
    pub submitted: usize,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cancelled after {} of {} jobs completed",
            self.completed, self.submitted
        )
    }
}

impl std::error::Error for Cancelled {}

/// Per-job timing hook for [`WorkerPool::try_map_ordered_spanned`]: the
/// serving layer passes one to turn every matrix cell into a trace span.
///
/// The clock is *injected* as a plain function pointer — this crate stays
/// clock-free (rule D2), exactly like [`CancelToken`] keeps deadlines
/// out of the pool. `record(idx, start, end)` is called on the worker
/// thread right after job `idx` finishes, with two readings of `clock`
/// bracketing the job body; it must be cheap and must not panic.
#[derive(Clone)]
pub struct SpanHook {
    /// Monotonic nanosecond source (the caller owns wall time).
    pub clock: fn() -> u64,
    /// Sink for `(submission index, start_ns, end_ns)` of each job run.
    pub record: Arc<dyn Fn(usize, u64, u64) + Send + Sync>,
}

impl fmt::Debug for SpanHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanHook").finish_non_exhaustive()
    }
}

/// A boxed unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads pulling boxed `FnOnce` jobs from a shared queue.
///
/// Determinism contract: the pool itself imposes *no* ordering on job
/// execution — only [`WorkerPool::map_ordered`] does, by tagging each job
/// with its submission index and reassembling results by tag. Jobs must
/// therefore not communicate through shared mutable state.
///
/// Dropping the pool closes the queue and joins every worker, so queued
/// work always finishes before the pool goes away.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("mlpsim-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queues one fire-and-forget job.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool queue open until drop")
            .send(Box::new(job))
            .expect("a worker holds the receiver until the queue closes");
    }

    /// Runs every job on the pool and returns their results **in
    /// submission order**, however the workers interleave. This is the
    /// primitive that makes parallel sweeps reproduce serial output
    /// byte-for-byte.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised here (after the remaining
    /// jobs were still handed to workers), mirroring the serial behavior
    /// of the same loop.
    pub fn map_ordered<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        match self.try_map_ordered(jobs, &CancelToken::new()) {
            Ok(out) => out,
            Err(_) => unreachable!("a private fresh token is never cancelled"),
        }
    }

    /// [`WorkerPool::map_ordered`] with cooperative cancellation: each
    /// worker consults `cancel` immediately before starting a queued job
    /// and skips it once the token fired. When every job ran, the result
    /// is exactly `map_ordered`'s — byte-identical sweeps, same panic
    /// propagation. When any job was skipped, returns [`Cancelled`]
    /// (partial results are discarded; jobs already executing when the
    /// token fires still run to completion unless they poll the token
    /// themselves).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before every job started.
    ///
    /// # Panics
    ///
    /// Re-raises the first (by submission index) panicking job's payload,
    /// as [`WorkerPool::map_ordered`] does.
    pub fn try_map_ordered<T, F>(
        &self,
        jobs: Vec<F>,
        cancel: &CancelToken,
    ) -> Result<Vec<T>, Cancelled>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.try_map_ordered_spanned(jobs, cancel, None)
    }

    /// [`WorkerPool::try_map_ordered`] with an optional per-job timing
    /// hook: when `hook` is given, each job body is bracketed by two
    /// `hook.clock` readings and reported through `hook.record` with its
    /// submission index. Results, ordering, cancellation, and panic
    /// propagation are identical to the unhooked form — the hook observes
    /// jobs, it never alters them (skipped-by-cancellation jobs are not
    /// reported).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before every job started.
    ///
    /// # Panics
    ///
    /// Re-raises the first (by submission index) panicking job's payload.
    pub fn try_map_ordered_spanned<T, F>(
        &self,
        jobs: Vec<F>,
        cancel: &CancelToken,
        hook: Option<&SpanHook>,
    ) -> Result<Vec<T>, Cancelled>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        // `None` in the payload marks a job skipped by cancellation.
        let (tx, rx) = channel::<(usize, Option<thread::Result<T>>)>();
        for (idx, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let cancel = cancel.clone();
            let hook = hook.cloned();
            self.submit(move || {
                if cancel.is_cancelled() {
                    let _ = tx.send((idx, None));
                    return;
                }
                // Catch so one bad cell doesn't kill the worker thread and
                // strand the rest of the queue; the panic is re-raised on
                // the submitting thread below.
                let out = match &hook {
                    Some(h) => {
                        let t0 = (h.clock)();
                        let out = catch_unwind(AssertUnwindSafe(job));
                        (h.record)(idx, t0, (h.clock)());
                        out
                    }
                    None => catch_unwind(AssertUnwindSafe(job)),
                };
                let _ = tx.send((idx, Some(out)));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<Option<thread::Result<T>>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (idx, out) = rx.recv().expect("every job sends exactly once");
            debug_assert!(
                idx < n && slots[idx].is_none(),
                "each submission index is delivered exactly once"
            );
            slots[idx] = Some(out);
        }
        let delivered: Vec<Option<thread::Result<T>>> = slots
            .into_iter()
            .map(|slot| slot.expect("all indices delivered"))
            .collect();
        if delivered.iter().any(Option::is_none) {
            // Re-raise a panic even on the cancelled path: a crashed cell
            // must not be masked by a concurrent cancellation.
            let completed = delivered
                .into_iter()
                .flatten()
                .map(|out| {
                    if let Err(payload) = out {
                        resume_unwind(payload);
                    }
                })
                .count();
            return Err(Cancelled {
                completed,
                submitted: n,
            });
        }
        Ok(delivered
            .into_iter()
            .map(
                |slot| match slot.expect("checked above: no job was skipped") {
                    Ok(v) => v,
                    Err(payload) => resume_unwind(payload),
                },
            )
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue: workers drain then exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only to *receive*; run the job unlocked so other
        // workers keep pulling.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return, // a sibling panicked inside recv(); give up
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // queue closed and drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_submission_order() {
        let pool = WorkerPool::new(4);
        // Reverse sleep times so later jobs finish first.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    thread::sleep(std::time::Duration::from_millis((16 - i) % 5));
                    i * i
                }
            })
            .collect();
        let out = pool.map_ordered(jobs);
        assert_eq!(out, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_pool_is_just_a_loop() {
        let out = WorkerPool::new(1).map_ordered((0..8).map(|i| move || i + 1).collect());
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn empty_job_list() {
        let out: Vec<u8> = WorkerPool::new(3).map_ordered(Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                move || c.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let pool = WorkerPool::new(8);
        let out = pool.map_ordered(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        // Each job observed a distinct pre-increment value.
        let mut seen = out.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn panicking_job_propagates_without_stranding_others() {
        let pool = WorkerPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let r1 = Arc::clone(&ran);
        let r2 = Arc::clone(&ran);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_ordered(vec![
                Box::new(move || {
                    r1.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>,
                Box::new(|| panic!("cell exploded")),
                Box::new(move || {
                    r2.fetch_add(1, Ordering::SeqCst);
                }),
            ])
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool survives and still executes fresh work.
        let after = pool.map_ordered(vec![|| 7]);
        assert_eq!(after, vec![7]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map_ordered(vec![|| 1]), vec![1]);
    }

    // ---- MLPSIM_JOBS resolution (pure; default_jobs is a thin shell) ----

    #[test]
    fn jobs_var_unset_is_silent() {
        assert_eq!(jobs_from_var(None), (None, None));
    }

    #[test]
    fn jobs_var_valid_is_used_without_warning() {
        assert_eq!(jobs_from_var(Some("4")), (Some(4), None));
        assert_eq!(jobs_from_var(Some(" 12 ")), (Some(12), None));
    }

    #[test]
    fn jobs_var_empty_warns() {
        for empty in ["", "   ", "\t"] {
            let (n, warn) = jobs_from_var(Some(empty));
            assert_eq!(n, None, "{empty:?}");
            let warn = warn.expect("set-but-empty must warn, not silently fall back");
            assert!(warn.contains("set but empty"), "{warn}");
        }
    }

    #[test]
    fn jobs_var_zero_warns() {
        let (n, warn) = jobs_from_var(Some("0"));
        assert_eq!(n, None);
        assert!(warn.expect("zero must warn").contains("MLPSIM_JOBS=0"));
    }

    #[test]
    fn jobs_var_garbage_warns() {
        for garbage in ["many", "-3", "4.5", "3 threads"] {
            let (n, warn) = jobs_from_var(Some(garbage));
            assert_eq!(n, None, "{garbage:?}");
            let warn = warn.expect("garbage must warn");
            assert!(warn.contains(garbage), "{warn}");
        }
    }

    // ---- cancellation ----

    #[test]
    fn fresh_token_matches_map_ordered() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..20u64).map(|i| move || i * 3).collect();
        let got = pool.try_map_ordered(jobs, &CancelToken::new());
        assert_eq!(got, Ok((0..20u64).map(|i| i * 3).collect::<Vec<_>>()));
    }

    #[test]
    fn pre_cancelled_token_skips_every_job() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        let ran = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&ran);
                move || r.fetch_add(1, Ordering::SeqCst)
            })
            .collect();
        let pool = WorkerPool::new(2);
        let err = pool
            .try_map_ordered(jobs, &token)
            .expect_err("a fired token must cancel the batch");
        assert_eq!(err.completed, 0);
        assert_eq!(err.submitted, 8);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no job may start");
    }

    #[test]
    fn mid_batch_cancel_reports_partial_completion() {
        // Single worker, and the first job fires the token itself: the
        // remaining jobs are deterministically skipped.
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let t = token.clone();
        let mut jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![Box::new(move || {
            t.cancel();
            1
        })];
        for i in 0..5u64 {
            jobs.push(Box::new(move || i + 100));
        }
        let err = pool
            .try_map_ordered(jobs, &token)
            .expect_err("token fired mid-batch");
        assert_eq!(
            err,
            Cancelled {
                completed: 1,
                submitted: 6
            }
        );
    }

    #[test]
    fn panic_is_not_masked_by_cancellation() {
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let t = token.clone();
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![
            Box::new(move || {
                t.cancel();
                panic!("boom under cancellation")
            }),
            Box::new(|| 2),
        ];
        let result = catch_unwind(AssertUnwindSafe(|| pool.try_map_ordered(jobs, &token)));
        assert!(result.is_err(), "the panic must surface, not the Cancelled");
    }

    // ---- span hook ----

    #[test]
    fn span_hook_reports_every_job_without_changing_results() {
        let pool = WorkerPool::new(4);
        let spans: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&spans);
        // A deterministic "clock": each reading advances by one.
        fn tick() -> u64 {
            static T: AtomicUsize = AtomicUsize::new(0);
            T.fetch_add(1, Ordering::SeqCst) as u64
        }
        let hook = SpanHook {
            clock: tick,
            record: Arc::new(move |idx, t0, t1| {
                sink.lock().expect("span sink").push((idx, t0, t1));
            }),
        };
        let jobs: Vec<_> = (0..12u64).map(|i| move || i * 2).collect();
        let out = pool
            .try_map_ordered_spanned(jobs, &CancelToken::new(), Some(&hook))
            .expect("fresh token");
        assert_eq!(out, (0..12u64).map(|i| i * 2).collect::<Vec<_>>());
        let mut got = spans.lock().expect("span sink").clone();
        got.sort_unstable();
        assert_eq!(got.len(), 12, "one span per job");
        let idxs: Vec<usize> = got.iter().map(|s| s.0).collect();
        assert_eq!(idxs, (0..12).collect::<Vec<_>>());
        assert!(got.iter().all(|&(_, t0, t1)| t1 > t0), "end after start");
    }

    #[test]
    fn span_hook_skips_cancelled_jobs() {
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        token.cancel();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let hook = SpanHook {
            clock: || 0,
            record: Arc::new(move |_, _, _| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        };
        let jobs: Vec<_> = (0..4u64).map(|i| move || i).collect();
        let err = pool.try_map_ordered_spanned(jobs, &token, Some(&hook));
        assert!(err.is_err());
        assert_eq!(count.load(Ordering::SeqCst), 0, "skipped jobs have no span");
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
