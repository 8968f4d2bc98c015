//! The write-ahead job journal: an append-only NDJSON file that makes the
//! server's queue state crash-safe without mid-run snapshots.
//!
//! Every state transition is one line, appended and flushed *before* the
//! transition takes effect (write-ahead). A `kill -9` can therefore lose
//! at most the line being written at that instant — recovery tolerates
//! exactly one torn trailing line and rebuilds the queue from everything
//! before it:
//!
//! ```text
//! {"op":"submit","id":1,"spec":{"kind":"fig5","accesses":4000,...}}
//! {"op":"start","id":1}
//! {"op":"done","id":1}
//! {"op":"cancelled","id":2}
//! {"op":"failed","id":3,"error":"..."}
//! ```
//!
//! Folding rule: the *last* op for an id wins. `submit` without a
//! terminal op → the job is re-enqueued on restart; `start` without a
//! terminal op → the run died with the process and is re-enqueued too
//! (every job is a deterministic simulation, so a rerun reproduces the
//! lost result bit-for-bit). `done` results live in side files
//! (`job-<id>.result.txt`); a `done` whose side file vanished is demoted
//! back to queued by the server.

use mlpsim_telemetry::Json;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// One journaled state transition.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalOp {
    /// A job was admitted with this spec (canonical JSON form).
    Submit { id: u64, spec: Json },
    /// The scheduler started executing the job.
    Start { id: u64 },
    /// The job finished; its result is in the side file.
    Done { id: u64 },
    /// The job was cancelled (by request or deadline).
    Cancelled { id: u64 },
    /// The job failed with this error.
    Failed { id: u64, error: String },
}

impl JournalOp {
    /// The job this op concerns.
    pub fn id(&self) -> u64 {
        match *self {
            JournalOp::Submit { id, .. }
            | JournalOp::Start { id }
            | JournalOp::Done { id }
            | JournalOp::Cancelled { id }
            | JournalOp::Failed { id, .. } => id,
        }
    }

    /// The wire name of this op (also used as a span tag).
    pub fn name(&self) -> &'static str {
        match self {
            JournalOp::Submit { .. } => "submit",
            JournalOp::Start { .. } => "start",
            JournalOp::Done { .. } => "done",
            JournalOp::Cancelled { .. } => "cancelled",
            JournalOp::Failed { .. } => "failed",
        }
    }

    /// Encode as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let pairs: Vec<(String, Json)> = match self {
            JournalOp::Submit { id, spec } => vec![
                ("op".into(), Json::Str("submit".into())),
                ("id".into(), Json::Num(*id as f64)),
                ("spec".into(), spec.clone()),
            ],
            JournalOp::Start { id } => vec![
                ("op".into(), Json::Str("start".into())),
                ("id".into(), Json::Num(*id as f64)),
            ],
            JournalOp::Done { id } => vec![
                ("op".into(), Json::Str("done".into())),
                ("id".into(), Json::Num(*id as f64)),
            ],
            JournalOp::Cancelled { id } => vec![
                ("op".into(), Json::Str("cancelled".into())),
                ("id".into(), Json::Num(*id as f64)),
            ],
            JournalOp::Failed { id, error } => vec![
                ("op".into(), Json::Str("failed".into())),
                ("id".into(), Json::Num(*id as f64)),
                ("error".into(), Json::Str(error.clone())),
            ],
        };
        Json::Obj(pairs).to_string_compact()
    }

    /// Parse one line.
    ///
    /// # Errors
    ///
    /// A message naming what is wrong with the line.
    pub fn parse_line(line: &str) -> Result<JournalOp, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("journal line lacks \"op\"")?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("journal line lacks numeric \"id\"")?;
        match op {
            "submit" => {
                let spec = v.get("spec").ok_or("submit line lacks \"spec\"")?;
                Ok(JournalOp::Submit {
                    id,
                    spec: spec.clone(),
                })
            }
            "start" => Ok(JournalOp::Start { id }),
            "done" => Ok(JournalOp::Done { id }),
            "cancelled" => Ok(JournalOp::Cancelled { id }),
            "failed" => Ok(JournalOp::Failed {
                id,
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            other => Err(format!("unknown journal op {other:?}")),
        }
    }
}

/// A job's status as reconstructed from (or tracked alongside) the
/// journal.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for the scheduler.
    Queued,
    /// Executing now (on recovery: died mid-run, will be re-enqueued).
    Running,
    /// Finished; result in the side file.
    Done,
    /// Cancelled by request or deadline.
    Cancelled,
    /// Failed with this message.
    Failed(String),
}

impl JobStatus {
    /// Is this a terminal state (nothing left to execute)?
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// The wire name used in status responses and the client.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One recovered job: id, canonical spec JSON, folded status.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredJob {
    pub id: u64,
    pub spec: Json,
    pub status: JobStatus,
}

/// The result of replaying a journal file.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Jobs in id (= submission) order.
    pub jobs: Vec<RecoveredJob>,
    /// Highest id seen (0 when the journal is empty).
    pub max_id: u64,
    /// Whether a torn trailing line was discarded.
    pub torn_tail: bool,
}

impl Recovered {
    /// Ids that still need to run (queued or died-mid-run), in id order —
    /// the queue a restarted server re-enqueues.
    pub fn pending(&self) -> Vec<u64> {
        self.jobs
            .iter()
            .filter(|j| !j.status.is_terminal())
            .map(|j| j.id)
            .collect()
    }
}

/// Append-only journal handle.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { file, path })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one op. The line and its newline go down in a single
    /// `write_all`, so a crash of this *process* can only tear the final
    /// line, never interleave two — and a completed `write_all` survives
    /// `kill -9` (the bytes are in the page cache; only an OS crash needs
    /// fsync, which this journal deliberately skips for throughput).
    ///
    /// # Errors
    ///
    /// Propagates write failures; the server fails the transition rather
    /// than proceeding unjournaled.
    pub fn append(&mut self, op: &JournalOp) -> std::io::Result<()> {
        let mut line = op.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }

    /// [`Journal::append`] recorded as a `journal_append` span on `trace`
    /// (when one is in scope): the write-ahead append is a real, visible
    /// phase of every traced request — the disk write sits between
    /// admission and the queue, and a slow one shows up in the span tree
    /// instead of vanishing into "queue wait".
    ///
    /// # Errors
    ///
    /// See [`Journal::append`]; the span records either way (a failed
    /// append is tagged, and the failure still took the time it took).
    pub fn append_traced(
        &mut self,
        op: &JournalOp,
        trace: Option<&mlpsim_telemetry::TraceCtx>,
    ) -> std::io::Result<()> {
        let Some(ctx) = trace else {
            return self.append(op);
        };
        let t0 = crate::host_ns();
        let out = self.append(op);
        let mut tags = vec![("op".to_string(), op.name().to_string())];
        if out.is_err() {
            tags.push(("failed".to_string(), "true".to_string()));
        }
        ctx.record_span("journal_append", ctx.parent, t0, crate::host_ns(), tags);
        out
    }

    /// Replay the journal at `path`. A missing file is an empty journal.
    /// The final line may be torn (no newline, or unparseable) — it is
    /// discarded and flagged. A malformed line anywhere *else* is
    /// corruption and errors out: better to refuse to serve than to
    /// silently drop jobs.
    ///
    /// # Errors
    ///
    /// I/O failures and non-trailing corruption.
    pub fn recover(path: impl AsRef<Path>) -> Result<Recovered, String> {
        let path = path.as_ref();
        let mut raw = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut raw)
                    .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Recovered::default());
            }
            Err(e) => return Err(format!("cannot open journal {}: {e}", path.display())),
        }
        let text = String::from_utf8_lossy(&raw);
        let mut recovered = Recovered::default();
        let mut jobs: Vec<RecoveredJob> = Vec::new();
        let lines: Vec<&str> = text.split('\n').collect();
        let last_idx = lines.len().saturating_sub(1);
        for (idx, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // A line is "complete" iff the file continued past it (split
            // produced a later element). The final element only exists
            // when the file did NOT end in '\n' — i.e. a torn write.
            let is_tail = idx == last_idx;
            match JournalOp::parse_line(line) {
                Ok(op) => {
                    if is_tail {
                        // Parsed but unterminated: the write was cut
                        // exactly at the line end, or the JSON happens to
                        // be a valid prefix. The op is self-consistent, so
                        // accept it — but still flag the tear.
                        recovered.torn_tail = true;
                    }
                    apply_op(&mut jobs, op, idx + 1)?;
                }
                Err(e) if is_tail => {
                    recovered.torn_tail = true;
                    let _ = e; // torn tail: expected after kill -9
                }
                Err(e) => {
                    return Err(format!(
                        "journal {} corrupt at line {}: {e}",
                        path.display(),
                        idx + 1
                    ));
                }
            }
        }
        recovered.max_id = jobs.iter().map(|j| j.id).max().unwrap_or(0);
        jobs.sort_by_key(|j| j.id);
        recovered.jobs = jobs;
        Ok(recovered)
    }
}

/// Fold one op into the job list (last op per id wins).
fn apply_op(jobs: &mut Vec<RecoveredJob>, op: JournalOp, line_no: usize) -> Result<(), String> {
    let id = op.id();
    let status = match op {
        JournalOp::Submit { spec, .. } => {
            if jobs.iter().any(|j| j.id == id) {
                return Err(format!("line {line_no}: duplicate submit for job {id}"));
            }
            jobs.push(RecoveredJob {
                id,
                spec,
                status: JobStatus::Queued,
            });
            return Ok(());
        }
        JournalOp::Start { .. } => JobStatus::Running,
        JournalOp::Done { .. } => JobStatus::Done,
        JournalOp::Cancelled { .. } => JobStatus::Cancelled,
        JournalOp::Failed { error, .. } => JobStatus::Failed(error),
    };
    let Some(job) = jobs.iter_mut().find(|j| j.id == id) else {
        return Err(format!("line {line_no}: op for job {id} before its submit"));
    };
    job.status = status;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mlpsim-journal-{name}-{}", std::process::id()))
    }

    #[test]
    fn ops_round_trip() {
        let spec = Json::parse(r#"{"kind":"fig5","accesses":100}"#).unwrap();
        for op in [
            JournalOp::Submit { id: 3, spec },
            JournalOp::Start { id: 3 },
            JournalOp::Done { id: 3 },
            JournalOp::Cancelled { id: 4 },
            JournalOp::Failed {
                id: 5,
                error: "queue exploded".into(),
            },
        ] {
            let back = JournalOp::parse_line(&op.to_line()).unwrap();
            assert_eq!(op, back);
        }
    }

    #[test]
    fn missing_journal_is_empty() {
        let r = Journal::recover(tmp("nonexistent")).unwrap();
        assert!(r.jobs.is_empty());
        assert_eq!(r.max_id, 0);
        assert!(!r.torn_tail);
    }

    #[test]
    fn append_then_recover_folds_states() {
        let path = tmp("fold");
        let _ = std::fs::remove_file(&path);
        let spec = Json::parse(r#"{"kind":"fig5"}"#).unwrap();
        {
            let mut j = Journal::open(&path).unwrap();
            for id in 1..=4 {
                j.append(&JournalOp::Submit {
                    id,
                    spec: spec.clone(),
                })
                .unwrap();
            }
            j.append(&JournalOp::Start { id: 1 }).unwrap();
            j.append(&JournalOp::Done { id: 1 }).unwrap();
            j.append(&JournalOp::Start { id: 2 }).unwrap();
            j.append(&JournalOp::Cancelled { id: 3 }).unwrap();
        }
        let r = Journal::recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(r.max_id, 4);
        assert!(!r.torn_tail);
        let statuses: Vec<_> = r.jobs.iter().map(|j| j.status.clone()).collect();
        assert_eq!(
            statuses,
            vec![
                JobStatus::Done,
                JobStatus::Running, // died mid-run
                JobStatus::Cancelled,
                JobStatus::Queued,
            ]
        );
        // Pending = the died-mid-run job and the never-started one.
        assert_eq!(r.pending(), vec![2, 4]);
    }

    #[test]
    fn torn_tail_is_dropped_and_flagged() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let spec = Json::parse(r#"{"kind":"fig5"}"#).unwrap();
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&JournalOp::Submit { id: 1, spec }).unwrap();
            j.append(&JournalOp::Start { id: 1 }).unwrap();
        }
        // Simulate kill -9 mid-append: half a "done" line, no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"op\":\"done\",\"i").unwrap();
        }
        let r = Journal::recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(r.torn_tail);
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.jobs[0].status, JobStatus::Running, "torn done dropped");
        assert_eq!(r.pending(), vec![1]);
    }

    #[test]
    fn mid_file_corruption_refuses_to_serve() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "garbage line\n{\"op\":\"start\",\"id\":1}\n").unwrap();
        let err = Journal::recover(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn op_before_submit_is_corruption() {
        let path = tmp("early-op");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{\"op\":\"start\",\"id\":9}\n").unwrap();
        let err = Journal::recover(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.contains("before its submit"), "{err}");
    }
}
