//! The serving layer's job specification: a figure sweep (or an ad-hoc
//! benches × policies sweep) as a JSON document.
//!
//! This is the contract between `mlpsim-client`, `mlpsim-serve`, and the
//! write-ahead job journal: a spec parses from JSON ([`JobSpec::from_json`],
//! using the dependency-free `telemetry::json` parser), re-encodes
//! canonically ([`JobSpec::to_json`]) for journaling, and executes through
//! the *same* [`crate::figures`] run path the CLI binaries use — so a
//! submitted job's result is byte-identical to the direct invocation.
//!
//! ```json
//! {"kind":"fig5","accesses":4000,"seed":42,"jobs":2}
//! {"kind":"sweep","benches":["mcf","art"],"policies":["lru","lin(4)"],
//!  "accesses":4000,"deadline_ms":60000}
//! ```
//!
//! Every field but `kind` is optional: `accesses` defaults to
//! [`crate::runner::DEFAULT_ACCESSES`], `seed` to
//! [`crate::runner::DEFAULT_SEED`], `jobs` to 1 (a server runs many jobs;
//! width is an explicit opt-in), `deadline_ms` to none. A `sweep` without
//! `benches`/`policies` covers all 14 benchmarks under LRU and LIN(4).

use crate::figures::{try_fig5_report, try_sweep_report};
use crate::runner::{
    try_profile_benches, CellSpanSink, RunOptions, DEFAULT_ACCESSES, DEFAULT_SEED,
};
use mlpsim_cache::addr::Geometry;
use mlpsim_cpu::policy::PolicyKind;
use mlpsim_exec::{CancelToken, Cancelled, WorkerPool};
use mlpsim_model::plan::{score_cell, DEFAULT_PRUNE_MARGIN};
use mlpsim_telemetry::{Json, SinkHandle};
use mlpsim_trace::spec::SpecBench;

/// What a job computes.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// The paper's Figure 5 sweep (all benchmarks, LRU vs LIN(4)).
    Fig5,
    /// An ad-hoc benches × policies sweep with headline aggregates.
    Sweep {
        /// Benchmarks to run, in row order.
        benches: Vec<SpecBench>,
        /// Policies per benchmark, in column order.
        policies: Vec<PolicyKind>,
    },
}

/// One parsed job submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// Memory accesses per benchmark run.
    pub accesses: usize,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads the job's own sweep may use (never changes bytes).
    pub jobs: usize,
    /// Wall-clock budget; the server cancels the job once exceeded.
    pub deadline_ms: Option<u64>,
}

/// Parse a policy name as accepted in a `sweep` spec's `policies` array.
pub fn policy_from_name(name: &str, seed: u64) -> Option<PolicyKind> {
    match name {
        "lru" => Some(PolicyKind::Lru),
        "fifo" => Some(PolicyKind::Fifo),
        "random" => Some(PolicyKind::Random { seed }),
        "lin" | "lin4" | "lin(4)" => Some(PolicyKind::lin4()),
        "sbar" => Some(PolicyKind::sbar_default()),
        "cbs-local" => Some(PolicyKind::CbsLocal),
        "cbs-global" => Some(PolicyKind::CbsGlobal),
        _ => name
            .strip_prefix("lin(")
            .and_then(|rest| rest.strip_suffix(')'))
            .and_then(|n| n.parse::<u32>().ok())
            .map(|lambda| PolicyKind::Lin { lambda }),
    }
}

/// Read the optional `"prune_margin"` field an `/estimate` submission may
/// carry alongside the normal spec fields ([`JobSpec::from_json`] ignores
/// unknown fields, so one body serves both endpoints). Defaults to
/// [`DEFAULT_PRUNE_MARGIN`].
///
/// # Errors
///
/// A human-readable message when the field is present but not a finite
/// non-negative number; the server returns it verbatim in the 400 body.
pub fn prune_margin_from_json(v: &Json) -> Result<f64, String> {
    match v.get("prune_margin") {
        None => Ok(DEFAULT_PRUNE_MARGIN),
        Some(n) => match n.as_f64() {
            Some(m) if m.is_finite() && m >= 0.0 => Ok(m),
            _ => Err("\"prune_margin\" wants a finite non-negative number".into()),
        },
    }
}

/// The canonical spelling [`JobSpec::to_json`] uses for a policy — the
/// subset of [`PolicyKind::label`] values [`policy_from_name`] accepts.
fn policy_name(p: &PolicyKind) -> String {
    match p {
        PolicyKind::Lin { lambda } => format!("lin({lambda})"),
        PolicyKind::Sbar(_) => "sbar".to_string(),
        other => other.label(),
    }
}

impl JobSpec {
    /// Parse a submission body.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field; the server
    /// returns it verbatim in the 400 body.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind_name = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("spec needs a string \"kind\" field (\"fig5\" or \"sweep\")")?;
        let accesses = match v.get("accesses") {
            None => DEFAULT_ACCESSES,
            Some(n) => match n.as_u64() {
                Some(n) if n >= 1 => usize::try_from(n)
                    .map_err(|_| "\"accesses\" does not fit this platform".to_string())?,
                _ => return Err("\"accesses\" wants a positive integer".into()),
            },
        };
        let seed = match v.get("seed") {
            None => DEFAULT_SEED,
            Some(n) => n.as_u64().ok_or("\"seed\" wants a non-negative integer")?,
        };
        let jobs = match v.get("jobs") {
            None => 1,
            Some(n) => match n.as_u64() {
                Some(n) if n >= 1 => usize::try_from(n)
                    .map_err(|_| "\"jobs\" does not fit this platform".to_string())?,
                _ => return Err("\"jobs\" wants a positive integer".into()),
            },
        };
        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(n) => Some(
                n.as_u64()
                    .ok_or("\"deadline_ms\" wants a non-negative integer")?,
            ),
        };
        let kind = match kind_name {
            "fig5" => JobKind::Fig5,
            "sweep" => {
                let benches = match v.get("benches") {
                    None => SpecBench::ALL.to_vec(),
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            let name =
                                item.as_str().ok_or("\"benches\" wants an array of names")?;
                            out.push(SpecBench::from_name(name).ok_or_else(|| {
                                let known: Vec<&str> =
                                    SpecBench::ALL.iter().map(|b| b.name()).collect();
                                format!("unknown benchmark {name:?}; known: {}", known.join(", "))
                            })?);
                        }
                        out
                    }
                    Some(_) => return Err("\"benches\" wants an array of names".into()),
                };
                let policies = match v.get("policies") {
                    None => vec![PolicyKind::Lru, PolicyKind::lin4()],
                    Some(Json::Arr(items)) => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            let name = item
                                .as_str()
                                .ok_or("\"policies\" wants an array of names")?;
                            out.push(policy_from_name(name, seed).ok_or_else(|| {
                                format!(
                                    "unknown policy {name:?}; known: lru, fifo, random, \
                                     lin(N), sbar, cbs-local, cbs-global"
                                )
                            })?);
                        }
                        out
                    }
                    Some(_) => return Err("\"policies\" wants an array of names".into()),
                };
                if benches.is_empty() || policies.is_empty() {
                    return Err("a sweep needs at least one benchmark and one policy".into());
                }
                JobKind::Sweep { benches, policies }
            }
            other => {
                return Err(format!(
                    "unknown job kind {other:?} (want \"fig5\" or \"sweep\")"
                ))
            }
        };
        Ok(JobSpec {
            kind,
            accesses,
            seed,
            jobs,
            deadline_ms,
        })
    }

    /// Parse a raw submission body (bytes of a JSON document).
    ///
    /// # Errors
    ///
    /// See [`JobSpec::from_json`]; malformed JSON reports the parser's
    /// byte offset.
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let v = Json::parse(body).map_err(|e| e.to_string())?;
        JobSpec::from_json(&v)
    }

    /// Canonical re-encoding — what the journal stores and the status
    /// endpoint echoes. `from_json(to_json(s))` is an identity on the
    /// canonical form (field order and defaults pinned).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        match &self.kind {
            JobKind::Fig5 => pairs.push(("kind".into(), Json::Str("fig5".into()))),
            JobKind::Sweep { benches, policies } => {
                pairs.push(("kind".into(), Json::Str("sweep".into())));
                pairs.push((
                    "benches".into(),
                    Json::Arr(
                        benches
                            .iter()
                            .map(|b| Json::Str(b.name().to_string()))
                            .collect(),
                    ),
                ));
                pairs.push((
                    "policies".into(),
                    Json::Arr(policies.iter().map(|p| Json::Str(policy_name(p))).collect()),
                ));
            }
        }
        pairs.push(("accesses".into(), Json::Num(self.accesses as f64)));
        pairs.push(("seed".into(), Json::Num(self.seed as f64)));
        pairs.push(("jobs".into(), Json::Num(self.jobs as f64)));
        if let Some(d) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), Json::Num(d as f64)));
        }
        Json::Obj(pairs)
    }

    /// The benches × policies grid this spec would simulate, in the
    /// bench-major order the run path uses.
    fn grid(&self) -> (Vec<SpecBench>, Vec<PolicyKind>) {
        match &self.kind {
            JobKind::Fig5 => (
                SpecBench::ALL.to_vec(),
                vec![PolicyKind::Lru, PolicyKind::lin4()],
            ),
            JobKind::Sweep { benches, policies } => (benches.clone(), policies.clone()),
        }
    }

    /// Score every cell of the spec's grid with the analytical model —
    /// **no simulation runs**. Returns a document whose `"model": true`
    /// field labels it as an estimate, with per-cell predicted miss rate,
    /// stated error band, delta vs the incumbent (the first policy), and
    /// the prune verdict at `margin`.
    pub fn estimate_doc(&self, margin: f64) -> Json {
        let (benches, policies) = self.grid();
        let pool = WorkerPool::new(self.jobs);
        let profiles = match try_profile_benches(
            &pool,
            &benches,
            self.accesses,
            self.seed,
            &CancelToken::new(),
        ) {
            Ok((_, profiles)) => profiles,
            Err(_) => unreachable!("a private fresh token is never cancelled"),
        };
        let geometry = Geometry::baseline_l2();
        let mut cells = Vec::with_capacity(benches.len() * policies.len());
        let mut pruned = 0u64;
        for (bench, profile) in benches.iter().zip(&profiles) {
            for policy in &policies {
                let s = score_cell(profile, geometry, &policy.label(), margin);
                pruned += u64::from(s.pruned);
                cells.push(Json::Obj(vec![
                    ("bench".into(), Json::Str(bench.name().to_string())),
                    ("policy".into(), Json::Str(policy.label())),
                    ("est_miss_rate".into(), Json::Num(s.estimate.miss_rate)),
                    ("band".into(), Json::Num(s.estimate.band)),
                    ("delta".into(), Json::Num(s.delta)),
                    ("pruned".into(), Json::Bool(s.pruned)),
                    ("reason".into(), Json::Str(s.reason)),
                ]));
            }
        }
        let total = cells.len() as u64;
        Json::Obj(vec![
            ("model".into(), Json::Bool(true)),
            (
                "kind".into(),
                Json::Str(match &self.kind {
                    JobKind::Fig5 => "fig5".into(),
                    JobKind::Sweep { .. } => "sweep".into(),
                }),
            ),
            ("accesses".into(), Json::Num(self.accesses as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("prune_margin".into(), Json::Num(margin)),
            ("cells".into(), Json::Arr(cells)),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::Num(total as f64)),
                    ("pruned".into(), Json::Num(pruned as f64)),
                    ("surviving".into(), Json::Num((total - pruned) as f64)),
                ]),
            ),
        ])
    }

    /// Execute the job, streaming telemetry into `telemetry` and honoring
    /// `cancel` at matrix-cell granularity. The returned report is
    /// byte-identical to the corresponding CLI invocation.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before the sweep completed.
    pub fn run(&self, telemetry: SinkHandle, cancel: &CancelToken) -> Result<String, Cancelled> {
        self.run_traced(telemetry, cancel, None)
    }

    /// [`JobSpec::run`] with an optional per-cell span observer: the
    /// serving layer passes one to record every matrix cell as a
    /// `run(cell=i,j)` span on the request's trace. The report bytes are
    /// identical with or without the observer.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before the sweep completed.
    pub fn run_traced(
        &self,
        telemetry: SinkHandle,
        cancel: &CancelToken,
        cell_spans: Option<CellSpanSink>,
    ) -> Result<String, Cancelled> {
        let opts = RunOptions {
            accesses: self.accesses,
            seed: self.seed,
            jobs: self.jobs,
            telemetry,
            cell_spans,
            ..RunOptions::default()
        };
        match &self.kind {
            JobKind::Fig5 => try_fig5_report(&opts, cancel),
            JobKind::Sweep { benches, policies } => {
                try_sweep_report(benches, policies, &opts, cancel)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_fig5_spec_gets_defaults() {
        let s = JobSpec::parse(r#"{"kind":"fig5"}"#).unwrap();
        assert!(matches!(s.kind, JobKind::Fig5));
        assert_eq!(s.accesses, DEFAULT_ACCESSES);
        assert_eq!(s.seed, DEFAULT_SEED);
        assert_eq!(s.jobs, 1);
        assert_eq!(s.deadline_ms, None);
    }

    #[test]
    fn sweep_spec_parses_benches_and_policies() {
        let s = JobSpec::parse(
            r#"{"kind":"sweep","benches":["mcf","art"],
                "policies":["lru","lin(7)","sbar"],"accesses":500,"jobs":3}"#,
        )
        .unwrap();
        match &s.kind {
            JobKind::Sweep { benches, policies } => {
                assert_eq!(benches.len(), 2);
                assert_eq!(policies.len(), 3);
                assert!(matches!(policies[1], PolicyKind::Lin { lambda: 7 }));
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        assert_eq!(s.accesses, 500);
        assert_eq!(s.jobs, 3);
    }

    #[test]
    fn canonical_encoding_round_trips() {
        for raw in [
            r#"{"kind":"fig5","accesses":700,"seed":9,"jobs":2,"deadline_ms":5000}"#,
            r#"{"kind":"sweep","benches":["twolf"],"policies":["lin(4)","cbs-local"]}"#,
        ] {
            let a = JobSpec::parse(raw).unwrap();
            let b = JobSpec::from_json(&a.to_json()).unwrap();
            assert_eq!(
                a.to_json().to_string_compact(),
                b.to_json().to_string_compact(),
                "{raw}"
            );
        }
    }

    #[test]
    fn bad_specs_name_the_field() {
        for (raw, needle) in [
            (r#"{}"#, "kind"),
            (r#"{"kind":"fig6"}"#, "unknown job kind"),
            (r#"{"kind":"fig5","accesses":0}"#, "accesses"),
            (r#"{"kind":"fig5","jobs":"many"}"#, "jobs"),
            (r#"{"kind":"sweep","benches":["gcc"]}"#, "unknown benchmark"),
            (
                r#"{"kind":"sweep","policies":["belady"]}"#,
                "unknown policy",
            ),
            (r#"{"kind":"sweep","benches":[]}"#, "at least one"),
            (r#"not json"#, "JSON error"),
        ] {
            let err = JobSpec::parse(raw).expect_err(raw);
            assert!(err.contains(needle), "{raw}: {err}");
        }
    }

    #[test]
    fn estimate_doc_is_labeled_and_scores_every_cell() {
        let spec = JobSpec::parse(
            r#"{"kind":"sweep","benches":["mcf","art"],"policies":["lru","lin(4)"],
                "accesses":2000,"jobs":2}"#,
        )
        .unwrap();
        let doc = spec.estimate_doc(DEFAULT_PRUNE_MARGIN);
        assert_eq!(doc.get("model").and_then(Json::as_bool), Some(true));
        let cells = match doc.get("cells") {
            Some(Json::Arr(cells)) => cells,
            other => panic!("expected cells array, got {other:?}"),
        };
        assert_eq!(cells.len(), 4);
        for cell in cells {
            let rate = cell.get("est_miss_rate").and_then(Json::as_f64).unwrap();
            assert!((0.0..=1.0).contains(&rate), "{rate}");
            assert!(cell.get("reason").and_then(Json::as_str).is_some());
        }
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(4));
        // Estimation never simulates, so it must round-trip the parser.
        let back = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(back.to_string_compact(), doc.to_string_compact());
    }

    #[test]
    fn prune_margin_field_validates() {
        let default = prune_margin_from_json(&Json::parse(r#"{"kind":"fig5"}"#).unwrap()).unwrap();
        assert!((default - DEFAULT_PRUNE_MARGIN).abs() < 1e-12);
        let explicit =
            prune_margin_from_json(&Json::parse(r#"{"prune_margin":0.02}"#).unwrap()).unwrap();
        assert!((explicit - 0.02).abs() < 1e-12);
        for raw in [
            r#"{"prune_margin":-0.1}"#,
            r#"{"prune_margin":"lots"}"#,
            r#"{"prune_margin":1e999}"#,
        ] {
            let err = prune_margin_from_json(&Json::parse(raw).unwrap()).expect_err(raw);
            assert!(err.contains("prune_margin"), "{raw}: {err}");
        }
    }

    #[test]
    fn spec_run_matches_cli_run_path() {
        let spec = JobSpec::parse(
            r#"{"kind":"sweep","benches":["mcf"],"policies":["lru"],"accesses":800}"#,
        )
        .unwrap();
        let via_spec = spec
            .run(SinkHandle::disabled(), &CancelToken::new())
            .unwrap();
        let direct = crate::figures::sweep_report(
            &[SpecBench::Mcf],
            &[PolicyKind::Lru],
            &RunOptions {
                accesses: 800,
                jobs: 1,
                ..RunOptions::default()
            },
        );
        assert_eq!(via_spec, direct, "one run path, byte-identical");
    }
}
