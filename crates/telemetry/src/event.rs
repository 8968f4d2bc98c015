//! The telemetry event vocabulary and its NDJSON encoding.
//!
//! Every event encodes to one JSON object per line with a `"type"`
//! discriminator; field names become JSON keys verbatim. The variant/JSON
//! mapping is generated by one macro so the encoder and parser cannot
//! drift apart — round-trip equality is enforced by tests here and by
//! property tests in the crate's test suite.

use crate::json::Json;
use std::fmt;

/// Error produced when a line is not a well-formed event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventParseError {
    pub message: String,
}

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event parse error: {}", self.message)
    }
}

impl std::error::Error for EventParseError {}

/// Conversion between one event field and its JSON representation.
trait Field: Sized {
    fn encode(&self) -> Json;
    fn decode(v: &Json) -> Option<Self>;
}

impl Field for u64 {
    fn encode(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64()
    }
}

impl Field for u8 {
    fn encode(&self) -> Json {
        Json::Num(f64::from(*self))
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_u64().and_then(|n| u8::try_from(n).ok())
    }
}

impl Field for i64 {
    fn encode(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn decode(v: &Json) -> Option<Self> {
        match v.as_f64() {
            Some(n) if n.fract() == 0.0 => Some(n as i64),
            _ => None,
        }
    }
}

impl Field for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_f64()
    }
}

impl Field for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_bool()
    }
}

impl Field for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl Field for Vec<(String, u64)> {
    fn encode(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                .collect(),
        )
    }
    fn decode(v: &Json) -> Option<Self> {
        match v {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, n)| n.as_u64().map(|n| (k.clone(), n)))
                .collect(),
            _ => None,
        }
    }
}

macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal { $($field:ident : $ty:ty),* $(,)? }
    )*) => {
        /// One telemetry event. See each variant for the emitting site.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Event {
            $( $(#[$doc])* $variant { $($field: $ty),* } ),*
        }

        impl Event {
            /// The `"type"` discriminator this event serializes under.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind ),*
                }
            }

            /// All discriminators, in declaration order.
            pub fn kinds() -> &'static [&'static str] {
                &[ $( $kind ),* ]
            }

            pub fn to_json(&self) -> Json {
                match self {
                    $( Event::$variant { $($field),* } => {
                        #[allow(unused_mut)]
                        let mut pairs: Vec<(String, Json)> =
                            vec![("type".to_string(), Json::Str($kind.to_string()))];
                        $( pairs.push((stringify!($field).to_string(), Field::encode($field))); )*
                        Json::Obj(pairs)
                    } ),*
                }
            }

            pub fn from_json(v: &Json) -> Result<Event, EventParseError> {
                let kind = v.get("type").and_then(Json::as_str).ok_or_else(|| {
                    EventParseError { message: "missing \"type\" field".to_string() }
                })?;
                match kind {
                    $( $kind => Ok(Event::$variant {
                        $( $field: {
                            let raw = v.get(stringify!($field)).ok_or_else(|| EventParseError {
                                message: format!(
                                    "{}: missing field \"{}\"", $kind, stringify!($field)
                                ),
                            })?;
                            <$ty as Field>::decode(raw).ok_or_else(|| EventParseError {
                                message: format!(
                                    "{}: field \"{}\" has wrong type", $kind, stringify!($field)
                                ),
                            })?
                        } ),*
                    }), )*
                    other => Err(EventParseError {
                        message: format!("unknown event type \"{other}\""),
                    }),
                }
            }
        }
    };
}

events! {
    /// Experiment runner: a simulation begins.
    RunStart = "run_start" { label: String, policy: String, cycle: u64 }
    /// Experiment runner: a simulation finished, with headline aggregates
    /// so a report can cross-check its own folds.
    RunEnd = "run_end" {
        label: String,
        policy: String,
        cycle: u64,
        instructions: u64,
        l2_misses: u64,
        peak_mlp: u64,
        mem_stall_cycles: u64,
    }
    /// `Mshr::allocate` succeeded; `live`/`demand_live` are occupancy
    /// *after* the allocation, `slot` the array index the entry landed in
    /// (stable until the matching `mshr_release`, so a slot's alloc/release
    /// pairs form non-overlapping occupancy intervals).
    MshrAlloc = "mshr_alloc" {
        cycle: u64,
        line: u64,
        demand: bool,
        live: u64,
        demand_live: u64,
        slot: u64,
    }
    /// A request merged into an in-flight entry (possibly promoting a
    /// prefetch to demand).
    MshrMerge = "mshr_merge" { cycle: u64, line: u64, promoted: bool, live: u64 }
    /// An entry's fill completed and the slot was freed; `live` is the
    /// occupancy *after* the release, `cost` the accumulated mlp-cost,
    /// `slot` the array index being vacated.
    MshrRelease = "mshr_release" {
        cycle: u64,
        line: u64,
        demand: bool,
        live: u64,
        cost: f64,
        slot: u64,
    }
    /// Cache hit (emitted only while a sink is attached; see CacheModel).
    CacheHit = "cache_hit" { level: u8, set: u64, line: u64, seq: u64 }
    /// Cache miss at `level` in `set`.
    CacheMiss = "cache_miss" { level: u8, set: u64, line: u64, seq: u64 }
    /// A victim was chosen on a miss with no invalid way: its way index,
    /// recency rank R(i), quantized cost, and dirtiness.
    CacheVictim = "cache_victim" {
        level: u8,
        set: u64,
        way: u64,
        rank: u64,
        cost_q: u8,
        line: u64,
        dirty: bool,
        seq: u64,
    }
    /// A demand miss was serviced; the Algorithm-1 mlp-cost and its 3-bit
    /// quantization. This is the streaming form of `SimResult::miss_log`.
    Serviced = "serviced" { line: u64, cycle: u64, cost: f64, cost_q: u8 }
    /// A long back-end stall episode attributed to an L2 miss.
    Stall = "stall" { cycle: u64, len: u64 }
    /// A full-window memory-stall span closed (see `mlpsim-cpu::attrib`):
    /// `[begin, end)` in cycles, the head-of-window miss's line and set,
    /// its `cost_q` bucket, the deciding replacement policy for that set,
    /// and the number of demand misses outstanding when the span opened.
    StallSpan = "stall_span" {
        begin: u64,
        end: u64,
        line: u64,
        set: u64,
        cost_q: u8,
        policy: String,
        n_begin: u64,
    }
    /// Stall cycles attributed to one serviced demand miss under the
    /// Algorithm-1 `1/N` apportionment: the ledger contribution for key
    /// (`set`, `cost_q`, `policy`). Summing `cycles` over a complete
    /// stream reproduces the run's `mem_stall_cycles` exactly.
    StallAttrib = "stall_attrib" {
        cycle: u64,
        line: u64,
        set: u64,
        cost_q: u8,
        policy: String,
        cycles: u64,
    }
    /// Interval time-series sample (mirrors `timeseries::Sample`).
    Sample = "sample" { instructions: u64, cycle: u64, ipc: f64, mpki: f64, avg_cost_q: f64 }
    /// A saturating-PSEL arm moved. `unit` names the engine ("sbar",
    /// "cbs"), `index` the set for per-set CBS (0 otherwise), `delta`
    /// the signed requested step, `value` the post-update counter.
    PselUpdate = "psel_update" {
        unit: String,
        index: u64,
        delta: i64,
        value: u64,
        msb: bool,
        saturated: bool,
        seq: u64,
    }
    /// The PSEL most-significant bit changed — the moment the follower
    /// sets switch policy.
    PselFlip = "psel_flip" { unit: String, index: u64, msb: bool, value: u64, seq: u64 }
    /// A leader/ATD divergence: exactly one of the duelling components
    /// missed. `side` says which one, `cost_q` the charged weight.
    LeaderDivergence = "leader_divergence" {
        unit: String,
        side: String,
        line: u64,
        cost_q: u8,
        seq: u64,
    }
    /// Periodic sink-side running totals of events by kind.
    Snapshot = "snapshot" { events: u64, counts: Vec<(String, u64)> }
    /// tracetool: a synthetic trace was generated.
    TraceGen = "trace_gen" { bench: String, accesses: u64, seed: u64 }
    /// tracetool: summary statistics of a trace.
    TraceSummary = "trace_summary" { bench: String, accesses: u64, unique_lines: u64 }
    /// Sweep planner (`--plan estimate`): one matrix cell's analytical
    /// score — predicted miss rate with its stated error band, the
    /// predicted miss-rate delta vs the incumbent policy, and the prune
    /// verdict with its reason. Carries no host-time fields: the stream
    /// stays byte-identical across runs and job counts.
    PlanCell = "plan_cell" {
        bench: String,
        policy: String,
        est_miss_rate: f64,
        band: f64,
        delta: f64,
        pruned: bool,
        reason: String,
    }
    /// Sweep planner: grid totals after scoring, before the surviving
    /// cells are simulated.
    PlanSummary = "plan_summary" { cells: u64, pruned: u64, simulated: u64, margin: f64 }
}

impl Event {
    /// Encode as one NDJSON line (no trailing newline).
    pub fn to_ndjson_line(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse one NDJSON line.
    pub fn parse_line(line: &str) -> Result<Event, EventParseError> {
        let v = Json::parse(line.trim()).map_err(|e| EventParseError {
            message: e.to_string(),
        })?;
        Event::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::Event;

    fn exemplars() -> Vec<Event> {
        vec![
            Event::RunStart {
                label: "fig9".into(),
                policy: "lin(4)".into(),
                cycle: 0,
            },
            Event::RunEnd {
                label: "fig9".into(),
                policy: "lin(4)".into(),
                cycle: 123_456,
                instructions: 1_000_000,
                l2_misses: 42_000,
                peak_mlp: 12,
                mem_stall_cycles: 98_765,
            },
            Event::MshrAlloc {
                cycle: 10,
                line: 0xdead,
                demand: true,
                live: 3,
                demand_live: 2,
                slot: 4,
            },
            Event::MshrMerge {
                cycle: 11,
                line: 0xdead,
                promoted: false,
                live: 3,
            },
            Event::MshrRelease {
                cycle: 400,
                line: 0xdead,
                demand: true,
                live: 2,
                cost: 1.625,
                slot: 4,
            },
            Event::CacheHit {
                level: 2,
                set: 5,
                line: 77,
                seq: 9,
            },
            Event::CacheMiss {
                level: 2,
                set: 5,
                line: 78,
                seq: 10,
            },
            Event::CacheVictim {
                level: 2,
                set: 5,
                way: 3,
                rank: 15,
                cost_q: 6,
                line: 9,
                dirty: true,
                seq: 10,
            },
            Event::Serviced {
                line: 78,
                cycle: 500,
                cost: 0.5,
                cost_q: 1,
            },
            Event::Stall {
                cycle: 600,
                len: 212,
            },
            Event::StallSpan {
                begin: 600,
                end: 812,
                line: 78,
                set: 5,
                cost_q: 7,
                policy: "lin".into(),
                n_begin: 3,
            },
            Event::StallAttrib {
                cycle: 812,
                line: 78,
                set: 5,
                cost_q: 7,
                policy: "lin".into(),
                cycles: 71,
            },
            Event::Sample {
                instructions: 100_000,
                cycle: 250_000,
                ipc: 0.4,
                mpki: 12.25,
                avg_cost_q: 3.5,
            },
            Event::PselUpdate {
                unit: "sbar".into(),
                index: 0,
                delta: -3,
                value: 509,
                msb: false,
                saturated: false,
                seq: 1000,
            },
            Event::PselFlip {
                unit: "sbar".into(),
                index: 0,
                msb: true,
                value: 512,
                seq: 1001,
            },
            Event::LeaderDivergence {
                unit: "sbar".into(),
                side: "follower_only_miss".into(),
                line: 4,
                cost_q: 7,
                seq: 1002,
            },
            Event::Snapshot {
                events: 2,
                counts: vec![("cache_miss".into(), 1), ("mshr_alloc".into(), 1)],
            },
            Event::TraceGen {
                bench: "ammp-like".into(),
                accesses: 420_000,
                seed: 1,
            },
            Event::TraceSummary {
                bench: "ammp-like".into(),
                accesses: 420_000,
                unique_lines: 30_000,
            },
            Event::PlanCell {
                bench: "mcf".into(),
                policy: "lin(4)".into(),
                est_miss_rate: 0.4375,
                band: 0.02,
                delta: 0.0312,
                pruned: false,
                reason: "predicted |miss-rate delta| 0.0312 vs incumbent is at/above margin 0.0050"
                    .into(),
            },
            Event::PlanSummary {
                cells: 28,
                pruned: 15,
                simulated: 13,
                margin: 0.005,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in exemplars() {
            let line = ev.to_ndjson_line();
            let back = Event::parse_line(&line).unwrap_or_else(|e| {
                panic!("failed to parse back {line}: {e}");
            });
            assert_eq!(ev, back);
        }
    }

    #[test]
    fn kind_matches_type_field() {
        for ev in exemplars() {
            let line = ev.to_ndjson_line();
            assert!(
                line.starts_with(&format!("{{\"type\":\"{}\"", ev.kind())),
                "{line}"
            );
        }
    }

    #[test]
    fn missing_field_is_an_error() {
        let err = Event::parse_line(r#"{"type":"stall","cycle":5}"#).unwrap_err();
        assert!(err.message.contains("len"), "{}", err.message);
    }

    #[test]
    fn unknown_type_is_an_error() {
        assert!(Event::parse_line(r#"{"type":"nope"}"#).is_err());
    }
}
