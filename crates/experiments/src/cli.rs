//! The workspace's command lines: one parser for every binary.
//!
//! `mlpsim <experiment> [flags] [args]` names a [`registry`] entry, and
//! [`parse`] reads the rest of the line once, against that entry's own
//! flag list. `mlpsim-serve` and `mlpsim-client` describe their command
//! lines as [`Command`]s and go through [`parse_command`] and
//! [`parse_subcommand`]. A flag the command does not use is an error, not
//! a no-op: a typo like `--job 4`, or `--telemetry` on an experiment that
//! streams no events, would otherwise run to completion and quietly drop
//! the request. Bad input yields a one-line message and [`EXIT_USAGE`],
//! never a panic (rule D4, DESIGN.md §10).
//!
//! [`registry`]: crate::registry

use crate::registry::{self, Experiment};
use crate::runner::{PlanOptions, RunOptions, DEFAULT_ACCESSES};
use mlpsim_telemetry::{ChromeTraceSink, FanoutSink, NdjsonSink, SinkHandle};
use mlpsim_trace::spec::SpecBench;
use std::process::ExitCode;

/// Exit code for invalid command-line input, following the BSD `EX_USAGE`
/// convention well enough for scripts to distinguish it from crashes.
pub const EXIT_USAGE: u8 = 2;

/// Exit code for runtime I/O failures (cannot create/write an output file).
pub const EXIT_IO: u8 = 3;

/// Prints `error: <msg>` to stderr and returns the usage exit code.
/// Binaries `return` the result from `main() -> ExitCode`.
#[must_use]
pub fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(EXIT_USAGE)
}

/// Prints `error: <msg>` to stderr and returns the I/O exit code.
#[must_use]
pub fn io_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(EXIT_IO)
}

/// A command-line flag. Each registry entry lists the ones it reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--jobs N` / `-j N`: worker threads (never changes output bytes).
    Jobs,
    /// `--accesses N`: memory accesses per benchmark trace.
    Accesses,
    /// `--telemetry PATH`: stream simulation events as NDJSON.
    Telemetry,
    /// `--trace-out PATH`: write a Chrome trace-event JSON file.
    TraceOut,
    /// `--plan estimate|full`: the estimate→prune→simulate planner.
    Plan,
    /// `--prune-margin F`: the planner's prune threshold.
    PruneMargin,
    /// `--traces PATH`: fold a serve flight-recorder dump instead.
    Traces,
    /// `--addr HOST:PORT`: the address `mlpsim-serve` binds.
    Addr,
    /// `--data-dir DIR`: where `mlpsim-serve` keeps its journal.
    DataDir,
    /// `--queue N`: `mlpsim-serve`'s admission-queue capacity (0 refuses
    /// every submission).
    Queue,
    /// `--retry-after SECS`: the `Retry-After` a full queue answers with.
    RetryAfter,
    /// `--read-timeout-ms MS`: the read timeout on accepted sockets.
    ReadTimeoutMs,
    /// `--server URL`: the `mlpsim-serve` instance a client talks to.
    Server,
    /// `--traceparent TP`: a W3C trace context to continue.
    Traceparent,
    /// `--chrome`: a switch, render a trace as Chrome trace-event JSON.
    Chrome,
}

impl Flag {
    const ALL: [Flag; 15] = [
        Flag::Jobs,
        Flag::Accesses,
        Flag::Telemetry,
        Flag::TraceOut,
        Flag::Plan,
        Flag::PruneMargin,
        Flag::Traces,
        Flag::Addr,
        Flag::DataDir,
        Flag::Queue,
        Flag::RetryAfter,
        Flag::ReadTimeoutMs,
        Flag::Server,
        Flag::Traceparent,
        Flag::Chrome,
    ];

    /// The long spelling, `--jobs` etc.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Jobs => "--jobs",
            Flag::Accesses => "--accesses",
            Flag::Telemetry => "--telemetry",
            Flag::TraceOut => "--trace-out",
            Flag::Plan => "--plan",
            Flag::PruneMargin => "--prune-margin",
            Flag::Traces => "--traces",
            Flag::Addr => "--addr",
            Flag::DataDir => "--data-dir",
            Flag::Queue => "--queue",
            Flag::RetryAfter => "--retry-after",
            Flag::ReadTimeoutMs => "--read-timeout-ms",
            Flag::Server => "--server",
            Flag::Traceparent => "--traceparent",
            Flag::Chrome => "--chrome",
        }
    }

    fn value_name(self) -> &'static str {
        match self {
            Flag::Jobs | Flag::Accesses | Flag::Queue => "N",
            Flag::Plan => "estimate|full",
            Flag::PruneMargin => "F",
            Flag::Telemetry | Flag::TraceOut | Flag::Traces => "PATH",
            Flag::Addr => "HOST:PORT",
            Flag::DataDir => "DIR",
            Flag::RetryAfter => "SECS",
            Flag::ReadTimeoutMs => "MS",
            Flag::Server => "URL",
            Flag::Traceparent => "TP",
            Flag::Chrome => "",
        }
    }

    /// Whether the value is a path or address, which must not look like
    /// a flag (`--telemetry --accesses` must not eat `--accesses`).
    fn takes_path(self) -> bool {
        matches!(
            self,
            Flag::Telemetry
                | Flag::TraceOut
                | Flag::Traces
                | Flag::Addr
                | Flag::DataDir
                | Flag::Server
                | Flag::Traceparent
        )
    }

    /// Whether the flag is a switch that takes no value.
    fn is_switch(self) -> bool {
        self == Flag::Chrome
    }

    /// Matches one command-line word: `--flag`, `--flag=value`, `-j` or
    /// `-jN`. Returns the flag and its inline value, if any.
    fn lookup(word: &str) -> Option<(Flag, Option<&str>)> {
        if let Some(n) = word.strip_prefix("-j").filter(|_| !word.starts_with("--")) {
            return Some((Flag::Jobs, (!n.is_empty()).then_some(n)));
        }
        Flag::ALL
            .into_iter()
            .find_map(|f| match word.strip_prefix(f.name()) {
                Some("") => Some((f, None)),
                Some(rest) => rest.strip_prefix('=').map(|v| (f, Some(v))),
                None => None,
            })
    }

    /// `-j, --jobs N` style, for the usage listing.
    pub fn usage(self) -> String {
        let short = if self == Flag::Jobs { "-j, " } else { "" };
        format!("{short}{} {}", self.name(), self.value_name())
            .trim_end()
            .to_string()
    }
}

/// One command line's grammar: its name, the flags it reads and its
/// positional arguments (`<required>` or `[optional]`).
#[derive(Clone, Copy, Debug)]
pub struct Command {
    /// The binary, for usage lines: `mlpsim` before `fig5`, or empty when
    /// `name` is the binary itself.
    pub program: &'static str,
    /// The command's name, as errors and usage lines spell it.
    pub name: &'static str,
    /// The flags it reads; every other flag is an error.
    pub flags: &'static [Flag],
    /// Positional arguments: `<required>` or `[optional]`.
    pub positional: &'static [&'static str],
}

/// A parsed command line: the values of the flags the subcommand accepts
/// (absent flags are `None`) and its positional arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// `--jobs`; `None` means [`mlpsim_exec::default_jobs`].
    pub jobs: Option<usize>,
    /// `--accesses`; `None` means [`DEFAULT_ACCESSES`].
    pub accesses: Option<usize>,
    /// `--telemetry` path.
    pub telemetry: Option<String>,
    /// `--trace-out` path.
    pub trace_out: Option<String>,
    /// `--plan estimate` (with its `--prune-margin`); `None` is a full
    /// sweep.
    pub plan: Option<PlanOptions>,
    /// `--traces` path.
    pub traces: Option<String>,
    /// `--addr`.
    pub addr: Option<String>,
    /// `--data-dir`.
    pub data_dir: Option<String>,
    /// `--queue`.
    pub queue: Option<usize>,
    /// `--retry-after`, in seconds.
    pub retry_after: Option<u64>,
    /// `--read-timeout-ms`.
    pub read_timeout_ms: Option<u64>,
    /// `--server`.
    pub server: Option<String>,
    /// `--traceparent`.
    pub traceparent: Option<String>,
    /// `--chrome` was given.
    pub chrome: bool,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// The worker count: `--jobs`, else [`mlpsim_exec::default_jobs`].
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(mlpsim_exec::default_jobs)
    }

    /// The `i`th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Default [`RunOptions`] with `--jobs`, `--accesses` and the event
    /// sinks applied.
    ///
    /// # Errors
    ///
    /// A `--telemetry` or `--trace-out` file that cannot be created: a run
    /// whose requested telemetry silently vanishes is worse than no run.
    pub fn run_options(&self) -> Result<RunOptions, String> {
        Ok(RunOptions {
            telemetry: self.sinks()?,
            accesses: self.accesses.unwrap_or(DEFAULT_ACCESSES),
            jobs: self.jobs(),
            ..RunOptions::default()
        })
    }

    /// `--telemetry` opens an NDJSON stream, `--trace-out` a Chrome
    /// trace-event JSON file (load it in `chrome://tracing` or Perfetto):
    /// either alone, both fanned out from one stream, or a disabled handle.
    fn sinks(&self) -> Result<SinkHandle, String> {
        let ndjson = |p: &str| {
            NdjsonSink::create(p).map_err(|e| format!("cannot create telemetry file {p}: {e}"))
        };
        let trace = |p: &str| {
            ChromeTraceSink::create(p).map_err(|e| format!("cannot create trace file {p}: {e}"))
        };
        let handle = match (self.telemetry.as_deref(), self.trace_out.as_deref()) {
            (None, None) => SinkHandle::disabled(),
            (Some(n), None) => SinkHandle::of(ndjson(n)?),
            (None, Some(t)) => SinkHandle::of(trace(t)?),
            (Some(n), Some(t)) => {
                SinkHandle::of(FanoutSink::new().with(ndjson(n)?).with(trace(t)?))
            }
        };
        Ok(handle)
    }
}

/// Parses `mlpsim`'s arguments (without the program name): the
/// subcommand, then its flags and positionals.
///
/// # Errors
///
/// An unknown subcommand; an unknown flag, or one the subcommand does not
/// use; a missing or malformed flag value; too few or too many positional
/// arguments. Each message names the offending word.
pub fn parse(argv: &[String]) -> Result<(&'static Experiment, Args), String> {
    let (name, rest) = argv
        .split_first()
        .ok_or("no experiment named; run `mlpsim` with no arguments for the list")?;
    let exp = registry::find(name).ok_or_else(|| {
        format!("unknown experiment {name:?}; run `mlpsim` with no arguments for the list")
    })?;
    let command = Command {
        program: "mlpsim",
        name: exp.name,
        flags: exp.flags,
        positional: exp.positional,
    };
    Ok((exp, parse_command(&command, rest)?))
}

/// Parses a line whose first positional word names one of `commands`
/// (flags may come before it); the rest of the line is parsed against
/// that command, as [`parse_command`] does.
///
/// # Errors
///
/// No command word, an unknown one, or any error [`parse_command`]
/// reports for the named command.
pub fn parse_subcommand<'c>(
    commands: &'c [Command],
    argv: &[String],
) -> Result<(&'c Command, Args), String> {
    let known = || {
        let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
        names.join(", ")
    };
    let mut at = 0;
    let name = loop {
        let Some(word) = argv.get(at) else {
            return Err(format!("no command named; commands: {}", known()));
        };
        match Flag::lookup(word) {
            // A flag's separate value is not the command word.
            Some((flag, None)) if !flag.is_switch() => at += 2,
            Some(_) => at += 1,
            None if word.starts_with('-') && word != "-" => {
                return Err(format!("unknown flag {word:?} before the command"))
            }
            None => break word,
        }
    };
    let command = commands
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; commands: {}", known()))?;
    let rest: Vec<String> = argv
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != at)
        .map(|(_, w)| w.clone())
        .collect();
    Ok((command, parse_command(command, &rest)?))
}

/// Parses a command's flags and positional arguments.
///
/// # Errors
///
/// An unknown flag, or one the command does not use; a missing or
/// malformed flag value; too few or too many positional arguments. Each
/// message names the offending word.
pub fn parse_command(exp: &Command, argv: &[String]) -> Result<Args, String> {
    let accepted = || match exp.flags {
        [] => format!("{} takes no flags", exp.name),
        flags => {
            let names: Vec<&str> = flags.iter().map(|f| f.name()).collect();
            format!("{} accepts {}", exp.name, names.join(", "))
        }
    };
    let mut args = Args::default();
    let (mut plan, mut margin) = (None, None);
    let mut it = argv.iter();
    while let Some(word) = it.next() {
        if !word.starts_with('-') || word == "-" {
            args.positional.push(word.clone());
            continue;
        }
        let (flag, inline) =
            Flag::lookup(word).ok_or_else(|| format!("unknown flag {word:?}; {}", accepted()))?;
        if !exp.flags.contains(&flag) {
            return Err(format!(
                "{} does not use {}; {}",
                exp.name,
                flag.name(),
                accepted()
            ));
        }
        if flag.is_switch() {
            if inline.is_some() {
                return Err(format!("{} takes no value", flag.name()));
            }
            args.chrome = true;
            continue;
        }
        let value = match inline {
            Some("") if flag.takes_path() => {
                return Err(format!("{}= requires a non-empty path", flag.name()))
            }
            Some(v) => v,
            None => match it.next() {
                // `--telemetry --accesses` must not eat `--accesses`; a
                // path that really starts with "--" uses the `=` form.
                Some(v) if flag.takes_path() && v.starts_with("--") => {
                    return Err(format!(
                        "{0} requires a path, got the flag-like {v:?} (use {0}={v} for a \
                         path that really starts with \"--\")",
                        flag.name()
                    ))
                }
                Some(v) => v,
                None => return Err(format!("{} requires {}", flag.name(), flag.value_name())),
            },
        };
        match flag {
            Flag::Jobs => args.jobs = Some(positive(flag, value)?),
            Flag::Accesses => args.accesses = Some(positive(flag, value)?),
            Flag::Telemetry => args.telemetry = Some(value.to_string()),
            Flag::TraceOut => args.trace_out = Some(value.to_string()),
            Flag::Traces => args.traces = Some(value.to_string()),
            Flag::Addr => args.addr = Some(value.to_string()),
            Flag::DataDir => args.data_dir = Some(value.to_string()),
            Flag::Queue => args.queue = Some(count(flag, value)?),
            Flag::RetryAfter => args.retry_after = Some(count(flag, value)?),
            Flag::ReadTimeoutMs => args.read_timeout_ms = Some(positive(flag, value)?),
            Flag::Server => args.server = Some(value.to_string()),
            Flag::Traceparent => args.traceparent = Some(value.to_string()),
            Flag::Chrome => args.chrome = true,
            Flag::Plan => match value {
                "estimate" | "full" => plan = Some(value == "estimate"),
                _ => {
                    return Err(format!(
                        "--plan wants \"estimate\" or \"full\", got {value:?}"
                    ))
                }
            },
            Flag::PruneMargin => match value.parse::<f64>() {
                Ok(m) if m.is_finite() && m >= 0.0 => margin = Some(m),
                _ => {
                    return Err(format!(
                        "--prune-margin wants a finite non-negative number, got {value:?}"
                    ))
                }
            },
        }
    }
    args.plan = match (plan, margin) {
        (Some(true), m) => Some(PlanOptions {
            margin: m.unwrap_or(PlanOptions::default().margin),
        }),
        // A margin without the planner is a contradiction, not a no-op.
        (_, Some(_)) => return Err("--prune-margin requires --plan estimate".into()),
        _ => None,
    };
    let words = [exp.program, exp.name]
        .into_iter()
        .chain(exp.positional.iter().copied());
    let usage = format!(
        "usage: {}",
        words
            .filter(|w| !w.is_empty())
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(extra) = args.positional.get(exp.positional.len()) {
        return Err(format!(
            "unexpected argument {extra:?}; {}",
            usage.trim_end()
        ));
    }
    let required = exp.positional.iter().filter(|p| p.starts_with('<')).count();
    if args.positional.len() < required {
        return Err(usage);
    }
    Ok(args)
}

fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    flag: Flag,
    raw: &str,
) -> Result<T, String> {
    match raw.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!(
            "{} wants a positive integer, got {raw:?}",
            flag.name()
        )),
    }
}

fn count<T: std::str::FromStr>(flag: Flag, raw: &str) -> Result<T, String> {
    raw.parse::<T>()
        .map_err(|_| format!("{} wants a non-negative integer, got {raw:?}", flag.name()))
}

/// Resolves a benchmark name from a command line or a job spec.
///
/// # Errors
///
/// An unknown name yields a message listing every valid benchmark, so a
/// typo is a one-line fix rather than a trip to the source.
pub fn parse_bench(name: &str) -> Result<SpecBench, String> {
    SpecBench::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = SpecBench::ALL.iter().map(|b| b.name()).collect();
        format!("unknown benchmark {name:?}; known: {}", known.join(", "))
    })
}

/// Parses an optional positional integer argument, defaulting when absent.
///
/// # Errors
///
/// A present-but-unparsable value is an error (silently falling back to
/// the default would hide the typo).
pub fn u64_from_arg(arg: Option<&str>, what: &str, default: u64) -> Result<u64, String> {
    match arg {
        None => Ok(default),
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| format!("invalid {what} {raw:?}: want a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_args_resolve_or_list_the_alternatives() {
        assert_eq!(parse_bench("ammp").map(|b| b.name()), Ok("ammp"));
        let err = parse_bench("gcc").unwrap_err();
        assert!(err.contains("unknown benchmark"));
        assert!(err.contains("twolf"), "message lists valid names: {err}");
    }

    #[test]
    fn run_options_apply_defaults_and_open_the_requested_sinks() {
        let opts = Args::default().run_options().unwrap();
        assert_eq!(opts.accesses, DEFAULT_ACCESSES);
        assert!(opts.jobs >= 1);
        assert!(!opts.telemetry.enabled());
        let dir = std::env::temp_dir();
        let ndjson = dir
            .join("mlpsim-cli-sinks-test.ndjson")
            .display()
            .to_string();
        let trace = dir.join("mlpsim-cli-sinks-test.json").display().to_string();
        for (telemetry, trace_out) in [
            (Some(&ndjson), None),
            (None, Some(&trace)),
            (Some(&ndjson), Some(&trace)),
        ] {
            let args = Args {
                telemetry: telemetry.cloned(),
                trace_out: trace_out.cloned(),
                ..Args::default()
            };
            assert!(args.run_options().unwrap().telemetry.enabled());
        }
        let _ = std::fs::remove_file(ndjson);
        let _ = std::fs::remove_file(trace);
        let unwritable = Args {
            telemetry: Some("/nonexistent-dir/t.ndjson".into()),
            ..Args::default()
        };
        assert!(unwritable.run_options().is_err());
    }

    #[test]
    fn u64_arg_defaults_and_parses() {
        assert_eq!(u64_from_arg(None, "interval", 7), Ok(7));
        assert_eq!(u64_from_arg(Some(" 42 "), "interval", 7), Ok(42));
        assert!(u64_from_arg(Some("x"), "interval", 7).is_err());
    }
}
