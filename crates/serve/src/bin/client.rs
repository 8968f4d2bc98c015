//! `mlpsim-client` — talk to a running `mlpsim-serve`.
//!
//! ```text
//! mlpsim-client --server http://HOST:PORT <command>
//!
//!   submit [--traceparent TP] <spec-json | @file | ->
//!                                    admit a job, print "id trace_id"
//!   estimate <spec-json | @file | -> score the spec's grid with the
//!                                    analytical model (no simulation;
//!                                    the document says "model":true)
//!   status <id>                      print the job's status document
//!   list                             print every job's status document
//!   watch <id>                       stream live NDJSON events to stdout
//!   result <id>                      print the finished report
//!   wait <id>                        block until terminal, print the state
//!   cancel <id>                      cancel a queued or running job
//!   traces [ID] [--chrome]           dump the flight recorder, or one
//!                                    trace (as span tree / Chrome trace)
//!   metrics                          print the Prometheus /metrics body
//!   drain                            ask the server to drain and exit
//! ```
//!
//! `submit` accepts the spec inline, `@path` to read a file, or `-` for
//! stdin; `--traceparent` injects a W3C trace context so the server's
//! spans join an upstream trace. Exit codes: 0 success, 2 usage, 3
//! transport/server failure.

//! The command line goes through the workspace's one parser
//! (`mlpsim_experiments::cli`), so an unknown or unused flag is an error
//! that names it, never a silent no-op.

use mlpsim_experiments::cli::{io_error, parse_subcommand, usage_error, Args, Command, Flag};
use mlpsim_serve::client;
use std::io::{Read, Write};
use std::process::ExitCode;

const fn command(
    name: &'static str,
    flags: &'static [Flag],
    positional: &'static [&'static str],
) -> Command {
    Command {
        program: "mlpsim-client",
        name,
        flags,
        positional,
    }
}

const SERVER: &[Flag] = &[Flag::Server];

/// Every `mlpsim-client` command; each takes `--server URL`.
const COMMANDS: &[Command] = &[
    command("submit", &[Flag::Server, Flag::Traceparent], &["<spec>"]),
    command("estimate", SERVER, &["<spec>"]),
    command("status", SERVER, &["<id>"]),
    command("list", SERVER, &[]),
    command("watch", SERVER, &["<id>"]),
    command("result", SERVER, &["<id>"]),
    command("wait", SERVER, &["<id>"]),
    command("cancel", SERVER, &["<id>"]),
    command("traces", &[Flag::Server, Flag::Chrome], &["[id]"]),
    command("metrics", SERVER, &[]),
    command("drain", SERVER, &[]),
];

/// A failed command: bad input (exit 2) or a transport/server failure
/// (exit 3).
enum Failure {
    Usage(String),
    Io(String),
}

fn parse_id(args: &Args) -> Result<u64, Failure> {
    let raw = args.positional(0).unwrap_or_default();
    raw.parse()
        .map_err(|_| Failure::Usage(format!("job id wants an integer, got {raw:?}")))
}

fn load_spec(raw: &str) -> Result<String, String> {
    if raw == "-" {
        let mut body = String::new();
        std::io::stdin()
            .read_to_string(&mut body)
            .map_err(|e| format!("cannot read spec from stdin: {e}"))?;
        Ok(body)
    } else if let Some(path) = raw.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    } else {
        Ok(raw.to_string())
    }
}

fn run(server: &str, command: &str, args: &Args) -> Result<String, Failure> {
    let spec = || load_spec(args.positional(0).unwrap_or_default()).map_err(Failure::Io);
    let out = match command {
        "submit" => {
            let spec = spec()?;
            let traceparent = args.traceparent.as_deref();
            client::submit_traced(server, &spec, traceparent).map(|(id, trace_id)| {
                // Print the trace id only when the caller injected a
                // context; plain `submit` output stays a bare id for
                // scripts.
                if traceparent.is_some() && !trace_id.is_empty() {
                    format!("{id} {trace_id}")
                } else {
                    format!("{id}")
                }
            })
        }
        "estimate" => client::estimate(server, &spec()?).map(|doc| doc.to_string_compact()),
        "status" => client::status(server, parse_id(args)?).map(|doc| doc.to_string_compact()),
        "list" => client::request(server, "GET", "/jobs", None, None).and_then(|resp| {
            if resp.status == 200 {
                Ok(resp.text().trim_end().to_string())
            } else {
                Err(format!("list failed ({})", resp.status))
            }
        }),
        "watch" => {
            let id = parse_id(args)?;
            let mut stdout = std::io::stdout();
            let mut sink = |chunk: &[u8]| {
                let _ = stdout.write_all(chunk);
                let _ = stdout.flush();
            };
            client::watch(server, id, &mut sink)
                .and_then(|_| client::wait(server, id))
                .map(|state| format!("job {id}: {state}"))
        }
        "result" => client::result(server, parse_id(args)?),
        "wait" => {
            let id = parse_id(args)?;
            client::wait(server, id).map(|state| format!("job {id}: {state}"))
        }
        "cancel" => {
            let id = parse_id(args)?;
            client::cancel(server, id).map(|state| format!("job {id}: {state}"))
        }
        "traces" => match args.positional(0) {
            Some(id) => client::trace(server, id, args.chrome).map(|doc| doc.to_string_compact()),
            None if args.chrome => {
                return Err(Failure::Usage("traces --chrome wants a trace id".into()))
            }
            None => client::traces(server).map(|doc| doc.to_string_compact()),
        },
        "metrics" => client::metrics(server).map(|body| body.trim_end().to_string()),
        // The one command left in `COMMANDS`.
        _ => client::drain(server).map(|()| "draining".to_string()),
    };
    out.map_err(Failure::Io)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = match parse_subcommand(COMMANDS, &argv) {
        Ok(parsed) => parsed,
        Err(msg) => return usage_error(&msg),
    };
    let Some(server) = args.server.as_deref() else {
        return usage_error("missing --server http://HOST:PORT");
    };
    match run(server, command.name, &args) {
        Ok(output) => {
            // Reports carry their own trailing newline; `result` output
            // must stay byte-identical to the `mlpsim` CLI's.
            if output.ends_with('\n') {
                print!("{output}");
            } else {
                println!("{output}");
            }
            ExitCode::SUCCESS
        }
        Err(Failure::Usage(e)) => usage_error(&e),
        Err(Failure::Io(e)) => io_error(&e),
    }
}
