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

use mlpsim_experiments::cli::{io_error, usage_error};
use mlpsim_serve::client;
use std::io::{Read, Write};
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: mlpsim-client --server http://HOST:PORT \
         <submit [--traceparent TP] SPEC | estimate SPEC | status ID | list | watch ID | \
         result ID | wait ID | cancel ID | traces [ID] [--chrome] | metrics | drain>"
    );
}

fn parse_id(raw: Option<&String>) -> Result<u64, String> {
    raw.ok_or("missing job id".to_string())?
        .parse()
        .map_err(|_| "job id wants an integer".to_string())
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

fn run(server: &str, command: &str, rest: &[String]) -> Result<String, String> {
    match command {
        "submit" => {
            let mut traceparent = None;
            let mut spec_arg = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--traceparent" {
                    traceparent = Some(
                        it.next()
                            .ok_or("--traceparent wants a 00-…-…-… header value")?
                            .as_str(),
                    );
                } else {
                    spec_arg = Some(arg.as_str());
                }
            }
            let raw = spec_arg.ok_or("submit wants a spec (json, @file, or -)")?;
            let spec = load_spec(raw)?;
            let (id, trace_id) = client::submit_traced(server, &spec, traceparent)?;
            // Print the trace id only when the caller injected a context;
            // plain `submit` output stays a bare id for scripts.
            if traceparent.is_some() && !trace_id.is_empty() {
                Ok(format!("{id} {trace_id}"))
            } else {
                Ok(format!("{id}"))
            }
        }
        "estimate" => {
            let raw = rest
                .first()
                .ok_or("estimate wants a spec (json, @file, or -)")?;
            let spec = load_spec(raw)?;
            Ok(client::estimate(server, &spec)?.to_string_compact())
        }
        "status" => Ok(client::status(server, parse_id(rest.first())?)?.to_string_compact()),
        "list" => {
            let resp = client::request(server, "GET", "/jobs", None, None)?;
            if resp.status != 200 {
                return Err(format!("list failed ({})", resp.status));
            }
            Ok(resp.text().trim_end().to_string())
        }
        "watch" => {
            let id = parse_id(rest.first())?;
            let mut stdout = std::io::stdout();
            let mut sink = |chunk: &[u8]| {
                let _ = stdout.write_all(chunk);
                let _ = stdout.flush();
            };
            client::watch(server, id, &mut sink)?;
            let state = client::wait(server, id)?;
            Ok(format!("job {id}: {state}"))
        }
        "result" => Ok(client::result(server, parse_id(rest.first())?)?),
        "wait" => {
            let id = parse_id(rest.first())?;
            let state = client::wait(server, id)?;
            Ok(format!("job {id}: {state}"))
        }
        "cancel" => {
            let id = parse_id(rest.first())?;
            let state = client::cancel(server, id)?;
            Ok(format!("job {id}: {state}"))
        }
        "traces" => {
            let chrome = rest.iter().any(|a| a == "--chrome");
            let id = rest.iter().find(|a| !a.starts_with("--"));
            match id {
                Some(id) => Ok(client::trace(server, id, chrome)?.to_string_compact()),
                None if chrome => Err("traces --chrome wants a trace id".to_string()),
                None => Ok(client::traces(server)?.to_string_compact()),
            }
        }
        "metrics" => Ok(client::metrics(server)?.trim_end().to_string()),
        "drain" => {
            client::drain(server)?;
            Ok("draining".to_string())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut server = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--server" => match it.next() {
                Some(url) => server = Some(url),
                None => {
                    usage();
                    return usage_error("--server wants a URL");
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::from(mlpsim_experiments::cli::EXIT_USAGE);
            }
            _ => rest.push(arg),
        }
    }
    let Some(server) = server else {
        usage();
        return usage_error("missing --server http://HOST:PORT");
    };
    let Some((command, rest)) = rest.split_first() else {
        usage();
        return usage_error("missing command");
    };
    match run(&server, command, rest) {
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
        Err(e) if e.starts_with("unknown command") || e.contains("wants") => {
            usage();
            usage_error(&e)
        }
        Err(e) => io_error(&e),
    }
}
