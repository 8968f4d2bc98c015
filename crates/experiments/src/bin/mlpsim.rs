//! `mlpsim` — every table and figure of the paper, and the tools around
//! them, as subcommands: `mlpsim <experiment> [flags] [args]`. Run with no
//! arguments for the list; `mlpsim all` regenerates the whole evaluation.

use mlpsim_experiments::{cli, registry};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (out, failure) = if argv.is_empty() {
        (registry::usage(), None)
    } else {
        let (experiment, args) = match cli::parse(&argv) {
            Ok(parsed) => parsed,
            Err(msg) => return cli::usage_error(&msg),
        };
        registry::run(experiment, &args)
    };
    // A broken stdout pipe (`mlpsim all | head`) is a signal to stop, not
    // a crash.
    if std::io::stdout().write_all(out.as_bytes()).is_err() {
        return ExitCode::from(cli::EXIT_IO);
    }
    match failure {
        None => ExitCode::SUCCESS,
        Some(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
