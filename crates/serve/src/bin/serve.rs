//! `mlpsim-serve` — run the simulation service.
//!
//! ```text
//! mlpsim-serve [--addr HOST:PORT] [--data-dir DIR] [--queue N]
//!              [--retry-after SECS] [--read-timeout-ms MS]
//! ```
//!
//! Prints `listening on http://ADDR` once bound (with the resolved port —
//! `--addr 127.0.0.1:0` picks an ephemeral one, which scripts grep for).
//! SIGTERM/SIGINT trigger a graceful drain: stop admitting, finish the
//! in-flight job, leave queued jobs journaled for the next boot.

use mlpsim_experiments::cli::{io_error, parse_command, usage_error, Command, Flag};
use mlpsim_serve::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler, polled by a watcher thread (a handler may
/// only touch async-signal-safe state, so it just flips this flag).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    // libc is not a dependency; declare the two symbols we need. SIG_ERR
    // returns are ignored — the server still drains via POST /drain.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// `mlpsim-serve`'s command line.
const COMMAND: Command = Command {
    program: "",
    name: "mlpsim-serve",
    flags: &[
        Flag::Addr,
        Flag::DataDir,
        Flag::Queue,
        Flag::RetryAfter,
        Flag::ReadTimeoutMs,
    ],
    positional: &[],
};

fn parse_config(argv: &[String]) -> Result<ServerConfig, String> {
    let args = parse_command(&COMMAND, argv)?;
    let mut cfg = ServerConfig::default();
    if let Some(addr) = args.addr {
        cfg.addr = addr;
    }
    if let Some(dir) = args.data_dir {
        cfg.data_dir = PathBuf::from(dir);
    }
    cfg.queue_capacity = args.queue.unwrap_or(cfg.queue_capacity);
    cfg.retry_after_secs = args.retry_after.unwrap_or(cfg.retry_after_secs);
    cfg.read_timeout_ms = args.read_timeout_ms.unwrap_or(cfg.read_timeout_ms);
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_config(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage_error(&msg),
    };
    install_signal_handlers();
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => return io_error(&e),
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on http://{addr}"),
        Err(e) => return io_error(&format!("cannot resolve bound address: {e}")),
    }
    // Bridge the signal flag to the server's shutdown flag.
    let shutdown = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            shutdown.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
    server.serve();
    eprintln!("drained; queued jobs remain journaled");
    ExitCode::SUCCESS
}
