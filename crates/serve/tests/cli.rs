//! The service binaries parse their command lines with the workspace's one
//! parser: a misspelt or unused flag exits 2 with an `error:` line naming
//! it, before any connection is attempted.

#![allow(clippy::unwrap_used)] // test code: panics are failures, not bugs

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

const CLIENT: &str = env!("CARGO_BIN_EXE_mlpsim-client");
const SERVE: &str = env!("CARGO_BIN_EXE_mlpsim-serve");
/// Nothing listens here; a parse error must be reported before connecting.
const URL: &str = "http://127.0.0.1:9";

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (bin, args, flag) in [
        (
            CLIENT,
            &["--server", URL, "traces", "--chrom"][..],
            "--chrom",
        ),
        (
            CLIENT,
            &["--server", URL, "status", "1", "--chrome"],
            "--chrome",
        ),
        (
            CLIENT,
            &["--server", URL, "list", "--traceparent", "x"],
            "--traceparent",
        ),
        (CLIENT, &["--sever", URL, "list"], "--sever"),
        (SERVE, &["--queue-size", "3"], "--queue-size"),
        (SERVE, &["--server", URL], "--server"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_values_and_arguments_exit_2() {
    for args in [
        &["--server", URL, "status", "seven"][..],
        &["--server", URL, "status"],
        &["--server", URL, "list", "extra"],
        &["--server", URL, "frobnicate"],
        &["status", "1"],
    ] {
        let (code, stderr) = run(CLIENT, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    }
    let (code, stderr) = run(SERVE, &["--read-timeout-ms", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--read-timeout-ms"), "{stderr}");
}
