//! Command-line handling of `pipm-serve` and `pipm-client`: `--help`
//! prints usage to stdout and exits 0; unknown flags, missing values,
//! non-numeric values and a garbage `PIPM_CLIENT_TIMEOUT_SECS` print a
//! message plus usage to stderr and exit 2, before any socket is opened.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("PIPM_CLIENT_TIMEOUT_SECS")
        .envs(env.iter().copied())
        .output()
        .expect("spawn binary")
}

fn serve(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_pipm-serve"), args, &[])
}

fn client(args: &[&str], env: &[(&str, &str)]) -> Output {
    run(env!("CARGO_BIN_EXE_pipm-client"), args, env)
}

fn assert_help(out: &Output, usage: &str, what: &str) {
    assert_eq!(out.status.code(), Some(0), "{what}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with(usage), "{what}: {stdout}");
    assert!(out.stderr.is_empty(), "{what}");
}

fn assert_rejected(out: &Output, usage: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.starts_with("error: "), "{what}: {stderr}");
    assert!(stderr.contains(usage), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}");
}

// Regression test: both binaries used to print usage to stderr and exit
// 2 on `--help`.
#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        assert_help(&serve(&[flag]), "usage: pipm-serve", flag);
        assert_help(&client(&[flag], &[]), "usage: pipm-client", flag);
        // Help wins wherever it appears among otherwise valid arguments.
        assert_help(
            &client(&["--addr", "127.0.0.1:1", "status", flag], &[]),
            "usage: pipm-client",
            flag,
        );
    }
}

#[test]
fn serve_rejects_bad_arguments() {
    let cases: &[&[&str]] = &[
        &["--bogus"],
        &["--workers"],
        &["--workers", "many"],
        &["--read-timeout-secs", "-1"],
        &["--route", ","],
        &["stray"],
    ];
    for args in cases {
        assert_rejected(&serve(args), "usage: pipm-serve", &format!("{args:?}"));
    }
}

#[test]
fn client_rejects_bad_arguments() {
    let cases: &[&[&str]] = &[
        &[],
        &["--bogus", "status"],
        &["status", "--addr"],
        &["--refs", "x", "status"],
        &["--timeout-secs", "soon", "status"],
        &[
            "bench",
            "--rate",
            "0",
            "--workload",
            "bfs",
            "--scheme",
            "pipm",
        ],
        &[
            "bench",
            "--sweep",
            "10,abc",
            "--workload",
            "bfs",
            "--scheme",
            "pipm",
        ],
        &["frobnicate"],
        // The closed-loop `load` command and its flags are gone.
        &["load", "--workload", "bfs", "--scheme", "pipm"],
        &["bench", "--clients", "4"],
        &["submit", "--scheme", "pipm"],
        &["whatif", "--workload", "bfs", "--scheme", "pipm"],
        &[
            "whatif",
            "--workload",
            "bfs",
            "--scheme",
            "pipm",
            "--delta",
            "x",
        ],
    ];
    for args in cases {
        assert_rejected(
            &client(args, &[]),
            "usage: pipm-client",
            &format!("{args:?}"),
        );
    }
}

// Regression test: a garbage `PIPM_CLIENT_TIMEOUT_SECS` used to be
// ignored silently (the 600 s default applied).
#[test]
fn client_rejects_garbage_timeout_env() {
    let out = client(&["status"], &[("PIPM_CLIENT_TIMEOUT_SECS", "ten")]);
    assert_rejected(&out, "usage: pipm-client", "PIPM_CLIENT_TIMEOUT_SECS=ten");
    assert!(String::from_utf8_lossy(&out.stderr).contains("PIPM_CLIENT_TIMEOUT_SECS"));
}
