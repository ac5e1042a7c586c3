//! `simperf` command-line handling: `--help` prints usage and succeeds;
//! unknown flags, missing values and unparsable values print usage to
//! stderr and exit 2 before any simulation runs.

use std::process::{Command, Output};

fn simperf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simperf"))
        .args(args)
        .env_remove("PIPM_WORKLOADS")
        .env_remove("PIPM_PERF_REFS")
        .output()
        .expect("spawn simperf")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = simperf(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: simperf"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_two() {
    let cases: &[&[&str]] = &[
        &["--bogus", "1"],
        &["--refs"],
        &["--refs", "many"],
        &["--seed", "-3"],
        &["--threshold", "x"],
        &["--workloads", "nosuch"],
        &["--workloads", ","],
        &["--schemes", "bfs"],
    ];
    for args in cases {
        let out = simperf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: simperf"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn bad_workload_env_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_simperf"))
        .env("PIPM_WORKLOADS", "nosuch")
        .output()
        .expect("spawn simperf");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("PIPM_WORKLOADS"));
}
