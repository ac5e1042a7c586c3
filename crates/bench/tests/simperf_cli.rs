//! Command-line handling of `simperf`, `report` and the figure binaries
//! (`table1` stands for every `Harness::from_env` binary): `--help`
//! prints usage and succeeds; unknown flags, missing values, unparsable
//! values and unparsable environment knobs print usage to stderr and
//! exit 2 before any simulation runs.

use std::process::{Command, Output};

const KNOBS: [&str; 5] = [
    "PIPM_WORKLOADS",
    "PIPM_PERF_REFS",
    "PIPM_SCALE",
    "PIPM_WORKERS",
    "PIPM_NO_CACHE",
];

/// Runs `bin` with `args`, every knob above removed, then `env` set.
fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("spawn binary")
}

/// Asserts the exit-2 contract: status 2, a message and the usage text
/// on stderr, nothing on stdout, no panic.
fn assert_rejected(out: &Output, usage: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.contains("error: "), "{what}: {stderr}");
    assert!(stderr.contains(usage), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what}");
}

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

#[test]
fn bad_perf_refs_env_exits_two() {
    let out = run(
        env!("CARGO_BIN_EXE_simperf"),
        &[],
        &[("PIPM_PERF_REFS", "lots")],
    );
    assert_rejected(&out, "usage: simperf", "PIPM_PERF_REFS=lots");
    assert!(String::from_utf8_lossy(&out.stderr).contains("PIPM_PERF_REFS"));
}

#[test]
fn report_help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_report"), &[flag], &[]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: report"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

// Regression test: `report` used to panic on an unknown flag or a
// missing value.
#[test]
fn report_bad_arguments_exit_two_without_panicking() {
    let cases: &[&[&str]] = &[&["--bogus", "1"], &["--input"], &["--out"], &["stray"]];
    for args in cases {
        let out = run(env!("CARGO_BIN_EXE_report"), args, &[]);
        assert_rejected(&out, "usage: report", &format!("{args:?}"));
    }
}

// Regression test: `PIPM_SCALE=abc` used to run at scale 1.0,
// `PIPM_WORKLOADS=nosuch` silently yielded empty figures, and
// `PIPM_WORKERS=four` warned and fell back. Each now exits 2 naming the
// variable, before any simulation runs.
#[test]
fn harness_binaries_reject_bad_knobs_before_simulating() {
    let cases: &[(&str, &str)] = &[
        ("PIPM_SCALE", "abc"),
        ("PIPM_SCALE", "-1"),
        ("PIPM_SCALE", "inf"),
        ("PIPM_WORKLOADS", "nosuch"),
        ("PIPM_WORKLOADS", "bfs,nosuch"),
        ("PIPM_WORKERS", "four"),
        ("PIPM_WORKERS", "0"),
    ];
    for &(knob, value) in cases {
        let out = run(env!("CARGO_BIN_EXE_table1"), &[], &[(knob, value)]);
        let what = format!("{knob}={value}");
        assert_rejected(&out, "PIPM_SCALE=F", &what);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(knob),
            "{what}: message must name the variable"
        );
    }
}

#[test]
fn harness_binaries_take_no_arguments() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &["--bogus"], &[]);
    assert_rejected(&out, "PIPM_SCALE=F", "--bogus");
    let out = run(env!("CARGO_BIN_EXE_table1"), &["--help"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PIPM_WORKLOADS"));
}
