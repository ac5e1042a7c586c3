//! `simperf` — simulator-throughput benchmark and perf trajectory.
//!
//! Measures *simulated references per wall-clock second* for every scheme
//! over the Fig. 10 workload mix and maintains the machine-readable
//! `BENCH_simperf.json` perf trajectory: rows are keyed by commit and
//! *appended* per run — a re-run at the same commit replaces that
//! commit's rows, earlier commits' rows are preserved — so the file
//! accumulates one block per commit and the tool can print an A/B delta
//! against the previous commit's rows. Unlike the figure harnesses this
//! benchmarks the simulator itself, not the simulated system:
//! `exec_cycles` is recorded only so a throughput change can be
//! correlated with (unchanged) simulated work.
//!
//! ```text
//! cargo run --release -p pipm-bench --bin simperf          # full mix
//! cargo run --release -p pipm-bench --bin simperf -- \
//!     --refs 8000 --workloads bfs,ycsb --out BENCH_simperf.json
//! ```
//!
//! Options:
//! * `--refs N`        references per core per run (default 40000,
//!   env `PIPM_PERF_REFS`)
//! * `--seed N`        workload seed (default 7)
//! * `--workloads a,b` comma-separated subset (default all 13,
//!   env `PIPM_WORKLOADS`)
//! * `--schemes a,b`   comma-separated subset (default all 8)
//! * `--out PATH`      where to write the JSON (default
//!   `BENCH_simperf.json`; `-` suppresses the file)
//! * `--check PATH`    compare against a baseline JSON: exit nonzero if
//!   any scheme's geomean refs/sec regressed more than `--threshold`
//! * `--threshold F`   allowed fractional regression for `--check`
//!   (default 0.30)
//! * `--help`          print usage and exit
//!
//! An unknown flag, a missing value or an unparsable value (including an
//! unknown name in `PIPM_WORKLOADS`) prints usage to stderr and exits 2.
//!
//! Runs execute *serially* so each measurement owns the machine; one
//! warm-up run absorbs first-touch page faults and lazy init.

use pipm_bench::report::json_field;
use pipm_bench::stats::paired_permutation_test;
use pipm_core::run_one;
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};
use std::time::Instant;

const USAGE: &str = "\
usage: simperf [--refs N] [--seed N] [--workloads a,b] [--schemes a,b]
               [--out PATH|-] [--check PATH] [--threshold F]
       simperf --help";

struct Record {
    scheme: SchemeKind,
    workload: Workload,
    refs_per_sec: f64,
    wall_ms: f64,
    exec_cycles: u64,
}

/// Parsed command line (defaults filled in from the environment).
struct Options {
    refs_per_core: u64,
    seed: u64,
    workloads: Vec<Workload>,
    schemes: Vec<SchemeKind>,
    out_path: String,
    check_path: Option<String>,
    threshold: f64,
}

/// Parses the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut o = Options {
        refs_per_core: std::env::var("PIPM_PERF_REFS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(40_000),
        seed: 7,
        workloads: match std::env::var("PIPM_WORKLOADS") {
            Ok(list) => parse_list(&list).map_err(|e| format!("PIPM_WORKLOADS: {e}"))?,
            Err(_) => Workload::ALL.to_vec(),
        },
        schemes: SchemeKind::ALL.to_vec(),
        out_path: String::from("BENCH_simperf.json"),
        check_path: None,
        threshold: 0.30,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--refs" => o.refs_per_core = value.parse().map_err(|e| bad(&e))?,
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--workloads" => o.workloads = parse_list(value).map_err(|e| bad(&e))?,
            "--schemes" => o.schemes = parse_list(value).map_err(|e| bad(&e))?,
            "--out" => o.out_path = value.clone(),
            "--check" => o.check_path = Some(value.clone()),
            "--threshold" => o.threshold = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Some(o))
}

/// Parses a non-empty comma-separated list.
fn parse_list<T: std::str::FromStr>(list: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let v = list
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().map_err(|e: T::Err| e.to_string()))
        .collect::<Result<Vec<T>, String>>()?;
    if v.is_empty() {
        return Err("empty list".into());
    }
    Ok(v)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        refs_per_core,
        seed,
        workloads,
        schemes,
        out_path,
        check_path,
        threshold,
    } = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("simperf: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let commit = git_commit();
    let date = utc_date();
    let params = WorkloadParams {
        refs_per_core,
        seed,
    };
    eprintln!(
        "[simperf] commit={commit} date={date} refs/core={refs_per_core} \
         workloads={} schemes={}",
        workloads.len(),
        schemes.len()
    );

    // Warm-up: one small run absorbs allocator warm-up and lazy init so
    // the first measured cell is not penalized.
    let warm = WorkloadParams {
        refs_per_core: refs_per_core.min(5_000),
        seed,
    };
    run_one(
        workloads[0],
        schemes[0],
        SystemConfig::experiment_scale(),
        &warm,
    );

    let mut records = Vec::new();
    for &scheme in &schemes {
        let mut rps = Vec::new();
        for &workload in &workloads {
            let cfg = SystemConfig::experiment_scale();
            let total_refs = refs_per_core * cfg.total_cores() as u64;
            let t0 = Instant::now();
            let r = run_one(workload, scheme, cfg, &params);
            let wall = t0.elapsed();
            let wall_ms = wall.as_secs_f64() * 1e3;
            let refs_per_sec = total_refs as f64 / wall.as_secs_f64();
            rps.push(refs_per_sec);
            records.push(Record {
                scheme,
                workload,
                refs_per_sec,
                wall_ms,
                exec_cycles: r.exec_cycles(),
            });
        }
        eprintln!(
            "[simperf] {:<10} geomean {:>8.0} krefs/s",
            scheme.label(),
            geomean(&rps) / 1e3
        );
    }

    let all_rps: Vec<f64> = records.iter().map(|r| r.refs_per_sec).collect();
    eprintln!(
        "[simperf] overall    geomean {:>8.0} krefs/s ({} cells)",
        geomean(&all_rps) / 1e3,
        all_rps.len()
    );

    if out_path != "-" {
        let prior = std::fs::read_to_string(&out_path).unwrap_or_default();
        let kept = prior_rows(&prior, &commit);
        report_delta(&kept, &records);
        let json = render_json(&kept, &commit, &date, &records);
        std::fs::write(&out_path, json).expect("write bench file");
        eprintln!(
            "[simperf] wrote {out_path} (+{} rows this commit)",
            records.len()
        );
    }

    if let Some(base) = check_path {
        std::process::exit(check_regression(&base, &records, threshold));
    }
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// UTC calendar date from the system clock (civil-from-days, no chrono).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Rows already in the trajectory file, minus any from `commit` itself
/// (a re-run at the same commit replaces its own rows rather than
/// duplicating them). Each row is the bare JSON object, comma stripped.
fn prior_rows(prior: &str, commit: &str) -> Vec<String> {
    prior
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .filter(|l| json_field(l, "commit") != Some(commit))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// Prints the per-cell geomean speedup of this run against the previous
/// commit's rows (the last distinct commit block in the file), if any.
fn report_delta(kept: &[String], records: &[Record]) {
    let Some(prev) = kept.last().and_then(|l| json_field(l, "commit")) else {
        return;
    };
    let prev_rows: Vec<&String> = kept
        .iter()
        .filter(|l| json_field(l, "commit") == Some(prev))
        .collect();
    let ratios: Vec<f64> = records
        .iter()
        .filter_map(|r| {
            prev_rows
                .iter()
                .find(|l| {
                    json_field(l, "scheme") == Some(r.scheme.label())
                        && json_field(l, "workload") == Some(r.workload.label())
                })
                .and_then(|l| json_field(l, "refs_per_sec"))
                .and_then(|v| v.parse::<f64>().ok())
                .map(|old| r.refs_per_sec / old)
        })
        .collect();
    if ratios.is_empty() {
        eprintln!("[simperf] no overlapping cells with previous commit {prev}");
    } else {
        eprintln!(
            "[simperf] delta vs {prev}: {:>5.2}x geomean ({} cells)",
            geomean(&ratios),
            ratios.len()
        );
    }
}

/// One JSON object per line so the `--check` parser (and diff reviews)
/// can treat records independently. Prior commits' rows come first, in
/// their original order; this run's rows are appended.
fn render_json(kept: &[String], commit: &str, date: &str, records: &[Record]) -> String {
    let mut rows: Vec<String> = kept.to_vec();
    for r in records {
        rows.push(format!(
            "{{\"commit\": \"{commit}\", \"date\": \"{date}\", \
             \"scheme\": \"{}\", \"workload\": \"{}\", \
             \"refs_per_sec\": {:.1}, \"wall_ms\": {:.3}, \
             \"exec_cycles\": {}}}",
            r.scheme.label(),
            r.workload.label(),
            r.refs_per_sec,
            r.wall_ms,
            r.exec_cycles,
        ));
    }
    let mut s = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("  ");
        s.push_str(row);
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str("]\n");
    s
}

/// Compares per-scheme geomean refs/sec against `base`; returns the
/// process exit code (0 ok, 2 regression, 0 with a warning if the
/// baseline has no overlapping cells).
fn check_regression(base: &str, records: &[Record], threshold: f64) -> i32 {
    let text = match std::fs::read_to_string(base) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[simperf] cannot read baseline {base}: {e} (skipping check)");
            return 0;
        }
    };
    // With append-per-commit trajectories the baseline file may hold many
    // commits' rows; compare against the newest block (the last row's
    // commit), not whatever happens to match first.
    let last_commit = text
        .lines()
        .rev()
        .find_map(|l| json_field(l.trim(), "commit"))
        .map(str::to_string);
    let mut baseline: Vec<(String, String, f64)> = Vec::new();
    for line in text.lines() {
        if json_field(line, "commit").map(str::to_string) != last_commit {
            continue;
        }
        let (Some(s), Some(w), Some(r)) = (
            json_field(line, "scheme"),
            json_field(line, "workload"),
            json_field(line, "refs_per_sec").and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        baseline.push((s.to_string(), w.to_string(), r));
    }
    let mut failed = false;
    let mut compared = 0;
    for &scheme in records
        .iter()
        .map(|r| &r.scheme)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let ratios: Vec<f64> = records
            .iter()
            .filter(|r| r.scheme == scheme)
            .filter_map(|r| {
                baseline
                    .iter()
                    .find(|(s, w, _)| s == scheme.label() && w == r.workload.label())
                    .map(|(_, _, old)| r.refs_per_sec / old)
            })
            .collect();
        if ratios.is_empty() {
            continue;
        }
        compared += ratios.len();
        let g = geomean(&ratios);
        let verdict = if g < 1.0 - threshold {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "[simperf] check {:<10} {:>6.2}x vs baseline ({verdict})",
            scheme.label(),
            g
        );
    }
    if compared == 0 {
        eprintln!("[simperf] baseline {base} shares no cells with this run (skipping check)");
        return 0;
    }
    // Significance verdict alongside the threshold gate (never gating:
    // the permutation test says whether the delta is *real*, the
    // threshold says whether it is *acceptable*).
    let pairs: Vec<(f64, f64)> = records
        .iter()
        .filter_map(|r| {
            baseline
                .iter()
                .find(|(s, w, _)| s == r.scheme.label() && w == r.workload.label())
                .map(|(_, _, old)| (*old, r.refs_per_sec))
        })
        .collect();
    if let Some(t) = paired_permutation_test(&pairs) {
        eprintln!(
            "[simperf] significance vs {}: {}",
            last_commit.as_deref().unwrap_or("?"),
            t.verdict()
        );
    }
    if failed {
        eprintln!(
            "[simperf] FAIL: refs/sec regressed more than {:.0}% on some scheme",
            threshold * 100.0
        );
        2
    } else {
        0
    }
}
