//! `report` — regenerates the committed `docs/bench/` CSV + SVG
//! artifacts from `BENCH_simperf.json` and any captured figure tables.
//!
//! ```text
//! cargo run --release -p pipm-bench --bin report
//! cargo run --release -p pipm-bench --bin report -- \
//!     --input BENCH_simperf.json --out docs/bench --figs-dir docs/bench/figures
//! ```
//!
//! Options:
//! * `--input PATH`    simperf trajectory to aggregate (default
//!   `BENCH_simperf.json`)
//! * `--out DIR`       output directory (default `docs/bench`)
//! * `--figs-dir DIR`  directory of captured figure CSVs to chart
//!   (default `docs/bench/figures`; missing is fine). Capture tables by
//!   running any figure harness with `PIPM_FIG_CSV_DIR=<dir>`.
//! * `--sweep-log PATH` captured `pipm-client bench --sweep` output to
//!   chart as the serving-layer saturation curve (default
//!   `docs/bench/serve_sweep.log`; missing is fine).
//! * `--help`          print usage and exit
//!
//! An unknown flag or a missing value prints usage to stderr and exits 2.
//!
//! Output is a pure function of the inputs — rerunning over the same
//! files rewrites byte-identical artifacts, so the generated charts
//! are committed and reviewed like code. The consecutive-commit
//! significance verdicts (paired permutation test, see
//! `pipm_bench::stats`) are printed to stdout.

use pipm_bench::report;
use pipm_types::cli::Cli;
use std::path::Path;

const USAGE: &str = "\
usage: report [--input PATH] [--out DIR] [--figs-dir DIR] [--sweep-log PATH]
       report --help";

fn main() {
    let mut input = String::from("BENCH_simperf.json");
    let mut out_dir = String::from("docs/bench");
    let mut figs_dir = String::from("docs/bench/figures");
    let mut sweep_log = String::from("docs/bench/serve_sweep.log");

    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            "--input" => input = cli.string(),
            "--out" => out_dir = cli.string(),
            "--figs-dir" => figs_dir = cli.string(),
            "--sweep-log" => sweep_log = cli.string(),
            _ => cli.unknown(),
        }
    }

    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[report] cannot read {input}: {e}");
            std::process::exit(1);
        }
    };
    let files = match report::generate(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("[report] {input}: {e}");
            std::process::exit(1);
        }
    };
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    for f in &files {
        let path = Path::new(&out_dir).join(&f.name);
        std::fs::write(&path, &f.contents).expect("write artifact");
        println!("[report] wrote {}", path.display());
    }

    // Chart any captured figure tables (sorted for a stable order).
    if let Ok(entries) = std::fs::read_dir(&figs_dir) {
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .collect();
        paths.sort();
        for p in paths {
            let Some(stem) = p.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(csv) = std::fs::read_to_string(&p) else {
                continue;
            };
            if let Some(f) = report::figure_chart(stem, &csv) {
                let path = Path::new(&out_dir).join(&f.name);
                std::fs::write(&path, &f.contents).expect("write figure chart");
                println!("[report] wrote {}", path.display());
            }
        }
    }

    // Chart the serving-layer saturation sweep if a log was captured.
    if let Ok(log) = std::fs::read_to_string(&sweep_log) {
        match report::sweep_report(&log) {
            Ok(files) => {
                for f in &files {
                    let path = Path::new(&out_dir).join(&f.name);
                    std::fs::write(&path, &f.contents).expect("write sweep artifact");
                    println!("[report] wrote {}", path.display());
                }
            }
            Err(e) => eprintln!("[report] {sweep_log}: {e}"),
        }
    }

    println!("[report] significance (paired permutation, consecutive commits):");
    let verdicts = report::delta_verdicts(&text);
    if verdicts.is_empty() {
        println!("[report]   only one commit block -- nothing to compare");
    }
    for v in verdicts {
        println!("[report]   {v}");
    }
}
