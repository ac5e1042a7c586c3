//! Command line of the PIPM benchmark.
//!
//! ```text
//! perfbench --workload <sim-shared|sim-local> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --record-expected <first-seed> <last-seed>
//! ```
//!
//! A run prints a human-readable report and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes its spans under the build directory. `--record-expected`
//! prints the fingerprint table `expected.tsv` ships.

use perfbench::{run, sim, workload, END_TO_END, PER_LAYER, SIM_REFS_PER_CORE, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sim-shared|sim-local> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --record-expected <first-seed> <last-seed>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--record-expected") {
        return record_expected(&args[1..]);
    }
    let mut opts = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("missing value for {flag}"));
        };
        opts.insert(flag.as_str(), value.as_str());
    }
    let Some(wl) = opts.get("--workload").and_then(|w| workload(w)) else {
        return usage(&format!("--workload must be one of {WORKLOADS:?}"));
    };
    let Some(seed) = opts.get("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a non-negative integer");
    };
    let Some(seconds) = opts
        .get("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && s.is_finite())
    else {
        return usage("--seconds must be a positive number");
    };
    let traced = match opts.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let spans = target
        .join("perfbench")
        .join(format!("spans-{}-seed{seed}.tsv", wl.name));
    match run(&wl, seed, seconds, traced, &spans) {
        Ok(outcome) => {
            println!(
                "{}",
                outcome.json(if traced { &PER_LAYER } else { &END_TO_END })
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// Prints `expected.tsv` for seeds `first..=last`: every simulator cell
/// of every workload at the timed size.
fn record_expected(args: &[String]) -> ExitCode {
    let seeds: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
    let [first, last] = seeds[..] else {
        return usage("--record-expected takes <first-seed> <last-seed>");
    };
    println!("# seed\tcell\trefs_per_core\tfingerprint");
    let mut off = perfbench::trace::Tracer::new(false);
    let mut cells: Vec<sim::Cell> = Vec::new();
    for name in WORKLOADS {
        for cell in workload(name).expect("listed workload exists").cells {
            if !cells.contains(&cell) {
                cells.push(cell);
            }
        }
    }
    for seed in first..=last {
        for &cell in &cells {
            let r = sim::run_cell(cell, seed, SIM_REFS_PER_CORE, &mut off);
            if let Err(e) = r.consistent {
                eprintln!("perfbench: {} seed {seed}: {e}", cell.name());
                return ExitCode::FAILURE;
            }
            println!(
                "{seed}\t{}\t{SIM_REFS_PER_CORE}\t{:016x}",
                cell.name(),
                r.fingerprint
            );
        }
    }
    ExitCode::SUCCESS
}
