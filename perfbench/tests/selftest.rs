//! Self-tests of the benchmark: determinism of the simulated counts it
//! checks, seed sensitivity of its inputs, its percentile arithmetic, and
//! agreement between its metric tables and `BENCHMARK.json`.

use perfbench::expected::Expected;
use perfbench::sim::{run_cell, Cell};
use perfbench::stats::Latencies;
use perfbench::trace::Tracer;
use perfbench::{workload, END_TO_END, PER_LAYER, SIM_REFS_PER_CORE, WORKLOADS};
use pipm_serve::json::{self, Json};
use pipm_types::SchemeKind;
use pipm_workloads::{Workload, WorkloadParams};
use std::time::Duration;

fn every_cell() -> Vec<Cell> {
    WORKLOADS
        .iter()
        .flat_map(|w| workload(w).expect("listed workload exists").cells)
        .collect()
}

#[test]
fn same_seed_gives_identical_simulated_counts() {
    let mut off = Tracer::new(false);
    for cell in every_cell() {
        let a = run_cell(cell, 7, 1_000, &mut off);
        let b = run_cell(cell, 7, 1_000, &mut off);
        assert_eq!(a.stats, b.stats, "{}", cell.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}", cell.name());
        a.consistent.expect("consistent after the run");
    }
}

#[test]
fn different_seed_changes_generated_inputs() {
    let first_records = |seed| {
        let mut cfg = Cell::direct(Workload::Ycsb, SchemeKind::Pipm).config();
        let params = WorkloadParams {
            refs_per_core: 200,
            seed,
        };
        let mut streams = Workload::Ycsb.streams(&mut cfg, &params);
        (0..200)
            .map(|_| streams[0].next_record().expect("200 records"))
            .collect::<Vec<_>>()
    };
    assert_eq!(first_records(1), first_records(1));
    assert_ne!(first_records(1), first_records(2));
    let mut off = Tracer::new(false);
    let cell = Cell::direct(Workload::Pr, SchemeKind::LocalOnly);
    assert_ne!(
        run_cell(cell, 1, 1_000, &mut off).fingerprint,
        run_cell(cell, 2, 1_000, &mut off).fingerprint
    );
}

#[test]
fn nearest_rank_matches_textbook_fixture() {
    let ms = |v: u64| Duration::from_millis(v);
    // The textbook example 15, 20, 35, 40, 50: p30 and p40 are the second
    // sample, p50 the third, p100 the last.
    let lat = Latencies::new([50, 35, 15, 40, 20].map(ms).to_vec());
    assert_eq!(lat.ms(0.05), 15.0);
    assert_eq!(lat.ms(0.30), 20.0);
    assert_eq!(lat.ms(0.40), 20.0);
    assert_eq!(lat.ms(0.50), 35.0);
    assert_eq!(lat.ms(1.00), 50.0);
    assert_eq!(lat.beyond(0.50), 2);

    let lat = Latencies::new((1..=200).rev().map(ms).collect());
    assert_eq!(lat.count(), 200);
    assert_eq!(lat.ms(0.5), 100.0);
    assert_eq!(lat.ms(0.99), 198.0);
    assert_eq!(lat.beyond(0.99), 2);
    // A failed request sits in the tail and misses any limit.
    let failed = Latencies::new(vec![ms(1), ms(2), Duration::MAX]);
    assert!(failed.ms(1.0).is_infinite());
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    let mut seen = std::collections::HashSet::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid(m.name), "bad metric name {}", m.name);
        assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
        assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        root.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let ours = |specs: &[perfbench::MetricSpec]| -> Vec<(String, String, String)> {
        specs
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = root
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn shipped_fingerprints_cover_every_cell_and_reproduce() {
    let expected = Expected::shipped();
    let cells = every_cell();
    for seed in [0, 1, 2] {
        for cell in &cells {
            assert!(
                expected
                    .get(seed, &cell.name(), SIM_REFS_PER_CORE)
                    .is_some(),
                "no fingerprint for {} seed {seed}",
                cell.name()
            );
        }
    }
    let cell = Cell::direct(Workload::Xsbench, SchemeKind::LocalOnly);
    let run = run_cell(cell, 1, SIM_REFS_PER_CORE, &mut Tracer::new(false));
    assert_eq!(
        expected.get(1, &cell.name(), SIM_REFS_PER_CORE),
        Some(run.fingerprint)
    );
}
