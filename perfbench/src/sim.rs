//! Simulator cells and the timed, interleaved rounds that measure them.
//!
//! A cell is one (workload, scheme, topology) simulation. A round runs
//! every cell of a benchmark workload once, starting at a rotating cell
//! so no cell always runs first. Each run builds its inputs
//! (`Workload::streams`, `System::new`) outside the timed region, times
//! `System::run` alone, then checks `System::check_consistency` and the
//! FNV fingerprint of the statistics, again outside the timed region.

use crate::expected::Expected;
use crate::speed;
use crate::stats::{fingerprint, geomean, median};
use crate::trace::Tracer;
use pipm_core::System;
use pipm_types::{SchemeKind, SystemConfig, SystemStats, TopologySpec};
use pipm_workloads::{Workload, WorkloadParams};
use std::time::{Duration, Instant};

/// The switched cell's fabric: four hosts behind one switch reaching
/// two devices, 30 ns per switch traversal.
pub fn switched_topology() -> TopologySpec {
    TopologySpec::switched(4, 2, 30.0)
}

/// One simulation shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Trace generator.
    pub workload: Workload,
    /// Migration scheme.
    pub scheme: SchemeKind,
    /// [`switched_topology`] instead of the one-device direct-attached
    /// default.
    pub switched: bool,
}

impl Cell {
    /// A cell on the default single-device topology.
    pub const fn direct(workload: Workload, scheme: SchemeKind) -> Self {
        Cell {
            workload,
            scheme,
            switched: false,
        }
    }

    /// Stable label, e.g. `YCSB/PIPM` or `YCSB/PIPM@sw4x2`.
    pub fn name(&self) -> String {
        let topo = if self.switched { "@sw4x2" } else { "" };
        format!("{}/{}{topo}", self.workload.label(), self.scheme.label())
    }

    /// The cell's configuration: `experiment_scale` plus its topology.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::experiment_scale();
        if self.switched {
            cfg.apply_topology(switched_topology());
        }
        cfg
    }
}

/// The outcome of one run of one cell.
pub struct CellRun {
    /// Simulated statistics.
    pub stats: SystemStats,
    /// [`fingerprint`] of `stats`.
    pub fingerprint: u64,
    /// Host time in `System::run` (the timed region).
    pub run: Duration,
    /// References simulated (all cores, warm-up included).
    pub refs: u64,
    /// `System::check_consistency` after the run.
    pub consistent: Result<(), String>,
}

/// Builds, runs and checks one cell, recording spans into `tracer`.
pub fn run_cell(cell: Cell, seed: u64, refs_per_core: u64, tracer: &mut Tracer) -> CellRun {
    let mut cfg = cell.config();
    let params = WorkloadParams {
        refs_per_core,
        seed,
    };
    let refs = refs_per_core * cfg.total_cores() as u64;
    let (streams, _) = tracer.time("workloads.streams", 0, refs, || {
        cell.workload.streams(&mut cfg, &params)
    });
    let (mut sys, _) = tracer.time("core.new", 0, refs, || System::new(cfg, cell.scheme));
    let (stats, t_run) = tracer.time("core.run", 0, refs, || sys.run(streams, refs_per_core));
    let consistent = sys.check_consistency();
    CellRun {
        fingerprint: fingerprint(&stats),
        stats,
        run: t_run,
        refs,
        consistent,
    }
}

/// Per-cell summary of a phase. Times are in seconds; `norm` times are
/// scaled to the nominal host speed by the probes around each run (see
/// [`crate::speed`]).
pub struct CellSummary {
    /// The cell.
    pub cell: Cell,
    /// Statistics of its first timed run (every run must match it).
    pub stats: SystemStats,
    /// Fingerprint of `stats`.
    pub fingerprint: u64,
    /// References per run.
    pub refs: u64,
    /// Raw `System::run` times of untraced rounds.
    pub raw: Vec<f64>,
    /// Normalised `System::run` times of untraced rounds.
    pub norm: Vec<f64>,
    /// Normalised `System::run` times of traced rounds (traced run only).
    pub traced_norm: Vec<f64>,
}

impl CellSummary {
    /// Simulated references per second from the median of `times`.
    pub fn rate(&self, times: &[f64]) -> f64 {
        self.refs as f64 / median(times)
    }
}

/// The simulator side of a run: per-cell measurements accumulated one
/// interleaved round at a time.
pub struct SimPhase {
    /// One entry per cell, in cell order.
    pub cells: Vec<CellSummary>,
    /// Timed rounds completed.
    pub rounds: usize,
    /// Per set-up pass: normalised seconds in `Workload::streams` +
    /// `System::new`, summed over cells.
    pub setups: Vec<f64>,
    /// Per set-up pass: raw `Workload::streams` seconds, summed over cells.
    pub streams_setups: Vec<f64>,
    /// Per set-up pass: raw `System::new` seconds, summed over cells.
    pub new_setups: Vec<f64>,
    /// Host slowdown measured around each run (1.0 = nominal).
    pub slowdowns: Vec<f64>,
    /// Cell runs attempted (warm-up excluded).
    pub attempted: u64,
    /// Cell runs whose consistency check or fingerprint failed.
    pub failed: u64,
    /// Cells whose fingerprint was compared with the shipped table.
    pub checked_against_table: usize,
    seed: u64,
    refs_per_core: u64,
    /// The most recent host-speed probe, in seconds.
    last_probe: f64,
}

impl SimPhase {
    /// Runs every cell once at a tenth of the timed size (a warm-up that
    /// faults in code, allocator arenas and lazily built tables) and
    /// takes the first host-speed probe.
    pub fn new(cells: &[Cell], seed: u64, refs_per_core: u64) -> Self {
        let mut untraced = Tracer::new(false);
        for &cell in cells {
            run_cell(cell, seed, (refs_per_core / 10).max(1), &mut untraced);
        }
        SimPhase {
            cells: cells
                .iter()
                .map(|&cell| CellSummary {
                    cell,
                    stats: SystemStats::default(),
                    fingerprint: 0,
                    refs: 0,
                    raw: Vec::new(),
                    norm: Vec::new(),
                    traced_norm: Vec::new(),
                })
                .collect(),
            rounds: 0,
            setups: Vec::new(),
            streams_setups: Vec::new(),
            new_setups: Vec::new(),
            slowdowns: Vec::new(),
            attempted: 0,
            failed: 0,
            checked_against_table: 0,
            seed,
            refs_per_core,
            last_probe: speed::probe(),
        }
    }

    /// Geomean over cells of the per-cell refs/s; `pick` chooses the
    /// time series (raw, normalised or traced).
    pub fn geomean_rate(&self, pick: impl Fn(&CellSummary) -> &[f64]) -> f64 {
        let rates: Vec<f64> = self.cells.iter().map(|c| c.rate(pick(c))).collect();
        geomean(&rates)
    }

    /// `refs_per_s`: the geomean over cells of each cell's median
    /// normalised rate over untraced rounds.
    pub fn refs_per_s(&self) -> f64 {
        self.geomean_rate(|c| &c.norm)
    }

    /// Median over set-up passes of the summed normalised set-up time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setups)
    }

    /// Builds every cell's inputs (`Workload::streams`, `System::new`)
    /// `passes` times without running them, timing each pass between
    /// host-speed probes. Repeating the same allocations back to back
    /// measures set-up in a steady allocator state; inside the timed
    /// rounds the same calls drift with whatever the previous runs left
    /// behind.
    pub fn measure_setup(&mut self, passes: usize) {
        for _ in 0..passes {
            let (mut streams, mut new) = (0.0, 0.0);
            for c in &self.cells {
                let mut cfg = c.cell.config();
                let params = WorkloadParams {
                    refs_per_core: self.refs_per_core,
                    seed: self.seed,
                };
                let t0 = Instant::now();
                let s = c.cell.workload.streams(&mut cfg, &params);
                let t1 = Instant::now();
                let sys = System::new(cfg, c.cell.scheme);
                let t2 = Instant::now();
                drop((s, sys));
                streams += (t1 - t0).as_secs_f64();
                new += (t2 - t1).as_secs_f64();
            }
            let probe = speed::probe();
            let slowdown = (self.last_probe + probe) / 2.0 / speed::NOMINAL_S;
            self.last_probe = probe;
            self.setups.push((streams + new) / slowdown);
            self.streams_setups.push(streams);
            self.new_setups.push(new);
        }
    }

    /// Runs one timed round: every cell once, starting at a rotating
    /// cell, with a host-speed probe after every cell.
    ///
    /// With tracing on, even rounds record spans and odd rounds do not, so
    /// the traced run can report its own overhead. Every run is checked:
    /// the consistency check must pass, every round must reproduce the
    /// first round's fingerprint, and that fingerprint must match the
    /// shipped expectation when one exists for this seed.
    pub fn round(&mut self, tracer: &mut Tracer, expected: &Expected) {
        let mut untraced = Tracer::new(false);
        let round = self.rounds;
        let traced = tracer.enabled() && round.is_multiple_of(2);
        let (seed, refs_per_core) = (self.seed, self.refs_per_core);
        let n = self.cells.len();
        for k in 0..n {
            let i = (k + round) % n;
            let cell = self.cells[i].cell;
            let t: &mut Tracer = if traced { tracer } else { &mut untraced };
            let run = run_cell(cell, seed, refs_per_core, t);
            let probe = speed::probe();
            let slowdown = (self.last_probe + probe) / 2.0 / speed::NOMINAL_S;
            self.last_probe = probe;
            self.slowdowns.push(slowdown);
            self.attempted += 1;
            if let Err(e) = &run.consistent {
                eprintln!("FAIL {}: consistency check: {e}", cell.name());
                self.failed += 1;
            }
            let summary = &mut self.cells[i];
            if round == 0 {
                if let Some(want) = expected.get(seed, &cell.name(), refs_per_core) {
                    self.checked_against_table += 1;
                    if want != run.fingerprint {
                        eprintln!(
                            "FAIL {}: fingerprint {:016x}, expected {want:016x} for seed {seed}",
                            cell.name(),
                            run.fingerprint
                        );
                        self.failed += 1;
                    }
                }
                summary.fingerprint = run.fingerprint;
                summary.refs = run.refs;
                summary.stats = run.stats;
            } else if run.fingerprint != summary.fingerprint {
                eprintln!(
                    "FAIL {}: round {round} fingerprint {:016x} differs from round 0 {:016x}",
                    cell.name(),
                    run.fingerprint,
                    summary.fingerprint
                );
                self.failed += 1;
            }
            let secs = run.run.as_secs_f64();
            if traced {
                summary.traced_norm.push(secs / slowdown);
            } else {
                summary.raw.push(secs);
                summary.norm.push(secs / slowdown);
            }
        }
        self.rounds += 1;
    }
}
