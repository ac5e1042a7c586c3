//! The PIPM repository benchmark.
//!
//! Two workloads of simulator cells:
//!
//! * `sim-shared` — weak-affinity, write-heavy cells (YCSB, TPC-C, BC
//!   under Native, PIPM, HW-static and Memtis, plus PIPM/YCSB on a
//!   switched two-device fabric), where references take the shared-CXL
//!   path through the fabric, device directory, remap tables, CXL DRAM
//!   and the migration policies.
//! * `sim-local` — PR, XSBench and streamcluster under Local-only, where
//!   shared data is served from local DRAM and stream generation, the
//!   core model and the L1/LLC do the work.
//!
//! An untraced run times the cells and reports the end-to-end metrics.
//! A traced run also drives an in-process `pipm-serve` daemon serving the
//! workload's own cells, replays each cell's trace through every layer,
//! and reports the per-layer metrics. See `README.md` for the metrics,
//! the predictions table and why each workload was chosen.

pub mod expected;
pub mod layers;
pub mod serve;
pub mod sim;
pub mod speed;
pub mod stats;
pub mod trace;

use expected::Expected;
use pipm_types::SchemeKind as S;
use pipm_workloads::Workload as W;
use serve::{LineGen, Mix};
use sim::Cell;
use stats::median;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// References per core of every timed simulator cell.
pub const SIM_REFS_PER_CORE: u64 = 25_000;
/// References per core of every served job.
const SERVE_REFS_PER_CORE: u64 = 1_000;
/// Pre-warmed hit keys of the serving mix.
const HIT_KEYS: usize = 8;
/// Offered rate of the fixed-rate serving phase, well under the
/// daemon's knee on a 2-vCPU host.
const FIXED_RPS: f64 = 1000.0;
/// First rung of every pass of the rate ladder.
const LADDER_START_RPS: f64 = 2.0 * FIXED_RPS;
/// Rate-ladder rungs per slice.
const RUNGS_PER_SLICE: usize = 2;
/// Fewest complete passes of the rate ladder per run.
const MIN_LADDER_PASSES: usize = 3;
/// Requests in the discarded serving warm-up.
const SERVE_WARMUP_REQUESTS: usize = 300;
/// Serving set-ups (bind + pre-warm) per traced run.
const SERVE_SETUPS: usize = 3;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 15;
/// Fewest simulator rounds, and fewest traced slices, per run.
const MIN_ROUNDS: usize = 4;

/// A metric's name, unit and direction, as `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [MetricSpec; 3] = [
    m("refs_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run. The serving metrics
/// lead: on a shared 2-vCPU host their run-to-run spread (see README.md)
/// is too wide to bound, so they are reported here rather than gated.
pub const PER_LAYER: [MetricSpec; 49] = [
    m("hit_p50_ms", "ms", "lower"),
    m("hit_p99_ms", "ms", "lower"),
    m("miss_p50_ms", "ms", "lower"),
    m("fork_p50_ms", "ms", "lower"),
    m("max_rps_at_slo", "1/s", "higher"),
    m("serve.setup_ms", "ms", "lower"),
    m("workloads.streams_ms", "ms", "lower"),
    m("workloads.gen_ns_per_ref", "ns/ref", "lower"),
    m("core.new_ms", "ms", "lower"),
    m("core.run_ns_per_ref", "ns/ref", "lower"),
    m("core.self_ns_per_ref", "ns/ref", "lower"),
    m("cache.l1_ns_per_op", "ns/op", "lower"),
    m("l1_hit_frac", "frac", "higher"),
    m("llc_hit_frac", "frac", "higher"),
    m("cpu.core_ns_per_ref", "ns/ref", "lower"),
    m("core.ipc", "instr/cycle", "higher"),
    m("coherence.devdir_ns_per_op", "ns/op", "lower"),
    m("coherence.recalls_per_kref", "1/kref", "lower"),
    m("cxl_forward_frac", "frac", "lower"),
    m("fabric.send_ns_per_msg.direct", "ns/msg", "lower"),
    m("fabric.send_ns_per_msg.switched", "ns/msg", "lower"),
    m("fabric.bytes_per_ref", "B/ref", "lower"),
    m("fabric.switch_hops_per_kref", "1/kref", "lower"),
    m("mem.dram_ns_per_access", "ns/access", "lower"),
    m("local_private_frac", "frac", "higher"),
    m("cxl_dram_frac", "frac", "lower"),
    m("remap.global_lookup_ns", "ns", "lower"),
    m("remap.local_lookup_ns", "ns", "lower"),
    m("remap.local_hit_rate", "frac", "higher"),
    m("remap.global_hit_rate", "frac", "higher"),
    m("migration.lines_in_per_kref", "1/kref", "higher"),
    m("migration.pages_promoted_per_kref", "1/kref", "higher"),
    m("migration.transfer_bytes_per_ref", "B/ref", "lower"),
    m("core.mgmt_stall_frac", "frac", "lower"),
    m("local_shared_frac", "frac", "higher"),
    m("inter_host_frac", "frac", "lower"),
    m("checkpoint.prefix_ms", "ms", "lower"),
    m("checkpoint.clone_ms", "ms", "lower"),
    m("checkpoint.resume_ms", "ms", "lower"),
    m("runcache.hit_us", "us", "lower"),
    m("runcache.hit_ratio", "frac", "higher"),
    m("ckpt_cache.hit_ratio", "frac", "higher"),
    m("serve.proto.parse_us", "us", "lower"),
    m("serve.proto.encode_us", "us", "lower"),
    m("serve.json.parse_us", "us", "lower"),
    m("serve.reactor.residual_ms", "ms", "lower"),
    m("serve.server.rejected_overloaded", "count", "lower"),
    m("loadgen.late_p99_ms", "ms", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// One benchmark workload.
pub struct BenchWorkload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Simulator cells, timed in interleaved rounds.
    pub cells: Vec<Cell>,
    /// The request mix the traced run offers the daemon.
    pub mix: Mix,
    /// Simulator rounds per slice of a traced run.
    pub rounds_per_slice: usize,
    /// Fixed-rate requests per slice of a traced run.
    pub chunk_requests: usize,
}

/// The benchmark's workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["sim-shared", "sim-local"];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<BenchWorkload> {
    let d = Cell::direct;
    let (name, served, extra, rounds_per_slice, chunk_requests) = match name {
        "sim-shared" => {
            let served: Vec<Cell> = [W::Ycsb, W::Tpcc, W::Bc]
                .into_iter()
                .flat_map(|w| [S::Native, S::Pipm, S::HwStatic, S::Memtis].map(|s| d(w, s)))
                .collect();
            let switched = Cell {
                switched: true,
                ..d(W::Ycsb, S::Pipm)
            };
            ("sim-shared", served, Some(switched), 1, 600)
        }
        "sim-local" => {
            let served = [W::Pr, W::Xsbench, W::Streamcluster]
                .into_iter()
                .map(|w| d(w, S::LocalOnly))
                .collect();
            ("sim-local", served, None, 6, 600)
        }
        _ => return None,
    };
    // Eight hit keys spread over the served cells (a cell may repeat
    // with another seed); cold submits cycle through every served cell;
    // forks branch from the first.
    let hit_cells = (0..HIT_KEYS)
        .map(|k| served[k * served.len() / HIT_KEYS])
        .collect();
    let mix = Mix {
        hit_cells,
        cold_cells: served.clone(),
        fork_base: served[0],
        refs_per_core: SERVE_REFS_PER_CORE,
    };
    let mut cells = served;
    cells.extend(extra);
    Some(BenchWorkload {
        name,
        cells,
        mix,
        rounds_per_slice,
        chunk_requests,
    })
}

/// The last line of a run: correctness, counts and metric values.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (cell runs, requests, recomputations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, in the order of `specs`. Non-finite
    /// values (a failed sample's infinite latency) print as `f64::MAX`.
    pub fn json(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|s| {
                let v = self.metrics.get(s.name).copied().unwrap_or(f64::NAN);
                let v = if v.is_finite() { v } else { f64::MAX };
                format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, s.name, s.unit)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failure or error that stops a run before it can report.
pub type RunError = Box<dyn std::error::Error>;

/// Runs workload `wl` for about `seconds` seconds of measurement.
///
/// Set-up is a warm-up pass over the cells, the set-up passes behind
/// `setup_s` and one timed round, after which the simulator's peak RSS is
/// read. Untraced, the run then times
/// interleaved rounds until `seconds` have passed and returns the
/// end-to-end metrics. Traced, it runs [`traced_run`] and returns the
/// per-layer metrics.
pub fn run(
    wl: &BenchWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_path: &std::path::Path,
) -> Result<Outcome, RunError> {
    let host = stats::host_tag();
    println!("host: {host}");
    println!(
        "note: workload {} seed {seed}; simulator cells start with empty caches \
         (no checkpoint warm-up; each cell's warm-up fraction is excluded from its statistics)",
        wl.name
    );
    println!("note: the model is unvalidated (no silicon reference in the repository); no error figure is reported");
    let expected = Expected::shipped();
    let mut tracer = Tracer::new(traced);
    let mut sim = sim::SimPhase::new(&wl.cells, seed, SIM_REFS_PER_CORE);
    sim.measure_setup(SETUP_PASSES);
    // The simulator's footprint: every cell has run once at full size
    // and no daemon exists yet.
    sim.round(&mut tracer, &expected);
    let peak_rss_mb = stats::peak_rss_mb();
    let started = Instant::now();
    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    if traced {
        (attempted, failed) = traced_run(
            wl,
            seed,
            seconds,
            &mut sim,
            &mut tracer,
            &expected,
            &mut metrics,
        )?;
        tracer.write_tsv(
            spans_path,
            &[
                format!("host {host}"),
                format!("workload {} seed {seed}", wl.name),
            ],
        )?;
        println!("spans written to {}", spans_path.display());
    } else {
        while sim.rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
            sim.round(&mut tracer, &expected);
        }
        metrics.insert("refs_per_s", sim.refs_per_s());
        metrics.insert("setup_s", sim.setup_s());
        metrics.insert("peak_rss_mb", peak_rss_mb);
    }
    attempted += sim.attempted;
    failed += sim.failed;
    report_sim(&sim, started.elapsed().as_secs_f64());
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run. The in-process daemon is set up three times (the
/// last one serves), warmed up, and then each slice until `seconds` have
/// passed runs simulator rounds (half of all rounds record spans), a
/// chunk of the fixed-rate serving phase with spans per request, and
/// rungs of the rate ladder, so every metric samples the whole run. The
/// per-layer replays follow. Fills `metrics` with the per-layer metrics
/// and returns the serving side's (attempted, failed) counts.
fn traced_run(
    wl: &BenchWorkload,
    seed: u64,
    seconds: f64,
    sim: &mut sim::SimPhase,
    tracer: &mut Tracer,
    expected: &Expected,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<(u64, u64), RunError> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut gen = LineGen::new(wl.mix.clone(), seed);
    let mut setups = Vec::with_capacity(SERVE_SETUPS);
    let mut kept: Option<serve::Prewarmed> = None;
    for _ in 0..SERVE_SETUPS {
        let (pw, took) = serve::start_prewarmed(&gen, tracer)?;
        attempted += pw.expected.len() as u64 + 1;
        setups.push(took.as_secs_f64());
        if let Some(old) = kept.replace(pw) {
            if kept.as_ref().map(|k| &k.expected) != Some(&old.expected) {
                eprintln!("FAIL serve: pre-warm responses differ between daemons");
                failed += 1;
            }
            old.daemon.stop()?;
        }
    }
    let pw = kept.expect("at least one serving set-up");
    let addr = pw.daemon.addr.clone();
    let warm = gen.schedule(seed ^ 0x11, FIXED_RPS, SERVE_WARMUP_REQUESTS);
    let (_, outcomes) = serve::drive(&addr, &warm)?;
    let warm = serve::analyse(&warm, &outcomes, &pw.expected);
    attempted += warm.attempted;
    failed += warm.failed;

    // ---- measurement: interleaved slices -----------------------------
    let mut chunks = Vec::new();
    let mut ladder = serve::Ladder::new(LADDER_START_RPS);
    let started = Instant::now();
    let mut slices = 0usize;
    let mut request_id = 0u64;
    while slices < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..wl.rounds_per_slice {
            sim.round(tracer, expected);
        }
        let schedule_seed = seed ^ (0x22 + slices as u64) << 8;
        let plan = gen.schedule(schedule_seed, FIXED_RPS, wl.chunk_requests);
        let (start, outcomes) = serve::drive(&addr, &plan)?;
        for (p, o) in plan.iter().zip(&outcomes) {
            request_id += 1;
            let scheduled = start + p.at;
            let done = o.latency.map_or(scheduled, |l| scheduled + l);
            let span = tracer.record("serve.request", 0, request_id, scheduled, done, 1);
            tracer.record(
                "loadgen.send",
                span,
                request_id,
                scheduled,
                scheduled + o.late,
                1,
            );
        }
        chunks.push(serve::analyse(&plan, &outcomes, &pw.expected));
        for _ in 0..RUNGS_PER_SLICE {
            ladder.step(&addr, &mut gen, &pw.expected, seed)?;
        }
        slices += 1;
    }
    // Finish the open pass and reach MIN_LADDER_PASSES, unless a slow
    // host has already stretched the run by half its length.
    while (ladder.passes.len() < MIN_LADDER_PASSES || !ladder.at_pass_start())
        && started.elapsed().as_secs_f64() < 1.5 * seconds
    {
        ladder.step(&addr, &mut gen, &pw.expected, seed)?;
    }
    println!(
        "{slices} slices in {:.1} s",
        started.elapsed().as_secs_f64()
    );

    let fixed = serve::PhaseResult::merge(chunks);
    attempted += fixed.attempted;
    failed += fixed.failed;
    let qs = [0.5, 0.99];
    println!(
        "serve set-up (bind + pre-warm of {} hit keys and the fork checkpoint): median {:.4} s of {SERVE_SETUPS}",
        pw.expected.len(),
        median(&setups)
    );
    println!(
        "serve fixed rate: offered {:.1}/s achieved {:.1}/s over {} pipelined connections, open loop",
        fixed.offered_rps(),
        fixed.achieved_rps(),
        serve::CONNECTIONS
    );
    println!("  hit   {}", fixed.hits.describe(&qs));
    println!("  miss  {}", fixed.cold.describe(&[0.5]));
    println!("  fork  {}", fixed.fork.describe(&[0.5]));
    println!("  late  {}", fixed.late.describe(&qs));
    println!("  overloaded {} failed {}", fixed.overloaded, fixed.failed);
    if fixed.hits.beyond(0.99) < 10 {
        return Err(format!(
            "too few hits ({}) for ten samples beyond p99; raise --seconds",
            fixed.hits.count()
        )
        .into());
    }
    println!(
        "serve ladder (limit: hit p99 <= {} ms and achieved >= {:.0}% of offered):",
        serve::SLO_HIT_P99_MS,
        serve::SLO_MIN_ACHIEVED * 100.0
    );
    let mut samples = fixed.samples.clone();
    for r in &ladder.rungs {
        attempted += r.result.attempted;
        failed += r.result.failed;
        samples.extend(r.result.samples.iter().take(1).cloned());
        println!(
            "  rate {:7.1}/s offered {:7.1}/s achieved {:7.1}/s hit {} overloaded {} -> {}",
            r.rate,
            r.result.offered_rps(),
            r.result.achieved_rps(),
            r.result.hits.describe(&[0.99]),
            r.result.overloaded,
            if r.result.meets_slo() { "pass" } else { "fail" }
        );
    }
    let max_rps = if ladder.passes.is_empty() {
        serve::best_passing_rate(&ladder.rungs)
    } else {
        median(&ladder.passes)
    };
    println!(
        "  per-pass results {:?}; median {max_rps:.1}",
        ladder.passes
    );
    let daemon = serve::daemon_metrics(&addr)?;
    // The daemon's caches are freed before the in-process recomputation,
    // so the peak RSS does not depend on how the two overlap.
    pw.daemon.stop()?;
    let bad = serve::verify_samples(&samples);
    attempted += samples.len() as u64;
    failed += bad;
    println!(
        "serve: {} cold/fork responses recomputed in-process, {bad} mismatched",
        samples.len()
    );

    let hit_path = serve::hit_path(&gen, &pw.expected, tracer);
    layers::checkpoint_costs(&gen.prewarm_fork_line(), 3, tracer);
    for c in &wl.cells {
        layers::replay_cell(*c, seed, SIM_REFS_PER_CORE, tracer);
    }
    metrics.insert("hit_p50_ms", fixed.hits.ms(0.5));
    metrics.insert("hit_p99_ms", fixed.hits.ms(0.99));
    metrics.insert("miss_p50_ms", fixed.cold.ms(0.5));
    metrics.insert("fork_p50_ms", fixed.fork.ms(0.5));
    metrics.insert("max_rps_at_slo", max_rps);
    metrics.insert("serve.setup_ms", median(&setups) * 1e3);
    per_layer(metrics, sim, tracer, &fixed, &hit_path, &daemon);
    Ok((attempted, failed))
}

/// Prints the per-cell table of the simulator rounds.
fn report_sim(sim: &sim::SimPhase, elapsed: f64) {
    println!(
        "sim: {} cells x {} rounds at {SIM_REFS_PER_CORE} refs/core in {elapsed:.1} s; \
         {} of {} fingerprints checked against expected.tsv (the rest round to round)",
        sim.cells.len(),
        sim.rounds,
        sim.checked_against_table,
        sim.cells.len()
    );
    for c in &sim.cells {
        let ms: Vec<f64> = c.raw.iter().map(|s| s * 1e3).collect();
        let (lo, hi) = ms
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
        println!(
            "  {:<20} raw median {:7.2} ms (min {lo:.2} max {hi:.2})  {:6.3} M refs/s raw, {:6.3} normalised  fp {:016x}",
            c.cell.name(),
            median(&ms),
            c.rate(&c.raw) / 1e6,
            c.rate(&c.norm) / 1e6,
            c.fingerprint
        );
    }
    println!(
        "  host slowdown around runs: median {:.3} (min {:.3} max {:.3}); refs/s raw {:.0}, normalised {:.0}",
        median(&sim.slowdowns),
        sim.slowdowns.iter().copied().fold(f64::MAX, f64::min),
        sim.slowdowns.iter().copied().fold(0.0, f64::max),
        sim.geomean_rate(|c| &c.raw),
        sim.refs_per_s()
    );
}

/// Fills the per-layer metrics of a traced run.
fn per_layer(
    out: &mut BTreeMap<&'static str, f64>,
    sim: &sim::SimPhase,
    tracer: &Tracer,
    fixed: &serve::PhaseResult,
    hit: &serve::HitPath,
    daemon: &serve::DaemonMetrics,
) {
    use pipm_types::AccessClass as A;
    let ns = |name: &str| tracer.ns_per_work(name);
    let ms_per_call = |name: &str| ns(name) / 1e6;

    out.insert("workloads.streams_ms", median(&sim.streams_setups) * 1e3);
    out.insert("core.new_ms", median(&sim.new_setups) * 1e3);
    let gen = ns("workloads.gen");
    let run = ns("core.run");
    out.insert("workloads.gen_ns_per_ref", gen);
    out.insert("core.run_ns_per_ref", run);
    out.insert("core.self_ns_per_ref", run - gen);
    out.insert("cache.l1_ns_per_op", ns("cache.l1"));
    out.insert("cpu.core_ns_per_ref", ns("cpu.core"));
    out.insert("coherence.devdir_ns_per_op", ns("coherence.devdir"));
    out.insert("fabric.send_ns_per_msg.direct", ns("fabric.send.direct"));
    out.insert(
        "fabric.send_ns_per_msg.switched",
        ns("fabric.send.switched"),
    );
    out.insert("mem.dram_ns_per_access", ns("mem.dram"));
    out.insert("remap.global_lookup_ns", ns("remap.global_lookup"));
    out.insert("remap.local_lookup_ns", ns("remap.local_lookup"));
    out.insert("checkpoint.prefix_ms", ms_per_call("checkpoint.prefix"));
    out.insert("checkpoint.clone_ms", ms_per_call("checkpoint.clone"));
    out.insert("checkpoint.resume_ms", ms_per_call("checkpoint.resume"));

    // Exact simulated counts, pooled over the cells' first runs.
    let all = || sim.cells.iter().map(|c| &c.stats);
    let refs: u64 = all()
        .map(|s| s.cores.iter().map(|c| c.mem_refs).sum::<u64>())
        .sum();
    let class = |a: A| all().map(|s| s.class_total(a)).sum::<u64>() as f64 / refs as f64;
    let per_kref = |n: u64| n as f64 * 1e3 / refs as f64;
    let rate = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let sum = |f: &dyn Fn(&pipm_types::SystemStats) -> u64| all().map(f).sum::<u64>();
    out.insert("l1_hit_frac", class(A::L1Hit));
    out.insert("llc_hit_frac", class(A::LlcHit));
    out.insert("local_private_frac", class(A::LocalPrivate));
    out.insert("local_shared_frac", class(A::LocalShared));
    out.insert("cxl_dram_frac", class(A::CxlDram));
    out.insert("cxl_forward_frac", class(A::CxlForward));
    out.insert("inter_host_frac", class(A::InterHost));
    let instructions = sum(&|s| s.total_instructions());
    let core_cycles = sum(&|s| s.exec_cycles() * s.cores.len() as u64);
    out.insert("core.ipc", instructions as f64 / core_cycles as f64);
    let cycles = sum(&|s| s.cores.iter().map(|c| c.cycles).sum());
    out.insert(
        "core.mgmt_stall_frac",
        sum(&|s| s.total_mgmt_stall()) as f64 / cycles as f64,
    );
    out.insert(
        "coherence.recalls_per_kref",
        per_kref(sum(&|s| s.directory_recalls)),
    );
    out.insert(
        "fabric.bytes_per_ref",
        sum(&|s| s.fabric.device_bytes.iter().sum()) as f64 / refs as f64,
    );
    out.insert(
        "fabric.switch_hops_per_kref",
        per_kref(sum(&|s| s.fabric.switch_hops)),
    );
    out.insert(
        "remap.local_hit_rate",
        rate(sum(&|s| s.local_remap_hits), sum(&|s| s.local_remap_misses)),
    );
    out.insert(
        "remap.global_hit_rate",
        rate(
            sum(&|s| s.global_remap_hits),
            sum(&|s| s.global_remap_misses),
        ),
    );
    out.insert(
        "migration.lines_in_per_kref",
        per_kref(sum(&|s| s.migration.lines_migrated_in)),
    );
    out.insert(
        "migration.pages_promoted_per_kref",
        per_kref(sum(&|s| s.migration.pages_promoted)),
    );
    out.insert(
        "migration.transfer_bytes_per_ref",
        sum(&|s| s.migration.transfer_bytes) as f64 / refs as f64,
    );

    out.insert("runcache.hit_us", hit.lookup_us);
    out.insert("runcache.hit_ratio", daemon.runcache_hit_ratio);
    out.insert("ckpt_cache.hit_ratio", daemon.ckpt_hit_ratio);
    out.insert("serve.proto.parse_us", hit.parse_us);
    out.insert("serve.proto.encode_us", hit.encode_us);
    out.insert("serve.json.parse_us", hit.json_parse_us);
    out.insert(
        "serve.reactor.residual_ms",
        fixed.hits.ms(0.5) - (hit.parse_us + hit.lookup_us + hit.encode_us) / 1e3,
    );
    out.insert(
        "serve.server.rejected_overloaded",
        daemon.rejected_overloaded as f64,
    );
    out.insert("loadgen.late_p99_ms", fixed.late.ms(0.99));
    let traced = sim.geomean_rate(|c| &c.traced_norm);
    let untraced = sim.refs_per_s();
    out.insert("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
}
