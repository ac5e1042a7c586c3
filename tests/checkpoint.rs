//! Checkpointed incremental sweeps: snapshot/fork/resume correctness.
//!
//! The contract under test (DESIGN.md §10): a run that is checkpointed at
//! the warm-up boundary and resumed — possibly forked, possibly under a
//! late-binding [`CfgDelta`] — must produce statistics **bit-identical**
//! to one uninterrupted simulation applying the same delta inline at the
//! same reference count. Checkpointing is a pure wall-clock optimization;
//! it must never be observable in the results.

use pipm_core::{resume_one, run_one, run_one_with_delta, run_prefix_one, CfgDelta, System};
use pipm_cpu::{AccessStream, TraceRecord};
use pipm_types::{Addr, SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};

const REFS_PER_CORE: u64 = 6_000;
const SEED: u64 = 11;

/// Sweep-shaped configuration: the warm-up window is the first 2/3 of the
/// run, so forking at the warm-up boundary leaves the entire measured
/// window (the tail third) under the forked delta.
fn sweep_cfg() -> SystemConfig {
    SystemConfig {
        warmup_fraction: 2.0 / 3.0,
        ..SystemConfig::default()
    }
}

/// The fork point: total references processed at the warm-up boundary.
fn prefix_refs(cfg: &SystemConfig) -> u64 {
    (cfg.warmup_fraction * (REFS_PER_CORE * cfg.total_cores() as u64) as f64) as u64
}

fn params() -> WorkloadParams {
    WorkloadParams {
        refs_per_core: REFS_PER_CORE,
        seed: SEED,
    }
}

#[test]
fn plain_resume_matches_uninterrupted_run_all_schemes() {
    for &scheme in SchemeKind::ALL.iter() {
        let cfg = sweep_cfg();
        let base = run_one(Workload::Bfs, scheme, cfg.clone(), &params());
        let ckpt = run_prefix_one(Workload::Bfs, scheme, cfg, &params(), {
            let cfg = sweep_cfg();
            prefix_refs(&cfg)
        });
        let resumed = resume_one(Workload::Bfs, scheme, ckpt, &CfgDelta::default());
        assert_eq!(
            base.stats, resumed.stats,
            "{scheme:?}: checkpoint round-trip must be invisible"
        );
        assert_eq!(base.cfg, resumed.cfg);
    }
}

/// Deltas exercising every sweepable parameter. The remapping-cache
/// deltas only have structure to reconfigure under the PIPM-like schemes,
/// but must be harmless no-ops everywhere else.
fn all_deltas() -> Vec<CfgDelta> {
    vec![
        CfgDelta {
            link_latency_ns: Some(100.0),
            ..CfgDelta::default()
        },
        CfgDelta {
            link_gbps: Some(4.0),
            ..CfgDelta::default()
        },
        CfgDelta {
            local_remap_cache_bytes: Some(64 << 10),
            ..CfgDelta::default()
        },
        CfgDelta {
            global_remap_cache_bytes: Some(1 << 10),
            ..CfgDelta::default()
        },
        CfgDelta {
            migration_threshold: Some(4),
            ..CfgDelta::default()
        },
    ]
}

#[test]
fn forked_sweep_is_bit_identical_to_unforked_all_schemes() {
    for &scheme in SchemeKind::ALL.iter() {
        let cfg = sweep_cfg();
        let at = prefix_refs(&cfg);
        // One warmed prefix, forked into every sweep point. Cloning the
        // checkpoint *is* the fork (deep-copied simulator + re-created
        // stream positions); the master stays reusable throughout.
        let master = run_prefix_one(Workload::Ycsb, scheme, cfg.clone(), &params(), at);
        let deltas = if scheme == SchemeKind::Pipm {
            all_deltas()
        } else {
            // Non-PIPM schemes: link timing and threshold deltas suffice
            // (remap-cache deltas are covered as no-ops by one entry).
            vec![
                CfgDelta {
                    link_latency_ns: Some(100.0),
                    ..CfgDelta::default()
                },
                CfgDelta {
                    migration_threshold: Some(16),
                    ..CfgDelta::default()
                },
                CfgDelta {
                    local_remap_cache_bytes: Some(64 << 10),
                    ..CfgDelta::default()
                },
            ]
        };
        for delta in &deltas {
            let forked = resume_one(Workload::Ycsb, scheme, master.clone(), delta);
            let unforked =
                run_one_with_delta(Workload::Ycsb, scheme, cfg.clone(), &params(), at, delta);
            assert_eq!(
                forked.stats, unforked.stats,
                "{scheme:?} under {delta:?}: fork must equal inline delta"
            );
            assert_eq!(
                forked.cfg, unforked.cfg,
                "delta must land in the result cfg"
            );
        }
    }
}

#[test]
fn forks_are_independent_of_resume_order() {
    // Two forks with *different* deltas plus the master resumed last:
    // no fork may leak state into another.
    let cfg = sweep_cfg();
    let at = prefix_refs(&cfg);
    let master = run_prefix_one(Workload::Ycsb, SchemeKind::Pipm, cfg.clone(), &params(), at);
    let slow = CfgDelta {
        link_latency_ns: Some(200.0),
        ..CfgDelta::default()
    };
    let tiny = CfgDelta {
        global_remap_cache_bytes: Some(1 << 10),
        ..CfgDelta::default()
    };
    let a1 = resume_one(Workload::Ycsb, SchemeKind::Pipm, master.clone(), &slow);
    let b1 = resume_one(Workload::Ycsb, SchemeKind::Pipm, master.clone(), &tiny);
    let base = resume_one(
        Workload::Ycsb,
        SchemeKind::Pipm,
        master,
        &CfgDelta::default(),
    );
    // Same deltas recomputed from scratch match the forked results.
    let a2 = run_one_with_delta(
        Workload::Ycsb,
        SchemeKind::Pipm,
        cfg.clone(),
        &params(),
        at,
        &slow,
    );
    let b2 = run_one_with_delta(
        Workload::Ycsb,
        SchemeKind::Pipm,
        cfg.clone(),
        &params(),
        at,
        &tiny,
    );
    let base2 = run_one(Workload::Ycsb, SchemeKind::Pipm, cfg, &params());
    assert_eq!(a1.stats, a2.stats);
    assert_eq!(b1.stats, b2.stats);
    assert_eq!(base.stats, base2.stats);
    // And the deltas genuinely change behaviour (the sweep measures
    // something): a 4x link latency must cost cycles in the tail.
    assert!(a1.stats.exec_cycles() > base.stats.exec_cycles());
}

/// A checkpoint taken at an arbitrary reference count must fork and
/// resume bit-identically.
///
/// `run_prefix` stops the run between two references, wherever the count
/// falls in the global (clock, core) order; the checkpoint must capture
/// each stream's exact position so a fork neither replays nor skips
/// references. The fork points are the first reference, a prime (not a
/// multiple of the core count, so cores stop at uneven depths), and the
/// final reference (every stream consumed, none yet drained).
#[test]
fn prime_prefix_fork_is_bit_identical() {
    let cfg = sweep_cfg();
    let total = REFS_PER_CORE * cfg.total_cores() as u64;
    for &scheme in &[SchemeKind::Native, SchemeKind::Pipm] {
        let base = run_one(Workload::Ycsb, scheme, cfg.clone(), &params());
        for at in [1, 10_007, total] {
            let master = run_prefix_one(Workload::Ycsb, scheme, cfg.clone(), &params(), at);
            let resumed = resume_one(Workload::Ycsb, scheme, master.clone(), &CfgDelta::default());
            assert_eq!(
                base.stats, resumed.stats,
                "{scheme:?} at {at}: checkpoint round-trip must be invisible"
            );
            let delta = CfgDelta {
                link_latency_ns: Some(150.0),
                ..CfgDelta::default()
            };
            let forked = resume_one(Workload::Ycsb, scheme, master, &delta);
            let unforked =
                run_one_with_delta(Workload::Ycsb, scheme, cfg.clone(), &params(), at, &delta);
            assert_eq!(
                forked.stats, unforked.stats,
                "{scheme:?} at {at}: fork must equal inline delta"
            );
        }
    }
}

/// Satellite regression: the warm-up window must be sized by the
/// references the streams actually deliver, not by the requested
/// `refs_per_core`. A trace shorter than the request previously put the
/// warm-up boundary at the wrong fraction of the real run (or past its
/// end entirely), silently distorting every reported statistic.
#[test]
fn warmup_window_is_sized_by_delivered_refs() {
    fn make_streams(cores: usize, n: u64) -> Vec<Box<dyn AccessStream>> {
        (0..cores)
            .map(|c| {
                let recs: Vec<TraceRecord> = (0..n)
                    .map(|i| TraceRecord {
                        nonmem: 3,
                        is_write: i % 7 == 0,
                        addr: Addr::new((i * 64 + c as u64 * 8_192) % (16 << 20)),
                    })
                    .collect();
                Box::new(recs.into_iter()) as Box<dyn AccessStream>
            })
            .collect()
    }
    let cfg = SystemConfig::default();
    let cores = cfg.total_cores();
    let delivered = 3_000u64;
    let mut exact = System::new(cfg.clone(), SchemeKind::Pipm);
    let honest = exact.run(make_streams(cores, delivered), delivered);
    // Same records, but the caller over-requests 4x more references than
    // the streams hold. The warm-up window must clamp to the delivered
    // count and the statistics must not move.
    let mut over = System::new(cfg, SchemeKind::Pipm);
    let clamped = over.run(make_streams(cores, delivered), delivered * 4);
    assert_eq!(
        honest, clamped,
        "over-requested refs_per_core must not move the warm-up boundary"
    );
}

/// The Fig. 16/17 "infinite" remapping caches (`1 << 40` bytes, clamped to
/// 2²⁶ local entries per host and 2²⁴ global lines) must build and fork
/// with storage that grows with the sets a run touches, not with the
/// geometry — and must stay exact while doing so. Built directly by
/// `System::new`, a checkpoint of the run resumes bit-identically; applied
/// as a `CfgDelta` to a forked default checkpoint, it matches the inline
/// delta.
#[test]
fn infinite_remap_cache_geometry_forks_bit_identically() {
    let inf = CfgDelta {
        local_remap_cache_bytes: Some(1 << 40),
        global_remap_cache_bytes: Some(1 << 40),
        ..CfgDelta::default()
    };
    let cfg = sweep_cfg();
    let at = prefix_refs(&cfg);
    let mut inf_cfg = cfg.clone();
    inf.apply_to(&mut inf_cfg);

    let direct = run_one(Workload::Ycsb, SchemeKind::Pipm, inf_cfg.clone(), &params());
    let master = run_prefix_one(Workload::Ycsb, SchemeKind::Pipm, inf_cfg, &params(), at);
    let forked = resume_one(
        Workload::Ycsb,
        SchemeKind::Pipm,
        master.clone(),
        &CfgDelta::default(),
    );
    let resumed = resume_one(
        Workload::Ycsb,
        SchemeKind::Pipm,
        master,
        &CfgDelta::default(),
    );
    assert_eq!(direct.stats, forked.stats, "fork of an inf-geometry run");
    assert_eq!(direct.stats, resumed.stats);

    let master = run_prefix_one(Workload::Ycsb, SchemeKind::Pipm, cfg.clone(), &params(), at);
    let forked = resume_one(Workload::Ycsb, SchemeKind::Pipm, master.clone(), &inf);
    let unforked = run_one_with_delta(
        Workload::Ycsb,
        SchemeKind::Pipm,
        cfg.clone(),
        &params(),
        at,
        &inf,
    );
    assert_eq!(
        forked.stats, unforked.stats,
        "inf delta on a forked checkpoint"
    );
    assert_eq!(forked.cfg, unforked.cfg);
    let base = resume_one(
        Workload::Ycsb,
        SchemeKind::Pipm,
        master,
        &CfgDelta::default(),
    );
    assert_ne!(
        forked.stats, base.stats,
        "the infinite caches must change the measured window"
    );
}
