//! Time-varying *phased* workloads (DESIGN.md "Rack-scale topology &
//! multi-tenant workloads").
//!
//! Real deployments are not stationary: a graph kernel alternates
//! compute-heavy supersteps with sharing-heavy frontier exchanges, and
//! service traffic drifts diurnally. A [`PhasedWorkload`] composes an
//! existing [`Workload`] spec into a schedule of behavioural phases, each
//! a deterministic perturbation of the base [`Spec`]. The composed stream
//! is a plain [`AccessStream`]: phase boundaries are reference counts, so
//! the stream remains bit-deterministic for a given seed regardless of
//! worker count or checkpoint forks.

use crate::spec::{Spec, Workload, WorkloadParams};
use crate::stream::SyntheticStream;
use pipm_cpu::{AccessStream, TraceRecord};
use pipm_types::{CoreId, HostId, SystemConfig};

/// One behavioural regime within a phase schedule.
///
/// Each variant is a pure function over the base [`Spec`]; the underlying
/// footprint never changes, only the access mix, so phases share one
/// address-space layout and migration state carries across boundaries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// The unmodified base spec.
    Baseline,
    /// Compute-dominated superstep: more private traffic, less global
    /// sharing, denser arithmetic between references.
    ComputeHeavy,
    /// Sharing burst (frontier exchange, hot-key storm): the globally hot
    /// region dominates and partition affinity weakens.
    SharingBurst,
    /// Diurnal shift: the access centre of gravity moves off the home
    /// partition and streaming sweeps widen.
    Diurnal,
}

impl Phase {
    /// Derives this phase's spec from `base`.
    pub fn apply(self, base: &Spec) -> Spec {
        let mut s = base.clone();
        match self {
            Phase::Baseline => {}
            Phase::ComputeHeavy => {
                s.private_fraction = (s.private_fraction + 0.25).min(0.9);
                s.global_hot_prob *= 0.25;
                s.nonmem_mean = s.nonmem_mean.saturating_mul(2);
            }
            Phase::SharingBurst => {
                s.global_hot_prob = (s.global_hot_prob * 3.0 + 0.05).min(0.6);
                s.affinity *= 0.6;
                s.nonmem_mean = (s.nonmem_mean / 2).max(1);
            }
            Phase::Diurnal => {
                s.affinity *= 0.5;
                s.scan_fraction = (s.scan_fraction * 2.0).min(0.9);
            }
        }
        s
    }

    /// Short label for tables and variant strings.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::ComputeHeavy => "compute",
            Phase::SharingBurst => "sharing",
            Phase::Diurnal => "diurnal",
        }
    }
}

/// A base workload plus an ordered phase schedule.
///
/// Each schedule entry is `(phase, weight)`; a core's reference budget is
/// split across the entries proportionally to weight (the last entry
/// absorbs the rounding remainder so totals are exact).
#[derive(Clone, PartialEq, Debug)]
pub struct PhasedWorkload {
    /// The workload whose spec seeds every phase.
    pub base: Workload,
    /// Ordered `(phase, weight)` schedule; weights are relative.
    pub schedule: Vec<(Phase, u32)>,
}

impl PhasedWorkload {
    /// The standard three-act schedule used by the rack-scale
    /// experiments: compute-heavy, then a sharing burst, then a diurnal
    /// shift, in equal parts.
    pub fn standard(base: Workload) -> Self {
        PhasedWorkload {
            base,
            schedule: vec![
                (Phase::ComputeHeavy, 1),
                (Phase::SharingBurst, 1),
                (Phase::Diurnal, 1),
            ],
        }
    }

    /// Splits `refs` across the schedule proportionally to weight.
    fn segment_refs(&self, refs: u64) -> Vec<u64> {
        let total: u64 = self.schedule.iter().map(|&(_, w)| w as u64).sum();
        assert!(total > 0, "phase schedule must have positive total weight");
        let mut out = Vec::with_capacity(self.schedule.len());
        let mut assigned = 0u64;
        for (i, &(_, w)) in self.schedule.iter().enumerate() {
            let n = if i + 1 == self.schedule.len() {
                refs - assigned
            } else {
                refs * w as u64 / total
            };
            assigned += n;
            out.push(n);
        }
        out
    }

    /// Builds one phased trace stream per core, mirroring
    /// [`Workload::streams`]: sets `cfg.shared_bytes` to the base
    /// footprint and returns `cfg.total_cores()` streams in flattened
    /// core order.
    pub fn streams(
        &self,
        cfg: &mut SystemConfig,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn AccessStream>> {
        let base_spec = self.base.spec();
        cfg.shared_bytes = base_spec.footprint_bytes;
        let seg_refs = self.segment_refs(params.refs_per_core);
        let mut out: Vec<Box<dyn AccessStream>> = Vec::with_capacity(cfg.total_cores());
        for host in 0..cfg.hosts {
            for core in 0..cfg.cores_per_host {
                let id = CoreId::new(HostId::new(host), core);
                let salt =
                    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + id.flat(cfg.cores_per_host) as u64);
                let segments =
                    self.schedule
                        .iter()
                        .zip(&seg_refs)
                        .map(|(&(phase, _), &refs)| {
                            // Decorrelate phases: same core, different phase
                            // index ⇒ different RNG stream, deterministically.
                            let seed = params.seed.wrapping_add(salt).wrapping_add(
                                0x517c_c1b7_2722_0a95u64.wrapping_mul(phase as u64 + 1),
                            );
                            SyntheticStream::new(phase.apply(&base_spec), cfg, id, refs, seed)
                        })
                        .collect();
                out.push(Box::new(PhasedStream {
                    segments,
                    current: 0,
                }));
            }
        }
        out
    }
}

/// Concatenation of per-phase [`SyntheticStream`] segments.
///
/// Exhausts each segment in schedule order. `Clone` is a deep fork (each
/// segment clones its RNG state), which is what checkpoint forking needs.
#[derive(Clone, Debug)]
pub struct PhasedStream {
    segments: Vec<SyntheticStream>,
    current: usize,
}

impl AccessStream for PhasedStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        while self.current < self.segments.len() {
            if let Some(r) = self.segments[self.current].next_record() {
                return Some(r);
            }
            self.current += 1;
        }
        None
    }

    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        Some(Box::new(self.clone()))
    }

    fn remaining_hint(&self) -> Option<u64> {
        let mut total = 0u64;
        for seg in &self.segments[self.current.min(self.segments.len())..] {
            total += seg.remaining_hint()?;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut dyn AccessStream) -> Vec<TraceRecord> {
        let mut v = Vec::new();
        while let Some(r) = s.next_record() {
            v.push(r);
        }
        v
    }

    #[test]
    fn phased_stream_lengths_are_exact() {
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 1001, // deliberately not divisible by 3
            seed: 9,
        };
        let mut streams = PhasedWorkload::standard(Workload::Bfs).streams(&mut cfg, &params);
        assert_eq!(streams.len(), cfg.total_cores());
        for s in &mut streams {
            assert_eq!(s.remaining_hint(), Some(1001));
            assert_eq!(drain(s.as_mut()).len(), 1001);
        }
    }

    #[test]
    fn deterministic_and_phase_sensitive() {
        let run = |seed| {
            let mut cfg = SystemConfig::default();
            let params = WorkloadParams {
                refs_per_core: 600,
                seed,
            };
            let mut streams = PhasedWorkload::standard(Workload::Pr).streams(&mut cfg, &params);
            drain(streams[0].as_mut())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn fork_preserves_position() {
        let mut cfg = SystemConfig::default();
        let params = WorkloadParams {
            refs_per_core: 900,
            seed: 3,
        };
        let mut streams = PhasedWorkload::standard(Workload::Ycsb).streams(&mut cfg, &params);
        let s = &mut streams[0];
        for _ in 0..450 {
            s.next_record().unwrap();
        }
        let mut f = s.fork().unwrap();
        assert_eq!(drain(s.as_mut()), drain(f.as_mut()));
    }

    #[test]
    fn phases_change_the_mix() {
        let base = Workload::Bfs.spec();
        let burst = Phase::SharingBurst.apply(&base);
        assert!(burst.global_hot_prob > base.global_hot_prob);
        assert!(burst.affinity < base.affinity);
        let compute = Phase::ComputeHeavy.apply(&base);
        assert!(compute.private_fraction > base.private_fraction);
        assert_eq!(Phase::Baseline.apply(&base), base);
        // Footprint is invariant across phases (shared layout must match).
        for p in [Phase::ComputeHeavy, Phase::SharingBurst, Phase::Diurnal] {
            assert_eq!(p.apply(&base).footprint_bytes, base.footprint_bytes);
        }
    }
}
