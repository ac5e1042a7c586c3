//! The synthetic trace stream driven by a workload [`Spec`].

use crate::spec::Spec;
use crate::zipf::Zipfian;
use pipm_cpu::{AccessStream, TraceRecord};
use pipm_types::{Addr, CoreId, SystemConfig, LINE_SIZE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scatters an index across a domain (splitmix64 finalizer). Used to place
/// globally hot items and zipf-hot keys on lines spread over the whole
/// address space rather than packed together, as real hot vertices and hot
/// database records are.
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic per-core trace generator. See the crate docs for the
/// modelled behaviours; construction parameters come from a [`Spec`].
#[derive(Clone, Debug)]
pub struct SyntheticStream {
    spec: Spec,
    rng: SmallRng,
    remaining: u64,
    generated: u64,
    // Address-space geometry (in lines).
    total_lines: u64,
    part_base: u64,
    part_lines: u64,
    hot_lines: u64,
    global_hot_lines: u64,
    // Run state for partition accesses.
    run_line: u64,
    run_left: u32,
    scan_ptr: u64,
    // Phase state.
    phase: u64,
    // Same-line repeat state (word-granular access within a line).
    repeat_left: u32,
    last_addr: Addr,
    // Zipf sampler for database-style workloads (records within the
    // host's partition).
    zipf_part: Option<Zipfian>,
    // Private region.
    private_base: Addr,
}

impl SyntheticStream {
    /// Creates the stream for core `id`, producing `refs` records.
    ///
    /// # Panics
    ///
    /// Panics if the spec footprint is smaller than one page per host.
    pub fn new(spec: Spec, cfg: &SystemConfig, id: CoreId, refs: u64, seed: u64) -> Self {
        let total_lines = spec.footprint_bytes / LINE_SIZE;
        let part_lines = total_lines / cfg.hosts as u64;
        assert!(part_lines >= 64, "footprint too small for host count");
        let part_base = id.host.index() as u64 * part_lines;
        let hot_lines = ((part_lines as f64 * spec.hot_fraction) as u64).max(64);
        let global_hot_lines = (spec.global_hot_bytes / LINE_SIZE).clamp(64, total_lines);
        let mut rng = SmallRng::seed_from_u64(seed);
        let scan_ptr = part_base + rng.gen_range(0..part_lines);
        // Database workloads: zipf skew over a bounded hot record set
        // (35% of the partition, scattered across it), with a uniform cold
        // tail; `hot_fraction` sizes the separate index working set.
        let zipf_domain = ((part_lines as f64 * 0.35) as u64).max(1024);
        let zipf_part = spec.zipf_theta.map(|t| Zipfian::new(zipf_domain, t));
        // 16 MB private window per core inside the host's private region.
        let private_base = Addr::private(id.host, (id.core as u64) << 24, cfg);
        SyntheticStream {
            spec,
            rng,
            remaining: refs,
            generated: 0,
            total_lines,
            part_base,
            part_lines,
            hot_lines,
            global_hot_lines,
            run_line: part_base,
            run_left: 0,
            scan_ptr,
            phase: 0,
            repeat_left: 0,
            last_addr: Addr::new(0),
            zipf_part,
            private_base,
        }
    }

    fn hot_window_offset(&self) -> u64 {
        // The hot window drifts each phase (golden-ratio stride) to give
        // recency/frequency policies real temporal dynamics.
        let span = self.part_lines.saturating_sub(self.hot_lines).max(1);
        (self.phase.wrapping_mul(0x9e37_79b9) ^ (self.phase >> 3)) % span
    }

    fn scan_window(&self) -> (u64, u64) {
        // The streaming scan sweeps a bounded per-phase working set (the
        // kernel's sequential arrays), placed with a different stride than
        // the hot window.
        let lines =
            ((self.part_lines as f64 * self.spec.scan_fraction) as u64).clamp(64, self.part_lines);
        let span = self.part_lines.saturating_sub(lines).max(1);
        let off = (self.phase.wrapping_mul(0x6a09_e667).wrapping_add(0x1_2345) ^ (self.phase >> 2))
            % span;
        (self.part_base + off, lines)
    }

    fn private_addr(&mut self) -> Addr {
        // 85% of private references hit a small stack-like window; the rest
        // roam the full private working set.
        let off = if self.rng.gen::<f64>() < 0.85 {
            self.rng.gen_range(0..(16u64 << 10))
        } else {
            self.rng.gen_range(0..self.spec.private_bytes)
        };
        Addr::new(self.private_base.raw() + (off & !(LINE_SIZE - 1)))
    }

    fn global_hot_line(&mut self) -> u64 {
        let k = self.rng.gen_range(0..self.global_hot_lines);
        scramble(k) % self.total_lines
    }

    fn partition_line(&mut self) -> u64 {
        if self.zipf_part.is_some() && self.rng.gen::<f64>() >= self.spec.index_prob {
            // Database record access: zipf-hot records scattered within the
            // partition, with short runs for record-sized accesses and a
            // uniform cold tail (`1 - hot_prob` of draws).
            if self.run_left > 0 {
                self.run_left -= 1;
                self.run_line = self.advance_within_partition(self.run_line);
                return self.run_line;
            }
            let Some(z) = self.zipf_part.as_ref() else {
                unreachable!("guarded by the is_some() above");
            };
            let line = if self.rng.gen::<f64>() < self.spec.hot_prob {
                let rank = z.sample(&mut self.rng);
                self.part_base + scramble(rank) % self.part_lines
            } else {
                self.part_base + self.rng.gen_range(0..self.part_lines)
            };
            self.run_left = self.spec.run_lines.saturating_sub(1);
            self.run_line = line;
            return line;
        }
        // Index / array working-set access (all non-zipf workloads, and the
        // index share of database workloads).
        // Graph/HPC: sequential runs starting either in the hot window or
        // at the streaming scan pointer.
        if self.run_left > 0 {
            self.run_left -= 1;
            self.run_line = self.advance_within_partition(self.run_line);
            return self.run_line;
        }
        let start = if self.rng.gen::<f64>() < self.spec.hot_prob {
            // Uniform pick within the hot window: reuse distance is the
            // window size, which the specs set beyond one host's LLC so
            // that reuse is exposed to the memory system, not absorbed by
            // the cache.
            let off = self.hot_window_offset();
            self.part_base + off + self.rng.gen_range(0..self.hot_lines)
        } else {
            let (base, lines) = self.scan_window();
            // Wrap the scan pointer inside the current scan window.
            let next = if self.scan_ptr < base || self.scan_ptr + 1 >= base + lines {
                base
            } else {
                self.scan_ptr + 1
            };
            self.scan_ptr = next;
            next
        };
        // Geometric-ish run length around the mean.
        let mean = self.spec.run_lines.max(1);
        self.run_left = self.rng.gen_range(0..=2 * mean).saturating_sub(1);
        self.run_line = start;
        start
    }

    fn advance_within_partition(&self, line: u64) -> u64 {
        let next = line + 1;
        if next >= self.part_base + self.part_lines {
            self.part_base
        } else {
            next
        }
    }

    fn uniform_line(&mut self) -> u64 {
        // Cross-partition traffic is uniform even for the database
        // workloads (scans and secondary lookups); zipf skew applies within
        // the accessing host's own partition.
        self.rng.gen_range(0..self.total_lines)
    }

    /// Total records produced so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

impl AccessStream for SyntheticStream {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.generated += 1;
        if self.spec.phase_refs > 0 && self.generated.is_multiple_of(self.spec.phase_refs) {
            self.phase += 1;
        }

        let nonmem = self.rng.gen_range(0..=2 * self.spec.nonmem_mean);
        let is_write = self.rng.gen::<f64>() < self.spec.write_fraction;

        // Word-granular reuse: revisit the previous line a few times, as
        // real code does when walking fields/elements within 64 bytes.
        if self.repeat_left > 0 {
            self.repeat_left -= 1;
            return Some(TraceRecord {
                nonmem,
                is_write,
                addr: self.last_addr,
            });
        }

        let draw: f64 = self.rng.gen();
        let addr = if draw < self.spec.private_fraction {
            self.private_addr()
        } else if is_write && self.rng.gen::<f64>() < self.spec.write_affinity {
            // Stores overwhelmingly target the host's own partition.
            Addr::new(self.partition_line() * LINE_SIZE)
        } else {
            let shared_draw: f64 = self.rng.gen();
            let line = if shared_draw < self.spec.global_hot_prob {
                self.global_hot_line()
            } else if shared_draw < self.spec.global_hot_prob + self.spec.affinity {
                self.partition_line()
            } else {
                self.uniform_line()
            };
            Addr::new(line * LINE_SIZE)
        };

        let reps = self.spec.line_repeats.max(1);
        self.repeat_left = self.rng.gen_range(0..2 * reps);
        self.last_addr = addr;
        Some(TraceRecord {
            nonmem,
            is_write,
            addr,
        })
    }

    fn fork(&self) -> Option<Box<dyn AccessStream>> {
        Some(Box::new(self.clone()))
    }

    fn remaining_hint(&self) -> Option<u64> {
        // Exact: the stream produces precisely `remaining` more records;
        // this clamps warm-up windows to what the trace can deliver.
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use pipm_types::HostId;

    fn stream(w: Workload, refs: u64, seed: u64) -> SyntheticStream {
        let cfg = SystemConfig::default();
        SyntheticStream::new(w.spec(), &cfg, CoreId::new(HostId::new(1), 2), refs, seed)
    }

    #[test]
    fn produces_exact_count() {
        let mut s = stream(Workload::Cc, 500, 1);
        let mut n = 0;
        while s.next_record().is_some() {
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn batched_fill_matches_scalar_bit_for_bit() {
        // The batched fill must consume the RNG in exactly the scalar
        // order: any batch size, including sizes that straddle phase
        // boundaries and end-of-trace, yields the identical record
        // sequence.
        for w in [Workload::Cc, Workload::Ycsb] {
            let mut scalar = stream(w, 1000, 9);
            let mut expect = Vec::new();
            while let Some(r) = scalar.next_record() {
                expect.push(r);
            }
            for batch in [1usize, 8, 64, 333] {
                let mut s = stream(w, 1000, 9);
                let mut got = Vec::new();
                let mut buf = Vec::new();
                loop {
                    let n = s.fill_batch(&mut buf, batch);
                    got.extend_from_slice(&buf[..n]);
                    if n < batch {
                        break;
                    }
                }
                assert_eq!(got, expect, "{w:?} batch {batch}");
            }
        }
    }

    #[test]
    fn scramble_is_a_permutation_prefix() {
        // No collisions among a modest prefix (splitmix64 is a bijection).
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(scramble(i)));
        }
    }

    #[test]
    fn hot_window_rotates_with_phase() {
        let mut s = stream(Workload::Pr, 10, 1);
        let w0 = s.hot_window_offset();
        s.phase = 5;
        let w5 = s.hot_window_offset();
        assert_ne!(w0, w5);
    }

    #[test]
    fn partition_lines_stay_in_partition() {
        let mut s = stream(Workload::Pr, 10, 3);
        for _ in 0..10_000 {
            let l = s.partition_line();
            assert!(l >= s.part_base && l < s.part_base + s.part_lines);
        }
    }

    #[test]
    fn global_hot_is_a_small_recurring_set() {
        let mut s = stream(Workload::Bfs, 10, 4);
        let mut set = std::collections::HashSet::new();
        for _ in 0..20_000 {
            set.insert(s.global_hot_line());
        }
        assert!(set.len() as u64 <= s.global_hot_lines);
    }

    #[test]
    fn zipf_workloads_concentrate_accesses() {
        let mut s = stream(Workload::Ycsb, 10, 5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(s.partition_line()).or_insert(0u64) += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf record draws plus the index working set concentrate a clear
        // head; uniform traffic over the same volume would give the top
        // 1000 lines ≈ 1000/196608 ≈ 0.5% of accesses.
        let top1000: u64 = v.iter().take(1000).sum();
        let total: u64 = v.iter().sum();
        assert!(
            top1000 as f64 / total as f64 > 0.10,
            "zipf+index head too light: {top1000}/{total}"
        );
    }
}
