//! Simulation statistics.
//!
//! Every metric reported by the paper's figures is derived from the counters
//! here: execution cycles and their attribution (Fig. 4, 10, 12), memory
//! access class mix (Fig. 11), and migration activity/footprint
//! (Fig. 5, 13).

use crate::time::Cycle;
use std::fmt;

/// Classification of where a memory reference was ultimately served.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessClass {
    /// Hit in the private L1 data cache.
    L1Hit,
    /// Hit in the host's shared LLC.
    LlcHit,
    /// Private data served from the host's local DRAM.
    LocalPrivate,
    /// Shared (CXL-DSM) data served from the host's local DRAM thanks to
    /// migration (page-granular for the OS baselines, line-granular for
    /// PIPM/HW-static).
    LocalShared,
    /// Shared data served from CXL memory (cacheable two-hop access).
    CxlDram,
    /// Shared data forwarded from another host's cache via the device
    /// directory (coherent four-hop access; M-state forwarding).
    CxlForward,
    /// Shared data served from another host's *local memory* (four-hop
    /// access to migrated data; non-cacheable under GIM semantics for the
    /// OS baselines, coherent-and-migrating-back under PIPM).
    InterHost,
}

impl AccessClass {
    /// All classes, in reporting order.
    pub const ALL: [AccessClass; 7] = [
        AccessClass::L1Hit,
        AccessClass::LlcHit,
        AccessClass::LocalPrivate,
        AccessClass::LocalShared,
        AccessClass::CxlDram,
        AccessClass::CxlForward,
        AccessClass::InterHost,
    ];

    /// Stable index for array-backed counters.
    pub fn index(self) -> usize {
        match self {
            AccessClass::L1Hit => 0,
            AccessClass::LlcHit => 1,
            AccessClass::LocalPrivate => 2,
            AccessClass::LocalShared => 3,
            AccessClass::CxlDram => 4,
            AccessClass::CxlForward => 5,
            AccessClass::InterHost => 6,
        }
    }

    /// Short label for harness output.
    pub fn label(self) -> &'static str {
        match self {
            AccessClass::L1Hit => "l1_hit",
            AccessClass::LlcHit => "llc_hit",
            AccessClass::LocalPrivate => "local_private",
            AccessClass::LocalShared => "local_shared",
            AccessClass::CxlDram => "cxl_dram",
            AccessClass::CxlForward => "cxl_forward",
            AccessClass::InterHost => "inter_host",
        }
    }

    /// Whether this class leaves the host (crosses the CXL link).
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            AccessClass::CxlDram | AccessClass::CxlForward | AccessClass::InterHost
        )
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Statistics for one core.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CoreStats {
    /// Instructions retired (memory + non-memory) after warm-up.
    pub instructions: u64,
    /// Final core clock in cycles.
    pub cycles: Cycle,
    /// Memory references issued after warm-up.
    pub mem_refs: u64,
    /// References per [`AccessClass`].
    pub class_count: [u64; 7],
    /// Aggregate access latency per class, in cycles (for mean latency).
    pub class_latency: [u64; 7],
    /// Core stall cycles attributed to each class (ROB-full waits on the
    /// oldest outstanding reference of that class).
    pub class_stall: [u64; 7],
    /// Stall cycles charged for kernel migration management (page-table
    /// updates, TLB shootdowns, CXL RPCs).
    pub mgmt_stall: Cycle,
    /// Stall cycles attributable to migration page-transfer traffic queueing
    /// ahead of demand accesses on shared links/DRAM.
    pub transfer_stall: Cycle,
}

impl CoreStats {
    /// Records a completed memory reference.
    pub fn record_access(&mut self, class: AccessClass, latency: Cycle) {
        self.mem_refs += 1;
        self.class_count[class.index()] += 1;
        self.class_latency[class.index()] += latency;
    }

    /// Records stall cycles caused by a reference of `class`.
    pub fn record_stall(&mut self, class: AccessClass, cycles: Cycle) {
        self.class_stall[class.index()] += cycles;
    }

    /// Instructions per cycle for this core.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mean latency observed for `class`, in cycles.
    pub fn mean_latency(&self, class: AccessClass) -> f64 {
        let n = self.class_count[class.index()];
        if n == 0 {
            0.0
        } else {
            self.class_latency[class.index()] as f64 / n as f64
        }
    }
}

/// Migration mechanism statistics.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MigrationStats {
    /// Pages promoted into some host's local memory (OS schemes), or pages
    /// for which partial migration was *initiated* (PIPM).
    pub pages_promoted: u64,
    /// Pages demoted back to CXL memory (OS schemes) or revoked (PIPM).
    pub pages_demoted: u64,
    /// PIPM: individual cache lines incrementally migrated into local DRAM.
    pub lines_migrated_in: u64,
    /// PIPM: individual cache lines migrated back to CXL memory on
    /// inter-host access or revocation.
    pub lines_migrated_back: u64,
    /// Bytes of migration payload moved over the CXL links.
    pub transfer_bytes: u64,
    /// Promotions judged harmful post-hoc (the paper's Fig. 5 metric): the
    /// estimated inter-host penalty plus migration cost exceeded the local
    /// access benefit over the page's residency.
    pub harmful_promotions: u64,
    /// Promotions whose benefit/harm has been fully evaluated (residency
    /// ended or simulation finished).
    pub evaluated_promotions: u64,
    /// Peak number of shared pages resident in each host's local memory
    /// (page-granularity footprint; `PIPM-page` in Fig. 13).
    pub peak_resident_pages: Vec<u64>,
    /// Peak number of shared *lines* resident per host (PIPM's `PIPM-line`
    /// footprint in Fig. 13; for OS schemes this is pages × 64).
    pub peak_resident_lines: Vec<u64>,
}

impl MigrationStats {
    /// Fraction of evaluated promotions that were harmful.
    pub fn harmful_fraction(&self) -> f64 {
        if self.evaluated_promotions == 0 {
            0.0
        } else {
            self.harmful_promotions as f64 / self.evaluated_promotions as f64
        }
    }
}

/// Rack-scale fabric statistics: how traffic distributed over the
/// topology's switches and devices. Zero-valued (single device, no hops
/// beyond the direct links) under the legacy shape.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FabricStats {
    /// Messages that traversed a switch (one count per traversal, either
    /// direction).
    pub switch_hops: u64,
    /// Messages delivered over each device's links (demand + migration),
    /// indexed by device.
    pub device_messages: Vec<u64>,
    /// Bytes carried over each device's links, indexed by device.
    pub device_bytes: Vec<u64>,
}

/// Whole-system statistics for a simulation run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SystemStats {
    /// Per-core statistics, indexed by flattened core ID.
    pub cores: Vec<CoreStats>,
    /// Migration statistics.
    pub migration: MigrationStats,
    /// Fabric topology statistics (switch hops, per-device traffic).
    pub fabric: FabricStats,
    /// Remapping structure statistics (PIPM): cache hits/misses.
    pub local_remap_hits: u64,
    /// Local remapping cache misses (each costs a local DRAM table walk).
    pub local_remap_misses: u64,
    /// Global remapping cache hits on the CXL device.
    pub global_remap_hits: u64,
    /// Global remapping cache misses (each costs a CXL DRAM table read).
    pub global_remap_misses: u64,
    /// Device coherence directory entry recalls due to capacity.
    pub directory_recalls: u64,
}

impl SystemStats {
    /// Creates statistics storage for `cores` cores and `hosts` hosts.
    pub fn new(cores: usize, hosts: usize) -> Self {
        SystemStats {
            cores: vec![CoreStats::default(); cores],
            migration: MigrationStats {
                peak_resident_pages: vec![0; hosts],
                peak_resident_lines: vec![0; hosts],
                ..MigrationStats::default()
            },
            ..SystemStats::default()
        }
    }

    /// Execution time of the run: the maximum core clock.
    pub fn exec_cycles(&self) -> Cycle {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Total instructions retired across cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate IPC (total instructions / execution time / cores).
    pub fn aggregate_ipc(&self) -> f64 {
        let t = self.exec_cycles();
        if t == 0 || self.cores.is_empty() {
            0.0
        } else {
            self.total_instructions() as f64 / t as f64 / self.cores.len() as f64
        }
    }

    /// Total references in class `c` across cores.
    pub fn class_total(&self, c: AccessClass) -> u64 {
        self.cores.iter().map(|s| s.class_count[c.index()]).sum()
    }

    /// The paper's Fig. 11 metric: fraction of shared-data LLC misses served
    /// from the accessing host's local memory (misses go to CXL memory or
    /// another host's memory).
    pub fn local_hit_rate(&self) -> f64 {
        let local = self.class_total(AccessClass::LocalShared);
        let remote = self.class_total(AccessClass::CxlDram)
            + self.class_total(AccessClass::CxlForward)
            + self.class_total(AccessClass::InterHost);
        let total = local + remote;
        if total == 0 {
            0.0
        } else {
            local as f64 / total as f64
        }
    }

    /// The paper's Fig. 12 metric: stall cycles caused by inter-host memory
    /// accesses, as a fraction of `reference_cycles` (normally the *Native*
    /// run's execution time).
    pub fn interhost_stall_fraction(&self, reference_cycles: Cycle) -> f64 {
        if reference_cycles == 0 {
            return 0.0;
        }
        let stall: u64 = self
            .cores
            .iter()
            .map(|c| c.class_stall[AccessClass::InterHost.index()])
            .sum();
        stall as f64 / (reference_cycles as f64 * self.cores.len() as f64)
    }

    /// Total migration-management stall cycles across cores.
    pub fn total_mgmt_stall(&self) -> Cycle {
        self.cores.iter().map(|c| c.mgmt_stall).sum()
    }

    /// Total transfer-attributed stall cycles across cores.
    pub fn total_transfer_stall(&self) -> Cycle {
        self.cores.iter().map(|c| c.transfer_stall).sum()
    }

    /// Mean peak per-host resident page fraction relative to the footprint
    /// (`total_pages`): the paper's Fig. 13 metric.
    pub fn footprint_page_fraction(&self, total_pages: u64) -> f64 {
        if total_pages == 0 || self.migration.peak_resident_pages.is_empty() {
            return 0.0;
        }
        let mean: f64 = self
            .migration
            .peak_resident_pages
            .iter()
            .map(|&p| p as f64)
            .sum::<f64>()
            / self.migration.peak_resident_pages.len() as f64;
        mean / total_pages as f64
    }

    /// Mean peak per-host resident *line* fraction relative to the footprint
    /// (Fig. 13 `PIPM-line`).
    pub fn footprint_line_fraction(&self, total_pages: u64) -> f64 {
        let total_lines = total_pages * crate::LINES_PER_PAGE;
        if total_lines == 0 || self.migration.peak_resident_lines.is_empty() {
            return 0.0;
        }
        let mean: f64 = self
            .migration
            .peak_resident_lines
            .iter()
            .map(|&p| p as f64)
            .sum::<f64>()
            / self.migration.peak_resident_lines.len() as f64;
        mean / total_lines as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_class_indices_are_dense_and_unique() {
        let mut seen = [false; 7];
        for c in AccessClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn core_stats_accumulate() {
        let mut s = CoreStats::default();
        s.record_access(AccessClass::CxlDram, 800);
        s.record_access(AccessClass::CxlDram, 1000);
        s.record_access(AccessClass::L1Hit, 4);
        assert_eq!(s.mem_refs, 3);
        assert_eq!(s.class_count[AccessClass::CxlDram.index()], 2);
        assert!((s.mean_latency(AccessClass::CxlDram) - 900.0).abs() < 1e-9);
        s.instructions = 100;
        s.cycles = 50;
        assert!((s.ipc() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn local_hit_rate() {
        let mut sys = SystemStats::new(1, 1);
        sys.cores[0].record_access(AccessClass::LocalShared, 60);
        sys.cores[0].record_access(AccessClass::CxlDram, 800);
        sys.cores[0].record_access(AccessClass::InterHost, 1200);
        sys.cores[0].record_access(AccessClass::LocalPrivate, 60); // excluded
        assert!((sys.local_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn exec_is_max_core_clock() {
        let mut sys = SystemStats::new(2, 1);
        sys.cores[0].cycles = 10;
        sys.cores[1].cycles = 42;
        assert_eq!(sys.exec_cycles(), 42);
    }

    #[test]
    fn harmful_fraction_guards_zero() {
        let m = MigrationStats::default();
        assert_eq!(m.harmful_fraction(), 0.0);
    }

    #[test]
    fn footprint_fractions() {
        let mut sys = SystemStats::new(1, 2);
        sys.migration.peak_resident_pages = vec![100, 50];
        sys.migration.peak_resident_lines = vec![640, 320];
        assert!((sys.footprint_page_fraction(1000) - 0.075).abs() < 1e-9);
        assert!((sys.footprint_line_fraction(1000) - 480.0 / 64000.0).abs() < 1e-9);
    }
}
