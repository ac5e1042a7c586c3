//! The multi-host CXL-DSM system simulator.
//!
//! Ties together every substrate: per-core ROB timing models
//! (`pipm-cpu`), L1/LLC caches (`pipm-cache`), local and CXL DRAM
//! (`pipm-mem`), the CXL fabric (`pipm-fabric`), the device coherence
//! directory (`pipm-coherence`), the PIPM remapping structures
//! ([`crate::remap`]), and the baseline migration schemes
//! (`pipm-baselines`).
//!
//! One [`System`] simulates one scheme on one workload. Cores are advanced
//! in global-clock order (min-heap), so interactions on shared state occur
//! in near-global time order and runs are fully deterministic.

use crate::harm::HarmTracker;
use crate::oracle::Oracle;
use crate::remap::{GlobalRemap, LocalRemap};
use pipm_baselines::{
    HememPolicy, HotnessPolicy, HwStaticMap, MemtisPolicy, NomadPolicy, OsSkewPolicy,
};
use pipm_cache::SetAssoc;
use pipm_coherence::{DevState, DeviceDirectory, Recall};
use pipm_cpu::{AccessStream, CoreModel, TraceRecord};
use pipm_fabric::{Dir, Topology};
use pipm_mem::Dram;
use pipm_types::{
    AccessClass, Addr, Cycle, FxHashMap, HostId, LineAddr, PageNum, PageTable, SchemeKind,
    SystemConfig, SystemStats, LINES_PER_PAGE, PAGE_SIZE,
};

/// Coherence state of a line in a host's LLC (the local coherence
/// directory view; L1 copies are tracked separately as inclusive subsets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LState {
    /// Shared, clean (CXL coherence domain).
    S,
    /// Exclusive, clean.
    E,
    /// Modified (dirty flag is implied but also tracked for L1 folds).
    M,
    /// Migrated-exclusive (PIPM ME): backed by local DRAM.
    Me,
}

#[derive(Clone, Copy, Debug)]
struct LlcMeta {
    state: LState,
    dirty: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct L1Meta {
    dirty: bool,
}

/// Per-host hardware state.
#[derive(Clone)]
struct Host {
    l1: Vec<SetAssoc<LineAddr, L1Meta>>,
    llc: SetAssoc<LineAddr, LlcMeta>,
    dram: Dram,
    /// PIPM / HW-static local remapping table (unused by other schemes).
    remap: LocalRemap,
    /// Kernel schemes: pages currently resident in this host's local DRAM.
    resident_pages: u64,
    peak_resident_pages: u64,
}

/// State specific to the active scheme.
#[derive(Clone)]
enum SchemeState {
    /// Native CXL-DSM: no migration.
    Native,
    /// Local-only upper bound: every access is host-local.
    Ideal,
    /// Kernel page migration driven by a hotness policy. Boxed so the
    /// enum stays pointer-sized: the empty variant is swapped in and out
    /// around scheme dispatch on the shared-miss hot path, and moving a
    /// large inline payload twice per miss is measurable.
    Kernel(Box<KernelState>),
    /// PIPM or HW-static: incremental line migration via PIPM coherence.
    /// Boxed for the same reason as [`SchemeState::Kernel`].
    PipmLike {
        global: Box<GlobalRemap>,
        static_map: Option<HwStaticMap>,
    },
}

#[derive(Clone)]
struct KernelState {
    policy: Box<dyn HotnessPolicy>,
    next_interval: Cycle,
    harm: HarmTracker,
    /// Initiator-cost multiplier (<1 for Nomad's asynchronous migration).
    init_mult: f64,
    /// Token bucket granting migration bandwidth (pages) per interval.
    tokens: f64,
}

/// The full-system simulator for one (scheme, workload) run.
///
/// # Example
///
/// ```
/// use pipm_core::System;
/// use pipm_types::{SchemeKind, SystemConfig};
/// use pipm_workloads::{Workload, WorkloadParams};
///
/// let mut cfg = SystemConfig::default();
/// let params = WorkloadParams { refs_per_core: 5_000, seed: 1 };
/// let streams = Workload::Bfs.streams(&mut cfg, &params);
/// let mut sys = System::new(cfg, SchemeKind::Pipm);
/// let stats = sys.run(streams, params.refs_per_core);
/// assert!(stats.exec_cycles() > 0);
/// ```
///
/// `Clone` deep-copies the entire simulator — every cache, DRAM queue,
/// directory, remapping structure, and policy — which is what lets a
/// [`Checkpoint`] fork one warmed prefix into many parameter points.
#[derive(Clone)]
pub struct System {
    cfg: SystemConfig,
    kind: SchemeKind,
    cores: Vec<CoreModel>,
    hosts: Vec<Host>,
    fabric: Topology,
    /// One DRAM model per CXL device in the topology (index = device id).
    cxl_dram: Vec<Dram>,
    devdir: DeviceDirectory,
    scheme: SchemeState,
    stats: SystemStats,
    processed: u64,
    warmup_refs: u64,
    warmed: bool,
    warmup_clock: Vec<Cycle>,
    warmup_instr: Vec<u64>,
    /// Kernel schemes: current location of migrated pages (`None` = CXL).
    /// Dense: shared pages are contiguous from page zero.
    page_location: PageTable<HostId>,
    /// Reusable per-host promotion-count scratch, so the kernel outcome
    /// path allocates nothing per interval.
    promo_scratch: Vec<u64>,
    /// Application-supplied placement hints (paper §6), PIPM only.
    hints: crate::MigrationHints,
    /// Differential correctness oracle (harness mode only; `None` in
    /// ordinary runs — zero overhead, zero behavioural impact).
    oracle: Option<Oracle>,
    /// Inline invariant sweeps performed so far.
    invariant_epochs: u64,
    /// Invariant failures recorded in harness mode (capped).
    invariant_failures: Vec<String>,
}

/// Whether inline invariant sweeps are compiled in: always in debug
/// builds, and in release builds only with the `check-invariants` feature
/// (the fuzz-smoke CI job). Release figure runs keep this off.
const INLINE_CHECKS: bool = cfg!(any(debug_assertions, feature = "check-invariants"));

/// Processed-reference interval between inline invariant sweeps. Epoch
/// boundaries fall between references, so every structure is quiescent.
const INVARIANT_EPOCH: u64 = 16_384;

/// Outcome of one harness-mode run: everything the differential harness
/// observed. Clean means the simulator never served a stale version and
/// never violated a structural invariant.
#[derive(Clone, Debug, Default)]
pub struct HarnessReport {
    /// Data-value checks the oracle performed.
    pub oracle_checks: u64,
    /// Oracle violations (stale versions served), rendered as text.
    pub oracle_violations: Vec<String>,
    /// Inline invariant sweeps performed.
    pub invariant_epochs: u64,
    /// Invariant failures, rendered as text.
    pub invariant_failures: Vec<String>,
}

impl HarnessReport {
    /// No violations of any kind.
    pub fn is_clean(&self) -> bool {
        self.oracle_violations.is_empty() && self.invariant_failures.is_empty()
    }
}

/// Base offset used for remapping-table walk addresses so table traffic
/// occupies DRAM without aliasing workload rows.
const TABLE_WALK_BASE: u64 = 1 << 44;

/// Bytes of a data-carrying CXL message: 64 B payload + 16 B header.
const DATA_MSG: u64 = 80;

impl System {
    /// Builds a system for `scheme` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: SystemConfig, scheme: SchemeKind) -> Self {
        cfg.validate().expect("invalid system configuration");
        let capacity_pages = (cfg.local_capacity_bytes / PAGE_SIZE) as usize;
        let budget = 0; // replaced per interval by the token bucket
        let threshold = cfg.pipm.migration_threshold;
        let hosts: Vec<Host> = (0..cfg.hosts)
            .map(|_| Host {
                l1: (0..cfg.cores_per_host)
                    .map(|_| SetAssoc::new(cfg.l1d.sets(), cfg.l1d.ways))
                    .collect(),
                llc: {
                    let bytes = cfg.host_llc_bytes();
                    let lines = (bytes / 64) as usize;
                    SetAssoc::new(lines / cfg.llc_per_core.ways, cfg.llc_per_core.ways)
                },
                dram: Dram::new(&cfg.local_dram),
                remap: LocalRemap::new(&cfg.pipm, capacity_pages),
                resident_pages: 0,
                peak_resident_pages: 0,
            })
            .collect();
        let scheme_state = match scheme {
            SchemeKind::Native => SchemeState::Native,
            SchemeKind::LocalOnly => SchemeState::Ideal,
            SchemeKind::Pipm => SchemeState::PipmLike {
                global: Box::new(GlobalRemap::new(&cfg.pipm)),
                static_map: None,
            },
            SchemeKind::HwStatic => SchemeState::PipmLike {
                global: Box::new(GlobalRemap::new(&cfg.pipm)),
                static_map: Some(HwStaticMap::new(cfg.hosts)),
            },
            kernel => {
                let policy: Box<dyn HotnessPolicy> = match kernel {
                    SchemeKind::Nomad => {
                        Box::new(NomadPolicy::new(cfg.hosts, capacity_pages, budget))
                    }
                    SchemeKind::Memtis => {
                        Box::new(MemtisPolicy::new(cfg.hosts, capacity_pages, budget))
                    }
                    SchemeKind::Hemem => Box::new(
                        HememPolicy::new(cfg.hosts, capacity_pages, HememPolicy::DEFAULT_THRESHOLD)
                            .with_budget(budget),
                    ),
                    SchemeKind::OsSkew => Box::new(OsSkewPolicy::new(
                        cfg.hosts,
                        capacity_pages,
                        threshold,
                        budget,
                    )),
                    other => unreachable!("{other:?} handled above"),
                };
                let init_mult = if kernel == SchemeKind::Nomad {
                    0.5
                } else {
                    1.0
                };
                SchemeState::Kernel(Box::new(KernelState {
                    policy,
                    next_interval: cfg.migration_interval_cycles,
                    harm: HarmTracker::new(&cfg),
                    init_mult,
                    tokens: 0.0,
                }))
            }
        };
        let total_cores = cfg.total_cores();
        System {
            cores: (0..total_cores)
                .map(|_| CoreModel::new(&cfg.core))
                .collect(),
            hosts,
            fabric: Topology::new(&cfg),
            cxl_dram: (0..cfg.topology.device_count())
                .map(|_| Dram::new(&cfg.cxl_dram))
                .collect(),
            devdir: DeviceDirectory::new(&cfg.directory),
            scheme: scheme_state,
            stats: SystemStats::new(total_cores, cfg.hosts),
            processed: 0,
            warmup_refs: 0,
            warmed: false,
            warmup_clock: vec![0; total_cores],
            warmup_instr: vec![0; total_cores],
            page_location: PageTable::new(),
            promo_scratch: Vec::new(),
            hints: crate::MigrationHints::new(),
            oracle: None,
            invariant_epochs: 0,
            invariant_failures: Vec::new(),
            kind: scheme,
            cfg,
        }
    }

    /// Enables harness mode: a functional reference oracle shadows every
    /// access, and inline invariant sweeps record failures into the
    /// [`HarnessReport`] instead of panicking. The oracle is pure
    /// bookkeeping and never changes timing or statistics.
    pub fn enable_oracle(&mut self) {
        let replicated = matches!(self.kind, SchemeKind::LocalOnly);
        self.oracle = Some(Oracle::new(self.cfg.hosts, replicated, &self.cfg));
    }

    /// The harness observations so far (meaningful after `run` in harness
    /// mode; empty-but-clean otherwise).
    pub fn harness_report(&self) -> HarnessReport {
        let (oracle_checks, oracle_violations) = match &self.oracle {
            Some(o) => (
                o.checks(),
                o.violations().iter().map(|v| v.to_string()).collect(),
            ),
            None => (0, Vec::new()),
        };
        HarnessReport {
            oracle_checks,
            oracle_violations,
            invariant_epochs: self.invariant_epochs,
            invariant_failures: self.invariant_failures.clone(),
        }
    }

    /// The scheme being simulated.
    pub fn scheme(&self) -> SchemeKind {
        self.kind
    }

    /// Installs application placement hints (paper §6). Effective for the
    /// PIPM scheme only; advisory — hints never affect correctness.
    pub fn set_hints(&mut self, hints: crate::MigrationHints) {
        self.hints = hints;
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Validates the cross-structure coherence invariants the simulator
    /// must maintain: the device directory, LLC states, and PIPM remapping
    /// bits always agree. Used by integration tests and (in debug builds)
    /// at the end of every run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<(), String> {
        // Device directory entries must match cache states.
        for (line, state) in self.devdir.iter() {
            match state {
                DevState::Modified(owner) => {
                    let meta = self.hosts[owner.index()].llc.peek(line);
                    match meta {
                        Some(m) if matches!(m.state, LState::M | LState::E) => {}
                        other => {
                            return Err(format!(
                                "devdir M({owner}) for {line} but owner LLC has {other:?}"
                            ))
                        }
                    }
                }
                DevState::Shared(set) => {
                    for h in set.iter() {
                        match self.hosts[h.index()].llc.peek(line) {
                            Some(m) if m.state == LState::S => {}
                            other => {
                                return Err(format!(
                                    "devdir S sharer {h} for {line} but LLC has {other:?}"
                                ))
                            }
                        }
                    }
                }
            }
        }
        // ME lines require a local remapping entry with the bit set and no
        // device directory entry.
        for (hi, host) in self.hosts.iter().enumerate() {
            for (line, meta) in host.llc.iter() {
                if meta.state == LState::Me {
                    let page = line.page();
                    let idx = line.index_within_page();
                    let e = host
                        .remap
                        .entry(page)
                        .ok_or_else(|| format!("H{hi}: ME line {line} without remap entry"))?;
                    if !e.line_migrated(idx) {
                        return Err(format!("H{hi}: ME line {line} without in-memory bit"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The full inline invariant sweep: [`Self::check_consistency`] plus
    /// SWMR, L1⊆LLC inclusion, reverse directory agreement, and
    /// remap-table ↔ in-memory-bit ↔ migration-state consistency. All
    /// checks are read-only (no LRU or statistics perturbation), so
    /// running them cannot change simulation results.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants_deep(&self) -> Result<(), String> {
        self.check_consistency()?;
        self.check_inclusion()?;
        self.check_swmr()?;
        self.check_reverse_directory()?;
        self.check_remap_agreement()?;
        Ok(())
    }

    /// L1s are inclusive subsets of their host's LLC.
    fn check_inclusion(&self) -> Result<(), String> {
        for (hi, host) in self.hosts.iter().enumerate() {
            for (li, l1) in host.l1.iter().enumerate() {
                for (line, _) in l1.iter() {
                    if host.llc.peek(*line).is_none() {
                        return Err(format!("H{hi}: L1[{li}] holds {line} absent from LLC"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Single-writer-multiple-reader over shared lines: at most one host
    /// may hold a line exclusively (E/M/ME), and an exclusive holder
    /// excludes every other copy. `LocalOnly` replicates the shared region
    /// per host by design and is exempt.
    fn check_swmr(&self) -> Result<(), String> {
        if matches!(self.kind, SchemeKind::LocalOnly) {
            return Ok(());
        }
        // line -> (exclusive holders, total holders, an exclusive host).
        let mut holders: FxHashMap<LineAddr, (usize, usize, usize)> = FxHashMap::default();
        for (hi, host) in self.hosts.iter().enumerate() {
            for (line, meta) in host.llc.iter() {
                if !line.is_shared(&self.cfg) {
                    continue;
                }
                let e = holders.entry(*line).or_insert((0, 0, usize::MAX));
                e.1 += 1;
                if matches!(meta.state, LState::E | LState::M | LState::Me) {
                    e.0 += 1;
                    e.2 = hi;
                }
            }
        }
        for (line, (excl, total, eh)) in holders {
            if excl > 1 {
                return Err(format!("SWMR: {line} held exclusively by {excl} hosts"));
            }
            if excl == 1 && total > 1 {
                return Err(format!(
                    "SWMR: {line} exclusive at H{eh} but cached by {total} hosts"
                ));
            }
        }
        Ok(())
    }

    /// Reverse direction of the directory check: every cached S/E/M shared
    /// line must have a matching device directory entry. ME lines live
    /// outside the CXL coherence domain, kernel-resident pages are local
    /// at their owner, and `LocalOnly` has no directory at all.
    fn check_reverse_directory(&self) -> Result<(), String> {
        if matches!(self.kind, SchemeKind::LocalOnly) {
            return Ok(());
        }
        for (hi, host) in self.hosts.iter().enumerate() {
            let h = HostId::new(hi);
            for (line, meta) in host.llc.iter() {
                if !line.is_shared(&self.cfg) || meta.state == LState::Me {
                    continue;
                }
                if self.kind.uses_kernel_migration()
                    && self.page_location.get(line.page()) == Some(&h)
                {
                    continue;
                }
                match (meta.state, self.devdir.peek(*line)) {
                    (LState::S, Some(DevState::Shared(set))) if set.contains(h) => {}
                    (LState::E | LState::M, Some(DevState::Modified(o))) if o == h => {}
                    (st, d) => {
                        return Err(format!(
                            "H{hi}: {line} cached {st:?} but device directory has {d:?}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    /// Remap-table ↔ in-memory-bit ↔ migration-state agreement for the
    /// PIPM-like schemes: local entries never alias across hosts, local
    /// and global tables agree on the owner, and (PIPM proper) a set
    /// in-memory bit removes the line from the CXL coherence domain.
    /// HW-static's swap-on-access may legitimately set bits while a line
    /// is still shared, so the bit checks apply to PIPM only.
    fn check_remap_agreement(&self) -> Result<(), String> {
        let SchemeState::PipmLike { global, static_map } = &self.scheme else {
            return Ok(());
        };
        let mut owners: FxHashMap<PageNum, usize> = FxHashMap::default();
        for (hi, host) in self.hosts.iter().enumerate() {
            for (page, entry) in host.remap.pages() {
                if let Some(prev) = owners.insert(page, hi) {
                    return Err(format!(
                        "remap alias: {page} has entries at H{prev} and H{hi}"
                    ));
                }
                if let Some(map) = static_map {
                    if map.target(page).index() != hi {
                        return Err(format!(
                            "H{hi}: HW-static entry for {page} but static target is {}",
                            map.target(page)
                        ));
                    }
                    continue;
                }
                match global.current(page) {
                    Some(owner) if owner.index() == hi => {}
                    other => {
                        return Err(format!(
                            "H{hi}: local entry for {page} but global current is {other:?}"
                        ))
                    }
                }
                for idx in 0..LINES_PER_PAGE as usize {
                    if !entry.line_migrated(idx) {
                        continue;
                    }
                    let line = page.line(idx);
                    if let Some(d) = self.devdir.peek(line) {
                        return Err(format!(
                            "H{hi}: in-memory bit set for {line} but device directory has {d:?}"
                        ));
                    }
                    for (gi, other) in self.hosts.iter().enumerate() {
                        let cached = other.llc.peek(line);
                        if gi != hi && cached.is_some() {
                            return Err(format!(
                                "in-memory line {line} (owner H{hi}) cached at H{gi}"
                            ));
                        }
                        if gi == hi {
                            if let Some(m) = cached {
                                if m.state != LState::Me {
                                    return Err(format!(
                                        "H{hi}: in-memory line {line} cached as {:?}, not ME",
                                        m.state
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        if static_map.is_none() {
            for (page, owner) in global.migrated_pages() {
                if owners.get(&page) != Some(&owner.index()) {
                    return Err(format!(
                        "global current {owner} for {page} without a local entry"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs one inline invariant sweep. In harness mode failures are
    /// recorded into the report; otherwise they abort the run (debug
    /// builds / `check-invariants` feature).
    fn invariant_epoch(&mut self) {
        self.invariant_epochs += 1;
        if let Err(e) = self.check_invariants_deep() {
            if self.oracle.is_some() {
                if self.invariant_failures.len() < 64 {
                    self.invariant_failures
                        .push(format!("epoch {}: {e}", self.invariant_epochs));
                }
            } else {
                panic!("simulator invariants violated: {e}");
            }
        }
    }

    /// Abstracts the live simulator + oracle state of every touched shared
    /// line into the protocol model's [`pipm_coherence::proto::LineState`],
    /// for the model-reachability cross-check. Meaningful for the schemes
    /// the abstract model covers (`Native` and `Pipm`) in harness mode;
    /// returns an empty vector otherwise. HW-static's swap-on-access and
    /// the kernel schemes' GIM path deliberately leave the modelled
    /// protocol, so they are excluded.
    pub fn snapshot_line_states(&self) -> Vec<pipm_coherence::proto::LineState> {
        use pipm_coherence::proto;
        let Some(oracle) = self.oracle.as_ref() else {
            return Vec::new();
        };
        if !matches!(self.kind, SchemeKind::Native | SchemeKind::Pipm) {
            return Vec::new();
        }
        let hosts = self.cfg.hosts;
        let mut out = Vec::new();
        for (line, shadow) in oracle.shared_lines() {
            let page = line.page();
            let idx = line.index_within_page();
            let mut st = proto::LineState::new(hosts);
            for hi in 0..hosts {
                st.cache[hi] = match self.hosts[hi].llc.peek(line) {
                    Some(m) => match m.state {
                        LState::S => proto::CacheState::S,
                        LState::E => proto::CacheState::E,
                        LState::M => proto::CacheState::M,
                        LState::Me => proto::CacheState::Me,
                    },
                    None => proto::CacheState::I,
                };
                st.cache_ver[hi] = shadow.cached[hi].unwrap_or(0);
            }
            st.dev = self.devdir.peek(line);
            if matches!(self.kind, SchemeKind::Pipm) {
                for (hi, host) in self.hosts.iter().enumerate() {
                    if let Some(e) = host.remap.entry(page) {
                        st.migrated_to = Some(HostId::new(hi));
                        st.inmem_bit = e.line_migrated(idx);
                        st.mem_local_ver = shadow.local[hi];
                        break; // no-alias invariant: at most one owner
                    }
                }
            }
            st.mem_cxl_ver = shadow.cxl;
            st.latest = shadow.latest;
            out.push(st);
        }
        out
    }

    /// Diagnostic snapshot of shared-resource contention: per-link demand
    /// queue cycles, CXL DRAM queue cycles, and per-host local DRAM queue
    /// cycles. Used by examples and tuning tools.
    pub fn contention_report(&self) -> String {
        let f = self.fabric.total_stats();
        let cx = {
            let mut agg = pipm_mem::DramStats::default();
            for d in &self.cxl_dram {
                let s = d.stats();
                agg.accesses += s.accesses;
                agg.row_hits += s.row_hits;
                agg.queue_cycles += s.queue_cycles;
                agg.bus_wait_cycles += s.bus_wait_cycles;
                agg.bytes += s.bytes;
            }
            agg
        };
        let locals: Vec<String> = self
            .hosts
            .iter()
            .map(|h| {
                format!(
                    "{}q/{}bus/{}a",
                    h.dram.stats().queue_cycles,
                    h.dram.stats().bus_wait_cycles,
                    h.dram.stats().accesses
                )
            })
            .collect();
        format!(
            "link: msgs={} bytes={} qcyc={} migbytes={} | cxl_dram: acc={} q={} rowhit={:.2} | local: {}",
            f.demand_messages,
            f.demand_bytes,
            f.demand_queue_cycles,
            f.migration_bytes,
            cx.accesses,
            cx.queue_cycles,
            cx.row_hit_rate(),
            locals.join(" ")
        )
    }

    /// Runs the simulation to completion over one stream per core
    /// (`streams.len()` must equal the configured core count) and returns
    /// the collected statistics. `refs_per_core` is used to size the
    /// warm-up window.
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the configuration.
    pub fn run(&mut self, streams: Vec<Box<dyn AccessStream>>, refs_per_core: u64) -> SystemStats {
        let mut rs = self.begin_run(streams, refs_per_core);
        self.drive(&mut rs, u64::MAX);
        self.finish()
    }

    /// Runs with a late-binding configuration delta: simulates normally,
    /// applies `delta` once `delta_at` total references have been
    /// processed, and continues to completion. This is the unforked
    /// reference for checkpointed sweeps — [`System::run_prefix`] +
    /// [`Checkpoint::resume_with`] over the same `(streams, delta_at,
    /// delta)` must produce byte-identical statistics.
    pub fn run_with_delta(
        &mut self,
        streams: Vec<Box<dyn AccessStream>>,
        refs_per_core: u64,
        delta_at: u64,
        delta: &CfgDelta,
    ) -> SystemStats {
        let mut rs = self.begin_run(streams, refs_per_core);
        self.drive(&mut rs, delta_at);
        self.apply_delta(delta);
        self.drive(&mut rs, u64::MAX);
        self.finish()
    }

    /// Simulates until `prefix_refs` total references (across all cores)
    /// have been processed, then freezes the run into a [`Checkpoint`]
    /// that can be forked into many late-binding parameter points.
    ///
    /// Consumes the system: the checkpoint owns it (statistics must not be
    /// finalized twice).
    ///
    /// # Panics
    ///
    /// Panics if the stream count does not match the configuration.
    pub fn run_prefix(
        mut self,
        streams: Vec<Box<dyn AccessStream>>,
        refs_per_core: u64,
        prefix_refs: u64,
    ) -> Checkpoint {
        let mut rs = self.begin_run(streams, refs_per_core);
        self.drive(&mut rs, prefix_refs);
        Checkpoint {
            system: self,
            run: rs,
        }
    }

    /// Validates the streams and sizes the warm-up window, returning the
    /// run-loop state (streams plus per-core clock snapshot).
    fn begin_run(&mut self, streams: Vec<Box<dyn AccessStream>>, refs_per_core: u64) -> RunState {
        assert_eq!(
            streams.len(),
            self.cores.len(),
            "one stream per core required"
        );
        // The warm-up window is a fraction of the references the streams
        // will actually deliver, not of the requested count: a trace file
        // shorter than `refs_per_core` would otherwise spend most (or all)
        // of its references inside warm-up and report empty statistics.
        // Streams without an exact remaining count are assumed to deliver
        // the full request, which preserves the historical sizing.
        let requested = refs_per_core * streams.len() as u64;
        let deliverable: u64 = streams
            .iter()
            .map(|s| s.remaining_hint().unwrap_or(refs_per_core))
            .sum();
        self.warmup_refs = (self.cfg.warmup_fraction * requested.min(deliverable) as f64) as u64;
        RunState {
            streams,
            clocks: vec![0; self.cores.len()],
            live: self.cores.len(),
        }
    }

    /// Advances the simulation until every stream is exhausted or
    /// `stop_after` total references have been processed, whichever comes
    /// first. Stopping early leaves every structure quiescent (between
    /// references), so the run can be checkpointed and resumed.
    fn drive(&mut self, rs: &mut RunState, stop_after: u64) {
        // Deterministic global-order advance on (clock, core): always step
        // the core with the lowest clock, ties to the lowest index. A
        // linear argmin over a dense clock array beats a binary heap here —
        // core counts are small (tens), and the scan is branch-predictable
        // and allocation-free.
        let RunState {
            streams,
            clocks,
            live,
        } = rs;
        while *live > 0 && self.processed < stop_after {
            let mut ci = 0;
            let mut best = Cycle::MAX;
            for (i, &c) in clocks.iter().enumerate() {
                if c < best {
                    best = c;
                    ci = i;
                }
            }
            match streams[ci].next_record() {
                Some(rec) => {
                    self.step_core(ci, rec);
                    clocks[ci] = self.cores[ci].clock();
                }
                None => {
                    let stats = &mut self.stats.cores[ci];
                    self.cores[ci].drain(&mut |class, cycles| stats.record_stall(class, cycles));
                    clocks[ci] = Cycle::MAX;
                    *live -= 1;
                }
            }
        }
    }

    /// Applies a late-binding configuration delta to a live (typically
    /// warmed) system. Structures are reconfigured in place: the fabric
    /// keeps its occupancy horizons, remapping caches are rebuilt cold
    /// with their tables intact, and the PIPM vote threshold takes effect
    /// on the next vote (it is read from the live configuration).
    fn apply_delta(&mut self, delta: &CfgDelta) {
        if delta.is_empty() {
            return;
        }
        delta.apply_to(&mut self.cfg);
        self.cfg
            .validate()
            .expect("configuration delta produced an invalid configuration");
        if delta.link_latency_ns.is_some() || delta.link_gbps.is_some() {
            self.fabric.set_link_params(&self.cfg.cxl);
        }
        if delta.local_remap_cache_bytes.is_some() {
            for h in &mut self.hosts {
                h.remap.reconfigure_cache(&self.cfg.pipm);
            }
        }
        if delta.global_remap_cache_bytes.is_some() {
            if let SchemeState::PipmLike { global, .. } = &mut self.scheme {
                global.reconfigure_cache(&self.cfg.pipm);
            }
        }
        // `migration_threshold` needs no propagation here: the PIPM vote
        // reads it from `self.cfg` on every shared access. (Kernel schemes
        // capture policy thresholds at construction; OS-skew's policy
        // threshold is a build-time parameter, not a sweepable one.)
    }

    /// Drives one reference through the core and memory system. An L1 hit
    /// completes here; a miss goes to [`Self::mem_access`].
    fn step_core(&mut self, ci: usize, rec: TraceRecord) {
        self.maybe_interval(self.cores[ci].clock());
        self.maybe_warmup();
        self.processed += 1;
        if INLINE_CHECKS && self.processed.is_multiple_of(INVARIANT_EPOCH) {
            self.invariant_epoch();
        }

        self.cores[ci].advance_compute(rec.nonmem);
        let hi = ci / self.cfg.cores_per_host;
        let li = ci % self.cfg.cores_per_host;
        let line = rec.addr.line();
        // The one L1 probe for this reference: LRU recency and hit/miss
        // statistics update here, and a write marks the line dirty through
        // the same probe.
        let l1_hit = match self.hosts[hi].l1[li].lookup(line) {
            Some(meta) => {
                meta.dirty |= rec.is_write;
                true
            }
            None => false,
        };
        {
            let stats = &mut self.stats.cores[ci];
            let core = &mut self.cores[ci];
            // Accesses that left the L1 need an MSHR; this bounds the
            // memory-system burst depth like real miss queues do.
            if !l1_hit {
                core.reserve_mshr(&mut |class, cycles| stats.record_stall(class, cycles));
            }
            core.reserve_slot(rec.is_write, &mut |class, cycles| {
                stats.record_stall(class, cycles)
            });
        }
        let now = self.cores[ci].clock();
        let mut out = (now + self.cfg.l1d.hit_latency, AccessClass::L1Hit, 0);
        if !l1_hit {
            out = self.mem_access(ci, rec.addr, rec.is_write, now);
        } else {
            // A write propagates to the LLC state machine: an S line needs
            // an upgrade even on an L1 hit; others go dirty (E → M) in place.
            let needs_upgrade = rec.is_write
                && match self.hosts[hi].llc.peek_mut(line) {
                    Some(m) if m.state == LState::S => true,
                    Some(m) => {
                        m.dirty = true;
                        if m.state == LState::E {
                            m.state = LState::M;
                        }
                        false
                    }
                    None => false,
                };
            if needs_upgrade {
                // `upgrade_shared` leaves the LLC line dirty in M and
                // checks the oracle itself.
                out = self.upgrade_shared(hi, line, now);
            } else if let Some(o) = self.oracle.as_mut() {
                o.cache_hit(hi, line);
                if rec.is_write {
                    o.write_applied(hi, line);
                }
            }
        }
        let (done, class, queued) = out;
        let latency = done - now;
        self.cores[ci].issue(done, class, rec.is_write);
        let stats = &mut self.stats.cores[ci];
        stats.record_access(class, latency);
        stats.transfer_stall += queued;
        // `instructions`/`cycles` are derived from the core model at
        // finish() (and at the warmup boundary) rather than rewritten on
        // every reference.
    }

    fn maybe_warmup(&mut self) {
        if !self.warmed && self.processed >= self.warmup_refs {
            self.warmed = true;
            for (i, c) in self.cores.iter().enumerate() {
                self.warmup_clock[i] = c.clock();
                self.warmup_instr[i] = c.instructions();
                self.stats.cores[i] = Default::default();
            }
        }
    }

    fn finish(&mut self) -> SystemStats {
        for (i, c) in self.cores.iter().enumerate() {
            self.stats.cores[i].instructions = c.instructions() - self.warmup_instr[i];
            self.stats.cores[i].cycles = c.clock().saturating_sub(self.warmup_clock[i]);
        }
        // Footprint peaks.
        for (hi, h) in self.hosts.iter().enumerate() {
            match &self.scheme {
                SchemeState::Kernel(_) => {
                    self.stats.migration.peak_resident_pages[hi] = h.peak_resident_pages;
                    self.stats.migration.peak_resident_lines[hi] =
                        h.peak_resident_pages * LINES_PER_PAGE;
                }
                SchemeState::PipmLike { .. } => {
                    self.stats.migration.peak_resident_pages[hi] = h.remap.peak_pages();
                    self.stats.migration.peak_resident_lines[hi] = h.remap.peak_lines();
                }
                _ => {}
            }
            self.stats.local_remap_hits += h.remap.cache_stats().hits;
            self.stats.local_remap_misses += h.remap.cache_stats().misses;
        }
        if let SchemeState::PipmLike { global, .. } = &self.scheme {
            self.stats.global_remap_hits = global.cache_stats().hits;
            self.stats.global_remap_misses = global.cache_stats().misses;
        }
        if let SchemeState::Kernel(k) = &mut self.scheme {
            k.harm.finish();
            self.stats.migration.harmful_promotions = k.harm.harmful();
            self.stats.migration.evaluated_promotions = k.harm.evaluated();
        }
        let topo = self.fabric.topo_stats();
        self.stats.fabric = pipm_types::FabricStats {
            switch_hops: topo.switch_hops,
            device_messages: topo.device_messages,
            device_bytes: topo.device_bytes,
        };
        if INLINE_CHECKS {
            self.invariant_epoch();
        }
        self.stats.clone()
    }

    // ------------------------------------------------------------------
    // Memory access paths
    // ------------------------------------------------------------------

    /// Performs one memory reference for core `ci`, returning
    /// `(completion_cycle, class, migration-queued cycles)`.
    fn mem_access(
        &mut self,
        ci: usize,
        addr: Addr,
        is_write: bool,
        now: Cycle,
    ) -> (Cycle, AccessClass, Cycle) {
        let hi = ci / self.cfg.cores_per_host;
        let li = ci % self.cfg.cores_per_host;
        let line = addr.line();

        // LLC lookup; a write to an E/M/Me line goes dirty (E → M)
        // through the same probe.
        let llc_state = self.hosts[hi].llc.lookup(line).map(|m| {
            let state = m.state;
            if is_write && state != LState::S {
                m.dirty = true;
                if state == LState::E {
                    m.state = LState::M;
                }
            }
            state
        });
        if let Some(state) = llc_state {
            let mut out = (
                now + self.cfg.llc_per_core.hit_latency,
                AccessClass::LlcHit,
                0,
            );
            if is_write && state == LState::S {
                // `upgrade_shared` checks the oracle itself.
                out = self.upgrade_shared(hi, line, now);
            } else if let Some(o) = self.oracle.as_mut() {
                o.cache_hit(hi, line);
                if is_write {
                    o.write_applied(hi, line);
                }
            }
            self.fill_l1(hi, li, line, is_write);
            return out;
        }

        // LLC miss.
        let t = now + self.cfg.llc_per_core.hit_latency;
        if !addr.is_shared(&self.cfg) {
            // Private data: always the host's local DRAM.
            let done = self.hosts[hi].dram.access(addr, t, is_write);
            let state = if is_write { LState::M } else { LState::E };
            self.install(hi, li, line, state, is_write, t);
            if let Some(o) = self.oracle.as_mut() {
                o.fill_from_local(hi, line);
                if is_write {
                    o.write_applied(hi, line);
                }
            }
            return (done, AccessClass::LocalPrivate, 0);
        }

        // Shared (CXL-DSM) data: scheme-specific.
        let mut scheme = std::mem::replace(&mut self.scheme, SchemeState::Native);
        let out = match &mut scheme {
            SchemeState::Native => self.shared_via_cxl(hi, li, line, is_write, t, None),
            SchemeState::Ideal => {
                let done = self.hosts[hi].dram.access(addr, t, is_write);
                let state = if is_write { LState::M } else { LState::E };
                self.install(hi, li, line, state, is_write, t);
                if let Some(o) = self.oracle.as_mut() {
                    o.fill_from_local(hi, line);
                    if is_write {
                        o.write_applied(hi, line);
                    }
                }
                (done, AccessClass::LocalShared, 0)
            }
            SchemeState::Kernel(k) => self.kernel_shared(k, hi, li, line, is_write, t),
            SchemeState::PipmLike { global, static_map } => {
                self.pipm_shared(global, *static_map, hi, li, line, is_write, t)
            }
        };
        self.scheme = scheme;
        out
    }

    /// S→M upgrade: invalidate other sharers via the device directory.
    fn upgrade_shared(
        &mut self,
        hi: usize,
        line: LineAddr,
        now: Cycle,
    ) -> (Cycle, AccessClass, Cycle) {
        let host = HostId::new(hi);
        let dev = self.fabric.device_for_line(line);
        let up = self.fabric.send(
            host,
            dev,
            Dir::ToDevice,
            now,
            self.fabric.header_bytes(),
            false,
        );
        let mut t = up.at + self.cfg.directory.access_latency();
        let mut queued = up.queued_behind_migration;
        if let Some(DevState::Shared(set)) = self.devdir.lookup(line) {
            let mut max_ack = t;
            for sharer in set.iter().filter(|&s| s != host) {
                let inv = self.fabric.send(
                    sharer,
                    dev,
                    Dir::ToHost,
                    t,
                    self.fabric.header_bytes(),
                    false,
                );
                queued += inv.queued_behind_migration;
                // Invalidate the sharer's cached copies.
                self.invalidate_host_line(sharer.index(), line);
                if let Some(o) = self.oracle.as_mut() {
                    o.drop_cached(sharer.index(), line);
                }
                // Ack returns to the device.
                let ack = self.fabric.send(
                    sharer,
                    dev,
                    Dir::ToDevice,
                    inv.at,
                    self.fabric.header_bytes(),
                    false,
                );
                max_ack = max_ack.max(ack.at);
            }
            t = max_ack;
        }
        self.devdir.remove(line);
        if let Some(r) = self.devdir.update(line, DevState::Modified(host)) {
            self.handle_recall(r, t);
        }
        if let Some(m) = self.hosts[hi].llc.peek_mut(line) {
            m.state = LState::M;
            m.dirty = true;
        }
        if let Some(o) = self.oracle.as_mut() {
            o.cache_hit(hi, line);
            o.write_applied(hi, line);
        }
        let down = self
            .fabric
            .send(host, dev, Dir::ToHost, t, self.fabric.header_bytes(), false);
        queued += down.queued_behind_migration;
        (down.at, AccessClass::CxlDram, queued)
    }

    /// Shared-data access resolved through the CXL device directory (the
    /// Native path; also the backend for kernel-scheme CXL-resident pages
    /// and PIPM non-migrated lines). `vote` carries the PIPM global-remap
    /// context when the caller wants majority voting applied.
    #[allow(clippy::too_many_arguments)]
    fn shared_via_cxl(
        &mut self,
        hi: usize,
        li: usize,
        line: LineAddr,
        is_write: bool,
        t: Cycle,
        global: Option<&mut GlobalRemap>,
    ) -> (Cycle, AccessClass, Cycle) {
        let host = HostId::new(hi);
        let addr = line.base_addr();
        let dev = self.fabric.device_for_line(line);
        let issue = t;
        let up = self.fabric.send(
            host,
            dev,
            Dir::ToDevice,
            t,
            self.fabric.header_bytes(),
            false,
        );
        let mut queued = up.queued_behind_migration;
        let mut t = up.at + self.cfg.directory.access_latency();

        // PIPM: global remapping cache lookup + majority vote at the
        // device. A cache miss launches a table walk in CXL DRAM
        // (2 B/entry, §4.2). The device speculates on the common case —
        // the entry says "not migrated" — and starts the data path
        // immediately, but the response cannot leave the device before
        // the walk confirms the entry, so the access pays the walk's bank
        // and bus occupancy plus any excess of the walk over the data
        // path (Figure 17 measures exactly this penalty as the cache
        // shrinks and walks contend for device-DRAM bandwidth).
        let mut walk_ready: Cycle = 0;
        if let Some(global) = global {
            let page = line.page();
            let lr = global.lookup(page);
            t += lr.latency;
            if !lr.cache_hit {
                walk_ready = self.cxl_dram[dev].access(
                    Addr::new(TABLE_WALK_BASE + page.raw() * 2),
                    t,
                    false,
                );
            }
            let threshold = self.cfg.pipm.migration_threshold;
            if global.current(page).is_none() && !self.hints.is_pinned(page) {
                let preferred = self.hints.preferred(page) == Some(host);
                let vote_fired = global.vote(page, host, threshold);
                if (preferred || vote_fired) && self.hosts[hi].remap.initiate(page, threshold) {
                    global.set_current(page, host);
                    self.stats.migration.pages_promoted += 1;
                }
            }
        }

        let dstate = self.devdir.lookup(line);
        let (done, class) = match dstate {
            Some(DevState::Modified(owner)) if owner != host => {
                // Four-hop forward through the owning host's cache.
                let fwd = self.fabric.send(
                    owner,
                    dev,
                    Dir::ToHost,
                    t,
                    self.fabric.header_bytes(),
                    false,
                );
                let mut tt = fwd.at + self.cfg.llc_per_core.hit_latency;
                let dirty = self.hosts[owner.index()]
                    .llc
                    .peek(line)
                    .map(|m| m.dirty || m.state == LState::M)
                    .unwrap_or(false);
                if let Some(o) = self.oracle.as_mut() {
                    o.fill_forward(hi, owner.index(), line, is_write);
                }
                if is_write {
                    self.invalidate_host_line(owner.index(), line);
                } else {
                    self.downgrade_host_line(owner.index(), line);
                }
                let back = self
                    .fabric
                    .send(owner, dev, Dir::ToDevice, tt, DATA_MSG, false);
                tt = back.at;
                if dirty {
                    // Asynchronous writeback of the forwarded data.
                    self.cxl_dram[dev].write_buffered(addr, tt);
                }
                self.devdir.remove(line);
                let new_state = if is_write {
                    DevState::Modified(host)
                } else {
                    let mut set = pipm_types::HostSet::singleton(owner);
                    set.insert(host);
                    DevState::Shared(set)
                };
                if let Some(r) = self.devdir.update(line, new_state) {
                    self.handle_recall(r, tt);
                }
                let down = self
                    .fabric
                    .send(host, dev, Dir::ToHost, tt, DATA_MSG, false);
                queued += down.queued_behind_migration + fwd.queued_behind_migration;
                (down.at, AccessClass::CxlForward)
            }
            Some(DevState::Shared(set)) => {
                let mut tt = t;
                if is_write {
                    let mut max_ack = tt;
                    #[cfg(feature = "fault-inject")]
                    let mut fault_skipped = false;
                    for sharer in set.iter().filter(|&s| s != host) {
                        // Deliberate coherence mutation for the harness
                        // self-test: leave the first sharer's stale copy
                        // behind. Never compiled into normal builds.
                        #[cfg(feature = "fault-inject")]
                        {
                            if !fault_skipped {
                                fault_skipped = true;
                                continue;
                            }
                        }
                        let inv = self.fabric.send(
                            sharer,
                            dev,
                            Dir::ToHost,
                            tt,
                            self.fabric.header_bytes(),
                            false,
                        );
                        self.invalidate_host_line(sharer.index(), line);
                        if let Some(o) = self.oracle.as_mut() {
                            o.drop_cached(sharer.index(), line);
                        }
                        let ack = self.fabric.send(
                            sharer,
                            dev,
                            Dir::ToDevice,
                            inv.at,
                            self.fabric.header_bytes(),
                            false,
                        );
                        max_ack = max_ack.max(ack.at);
                    }
                    tt = max_ack;
                }
                tt = self.cxl_dram[dev].access(addr, tt, false);
                if let Some(o) = self.oracle.as_mut() {
                    o.fill_from_cxl(hi, line);
                }
                self.devdir.remove(line);
                let new_state = if is_write {
                    DevState::Modified(host)
                } else {
                    let mut set = set;
                    set.insert(host);
                    DevState::Shared(set)
                };
                if let Some(r) = self.devdir.update(line, new_state) {
                    self.handle_recall(r, tt);
                }
                let down = self
                    .fabric
                    .send(host, dev, Dir::ToHost, tt, DATA_MSG, false);
                queued += down.queued_behind_migration;
                (down.at, AccessClass::CxlDram)
            }
            Some(DevState::Modified(_)) | None => {
                // Not cached anywhere else (Modified(host) cannot occur on
                // a miss — the local copy was evicted and removed). Plain
                // CXL DRAM fill; sole accessor becomes the exclusive owner.
                let tt = self.cxl_dram[dev].access(addr, t, is_write);
                if let Some(o) = self.oracle.as_mut() {
                    o.fill_from_cxl(hi, line);
                }
                if let Some(r) = self.devdir.update(line, DevState::Modified(host)) {
                    self.handle_recall(r, tt);
                }
                let down = self
                    .fabric
                    .send(host, dev, Dir::ToHost, tt, DATA_MSG, false);
                queued += down.queued_behind_migration;
                (down.at, AccessClass::CxlDram)
            }
        };

        let state = match (is_write, class) {
            (true, _) => LState::M,
            (false, AccessClass::CxlForward) => LState::S,
            (false, _) => match self.devdir.lookup(line) {
                Some(DevState::Shared(_)) => LState::S,
                _ => LState::E,
            },
        };
        self.install(hi, li, line, state, is_write, issue);
        if is_write {
            if let Some(o) = self.oracle.as_mut() {
                o.write_applied(hi, line);
            }
        }
        (done.max(walk_ready), class, queued)
    }

    /// Kernel-scheme shared access: consult the page map.
    fn kernel_shared(
        &mut self,
        k: &mut KernelState,
        hi: usize,
        li: usize,
        line: LineAddr,
        is_write: bool,
        t: Cycle,
    ) -> (Cycle, AccessClass, Cycle) {
        let host = HostId::new(hi);
        let page = line.page();
        let resident = self.page_location.get(page).copied();
        k.policy.record_access(host, page, is_write, resident);
        match resident {
            Some(owner) if owner == host => {
                k.harm.on_access(page, host);
                let done = self.hosts[hi].dram.access(line.base_addr(), t, is_write);
                let state = if is_write { LState::M } else { LState::E };
                self.install(hi, li, line, state, is_write, t);
                if let Some(o) = self.oracle.as_mut() {
                    o.fill_from_local(hi, line);
                    if is_write {
                        o.write_applied(hi, line);
                    }
                }
                (done, AccessClass::LocalShared, 0)
            }
            Some(owner) => {
                // Non-cacheable four-hop access to the owning host's local
                // memory (GIM semantics, Figure 3 ①–⑤). No cache fill.
                k.harm.on_access(page, host);
                let dev = self.fabric.device_for_page(page);
                let up = self.fabric.send(
                    host,
                    dev,
                    Dir::ToDevice,
                    t,
                    self.fabric.header_bytes(),
                    false,
                );
                let fwd = self.fabric.send(
                    owner,
                    dev,
                    Dir::ToHost,
                    up.at,
                    self.fabric.header_bytes(),
                    false,
                );
                let tt = fwd.at + self.cfg.llc_per_core.hit_latency; // owner local dir
                let tt = self.hosts[owner.index()]
                    .dram
                    .access_shadow(line.base_addr(), tt);
                let back = self
                    .fabric
                    .send(owner, dev, Dir::ToDevice, tt, DATA_MSG, false);
                let down = self
                    .fabric
                    .send(host, dev, Dir::ToHost, back.at, DATA_MSG, false);
                let queued = up.queued_behind_migration
                    + fwd.queued_behind_migration
                    + back.queued_behind_migration
                    + down.queued_behind_migration;
                if let Some(o) = self.oracle.as_mut() {
                    // GIM semantics: the access is applied in place at the
                    // resident host; the requester caches nothing.
                    if is_write {
                        o.gim_write(owner.index(), line);
                    } else {
                        o.gim_read(hi, owner.index(), line);
                    }
                }
                (down.at, AccessClass::InterHost, queued)
            }
            None => self.shared_via_cxl(hi, li, line, is_write, t, None),
        }
    }

    /// PIPM / HW-static shared access (PIPM coherence, §4.3).
    #[allow(clippy::too_many_arguments)]
    fn pipm_shared(
        &mut self,
        global: &mut GlobalRemap,
        static_map: Option<HwStaticMap>,
        hi: usize,
        li: usize,
        line: LineAddr,
        is_write: bool,
        t: Cycle,
    ) -> (Cycle, AccessClass, Cycle) {
        let host = HostId::new(hi);
        let page = line.page();
        let idx = line.index_within_page();

        // HW-static: lazily materialize the static page mapping.
        if let Some(map) = static_map {
            if map.target(page) == host && self.hosts[hi].remap.entry(page).is_none() {
                self.hosts[hi].remap.initiate(page, u8::MAX);
            }
        }

        // Local remapping lookup: required on every shared LLC miss to
        // distinguish I from I′ (§4.3.3).
        let lr = self.hosts[hi].remap.lookup(page);
        let mut t = t + lr.latency;
        if !lr.cache_hit {
            t = self.hosts[hi]
                .dram
                .access(Addr::new(TABLE_WALK_BASE + page.raw() * 4), t, false);
        }

        if let Some(entry) = self.hosts[hi].remap.entry(page) {
            let migrated = entry.line_migrated(idx);
            if static_map.is_none() {
                self.hosts[hi].remap.local_access(page);
            }
            if migrated {
                // Case ③: I′ → serve from local DRAM, cache as ME.
                let done = self.hosts[hi].dram.access(line.base_addr(), t, is_write);
                self.install(hi, li, line, LState::Me, is_write, t);
                if let Some(o) = self.oracle.as_mut() {
                    o.fill_from_local(hi, line);
                    if is_write {
                        o.write_applied(hi, line);
                    }
                }
                return (done, AccessClass::LocalShared, 0);
            }
            // Line not yet migrated: cacheable CXL access, bypassing the
            // global vote (local accesses to partially migrated pages do
            // not reach the global counter, Figure 7 ④).
            let out = self.shared_via_cxl(hi, li, line, is_write, t, None);
            if static_map.is_some()
                && matches!(self.devdir.lookup(line),
                            Some(DevState::Modified(h)) if h == host)
            {
                // Intel-Flat-Mode-like swap-on-access: HW-static installs
                // the line into its statically mapped local frame as soon
                // as the host touches it (no adaptive policy, no vote).
                // Swapping relocates the line out of the CXL coherence
                // domain, so it is only legal while this host is the sole
                // cached holder — a line still shared by other hosts stays
                // in CXL until the sharers drop it (same rule as
                // `sector_migrate`; previously the bit was set regardless,
                // leaving remote S copies that later writes through the
                // migrated path never invalidated).
                self.hosts[hi].dram.write_buffered(line.base_addr(), t);
                self.hosts[hi].remap.set_line(page, idx);
                self.stats.migration.lines_migrated_in += 1;
                self.stats.migration.transfer_bytes += 64;
                if let Some(o) = self.oracle.as_mut() {
                    o.cached_to_local(hi, line);
                }
            }
            return out;
        }

        // No local entry here. The access travels to the CXL node; the
        // device consults the global remapping table.
        match (static_map, global_current(global, static_map, page)) {
            (_, Some(owner)) if owner != host => {
                // Inter-host access to a (partially) migrated page.
                let owner_entry_bit = self.hosts[owner.index()]
                    .remap
                    .entry(page)
                    .map(|e| e.line_migrated(idx))
                    .unwrap_or(false);
                // Device-side bookkeeping hint: inter-host access
                // decrements the owner's local counter (Figure 7 ⑤).
                let revoke = if static_map.is_none() {
                    self.hosts[owner.index()].remap.interhost_access(page)
                } else {
                    false
                };
                let result = if owner_entry_bit {
                    // Cases ②/⑤/⑥: coherent 4-hop fetch from the owner's
                    // local memory (or cache) + incremental migration back.
                    let dev = self.fabric.device_for_page(page);
                    let up = self.fabric.send(
                        host,
                        dev,
                        Dir::ToDevice,
                        t,
                        self.fabric.header_bytes(),
                        false,
                    );
                    let mut tt = up.at + self.cfg.directory.access_latency();
                    // CXL memory read verifies the I′ in-memory bit; the
                    // owning host comes from the global remapping cache
                    // (hot for contested pages).
                    tt = self.cxl_dram[dev].access(line.base_addr(), tt, false);
                    let fwd = self.fabric.send(
                        owner,
                        dev,
                        Dir::ToHost,
                        tt,
                        self.fabric.header_bytes(),
                        false,
                    );
                    tt = fwd.at + self.cfg.llc_per_core.hit_latency;
                    let cached = self.hosts[owner.index()].llc.peek(line).is_some();
                    if let Some(o) = self.oracle.as_mut() {
                        o.fill_from_owner_memory(hi, owner.index(), line, cached, is_write);
                    }
                    if cached {
                        if is_write {
                            self.invalidate_host_line(owner.index(), line); // case ⑤
                        } else {
                            self.downgrade_host_line(owner.index(), line); // case ⑥
                        }
                    } else {
                        tt = self.hosts[owner.index()]
                            .dram
                            .access_shadow(line.base_addr(), tt);
                    }
                    // Migrate back: clear bits, asynchronous writeback into
                    // CXL memory.
                    self.hosts[owner.index()].remap.clear_line(page, idx);
                    self.stats.migration.lines_migrated_back += 1;
                    self.stats.migration.transfer_bytes += 64;
                    let back = self
                        .fabric
                        .send(owner, dev, Dir::ToDevice, tt, DATA_MSG, false);
                    self.cxl_dram[dev].write_buffered(line.base_addr(), back.at);
                    let new_state = if is_write {
                        DevState::Modified(host)
                    } else if cached {
                        let mut set = pipm_types::HostSet::singleton(owner);
                        set.insert(host);
                        DevState::Shared(set)
                    } else {
                        DevState::Modified(host)
                    };
                    self.devdir.remove(line);
                    if let Some(r) = self.devdir.update(line, new_state) {
                        self.handle_recall(r, back.at);
                    }
                    let down = self
                        .fabric
                        .send(host, dev, Dir::ToHost, back.at, DATA_MSG, false);
                    let queued = up.queued_behind_migration
                        + fwd.queued_behind_migration
                        + back.queued_behind_migration
                        + down.queued_behind_migration;
                    let state = if is_write {
                        LState::M
                    } else if cached {
                        LState::S
                    } else {
                        LState::E
                    };
                    self.install(hi, li, line, state, is_write, t);
                    if is_write {
                        if let Some(o) = self.oracle.as_mut() {
                            o.write_applied(hi, line);
                        }
                    }
                    (down.at, AccessClass::InterHost, queued)
                } else {
                    // The requested line still lives in CXL memory: normal
                    // cacheable access (with vote bypassed — the page is
                    // already migrated).
                    self.shared_via_cxl(hi, li, line, is_write, t, None)
                };
                if revoke {
                    self.revoke_page(global, owner.index(), page, t);
                }
                result
            }
            _ => {
                // Unmigrated page (or our own static/partial pages were
                // handled above): device path with majority voting for
                // PIPM.
                let vote = if static_map.is_none() {
                    Some(global)
                } else {
                    None
                };
                self.shared_via_cxl(hi, li, line, is_write, t, vote)
            }
        }
    }

    /// Sector-granularity extension (design-space ablation): when a line
    /// migrates incrementally, also pull its spatial neighbours within the
    /// page into local DRAM, up to `pipm.sector_lines` total. Unlike the
    /// paper's pure incremental migration this *does* transfer extra data
    /// (one CXL read per neighbour), trading link bandwidth for fewer
    /// future CXL round trips. Disabled by default (`sector_lines = 1`).
    fn sector_migrate(&mut self, hi: usize, page: PageNum, idx: usize, now: Cycle) {
        let sector = self.cfg.pipm.sector_lines as usize;
        if sector <= 1 {
            return;
        }
        let host = HostId::new(hi);
        let base = idx - (idx % sector);
        for i in base..(base + sector).min(LINES_PER_PAGE as usize) {
            if i == idx {
                continue;
            }
            let already = self.hosts[hi]
                .remap
                .entry(page)
                .map(|e| e.line_migrated(i))
                .unwrap_or(true);
            if already {
                continue;
            }
            let line = page.line(i);
            // Skip lines currently cached anywhere (they are in the
            // coherence domain; migrating them here would need probes).
            if self.devdir.lookup(line).is_some() {
                continue;
            }
            // Fetch from CXL memory and install into local DRAM.
            let dev = self.fabric.device_for_page(page);
            let up = self.fabric.send(
                host,
                dev,
                Dir::ToDevice,
                now,
                self.fabric.header_bytes(),
                false,
            );
            let t = self.cxl_dram[dev].access(line.base_addr(), up.at, false);
            let down = self.fabric.send(host, dev, Dir::ToHost, t, DATA_MSG, true);
            self.hosts[hi]
                .dram
                .write_buffered(line.base_addr(), down.at);
            self.hosts[hi].remap.set_line(page, i);
            self.stats.migration.lines_migrated_in += 1;
            self.stats.migration.transfer_bytes += 64;
            if let Some(o) = self.oracle.as_mut() {
                o.cxl_to_local(hi, line);
            }
        }
    }

    /// Revokes a partial migration: every migrated line of `page` returns
    /// to CXL memory (Figure 7 ⑥).
    fn revoke_page(&mut self, global: &mut GlobalRemap, oi: usize, page: PageNum, now: Cycle) {
        let Some(entry) = self.hosts[oi].remap.revoke(page) else {
            return;
        };
        let owner = HostId::new(oi);
        let n = entry.migrated_lines() as u64;
        // Flush any cached (ME) lines of the page at the owner.
        for i in 0..LINES_PER_PAGE as usize {
            if entry.line_migrated(i) {
                if let Some(o) = self.oracle.as_mut() {
                    // Writeback-invalidate: an ME copy lands in local DRAM
                    // before the bulk transfer carries it back to CXL.
                    o.evict_to_local(oi, page.line(i));
                    o.local_to_cxl(oi, page.line(i));
                }
                self.invalidate_host_line(oi, page.line(i));
            }
        }
        if n > 0 {
            let bytes = n * 64;
            let t = self.hosts[oi]
                .dram
                .bulk_transfer(page.base_addr(), now, bytes);
            let dev = self.fabric.device_for_page(page);
            let arr = self.fabric.send(owner, dev, Dir::ToDevice, t, bytes, true);
            self.cxl_dram[dev].bulk_transfer(page.base_addr(), arr.at, bytes);
            self.stats.migration.transfer_bytes += bytes;
            self.stats.migration.lines_migrated_back += n;
        }
        global.clear_current(page);
        self.stats.migration.pages_demoted += 1;
    }

    // ------------------------------------------------------------------
    // Cache maintenance
    // ------------------------------------------------------------------

    fn fill_l1(&mut self, hi: usize, li: usize, line: LineAddr, is_write: bool) {
        if let Some((_, vmeta)) = self.hosts[hi].l1[li].insert(line, L1Meta { dirty: is_write }) {
            if vmeta.dirty {
                // L1 victim writeback folds into the (inclusive) LLC.
                // The victim line may have been evicted from the LLC
                // already; dirty data then travelled with that eviction.
            }
        }
    }

    /// Installs a line in LLC + requesting core's L1, handling the LLC
    /// victim. `now` is the fill time, used to timestamp victim traffic.
    fn install(
        &mut self,
        hi: usize,
        li: usize,
        line: LineAddr,
        state: LState,
        is_write: bool,
        now: Cycle,
    ) {
        let meta = LlcMeta {
            state,
            dirty: is_write || state == LState::M,
        };
        if let Some((vline, vmeta)) = self.hosts[hi].llc.insert(line, meta) {
            self.evict_llc_line(hi, vline, vmeta, now);
        }
        self.fill_l1(hi, li, line, is_write);
    }

    /// Handles eviction of `vline` from host `hi`'s LLC: L1 back-
    /// invalidation, PIPM incremental migration (cases ① and ④), CXL
    /// writeback, and directory maintenance.
    fn evict_llc_line(&mut self, hi: usize, vline: LineAddr, mut vmeta: LlcMeta, now: Cycle) {
        let host = HostId::new(hi);
        // Inclusive hierarchy: purge L1 copies, folding dirtiness.
        for l1 in &mut self.hosts[hi].l1 {
            if let Some(m) = l1.invalidate(vline) {
                vmeta.dirty |= m.dirty;
            }
        }
        if !vline.is_shared(&self.cfg) {
            if let Some(o) = self.oracle.as_mut() {
                o.evict_to_local(hi, vline);
            }
            if vmeta.dirty {
                self.hosts[hi].dram.write_buffered(vline.base_addr(), now);
            }
            return;
        }
        match self.kind {
            SchemeKind::LocalOnly => {
                if let Some(o) = self.oracle.as_mut() {
                    o.evict_to_local(hi, vline);
                }
                if vmeta.dirty {
                    self.hosts[hi].dram.write_buffered(vline.base_addr(), now);
                }
            }
            SchemeKind::Native => {
                self.native_evict(hi, vline, vmeta, now);
            }
            k if k.uses_kernel_migration() => {
                let resident = self.page_location.get(vline.page()).copied();
                if resident == Some(host) {
                    if let Some(o) = self.oracle.as_mut() {
                        o.evict_to_local(hi, vline);
                    }
                    if vmeta.dirty {
                        self.hosts[hi].dram.write_buffered(vline.base_addr(), now);
                    }
                } else {
                    self.native_evict(hi, vline, vmeta, now);
                }
            }
            _ => {
                let page = vline.page();
                let idx = vline.index_within_page();
                match vmeta.state {
                    LState::Me => {
                        // Case ④: writeback to local DRAM only.
                        if let Some(o) = self.oracle.as_mut() {
                            o.evict_to_local(hi, vline);
                        }
                        self.hosts[hi].dram.write_buffered(vline.base_addr(), now);
                    }
                    LState::M | LState::E => {
                        if self.hosts[hi].remap.entry(page).is_some() {
                            // Case ① (and its clean-exclusive analogue):
                            // incremental migration into local DRAM.
                            if let Some(o) = self.oracle.as_mut() {
                                o.evict_to_local(hi, vline);
                            }
                            self.hosts[hi].dram.write_buffered(vline.base_addr(), now);
                            self.hosts[hi].remap.set_line(page, idx);
                            self.devdir.remove(vline);
                            // Flip the CXL-side in-memory bit: a tiny,
                            // coalesced control flit (the bit lives in the
                            // CXL line's ECC metadata).
                            let dev = self.fabric.device_for_page(page);
                            self.fabric.send(host, dev, Dir::ToDevice, now, 4, false);
                            self.stats.migration.lines_migrated_in += 1;
                            self.sector_migrate(hi, page, idx, now);
                        } else {
                            self.native_evict(hi, vline, vmeta, now);
                        }
                    }
                    LState::S => {
                        if let Some(o) = self.oracle.as_mut() {
                            o.drop_cached(hi, vline);
                        }
                        self.devdir.remove_sharer(vline, host);
                    }
                }
            }
        }
    }

    /// Baseline eviction of a CXL-domain line: dirty writeback over the
    /// fabric, directory update.
    fn native_evict(&mut self, hi: usize, vline: LineAddr, vmeta: LlcMeta, now: Cycle) {
        let host = HostId::new(hi);
        match vmeta.state {
            LState::S => {
                if let Some(o) = self.oracle.as_mut() {
                    o.drop_cached(hi, vline);
                }
                self.devdir.remove_sharer(vline, host);
            }
            _ => {
                if let Some(o) = self.oracle.as_mut() {
                    o.evict_to_cxl(hi, vline);
                }
                if vmeta.dirty {
                    let dev = self.fabric.device_for_line(vline);
                    let arr = self
                        .fabric
                        .send(host, dev, Dir::ToDevice, now, DATA_MSG, false);
                    self.cxl_dram[dev].write_buffered(vline.base_addr(), arr.at);
                }
                self.devdir.remove(vline);
            }
        }
    }

    /// Invalidates a line from a host's LLC and L1s (coherence
    /// invalidation; dirty data is handled by the caller's protocol step).
    fn invalidate_host_line(&mut self, hi: usize, line: LineAddr) {
        self.hosts[hi].llc.invalidate(line);
        for l1 in &mut self.hosts[hi].l1 {
            l1.invalidate(line);
        }
    }

    /// Downgrades a host's cached copy to S (remote read of M/E/ME).
    fn downgrade_host_line(&mut self, hi: usize, line: LineAddr) {
        if let Some(m) = self.hosts[hi].llc.peek_mut(line) {
            m.state = LState::S;
            m.dirty = false;
        }
        for l1 in &mut self.hosts[hi].l1 {
            if let Some(m) = l1.peek_mut(line) {
                m.dirty = false;
            }
        }
    }

    /// Handles a device-directory capacity recall: the victim entry's
    /// holders are invalidated (with dirty writeback).
    fn handle_recall(&mut self, recall: Recall, now: Cycle) {
        self.stats.directory_recalls += 1;
        match recall.state {
            DevState::Modified(owner) => {
                let dirty = self.hosts[owner.index()]
                    .llc
                    .peek(recall.line)
                    .map(|m| m.dirty)
                    .unwrap_or(false);
                if let Some(o) = self.oracle.as_mut() {
                    o.evict_to_cxl(owner.index(), recall.line);
                }
                self.invalidate_host_line(owner.index(), recall.line);
                if dirty {
                    let dev = self.fabric.device_for_line(recall.line);
                    let arr = self
                        .fabric
                        .send(owner, dev, Dir::ToDevice, now, DATA_MSG, false);
                    self.cxl_dram[dev].write_buffered(recall.line.base_addr(), arr.at);
                }
            }
            DevState::Shared(set) => {
                for h in set.iter() {
                    if let Some(o) = self.oracle.as_mut() {
                        o.drop_cached(h.index(), recall.line);
                    }
                    self.invalidate_host_line(h.index(), recall.line);
                    let dev = self.fabric.device_for_line(recall.line);
                    self.fabric
                        .send(h, dev, Dir::ToHost, now, self.fabric.header_bytes(), false);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Kernel migration intervals
    // ------------------------------------------------------------------

    /// Fires interval processing for kernel schemes when the global clock
    /// crosses the next boundary.
    fn maybe_interval(&mut self, now: Cycle) {
        // Fast path: nothing to do this reference. Checked before the
        // scheme swap below — moving the whole `SchemeState` in and out
        // on every reference is a measurable per-access cost.
        let SchemeState::Kernel(k) = &self.scheme else {
            return;
        };
        if now < k.next_interval {
            return;
        }
        let mut scheme = std::mem::replace(&mut self.scheme, SchemeState::Native);
        if let SchemeState::Kernel(k) = &mut scheme {
            while now >= k.next_interval {
                k.next_interval += self.cfg.migration_interval_cycles;
                // Refill the migration-bandwidth token bucket: constant
                // pages-per-cycle regardless of the interval choice.
                k.tokens += self.cfg.migration_cost.pages_per_mcycle
                    * self.cfg.migration_interval_cycles as f64
                    / 1e6;
                k.policy.set_interval_budget(k.tokens as usize);
                let outcome = k.policy.end_interval();
                k.tokens -= outcome.promotions.len() as f64;
                // Interval processing itself (page-table/PEBS scanning)
                // costs the migration daemon's core every interval,
                // independent of whether anything moves — the fixed cost
                // that makes very short intervals expensive (Takeaway #4).
                let scan = self.cfg.migration_cost.batch_fixed_cycles;
                for hi in 0..self.cfg.hosts {
                    let ci = hi * self.cfg.cores_per_host;
                    self.cores[ci].charge(scan);
                    self.stats.cores[ci].mgmt_stall += scan;
                }
                if !outcome.is_empty() {
                    self.apply_kernel_outcome(k, outcome, now);
                }
            }
        }
        self.scheme = scheme;
    }

    fn apply_kernel_outcome(
        &mut self,
        k: &mut KernelState,
        outcome: pipm_baselines::IntervalOutcome,
        now: Cycle,
    ) {
        let mut promos_per_host = std::mem::take(&mut self.promo_scratch);
        promos_per_host.clear();
        promos_per_host.resize(self.cfg.hosts, 0);

        for (page, owner) in &outcome.demotions {
            // The policy's residency view can drift from the page table
            // (e.g. same-interval promote/demote churn); a demotion for a
            // page not actually resident at the claimed owner would bulk-
            // copy unrelated local DRAM over the current CXL image.
            if self.page_location.get(*page) != Some(owner) {
                continue;
            }
            self.demote_kernel_page(k, *page, *owner, now);
        }

        for (page, dest) in &outcome.promotions {
            match self.page_location.get(*page).copied() {
                Some(cur) if cur == *dest => continue,
                // Already resident elsewhere: the current owner's local
                // DRAM holds the only up-to-date copy, so demote it back
                // through CXL first — promoting the stale CXL image would
                // silently lose the owner's writes.
                Some(cur) => self.demote_kernel_page(k, *page, cur, now),
                None => {}
            }
            let di = dest.index();
            // Flush every host's cached copies (the page leaves the CXL
            // coherence domain) and drop directory entries.
            for hi in 0..self.cfg.hosts {
                self.flush_page(hi, *page);
            }
            for i in 0..LINES_PER_PAGE as usize {
                self.devdir.remove(page.line(i));
            }
            if let Some(o) = self.oracle.as_mut() {
                // CXL-domain copies flush back to CXL DRAM, then the page
                // travels CXL → destination local DRAM in bulk.
                for i in 0..LINES_PER_PAGE as usize {
                    for hj in 0..self.cfg.hosts {
                        o.evict_to_cxl(hj, page.line(i));
                    }
                    o.cxl_to_local(di, page.line(i));
                }
            }
            let dev = self.fabric.device_for_page(*page);
            let t = self.cxl_dram[dev].bulk_transfer(page.base_addr(), now, PAGE_SIZE);
            self.fabric
                .send(*dest, dev, Dir::ToHost, t, PAGE_SIZE, true);
            self.hosts[di]
                .dram
                .bulk_transfer(page.base_addr(), t, PAGE_SIZE);
            self.page_location.insert(*page, *dest);
            k.harm.on_promote(*page, *dest);
            promos_per_host[di] += 1;
            self.hosts[di].resident_pages += 1;
            self.hosts[di].peak_resident_pages = self.hosts[di]
                .peak_resident_pages
                .max(self.hosts[di].resident_pages);
            self.stats.migration.pages_promoted += 1;
            self.stats.migration.transfer_bytes += PAGE_SIZE;
        }

        // CPU costs (§5.1.4): the initiating host's first core pays the
        // per-page cost (scaled; Nomad halves it via asynchronous
        // migration); every other core pays the batched-shootdown cost.
        let cost_cfg = self.cfg.migration_cost;
        let any_work = !outcome.promotions.is_empty() || !outcome.demotions.is_empty();
        for (hi, &n) in promos_per_host.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let ci = hi * self.cfg.cores_per_host;
            let cost = cost_cfg.batch_fixed_cycles
                + ((cost_cfg.initiator_cycles_per_page * n) as f64 * k.init_mult) as Cycle;
            self.cores[ci].charge(cost);
            self.stats.cores[ci].mgmt_stall += cost;
        }
        if any_work {
            for ci in 0..self.cores.len() {
                if promos_per_host[ci / self.cfg.cores_per_host] > 0
                    && ci % self.cfg.cores_per_host == 0
                {
                    continue; // initiator already charged
                }
                self.cores[ci].charge(cost_cfg.shootdown_cycles_per_batch);
                self.stats.cores[ci].mgmt_stall += cost_cfg.shootdown_cycles_per_batch;
            }
        }
        self.promo_scratch = promos_per_host;
    }

    /// Removes all cached lines of `page` from host `hi` (migration
    /// shootdown).
    /// Demotes a kernel-resident page from `owner` back to CXL DRAM:
    /// cached copies flush into local DRAM, then the whole page travels
    /// local → CXL with a bulk transfer.
    fn demote_kernel_page(
        &mut self,
        k: &mut KernelState,
        page: PageNum,
        owner: HostId,
        now: Cycle,
    ) {
        let oi = owner.index();
        if let Some(o) = self.oracle.as_mut() {
            for i in 0..LINES_PER_PAGE as usize {
                o.evict_to_local(oi, page.line(i));
                o.local_to_cxl(oi, page.line(i));
            }
        }
        self.flush_page(oi, page);
        let t = self.hosts[oi]
            .dram
            .bulk_transfer(page.base_addr(), now, PAGE_SIZE);
        let dev = self.fabric.device_for_page(page);
        let arr = self
            .fabric
            .send(owner, dev, Dir::ToDevice, t, PAGE_SIZE, true);
        self.cxl_dram[dev].bulk_transfer(page.base_addr(), arr.at, PAGE_SIZE);
        self.page_location.remove(page);
        k.harm.on_demote(page);
        self.hosts[oi].resident_pages = self.hosts[oi].resident_pages.saturating_sub(1);
        self.stats.migration.pages_demoted += 1;
        self.stats.migration.transfer_bytes += PAGE_SIZE;
    }

    fn flush_page(&mut self, hi: usize, page: PageNum) {
        for i in 0..LINES_PER_PAGE as usize {
            let line = page.line(i);
            self.hosts[hi].llc.invalidate(line);
            for l1 in &mut self.hosts[hi].l1 {
                l1.invalidate(line);
            }
        }
    }
}

/// Run-loop state threaded through [`System::drive`]: the per-core access
/// streams and the dense clock snapshot the argmin scan operates on.
struct RunState {
    streams: Vec<Box<dyn AccessStream>>,
    clocks: Vec<Cycle>,
    live: usize,
}

impl RunState {
    fn fork(&self) -> RunState {
        RunState {
            streams: self
                .streams
                .iter()
                .map(|s| {
                    s.fork()
                        .expect("checkpointing requires forkable access streams")
                })
                .collect(),
            clocks: self.clocks.clone(),
            live: self.live,
        }
    }
}

/// The conventional warm-up fraction for checkpointed parameter sweeps:
/// the shared prefix covers the first two thirds of the trace, so the
/// checkpoint taken at the warm-up boundary leaves the entire measured
/// window (the final third) to run under each point's [`CfgDelta`]. Both
/// the benchmark harness (`pipm-bench`) and the daemon's `whatif` request
/// (`pipm-serve`) use this split so their checkpoint keys coincide.
pub const SWEEP_WARMUP_FRACTION: f64 = 2.0 / 3.0;

/// A late-binding configuration delta for checkpointed sweeps: the
/// parameters a forked [`Checkpoint`] may change before resuming. Each
/// field overrides the corresponding [`SystemConfig`] entry when `Some`.
///
/// Only parameters whose state can be reconfigured on a warmed simulator
/// are sweepable this way — link timing (the fabric keeps its occupancy),
/// remapping-cache geometry (caches rebuild cold over intact tables), and
/// the PIPM vote threshold (read live on every vote). Structural
/// parameters (host/core counts, cache hierarchy, DRAM geometry) bind at
/// [`System::new`] and cannot appear in a delta.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CfgDelta {
    /// Override for [`pipm_types::CxlConfig::link_latency_ns`].
    pub link_latency_ns: Option<f64>,
    /// Override for [`pipm_types::CxlConfig::link_gbps`].
    pub link_gbps: Option<f64>,
    /// Override for [`pipm_types::PipmConfig::local_remap_cache_bytes`].
    pub local_remap_cache_bytes: Option<u64>,
    /// Override for [`pipm_types::PipmConfig::global_remap_cache_bytes`].
    pub global_remap_cache_bytes: Option<u64>,
    /// Override for [`pipm_types::PipmConfig::migration_threshold`].
    pub migration_threshold: Option<u8>,
}

impl CfgDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        *self == CfgDelta::default()
    }

    /// Writes the overrides into `cfg`.
    pub fn apply_to(&self, cfg: &mut SystemConfig) {
        if let Some(v) = self.link_latency_ns {
            cfg.cxl.link_latency_ns = v;
        }
        if let Some(v) = self.link_gbps {
            cfg.cxl.link_gbps = v;
        }
        if let Some(v) = self.local_remap_cache_bytes {
            cfg.pipm.local_remap_cache_bytes = v;
        }
        if let Some(v) = self.global_remap_cache_bytes {
            cfg.pipm.global_remap_cache_bytes = v;
        }
        if let Some(v) = self.migration_threshold {
            cfg.pipm.migration_threshold = v;
        }
    }
}

/// A frozen mid-run simulator: the complete [`System`] state plus each
/// core's access-stream position, captured between references by
/// [`System::run_prefix`].
///
/// A checkpoint can be resumed directly ([`Checkpoint::resume`]) or forked
/// ([`Clone`]) into many copies, each resumed under a different
/// [`CfgDelta`] — a parameter sweep then pays for its shared warmed prefix
/// once instead of once per point. Resuming is byte-identical to an
/// uninterrupted run: the same statistics, cycle for cycle.
pub struct Checkpoint {
    system: System,
    run: RunState,
}

impl Clone for Checkpoint {
    /// Forks the checkpoint: deep-copies the simulator and re-creates
    /// every stream at its exact generator position.
    ///
    /// # Panics
    ///
    /// Panics if any stream does not support
    /// [`AccessStream::fork`].
    fn clone(&self) -> Self {
        Checkpoint {
            system: self.system.clone(),
            run: self.run.fork(),
        }
    }
}

impl Checkpoint {
    /// Total references processed when the checkpoint was taken.
    pub fn processed(&self) -> u64 {
        self.system.processed
    }

    /// The scheme being simulated.
    pub fn scheme(&self) -> SchemeKind {
        self.system.kind
    }

    /// The configuration in force at the checkpoint.
    pub fn config(&self) -> &SystemConfig {
        self.system.config()
    }

    /// Resumes the run to completion unchanged.
    pub fn resume(self) -> SystemStats {
        self.resume_with(&CfgDelta::default())
    }

    /// Applies `delta` to the warmed simulator, then resumes the run to
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if the delta produces an invalid configuration.
    pub fn resume_with(self, delta: &CfgDelta) -> SystemStats {
        let Checkpoint {
            mut system,
            mut run,
        } = self;
        system.apply_delta(delta);
        system.drive(&mut run, u64::MAX);
        system.finish()
    }
}

/// Effective migration target for a page: the PIPM global table's current
/// host, or the static map's fixed target under HW-static.
fn global_current(
    global: &GlobalRemap,
    static_map: Option<HwStaticMap>,
    page: PageNum,
) -> Option<HostId> {
    match static_map {
        Some(map) => Some(map.target(page)),
        None => global.current(page),
    }
}
