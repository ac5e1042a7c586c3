//! Per-layer replays for the traced run.
//!
//! Each replay feeds one cell's own reference trace, generated from the
//! same seed as the timed run, through one layer's public structure and
//! times the loop from outside: stream generation (`fill_batch`), the
//! L1 (`SetAssoc` with the L1 geometry), the core model (`CoreModel`),
//! the device directory (`DeviceDirectory`), the fabric
//! (`Topology::send`, direct and switched), DRAM (`Dram::access`) and
//! the remap tables (`GlobalRemap`/`LocalRemap::lookup`). One span per
//! loop carries the number of operations, so a layer's cost is its spans'
//! total time over their total work.
//!
//! The replays approximate what the simulator asks of each layer (every
//! shared reference visits the directory, fabric and remap tables; every
//! L1 miss visits DRAM); they time the structures, not the simulator's
//! exact call sequence, which the simulated counts report instead.

use crate::sim::Cell;
use crate::trace::Tracer;
use pipm_cache::SetAssoc;
use pipm_coherence::{DevState, DeviceDirectory};
use pipm_core::{resume_one, run_prefix_one, GlobalRemap, LocalRemap};
use pipm_cpu::{AccessStream, CoreModel, TraceRecord};
use pipm_fabric::{Dir, Topology};
use pipm_mem::Dram;
use pipm_serve::proto::{self, Request, RequestLimits};
use pipm_types::{AccessClass, HostId, LineAddr, SystemConfig, LINE_SIZE, PAGE_SIZE};
use pipm_workloads::WorkloadParams;
use std::hint::black_box;
use std::time::Instant;

/// Records per `fill_batch` call (the simulator's batch size).
const BATCH: usize = 64;

/// Drains `streams` through `fill_batch`, returning a checksum.
fn drain(streams: Vec<Box<dyn AccessStream>>) -> u64 {
    let mut buf = Vec::with_capacity(BATCH);
    let mut sum = 0u64;
    for mut s in streams {
        while s.fill_batch(&mut buf, BATCH) > 0 {
            sum = buf.iter().fold(sum, |a, r| a.wrapping_add(r.addr.raw()));
        }
    }
    sum
}

/// One shared reference, in round-robin core order.
#[derive(Clone, Copy)]
struct SharedRef {
    host: HostId,
    line: LineAddr,
    is_write: bool,
}

/// Times every structure replay for one cell, recording spans.
pub fn replay_cell(cell: Cell, seed: u64, refs_per_core: u64, tracer: &mut Tracer) {
    let mut cfg = cell.config();
    let params = WorkloadParams {
        refs_per_core,
        seed,
    };
    let refs = refs_per_core * cfg.total_cores() as u64;

    let streams = cell.workload.streams(&mut cfg, &params);
    let (sum, _) = tracer.time("workloads.gen", 0, refs, || drain(streams));
    black_box(sum);

    let traces: Vec<Vec<TraceRecord>> = cell
        .workload
        .streams(&mut cfg, &params)
        .into_iter()
        .map(|mut s| {
            let mut v = Vec::with_capacity(refs_per_core as usize);
            while let Some(r) = s.next_record() {
                v.push(r);
            }
            v
        })
        .collect();

    let (sets, ways) = (cfg.l1d.sets(), cfg.l1d.ways);
    let (hits, _) = tracer.time("cache.l1", 0, refs, || {
        let mut hits = 0u64;
        for t in &traces {
            let mut l1: SetAssoc<LineAddr, bool> = SetAssoc::new(sets, ways);
            for r in t {
                if l1.lookup(r.addr.line()).is_some() {
                    hits += 1;
                } else {
                    l1.insert(r.addr.line(), false);
                }
            }
        }
        hits
    });
    black_box(hits);

    let (clock, _) = tracer.time("cpu.core", 0, refs, || {
        let mut sum = 0u64;
        for t in &traces {
            let mut core = CoreModel::new(&cfg.core);
            for r in t {
                core.advance_compute(r.nonmem);
                core.reserve_slot(r.is_write, &mut |_, _| {});
                let now = core.clock();
                core.issue(now + 4, AccessClass::L1Hit, r.is_write);
            }
            sum = sum.wrapping_add(core.clock());
        }
        sum
    });
    black_box(clock);

    let (shared, misses) = interleave(&traces, &cfg);
    let ops = 2 * shared.len() as u64;
    let (recalls, _) = tracer.time("coherence.devdir", 0, ops, || {
        let mut dir = DeviceDirectory::new(&cfg.directory);
        let mut recalls = 0u64;
        for s in &shared {
            black_box(dir.lookup(s.line));
            let recall = if s.is_write {
                dir.update(s.line, DevState::Modified(s.host))
            } else {
                dir.add_sharer(s.line, s.host)
            };
            recalls += u64::from(recall.is_some());
        }
        recalls
    });
    black_box(recalls);

    let mut switched = cfg.clone();
    switched.apply_topology(crate::sim::switched_topology());
    for (name, topo_cfg) in [
        ("fabric.send.direct", &cfg),
        ("fabric.send.switched", &switched),
    ] {
        let (at, _) = tracer.time(name, 0, ops, || {
            let mut topo = Topology::new(topo_cfg);
            let header = topo.header_bytes();
            let mut last = 0;
            for (i, s) in shared.iter().enumerate() {
                let dev = topo.device_for_line(s.line);
                let now = 8 * i as u64;
                let req = topo.send(s.host, dev, Dir::ToDevice, now, header, false);
                let resp = topo.send(s.host, dev, Dir::ToHost, req.at, header + LINE_SIZE, false);
                last = resp.at;
            }
            last
        });
        black_box(at);
    }

    let (done, _) = tracer.time("mem.dram", 0, misses.len() as u64, || {
        let mut dram = Dram::new(&cfg.cxl_dram);
        let mut last = 0;
        for (i, r) in misses.iter().enumerate() {
            last = dram.access(r.addr, 16 * i as u64, r.is_write);
        }
        last
    });
    black_box(done);

    let lookups = shared.len() as u64;
    let (g_hits, _) = tracer.time("remap.global_lookup", 0, lookups, || {
        let mut global = GlobalRemap::new(&cfg.pipm);
        shared
            .iter()
            .filter(|s| global.lookup(s.line.page()).cache_hit)
            .count()
    });
    black_box(g_hits);
    let capacity_pages = (cfg.local_capacity_bytes / PAGE_SIZE) as usize;
    let (l_hits, _) = tracer.time("remap.local_lookup", 0, lookups, || {
        let mut locals: Vec<LocalRemap> = (0..cfg.hosts)
            .map(|_| LocalRemap::new(&cfg.pipm, capacity_pages))
            .collect();
        shared
            .iter()
            .filter(|s| locals[s.host.index()].lookup(s.line.page()).cache_hit)
            .count()
    });
    black_box(l_hits);
}

/// Interleaves the per-core traces round-robin (the order cores with
/// equal clocks would issue in) and returns the shared references and
/// the references that miss a per-core L1 replay.
fn interleave(
    traces: &[Vec<TraceRecord>],
    cfg: &SystemConfig,
) -> (Vec<SharedRef>, Vec<TraceRecord>) {
    let mut l1s: Vec<SetAssoc<LineAddr, bool>> = traces
        .iter()
        .map(|_| SetAssoc::new(cfg.l1d.sets(), cfg.l1d.ways))
        .collect();
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    let (mut shared, mut misses) = (Vec::new(), Vec::new());
    for i in 0..longest {
        for (c, t) in traces.iter().enumerate() {
            let Some(r) = t.get(i) else { continue };
            if r.addr.is_shared(cfg) {
                shared.push(SharedRef {
                    host: HostId::new(c / cfg.cores_per_host),
                    line: r.addr.line(),
                    is_write: r.is_write,
                });
            }
            if l1s[c].lookup(r.addr.line()).is_none() {
                l1s[c].insert(r.addr.line(), false);
                misses.push(*r);
            }
        }
    }
    (shared, misses)
}

/// Times `run_prefix_one`, a checkpoint clone and `resume_one` for the
/// fork request `fork_line`, exactly as the daemon's worker runs it,
/// `reps` times.
pub fn checkpoint_costs(fork_line: &str, reps: usize, tracer: &mut Tracer) {
    let Ok(Request::Submit(jobs)) = proto::parse_request(fork_line, &RequestLimits::default())
    else {
        panic!("fork line must parse: {fork_line}");
    };
    let job = &jobs[0];
    let w = job.whatif.as_ref().expect("fork line is a whatif");
    for _ in 0..reps {
        let (ckpt, _) = tracer.time("checkpoint.prefix", 0, 1, || {
            run_prefix_one(
                job.workload,
                job.scheme,
                job.cfg.clone(),
                &job.params,
                w.prefix_refs,
            )
        });
        let (fork, _) = tracer.time("checkpoint.clone", 0, 1, || ckpt.clone());
        let t0 = Instant::now();
        let r = resume_one(job.workload, job.scheme, fork, &w.delta);
        tracer.record("checkpoint.resume", 0, 0, t0, Instant::now(), 1);
        black_box(r.exec_cycles());
    }
}
