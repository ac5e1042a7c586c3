//! The serving side: an in-process `pipm-serve` daemon with one
//! simulation worker, driven by an open-loop Poisson generator.
//!
//! The generator holds at most [`CONNECTIONS`] connections and pipelines
//! on them: a writer sends each request at its scheduled time whether
//! or not earlier ones have returned, and one reader per connection
//! matches responses in order. Latency runs from the scheduled send
//! time, so a stall is charged to every request it delays; how late the
//! writer itself sent is reported separately.
//!
//! Every response is checked. A warm hit must equal, byte for byte, the
//! response its key got when it was computed cold during set-up. Cold
//! `submit`s and `whatif` forks must be `ok`, and a sample of them is
//! recomputed in-process and compared byte for byte. An `overloaded`
//! refusal or a transport error counts as a miss of the latency limit.

use crate::sim::Cell;
use crate::stats::{median, Latencies};
use crate::trace::Tracer;
use pipm_core::{resume_one, run_one, run_prefix_one, RunCache};
use pipm_serve::bench::{poisson_offsets, SplitMix64};
use pipm_serve::client::Client;
use pipm_serve::json::{self, Json};
use pipm_serve::proto::{self, encode_batch_raw, encode_result, Request, RequestLimits};
use pipm_serve::server::{Server, ServerConfig, ShutdownHandle};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Connections the generator holds open.
pub const CONNECTIONS: usize = 2;
/// One request in this many is a cold `submit` with an unseen seed.
const COLD_EVERY: usize = 80;
/// One request in this many is a `whatif` fork of the cached checkpoint.
const FORK_EVERY: usize = 80;
/// The latency limit on `hit_p99_ms` for `max_rps_at_slo`.
pub const SLO_HIT_P99_MS: f64 = 25.0;
/// A rung passes only if it completes at least this share of its
/// offered rate (otherwise the backlog is growing).
pub const SLO_MIN_ACHIEVED: f64 = 0.95;
/// Requests per ladder rung: enough hits for ten samples beyond p99.
const RUNG_REQUESTS: usize = 1100;
/// Rate ratio between coarse rungs of the rate ladder.
const COARSE_STEP: f64 = 1.5;
/// Rate ratio between fine rungs of the rate ladder.
const FINE_STEP: f64 = 1.1;
/// Most rungs one ladder runs.
const LADDER_MAX_RUNGS: usize = 16;
/// Cold and fork responses recomputed in-process per phase.
const VERIFY_SAMPLES: usize = 4;
/// How long a reader waits for one response before declaring the
/// connection broken.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The request mix a benchmark workload offers the daemon.
#[derive(Clone, Debug)]
pub struct Mix {
    /// One pre-warmed hit key per entry.
    pub hit_cells: Vec<Cell>,
    /// Cold `submit`s cycle through these cells.
    pub cold_cells: Vec<Cell>,
    /// The base every `whatif` forks.
    pub fork_base: Cell,
    /// `refs_per_core` of every served job.
    pub refs_per_core: u64,
}

/// What a request is, for accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Warm hit on pre-warmed key `k`.
    Hit(usize),
    /// Cold `submit` with a seed the daemon has not seen.
    Cold,
    /// `whatif` fork of the cached checkpoint with an unseen delta.
    Fork,
}

/// One scheduled request.
pub struct Planned {
    /// Send time, as an offset from the phase start.
    pub at: Duration,
    /// Request class.
    pub kind: Kind,
    /// The request line (no trailing newline).
    pub line: String,
}

fn job_json(cell: Cell, refs: u64, seed: u64) -> String {
    format!(
        r#""workload":"{}","scheme":"{}","refs_per_core":{refs},"seed":{seed}"#,
        cell.workload.label(),
        cell.scheme.label()
    )
}

/// Builds request lines and schedules from the workload seed. Cold
/// seeds and fork deltas come from counters, so no two requests of one
/// run ask for the same cold computation.
pub struct LineGen {
    mix: Mix,
    seed: u64,
    next_cold: u64,
    next_fork: u64,
}

impl LineGen {
    /// A generator for `mix` under workload seed `seed`.
    pub fn new(mix: Mix, seed: u64) -> Self {
        LineGen {
            mix,
            seed,
            next_cold: 0,
            next_fork: 1,
        }
    }

    /// Number of hit keys.
    pub fn hit_keys(&self) -> usize {
        self.mix.hit_cells.len()
    }

    /// The `submit` line of hit key `k`.
    pub fn hit_line(&self, k: usize) -> String {
        let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
        format!(
            r#"{{"cmd":"submit","jobs":[{{{}}}]}}"#,
            job_json(self.mix.hit_cells[k], self.mix.refs_per_core, seed)
        )
    }

    /// The next cold `submit` line.
    pub fn cold_line(&mut self) -> String {
        let i = self.next_cold;
        self.next_cold += 1;
        let cell = self.mix.cold_cells[i as usize % self.mix.cold_cells.len()];
        let seed = self
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(1_000_000 + i);
        format!(
            r#"{{"cmd":"submit","jobs":[{{{}}}]}}"#,
            job_json(cell, self.mix.refs_per_core, seed)
        )
    }

    /// The `whatif` line with delta number `i`; 0 is the set-up fork
    /// that builds the cached checkpoint.
    fn fork_line_at(&self, i: u64) -> String {
        let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(999_999);
        let link_ns = 50.0 + (i % 4000) as f64 * 0.01;
        format!(
            r#"{{"cmd":"whatif","jobs":[{{{},"delta":{{"link_latency_ns":{link_ns:.2}}}}}]}}"#,
            job_json(self.mix.fork_base, self.mix.refs_per_core, seed)
        )
    }

    /// The set-up fork line.
    pub fn prewarm_fork_line(&self) -> String {
        self.fork_line_at(0)
    }

    /// The next `whatif` line with an unseen delta.
    pub fn fork_line(&mut self) -> String {
        let i = self.next_fork;
        self.next_fork += 1;
        self.fork_line_at(i)
    }

    /// `n` Poisson arrivals at `rate_hz`; request `i` is cold when
    /// `i % COLD_EVERY == COLD_EVERY / 2`, a fork when
    /// `i % FORK_EVERY == FORK_EVERY - 1`, and otherwise a hit on a key
    /// drawn from `schedule_seed`.
    pub fn schedule(&mut self, schedule_seed: u64, rate_hz: f64, n: usize) -> Vec<Planned> {
        let mut rng = SplitMix64::new(schedule_seed ^ 0x005e_ed0f_4175);
        poisson_offsets(schedule_seed, rate_hz, n)
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let (kind, line) = if i % COLD_EVERY == COLD_EVERY / 2 {
                    (Kind::Cold, self.cold_line())
                } else if i % FORK_EVERY == FORK_EVERY - 1 {
                    (Kind::Fork, self.fork_line())
                } else {
                    let k = (rng.next_u64() % self.hit_keys() as u64) as usize;
                    (Kind::Hit(k), self.hit_line(k))
                };
                Planned { at, kind, line }
            })
            .collect()
    }
}

/// An in-process daemon running on its own thread.
pub struct Daemon {
    /// Bound address.
    pub addr: String,
    handle: ShutdownHandle,
    thread: thread::JoinHandle<io::Result<()>>,
}

impl Daemon {
    /// Binds on a free local port with one simulation worker and starts
    /// serving.
    pub fn start() -> io::Result<Daemon> {
        let server = Server::bind(ServerConfig {
            workers: 1,
            cache_capacity: 16_384,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let handle = server.shutdown_handle();
        let thread = thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread,
        })
    }

    /// Requests shutdown and waits for the daemon thread to end.
    pub fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("daemon thread panicked")),
        }
    }
}

/// A bound, pre-warmed daemon and the cold responses of its hit keys.
pub struct Prewarmed {
    /// The daemon.
    pub daemon: Daemon,
    /// `expected[k]` is hit key `k`'s cold response line.
    pub expected: Vec<String>,
}

/// Binds a daemon and computes every hit key and the fork checkpoint
/// once; returns it with the time that took (the serving set-up).
pub fn start_prewarmed(gen: &LineGen, tracer: &mut Tracer) -> io::Result<(Prewarmed, Duration)> {
    let t0 = Instant::now();
    let daemon = Daemon::start()?;
    let t_bind = Instant::now();
    let root = tracer.record("serve.setup.bind", 0, 0, t0, t_bind, 1);
    let mut client = Client::connect_with_timeout(&daemon.addr, Some(READ_TIMEOUT))?;
    let mut expected = Vec::with_capacity(gen.hit_keys());
    for k in 0..gen.hit_keys() {
        let (resp, _) = tracer.time("serve.setup.prewarm", root, 1, || {
            client.request(&gen.hit_line(k))
        });
        expected.push(resp?);
    }
    let (fork, _) = tracer.time("serve.setup.prewarm", root, 1, || {
        client.request(&gen.prewarm_fork_line())
    });
    let fork = fork?;
    drop(client);
    let elapsed = t0.elapsed();
    for resp in expected.iter().chain([&fork]) {
        if !resp.starts_with(r#"{"ok":true"#) {
            return Err(io::Error::other(format!("pre-warm failed: {resp}")));
        }
    }
    Ok((Prewarmed { daemon, expected }, elapsed))
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Request class.
    pub kind: Kind,
    /// How late the writer sent it.
    pub late: Duration,
    /// Scheduled send to response; `None` on a transport failure.
    pub latency: Option<Duration>,
    /// The response line.
    pub response: String,
}

/// Sends `plan` open-loop over [`CONNECTIONS`] pipelined connections and
/// waits for every response (or transport failure). Returns the instant
/// the schedule's offsets count from, with one outcome per request.
pub fn drive(addr: &str, plan: &[Planned]) -> io::Result<(Instant, Vec<Outcome>)> {
    let streams = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            Ok(s)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let readers = streams
        .iter()
        .map(|s| s.try_clone().map(BufReader::new))
        .collect::<io::Result<Vec<_>>>()?;
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            kind: p.kind,
            late: Duration::ZERO,
            latency: None,
            response: String::new(),
        })
        .collect();
    // A short lead so the first arrival is not late by construction.
    let start = Instant::now() + Duration::from_millis(2);
    thread::scope(|scope| {
        let mut senders = Vec::with_capacity(CONNECTIONS);
        let mut handles = Vec::with_capacity(CONNECTIONS);
        for mut reader in readers {
            let (tx, rx) = mpsc::channel::<(usize, Instant)>();
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                let mut broken = false;
                for (i, scheduled) in rx {
                    let mut line = String::new();
                    let ok = !broken && matches!(reader.read_line(&mut line), Ok(n) if n > 0);
                    broken |= !ok;
                    let latency = ok.then(|| scheduled.elapsed());
                    got.push((i, latency, line.trim_end().to_string()));
                }
                got
            }));
        }
        let mut buf = Vec::new();
        for (i, p) in plan.iter().enumerate() {
            let scheduled = start + p.at;
            let now = Instant::now();
            if scheduled > now {
                thread::sleep(scheduled - now);
            }
            let c = i % CONNECTIONS;
            // A send fails only if the reader is gone, and then every
            // remaining request on this connection stays a failure.
            let _ = senders[c].send((i, scheduled));
            buf.clear();
            buf.extend_from_slice(p.line.as_bytes());
            buf.push(b'\n');
            let sent = Instant::now();
            // A failed write surfaces as a failed read on this
            // connection.
            let _ = (&streams[c]).write_all(&buf);
            outcomes[i].late = sent.saturating_duration_since(scheduled);
        }
        drop(senders);
        for h in handles {
            for (i, latency, response) in h.join().expect("reader thread panicked") {
                outcomes[i].latency = latency;
                outcomes[i].response = response;
            }
        }
    });
    Ok((start, outcomes))
}

/// Accounting of one driven phase.
pub struct PhaseResult {
    /// Warm-hit latencies (failures as `Duration::MAX`).
    pub hits: Latencies,
    /// Cold-submit latencies.
    pub cold: Latencies,
    /// Fork latencies.
    pub fork: Latencies,
    /// How late the writer sent each request.
    pub late: Latencies,
    /// Requests sent.
    pub attempted: u64,
    /// Correctness or transport failures and non-`ok` responses other
    /// than `overloaded`.
    pub failed: u64,
    /// `overloaded` refusals (misses of the latency limit).
    pub overloaded: u64,
    /// Successful responses.
    pub ok: u64,
    /// Offset of the last scheduled send.
    pub span: Duration,
    /// Offset of the last successful response.
    pub last_done: Duration,
    /// (request, response) pairs of cold and fork requests, kept for
    /// in-process recomputation.
    pub samples: Vec<(String, String)>,
}

fn per_second(n: u64, d: Duration) -> f64 {
    if d.is_zero() {
        0.0
    } else {
        n as f64 / d.as_secs_f64()
    }
}

impl PhaseResult {
    /// Requests per second the schedule offered.
    pub fn offered_rps(&self) -> f64 {
        per_second(self.attempted, self.span)
    }

    /// Successful responses per second, up to the last response.
    pub fn achieved_rps(&self) -> f64 {
        per_second(self.ok, self.last_done)
    }

    /// Pools phases run one after another: samples and counts add up,
    /// and so do the schedules' lengths.
    pub fn merge(parts: Vec<PhaseResult>) -> PhaseResult {
        let mut all = PhaseResult {
            hits: Latencies::default(),
            cold: Latencies::default(),
            fork: Latencies::default(),
            late: Latencies::default(),
            attempted: 0,
            failed: 0,
            overloaded: 0,
            ok: 0,
            span: Duration::ZERO,
            last_done: Duration::ZERO,
            samples: Vec::new(),
        };
        let (mut hits, mut cold, mut fork, mut late) = (vec![], vec![], vec![], vec![]);
        for p in parts {
            hits.extend(p.hits.into_samples());
            cold.extend(p.cold.into_samples());
            fork.extend(p.fork.into_samples());
            late.extend(p.late.into_samples());
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.overloaded += p.overloaded;
            all.ok += p.ok;
            all.last_done = all.span + p.last_done;
            all.span += p.span;
            let room = 2 * VERIFY_SAMPLES - all.samples.len().min(2 * VERIFY_SAMPLES);
            all.samples.extend(p.samples.into_iter().take(room));
        }
        all.hits = Latencies::new(hits);
        all.cold = Latencies::new(cold);
        all.fork = Latencies::new(fork);
        all.late = Latencies::new(late);
        all
    }

    /// Whether this phase meets the latency limit without a backlog.
    pub fn meets_slo(&self) -> bool {
        self.hits.beyond(0.99) >= 10
            && self.hits.ms(0.99) <= SLO_HIT_P99_MS
            && self.achieved_rps() >= SLO_MIN_ACHIEVED * self.offered_rps()
    }
}

/// Classifies every outcome of `plan` against the hit expectations.
pub fn analyse(plan: &[Planned], outcomes: &[Outcome], expected: &[String]) -> PhaseResult {
    let (mut hits, mut cold, mut fork, mut late) = (vec![], vec![], vec![], vec![]);
    let (mut ok, mut failed, mut overloaded) = (0u64, 0u64, 0u64);
    let mut last_done = Duration::ZERO;
    let mut samples = Vec::new();
    let (mut cold_kept, mut fork_kept) = (0, 0);
    for (p, o) in plan.iter().zip(outcomes) {
        late.push(o.late);
        let good = match (o.latency, p.kind) {
            (None, _) => false,
            (Some(_), Kind::Hit(k)) => o.response == expected[k],
            (Some(_), _) => o.response.starts_with(r#"{"ok":true"#),
        };
        let latency = if good {
            ok += 1;
            let l = o.latency.unwrap_or(Duration::MAX);
            last_done = last_done.max(p.at + l);
            l
        } else {
            if o.response.contains(r#""kind":"overloaded""#) {
                overloaded += 1;
            } else {
                failed += 1;
                eprintln!(
                    "FAIL serve {:?}: {}",
                    p.kind,
                    if o.latency.is_none() {
                        "transport error"
                    } else {
                        &o.response
                    }
                );
            }
            Duration::MAX
        };
        match p.kind {
            Kind::Hit(_) => hits.push(latency),
            Kind::Cold => {
                cold.push(latency);
                if good && cold_kept < VERIFY_SAMPLES {
                    cold_kept += 1;
                    samples.push((p.line.clone(), o.response.clone()));
                }
            }
            Kind::Fork => {
                fork.push(latency);
                if good && fork_kept < VERIFY_SAMPLES {
                    fork_kept += 1;
                    samples.push((p.line.clone(), o.response.clone()));
                }
            }
        }
    }
    PhaseResult {
        hits: Latencies::new(hits),
        cold: Latencies::new(cold),
        fork: Latencies::new(fork),
        late: Latencies::new(late),
        attempted: plan.len() as u64,
        failed,
        overloaded,
        ok,
        span: plan.last().map_or(Duration::ZERO, |p| p.at),
        last_done,
        samples,
    }
}

/// The response the daemon must give to `line`, computed in-process the
/// way its worker computes it.
fn recompute(line: &str) -> Result<String, String> {
    let request = proto::parse_request(line, &RequestLimits::default()).map_err(|e| e.encode())?;
    let Request::Submit(jobs) = request else {
        return Err(format!("not a job request: {line}"));
    };
    let encoded: Vec<String> = jobs
        .iter()
        .map(|job| {
            let result = match &job.whatif {
                None => run_one(job.workload, job.scheme, job.cfg.clone(), &job.params),
                Some(w) => {
                    let ckpt = run_prefix_one(
                        job.workload,
                        job.scheme,
                        job.cfg.clone(),
                        &job.params,
                        w.prefix_refs,
                    );
                    resume_one(job.workload, job.scheme, ckpt, &w.delta)
                }
            };
            encode_result(&result, &job.params, &job.key).encode()
        })
        .collect();
    Ok(encode_batch_raw(&encoded))
}

/// Recomputes each sampled cold/fork request and counts mismatches.
pub fn verify_samples(samples: &[(String, String)]) -> u64 {
    let mut bad = 0;
    for (line, response) in samples {
        match recompute(line) {
            Ok(want) if &want == response => {}
            Ok(want) => {
                bad += 1;
                eprintln!("FAIL serve response differs from in-process run:\n  request  {line}\n  served   {response}\n  expected {want}");
            }
            Err(e) => {
                bad += 1;
                eprintln!("FAIL recompute {line}: {e}");
            }
        }
    }
    bad
}

/// One rung of the rate ladder.
pub struct Rung {
    /// Target rate of the rung.
    pub rate: f64,
    /// The rung's accounting.
    pub result: PhaseResult,
}

/// The rate ladder, climbed one rung at a time and restarted after each
/// complete pass. A pass climbs from the start rate in coarse steps of
/// ×1.5 until a rung misses the latency limit or backs up, then in fine
/// steps of ×1.1 up from the last passing coarse rung until one fails
/// again; while no rung of the pass has passed, it steps down instead.
/// A pass's result is the achieved rate of its highest passing rung.
pub struct Ladder {
    start_rps: f64,
    rate: f64,
    step: f64,
    last_pass: Option<f64>,
    pass_rungs: usize,
    /// Every rung run, in order.
    pub rungs: Vec<Rung>,
    /// One result per completed pass.
    pub passes: Vec<f64>,
}

impl Ladder {
    /// A ladder starting at `start_rps`.
    pub fn new(start_rps: f64) -> Self {
        Ladder {
            start_rps,
            rate: start_rps,
            step: COARSE_STEP,
            last_pass: None,
            pass_rungs: 0,
            rungs: Vec::new(),
            passes: Vec::new(),
        }
    }

    /// Whether the current pass has not run a rung yet.
    pub fn at_pass_start(&self) -> bool {
        self.pass_rungs == 0
    }

    /// Runs the next rung and advances the ladder.
    pub fn step(
        &mut self,
        addr: &str,
        gen: &mut LineGen,
        expected: &[String],
        seed: u64,
    ) -> io::Result<()> {
        let schedule_seed = seed ^ (self.rungs.len() as u64 + 1) << 32;
        let plan = gen.schedule(schedule_seed, self.rate, RUNG_REQUESTS);
        let (_, outcomes) = drive(addr, &plan)?;
        let result = analyse(&plan, &outcomes, expected);
        let pass = result.meets_slo();
        let achieved = result.achieved_rps();
        self.rungs.push(Rung {
            rate: self.rate,
            result,
        });
        self.pass_rungs += 1;
        let done = match (pass, self.last_pass) {
            (true, _) => {
                self.last_pass = Some(achieved);
                self.rate *= self.step;
                false
            }
            (false, None) => {
                self.rate /= self.step;
                false
            }
            (false, Some(_)) if self.step == COARSE_STEP => {
                self.step = FINE_STEP;
                self.rate = self.rate / COARSE_STEP * FINE_STEP;
                false
            }
            (false, Some(_)) => true,
        };
        if done || self.pass_rungs >= LADDER_MAX_RUNGS {
            self.passes.push(self.last_pass.unwrap_or(0.0));
            *self = Ladder {
                rungs: std::mem::take(&mut self.rungs),
                passes: std::mem::take(&mut self.passes),
                ..Ladder::new(self.start_rps)
            };
        }
        Ok(())
    }
}

/// The achieved rate of the highest-rate passing rung (0 if none
/// passed): the result of an unfinished ladder pass.
pub fn best_passing_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.result.meets_slo())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map_or(0.0, |r| r.result.achieved_rps())
}

/// Counters read from the daemon's `metrics` reply.
pub struct DaemonMetrics {
    /// Run-cache hits / (hits + misses).
    pub runcache_hit_ratio: f64,
    /// Checkpoint-cache hits / (hits + misses).
    pub ckpt_hit_ratio: f64,
    /// `overloaded` rejections the daemon counted.
    pub rejected_overloaded: u64,
}

/// Sends `metrics` and extracts the counters the benchmark reports.
pub fn daemon_metrics(addr: &str) -> io::Result<DaemonMetrics> {
    let mut client = Client::connect_with_timeout(addr, Some(READ_TIMEOUT))?;
    let m = client.request_json(r#"{"cmd":"metrics"}"#)?;
    let get = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
    let ratio = |h: u64, miss: u64| {
        if h + miss == 0 {
            0.0
        } else {
            h as f64 / (h + miss) as f64
        }
    };
    Ok(DaemonMetrics {
        runcache_hit_ratio: ratio(get("cache_hits"), get("cache_misses")),
        ckpt_hit_ratio: ratio(get("ckpt_cache_hits"), get("ckpt_cache_misses")),
        rejected_overloaded: get("rejected_overloaded"),
    })
}

/// Host costs of the warm-hit path's pieces, in microseconds per call.
pub struct HitPath {
    /// `proto::parse_request` of a hit line.
    pub parse_us: f64,
    /// `RunCache::get_or_compute` hit.
    pub lookup_us: f64,
    /// `encode_result(..).encode()`.
    pub encode_us: f64,
    /// `json::parse` of a hit response.
    pub json_parse_us: f64,
}

/// Times each piece of the hit path from outside, on hit key 0: the
/// median over five passes of `calls` calls each, one span per pass.
pub fn hit_path(gen: &LineGen, expected: &[String], tracer: &mut Tracer) -> HitPath {
    const PASSES: usize = 5;
    let calls: u64 = 2000;
    let line = gen.hit_line(0);
    let limits = RequestLimits::default();
    let Ok(Request::Submit(jobs)) = proto::parse_request(&line, &limits) else {
        panic!("hit line must parse as a submit: {line}");
    };
    let job = &jobs[0];
    let result = run_one(job.workload, job.scheme, job.cfg.clone(), &job.params);
    let cache: RunCache<String> = RunCache::new(1024);
    cache.insert(&job.key, expected[0].clone());
    let mut per_call = |name: &'static str, f: &mut dyn FnMut() -> usize| {
        let mut us = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let (check, d) = tracer.time(name, 0, calls, || {
                (0..calls).map(|_| std::hint::black_box(f())).sum::<usize>()
            });
            assert!(check > 0);
            us.push(d.as_secs_f64() * 1e6 / calls as f64);
        }
        median(&us)
    };
    let parse_us = per_call("serve.proto.parse", &mut || {
        proto::parse_request(std::hint::black_box(&line), &limits).map_or(0, |_| 1)
    });
    let lookup_us = per_call("runcache.hit", &mut || {
        cache
            .get_or_compute(std::hint::black_box(&job.key), || {
                unreachable!("pre-inserted")
            })
            .len()
    });
    let encode_us = per_call("serve.proto.encode", &mut || {
        encode_result(std::hint::black_box(&result), &job.params, &job.key)
            .encode()
            .len()
    });
    let json_parse_us = per_call("serve.json.parse", &mut || {
        json::parse(std::hint::black_box(&expected[0])).map_or(0, |_| 1)
    });
    HitPath {
        parse_us,
        lookup_us,
        encode_us,
        json_parse_us,
    }
}
