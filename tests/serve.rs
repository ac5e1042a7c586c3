//! End-to-end tests for the `pipm-serve` daemon over loopback TCP.
//!
//! Covers the ISSUE 5 acceptance criteria: byte-identical canonical
//! responses between a cold run, a cache hit, and a direct `run_one`
//! encoding; concurrent identical submissions deduplicated to one
//! computation (observable in `metrics`); structured errors for
//! malformed, unknown, over-limit, and queue-full requests with the
//! daemon surviving all of them; and graceful drain on `shutdown`.
//!
//! The `whatif` tests cover the checkpointed-sweep request type: a
//! `whatif` response must be byte-identical to a direct in-process
//! `run_prefix_one` + `resume_one` encoding, and delta points sharing a
//! base must share one warmed prefix (a checkpoint-cache hit, visible
//! in `metrics`).

use pipm_core::{job_key, resume_one, run_one, run_prefix_one, CfgDelta, SWEEP_WARMUP_FRACTION};
use pipm_serve::bench::{run_open_loop, OpenLoopConfig};
use pipm_serve::client::{Client, DEFAULT_READ_TIMEOUT};
use pipm_serve::json::Json;
use pipm_serve::proto::encode_result;
use pipm_serve::server::{Server, ServerConfig, ShutdownHandle};
use pipm_types::{SchemeKind, SystemConfig};
use pipm_workloads::{Workload, WorkloadParams};
use std::thread::JoinHandle;
use std::time::Duration;

/// Small refs count: every daemon test runs real simulations.
const REFS: u64 = 1_500;
const SEED: u64 = 41;

struct Daemon {
    addr: String,
    handle: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(cfg: ServerConfig) -> Daemon {
        let server = Server::bind(cfg).expect("bind loopback");
        let addr = server.local_addr().expect("local addr").to_string();
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle,
            thread,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to daemon")
    }

    /// Stops the daemon (out-of-band) and asserts a clean exit.
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("serve thread not panicked")
            .expect("serve loop exits cleanly");
    }
}

fn submit_line(workload: &str, scheme: &str, refs: u64, seed: u64) -> String {
    format!(
        r#"{{"cmd":"submit","jobs":[{{"workload":"{workload}","scheme":"{scheme}","refs_per_core":{refs},"seed":{seed}}}]}}"#
    )
}

fn metric(client: &mut Client, key: &str) -> u64 {
    let m = client
        .request_json(r#"{"cmd":"metrics"}"#)
        .expect("metrics");
    m.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics missing {key}"))
}

/// Cold run, warm (cache-hit) run, and a direct in-process `run_one`
/// must all encode to the same bytes — the cache returns real results
/// and the canonical encoding is deterministic end to end.
#[test]
fn responses_byte_identical_across_cold_warm_and_direct() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let line = submit_line("bfs", "pipm", REFS, SEED);

    let cold = client.request(&line).expect("cold submit");
    let warm = client.request(&line).expect("warm submit");
    assert_eq!(cold, warm, "cache hit changed the response bytes");

    // Same job, fresh connection: still the same bytes.
    let mut other = daemon.client();
    let again = other.request(&line).expect("second connection submit");
    assert_eq!(cold, again);

    // Direct computation, encoded with the same canonical encoder.
    let params = WorkloadParams {
        refs_per_core: REFS,
        seed: SEED,
    };
    let direct = run_one(
        Workload::Bfs,
        SchemeKind::Pipm,
        SystemConfig::experiment_scale(),
        &params,
    );
    // Keyed on the parse-time cfg, exactly as the daemon admits it
    // (stream construction fills in derived fields before the run).
    let key = job_key(
        Workload::Bfs,
        SchemeKind::Pipm,
        &SystemConfig::experiment_scale(),
        &params,
    );
    let expected = format!(
        r#"{{"ok":true,"results":[{}]}}"#,
        encode_result(&direct, &params, &key).encode()
    );
    assert_eq!(cold, expected, "server response != direct run_one encoding");

    // The repeat was served from cache: hits > 0, misses == 1.
    assert_eq!(metric(&mut client, "cache_misses"), 1);
    assert!(metric(&mut client, "cache_hits") >= 2);
    daemon.stop();
}

/// N concurrent identical submissions compute the unique job once;
/// the rest are cache hits or in-flight waits, visible in `metrics`.
#[test]
fn concurrent_identical_submissions_compute_once() {
    let cfg = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let line = submit_line("cc", "pipm", REFS, SEED);

    // 24 arrivals scheduled well faster than the daemon serves them, on
    // 6 connections: the first wave races on the one uncached job.
    let report = run_open_loop(&OpenLoopConfig {
        addr: daemon.addr.clone(),
        request_line: line,
        rate_hz: 10_000.0,
        requests: 24,
        seed: SEED,
        max_inflight: 6,
        read_timeout: Some(DEFAULT_READ_TIMEOUT),
    });
    assert_eq!(report.ok, 24, "all requests should succeed");
    assert_eq!(report.errors, 0);
    assert_eq!(report.io_errors, 0);
    assert!(
        report.summary_line().starts_with("bench mode=open-loop "),
        "the report must label its discipline"
    );

    let mut client = daemon.client();
    assert_eq!(
        metric(&mut client, "cache_misses"),
        1,
        "identical jobs must be computed exactly once"
    );
    assert_eq!(metric(&mut client, "jobs_completed"), 24);
    let hits = metric(&mut client, "cache_hits");
    let dedup = metric(&mut client, "cache_inflight_dedup");
    assert_eq!(hits + 1, 24, "every non-miss request is a hit");
    // Dedup counter is a subset of hits (waiters on the in-flight slot);
    // with 6 concurrent connections at least the racing first wave shows
    // up unless the first request completed before any second arrival,
    // so we only require it to be consistent, not nonzero.
    assert!(dedup <= hits);
    daemon.stop();
}

fn whatif_line(lat_ns: u64) -> String {
    format!(
        r#"{{"cmd":"whatif","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{SEED},"delta":{{"link_latency_ns":{lat_ns}}}}}]}}"#
    )
}

/// A `whatif` response must be byte-identical to the direct in-process
/// equivalent (prefix under the base cfg, forked tail under the delta),
/// and two deltas against the same base must share one warmed prefix —
/// the second request is a checkpoint-cache hit.
#[test]
fn whatif_is_byte_identical_to_direct_fork_and_shares_the_prefix() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();

    let a = client.request(&whatif_line(100)).expect("whatif 100ns");
    let b = client.request(&whatif_line(200)).expect("whatif 200ns");
    assert_ne!(a, b, "different deltas must produce different results");

    // Direct equivalent of the 100 ns point.
    let params = WorkloadParams {
        refs_per_core: REFS,
        seed: SEED,
    };
    let mut cfg = SystemConfig::experiment_scale();
    cfg.warmup_fraction = SWEEP_WARMUP_FRACTION;
    let prefix = (cfg.warmup_fraction * (REFS * cfg.total_cores() as u64) as f64) as u64;
    let delta = CfgDelta {
        link_latency_ns: Some(100.0),
        ..CfgDelta::default()
    };
    let ckpt = run_prefix_one(
        Workload::Bfs,
        SchemeKind::Pipm,
        cfg.clone(),
        &params,
        prefix,
    );
    let direct = resume_one(Workload::Bfs, SchemeKind::Pipm, ckpt, &delta);
    let key = format!(
        "sweep-v1|{}|prefix={prefix}|delta={delta:?}",
        job_key(Workload::Bfs, SchemeKind::Pipm, &cfg, &params)
    );
    let expected = format!(
        r#"{{"ok":true,"results":[{}]}}"#,
        encode_result(&direct, &params, &key).encode()
    );
    assert_eq!(
        a, expected,
        "whatif response != direct prefix+resume encoding"
    );

    // One prefix simulation served both deltas; each delta is its own
    // run-cache entry; a repeat of an existing point is a pure run-cache
    // hit that never touches the checkpoint cache again.
    assert_eq!(metric(&mut client, "ckpt_cache_misses"), 1);
    assert!(metric(&mut client, "ckpt_cache_hits") >= 1);
    assert_eq!(metric(&mut client, "cache_misses"), 2);
    let hits_before = metric(&mut client, "ckpt_cache_hits");
    let again = client.request(&whatif_line(100)).expect("whatif repeat");
    assert_eq!(a, again, "repeat whatif changed bytes");
    assert_eq!(metric(&mut client, "ckpt_cache_hits"), hits_before);
    assert_eq!(metric(&mut client, "cache_misses"), 2);
    daemon.stop();
}

/// The fingerprint of a `whatif` result is derived from the sweep-
/// namespaced job key, never from the delta-applied cfg — so it can
/// never alias the fingerprint of a plain full run under that cfg.
#[test]
fn whatif_fingerprint_never_aliases_a_plain_run() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let whatif = client
        .request_json(&whatif_line(100))
        .expect("whatif submit");
    let plain = client
        .request_json(&format!(
            r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{SEED},"cfg":{{"link_latency_ns":100}}}}]}}"#
        ))
        .expect("plain submit");
    let fp = |r: &Json| {
        r.get("results").and_then(Json::as_arr).unwrap()[0]
            .get("fingerprint")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    assert_ne!(
        fp(&whatif),
        fp(&plain),
        "a prefix+tail sweep point must not masquerade as a full run"
    );
    daemon.stop();
}

/// Distinct jobs in one batch come back in job order, all computed.
#[test]
fn batch_returns_results_in_job_order() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let line = format!(
        r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"native","refs_per_core":{REFS},"seed":{SEED}}},{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{SEED}}}]}}"#
    );
    let response = client.request_json(&line).expect("batch submit");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("scheme").and_then(Json::as_str),
        Some("Native")
    );
    assert_eq!(
        results[1].get("scheme").and_then(Json::as_str),
        Some("PIPM")
    );
    daemon.stop();
}

/// Every error path returns a structured `{"ok":false,"error":{...}}`
/// with the right kind — and the daemon keeps serving afterwards.
#[test]
fn error_paths_are_structured_and_nonfatal() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    let cases: [(String, &str); 6] = [
        ("this is not json".to_string(), "malformed"),
        (r#"{"cmd":"explode"}"#.to_string(), "malformed"),
        (
            submit_line("not_a_workload", "pipm", REFS, SEED),
            "unknown_workload",
        ),
        (
            submit_line("bfs", "not_a_scheme", REFS, SEED),
            "unknown_scheme",
        ),
        (
            submit_line("bfs", "pipm", 99_000_000_000, SEED),
            "limit_exceeded",
        ),
        (
            format!(
                r#"{{"cmd":"submit","jobs":[{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"cfg":{{"sector_lines":0}}}}]}}"#
            ),
            "bad_request",
        ),
    ];
    for (line, want_kind) in &cases {
        let response = client.request_json(line).expect("error response");
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(false),
            "line: {line}"
        );
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(*want_kind),
            "line: {line}"
        );
    }
    // Same connection, daemon still healthy: a real job still works.
    let ok = client
        .request_json(&submit_line("bfs", "native", REFS, SEED))
        .expect("submit after errors");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(metric(&mut client, "rejected_invalid"), cases.len() as u64);
    daemon.stop();
}

/// A batch that does not fit the admission queue whole is rejected with
/// a structured `overloaded` error carrying the queue depth/capacity;
/// the daemon then still accepts work that fits.
#[test]
fn queue_full_rejects_with_overloaded() {
    let cfg = ServerConfig {
        // One worker and a 2-slot queue: a 3-job batch can never fit.
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let mut client = daemon.client();
    let jobs: Vec<String> = (0..3)
        .map(|i| {
            format!(
                r#"{{"workload":"bfs","scheme":"pipm","refs_per_core":{REFS},"seed":{}}}"#,
                SEED + i
            )
        })
        .collect();
    let line = format!(r#"{{"cmd":"submit","jobs":[{}]}}"#, jobs.join(","));
    let response = client.request_json(&line).expect("overloaded response");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let error = response.get("error").unwrap();
    assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(error.get("queue_capacity").and_then(Json::as_u64), Some(2));
    assert!(error.get("queue_depth").and_then(Json::as_u64).is_some());

    // A batch that fits still goes through.
    let ok = client
        .request_json(&submit_line("bfs", "pipm", REFS, SEED))
        .expect("submit after overload");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(metric(&mut client, "rejected_overloaded"), 1);
    daemon.stop();
}

/// `shutdown` over the protocol drains in-flight work and the serve
/// loop returns cleanly; late submissions are refused.
#[test]
fn protocol_shutdown_drains_and_exits() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut client = daemon.client();
    // Queue real work, then shut down from a second connection while
    // the first waits for its batch: the batch must still complete.
    let line = submit_line("canneal", "pipm", REFS, SEED);
    let submitter = {
        let addr = daemon.addr.clone();
        let line = line.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request_json(&line).expect("submit during shutdown race")
        })
    };
    // Give the submit a head start so it is in flight when the
    // shutdown lands (timing-lenient: either order must succeed).
    std::thread::sleep(Duration::from_millis(30));
    let response = client
        .request_json(r#"{"cmd":"shutdown"}"#)
        .expect("shutdown");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        response.get("state").and_then(Json::as_str),
        Some("draining")
    );
    let batch = submitter.join().expect("submitter thread");
    assert_eq!(
        batch.get("ok").and_then(Json::as_bool),
        Some(true),
        "in-flight batch must drain, got: {}",
        batch.encode()
    );
    daemon
        .thread
        .join()
        .expect("serve thread not panicked")
        .expect("clean exit after protocol shutdown");
}

/// `status` reports serving state and worker count.
#[test]
fn status_reports_serving() {
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let mut client = daemon.client();
    let s = client.request_json(r#"{"cmd":"status"}"#).expect("status");
    assert_eq!(s.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(s.get("state").and_then(Json::as_str), Some("serving"));
    assert_eq!(s.get("workers").and_then(Json::as_u64), Some(3));
    daemon.stop();
}

/// Oversized request lines get a structured rejection and only cost
/// that connection; the daemon itself keeps serving.
#[test]
fn oversized_line_rejected_without_killing_daemon() {
    let cfg = ServerConfig {
        max_line_bytes: 4 * 1024,
        ..ServerConfig::default()
    };
    let daemon = Daemon::start(cfg);
    let mut big = daemon.client();
    let huge = format!(
        r#"{{"cmd":"submit","jobs":[{{"workload":"{}","scheme":"pipm"}}]}}"#,
        "x".repeat(8 * 1024)
    );
    let response = big.request_json(&huge).expect("oversize rejection");
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("limit_exceeded")
    );
    // Fresh connection: daemon is fine.
    let mut client = daemon.client();
    let ok = client
        .request_json(&submit_line("bfs", "native", REFS, SEED))
        .expect("submit after oversized line");
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
    daemon.stop();
}
