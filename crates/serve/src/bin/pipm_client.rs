//! `pipm-client` — submit jobs to a `pipm-serve` daemon, inspect it, or
//! drive it with open-loop load.
//!
//! ```text
//! pipm-client [--addr HOST:PORT] [--timeout-secs N] status
//! pipm-client [--addr HOST:PORT] metrics
//! pipm-client [--addr HOST:PORT] shutdown
//! pipm-client [--addr HOST:PORT] submit --workload bfs --scheme pipm \
//!             [--workload ... --scheme ...] [--refs N] [--seed N]
//! pipm-client [--addr HOST:PORT] whatif --workload bfs --scheme pipm \
//!             --delta link_latency_ns=100 [--delta ...] [--refs N] [--seed N]
//! pipm-client [--addr HOST:PORT] bench --workload bfs --scheme pipm \
//!             [--refs N] [--seed N] --rate RPS --requests N \
//!             [--bench-seed N] [--max-inflight N] [--sweep R1,R2,...]
//! ```
//!
//! `submit` pretty-prints one row per result; `whatif` does the same for
//! a checkpointed sweep point (every `--delta key=value` joins one
//! delta object applied to all jobs).
//!
//! `bench` is the **open-loop** Poisson load generator: arrivals are
//! scheduled at `--rate` regardless of response times, latency is
//! charged from the scheduled arrival, and the summary line is labeled
//! `mode=open-loop`; the daemon's cache counters print after the run.
//! `--sweep R1,R2,...` runs one rung per offered rate and prints one
//! `sweep ...` row each — the saturation sweep CI uploads as an
//! artifact.
//!
//! The read timeout defaults to 600 s; override with `--timeout-secs N`
//! or the `PIPM_CLIENT_TIMEOUT_SECS` environment variable (the flag
//! wins; `0` disables the timeout entirely).
//!
//! `--help` prints usage and exits 0; a bad flag, value, command or
//! `PIPM_CLIENT_TIMEOUT_SECS` prints usage to stderr and exits 2.

use pipm_serve::bench::{run_open_loop, saturation_sweep, OpenLoopConfig};
use pipm_serve::client::{Client, DEFAULT_READ_TIMEOUT};
use pipm_serve::json::Json;
use pipm_types::cli::{self, Cli};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: pipm-client [--addr HOST:PORT] [--timeout-secs N] <COMMAND> [OPTIONS]
       pipm-client --help
  COMMAND: status | metrics | shutdown | submit | whatif | bench
  submit/whatif/bench: --workload W --scheme S (repeatable, zipped pairwise)
                       [--refs N] [--seed N]
  whatif only: --delta KEY=VALUE (repeatable; late-binding cfg keys)
  bench only:  [--rate RPS] [--requests N] [--bench-seed N]
               [--max-inflight N] [--sweep R1,R2,...]   (open loop)
  --timeout-secs N  read timeout (default 600, 0 = none;
                    env PIPM_CLIENT_TIMEOUT_SECS)";

struct Args {
    addr: String,
    cmd: String,
    workloads: Vec<String>,
    schemes: Vec<String>,
    deltas: Vec<String>,
    refs: Option<u64>,
    seed: Option<u64>,
    rate: f64,
    requests: usize,
    bench_seed: u64,
    max_inflight: usize,
    sweep: Vec<f64>,
    timeout: Option<Duration>,
}

fn parse_args() -> Args {
    let mut cli = Cli::new(USAGE);
    let env_timeout: Option<u64> = cli.env("PIPM_CLIENT_TIMEOUT_SECS");
    let mut parsed = Args {
        addr: "127.0.0.1:7457".to_string(),
        cmd: String::new(),
        workloads: Vec::new(),
        schemes: Vec::new(),
        deltas: Vec::new(),
        refs: None,
        seed: None,
        rate: 50.0,
        requests: 200,
        bench_seed: 41,
        max_inflight: 32,
        sweep: Vec::new(),
        timeout: None,
    };
    let mut timeout_flag: Option<u64> = None;
    while let Some(arg) = cli.next() {
        match arg.as_str() {
            "--addr" => parsed.addr = cli.string(),
            "--workload" => parsed.workloads.push(cli.string()),
            "--scheme" => parsed.schemes.push(cli.string()),
            "--delta" => parsed.deltas.push(cli.string()),
            "--refs" => parsed.refs = Some(cli.value()),
            "--seed" => parsed.seed = Some(cli.value()),
            "--rate" => parsed.rate = cli.value(),
            "--requests" => parsed.requests = cli.value(),
            "--bench-seed" => parsed.bench_seed = cli.value(),
            "--max-inflight" => parsed.max_inflight = cli.value(),
            "--sweep" => parsed.sweep = cli.list(),
            "--timeout-secs" => timeout_flag = Some(cli.value()),
            cmd if parsed.cmd.is_empty() && !cmd.starts_with('-') => parsed.cmd = cmd.to_string(),
            _ => cli.unknown(),
        }
    }
    if parsed.cmd.is_empty() {
        cli.fail("missing command");
    }
    let positive = |rate: &f64| rate.is_finite() && *rate > 0.0;
    if !positive(&parsed.rate) || !parsed.sweep.iter().all(positive) {
        cli.fail("--rate and --sweep rates must be positive");
    }
    // `--timeout-secs` beats `PIPM_CLIENT_TIMEOUT_SECS` beats the 600 s
    // default; `0` means no timeout at all.
    parsed.timeout = match timeout_flag.or(env_timeout) {
        None => Some(DEFAULT_READ_TIMEOUT),
        Some(0) => None,
        Some(secs) => Some(Duration::from_secs(secs)),
    };
    parsed
}

/// Parses the repeatable `--delta KEY=VALUE` flags into one JSON delta
/// object (numbers only — every late-binding cfg key is numeric).
fn delta_object(args: &Args) -> Json {
    if args.deltas.is_empty() {
        cli::fail(USAGE, "whatif needs at least one --delta KEY=VALUE");
    }
    let fields = args
        .deltas
        .iter()
        .map(|spec| {
            let Some((key, raw)) = spec.split_once('=') else {
                cli::fail(
                    USAGE,
                    format_args!("--delta expects KEY=VALUE, got `{spec}`"),
                );
            };
            let value = if let Ok(n) = raw.parse::<u64>() {
                Json::UInt(n)
            } else if let Ok(f) = raw.parse::<f64>() {
                Json::Num(f)
            } else {
                cli::fail(
                    USAGE,
                    format_args!("--delta {key} expects a numeric value, got `{raw}`"),
                );
            };
            (key.to_string(), value)
        })
        .collect();
    Json::Obj(fields)
}

/// Builds the `submit`/`whatif` line from `--workload/--scheme` pairs
/// (zipped; a single scheme fans out across all workloads and vice
/// versa). A `Some(delta)` turns the batch into a `whatif` request with
/// that delta on every job.
fn submit_line(args: &Args, delta: Option<Json>) -> String {
    if args.workloads.is_empty() || args.schemes.is_empty() {
        cli::fail(
            USAGE,
            "submit/whatif/bench need at least one --workload and one --scheme",
        );
    }
    let pairs: Vec<(String, String)> = if args.schemes.len() == 1 {
        args.workloads
            .iter()
            .map(|w| (w.clone(), args.schemes[0].clone()))
            .collect()
    } else if args.workloads.len() == 1 {
        args.schemes
            .iter()
            .map(|s| (args.workloads[0].clone(), s.clone()))
            .collect()
    } else if args.workloads.len() == args.schemes.len() {
        args.workloads
            .iter()
            .cloned()
            .zip(args.schemes.iter().cloned())
            .collect()
    } else {
        cli::fail(
            USAGE,
            "--workload/--scheme counts must match (or one side be single)",
        );
    };
    let jobs: Vec<Json> = pairs
        .into_iter()
        .map(|(w, s)| {
            let mut fields = vec![
                ("workload".to_string(), Json::Str(w)),
                ("scheme".to_string(), Json::Str(s)),
            ];
            if let Some(r) = args.refs {
                fields.push(("refs_per_core".to_string(), Json::UInt(r)));
            }
            if let Some(seed) = args.seed {
                fields.push(("seed".to_string(), Json::UInt(seed)));
            }
            if let Some(d) = &delta {
                fields.push(("delta".to_string(), d.clone()));
            }
            Json::Obj(fields)
        })
        .collect();
    let cmd = if delta.is_some() { "whatif" } else { "submit" };
    Json::Obj(vec![
        ("cmd".to_string(), Json::Str(cmd.to_string())),
        ("jobs".to_string(), Json::Arr(jobs)),
    ])
    .encode()
}

fn print_results(response: &Json) {
    let Some(results) = response.get("results").and_then(Json::as_arr) else {
        println!("{}", response.encode());
        return;
    };
    println!(
        "{:<14} {:>12} {:>14} {:>8} {:>10} {:>16}",
        "workload/scheme", "exec_cycles", "ipc", "lhr", "promoted", "fingerprint"
    );
    for r in results {
        let s = |k: &str| r.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let u = |k: &str| r.get(k).and_then(Json::as_u64).unwrap_or(0);
        let f = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{:<14} {:>12} {:>14.4} {:>8.4} {:>10} {:>16}",
            format!("{}/{}", s("workload"), s("scheme")),
            u("exec_cycles"),
            f("ipc"),
            f("local_hit_rate"),
            u("pages_promoted"),
            s("fingerprint"),
        );
    }
}

fn print_metrics(addr: &str, timeout: Option<Duration>) -> std::io::Result<()> {
    let mut client = Client::connect_with_timeout(addr, timeout)?;
    let m = client.request_json(r#"{"cmd":"metrics"}"#)?;
    let u = |k: &str| m.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "cache: hits={} misses={} inflight_dedup={} entries={} evictions={}",
        u("cache_hits"),
        u("cache_misses"),
        u("cache_inflight_dedup"),
        u("cache_entries"),
        u("cache_evictions"),
    );
    println!(
        "checkpoints: hits={} misses={} inflight_dedup={} entries={} evictions={}",
        u("ckpt_cache_hits"),
        u("ckpt_cache_misses"),
        u("ckpt_cache_inflight_dedup"),
        u("ckpt_cache_entries"),
        u("ckpt_cache_evictions"),
    );
    println!(
        "queue: depth={}/{}  jobs: admitted={} completed={} failed={}",
        u("queue_depth"),
        u("queue_capacity"),
        u("jobs_admitted"),
        u("jobs_completed"),
        u("jobs_failed"),
    );
    println!(
        "admission: rejected_overloaded={} rejected_invalid={} connections_rejected={}  uptime_ms={}",
        u("rejected_overloaded"),
        u("rejected_invalid"),
        u("connections_rejected"),
        u("uptime_ms"),
    );
    println!(
        "cluster: mode={} healthy_nodes={} forwarded={} retries={} fallback_local={} \
         fills_received={} fills_sent={} fills_send_failed={}",
        m.get("mode").and_then(Json::as_str).unwrap_or("?"),
        u("healthy_nodes"),
        u("router_forwarded"),
        u("router_retries"),
        u("router_fallback_local"),
        u("fills_received"),
        u("fills_sent"),
        u("fills_send_failed"),
    );
    Ok(())
}

fn run() -> std::io::Result<bool> {
    let args = parse_args();
    match args.cmd.as_str() {
        "status" | "shutdown" => {
            let mut client = Client::connect_with_timeout(&args.addr, args.timeout)?;
            let line = format!(r#"{{"cmd":"{}"}}"#, args.cmd);
            let response = client.request_json(&line)?;
            println!("{}", response.encode());
            Ok(response.get("ok").and_then(Json::as_bool) == Some(true))
        }
        "metrics" => {
            print_metrics(&args.addr, args.timeout)?;
            Ok(true)
        }
        "submit" | "whatif" => {
            let delta = (args.cmd == "whatif").then(|| delta_object(&args));
            let line = submit_line(&args, delta);
            let mut client = Client::connect_with_timeout(&args.addr, args.timeout)?;
            let start = Instant::now();
            let response = client.request_json(&line)?;
            let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
            if ok {
                print_results(&response);
                println!("({} ms)", start.elapsed().as_millis());
            } else {
                eprintln!("error response: {}", response.encode());
            }
            Ok(ok)
        }
        "bench" => {
            let line = submit_line(&args, None);
            if args.sweep.is_empty() {
                let report = run_open_loop(&OpenLoopConfig {
                    addr: args.addr.clone(),
                    request_line: line,
                    rate_hz: args.rate,
                    requests: args.requests,
                    seed: args.bench_seed,
                    max_inflight: args.max_inflight,
                    read_timeout: args.timeout,
                });
                println!("{}", report.summary_line());
                print_metrics(&args.addr, args.timeout)?;
                Ok(report.ok > 0 && report.io_errors == 0)
            } else {
                let rows = saturation_sweep(
                    &args.addr,
                    &line,
                    &args.sweep,
                    args.requests,
                    args.bench_seed,
                    args.max_inflight,
                    args.timeout,
                );
                let mut all_ok = true;
                for row in &rows {
                    println!("{}", row.summary_line());
                    all_ok &= row.report.ok > 0 && row.report.io_errors == 0;
                }
                print_metrics(&args.addr, args.timeout)?;
                Ok(all_ok)
            }
        }
        other => cli::fail(USAGE, format_args!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
