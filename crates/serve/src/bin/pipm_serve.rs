//! `pipm-serve` — the simulation daemon (worker node or router).
//!
//! ```text
//! pipm-serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
//!            [--cache-capacity N] [--ckpt-cache-capacity N]
//!            [--max-batch-jobs N] [--max-refs-per-core N]
//!            [--read-timeout-secs N] [--max-connections N]
//!            [--route HOST:PORT,HOST:PORT,...] [--peers HOST:PORT,...]
//!            [--probe-interval-ms N] [--forward-retries N]
//! ```
//!
//! With `--route`, this daemon forwards each job to its consistent-hash
//! owner among the listed nodes (falling back to local compute when a
//! node is down). With `--peers`, freshly computed results are pushed
//! to the listed peers as `fill` requests so they serve warm hits.
//!
//! Prints `listening on <addr>` once ready (scripts wait for that
//! line), serves until a `shutdown` request, then drains and exits 0.
//! `--help` prints usage and exits 0; a bad flag or value prints usage to
//! stderr and exits 2.

use pipm_serve::server::{Server, ServerConfig};
use pipm_types::cli::Cli;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: pipm-serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
                  [--cache-capacity N] [--ckpt-cache-capacity N]
                  [--max-batch-jobs N] [--max-refs-per-core N]
                  [--read-timeout-secs N] [--max-connections N]
                  [--route HOST:PORT,...] [--peers HOST:PORT,...]
                  [--probe-interval-ms N] [--forward-retries N]
       pipm-serve --help";

fn parse_args() -> ServerConfig {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7457".to_string(),
        ..ServerConfig::default()
    };
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = cli.string(),
            "--workers" => cfg.workers = cli.value(),
            "--queue-capacity" => cfg.queue_capacity = cli.value(),
            "--cache-capacity" => cfg.cache_capacity = cli.value(),
            "--ckpt-cache-capacity" => cfg.ckpt_cache_capacity = cli.value(),
            "--max-batch-jobs" => cfg.limits.max_batch_jobs = cli.value(),
            "--max-refs-per-core" => cfg.limits.max_refs_per_core = cli.value(),
            "--read-timeout-secs" => cfg.read_timeout = Duration::from_secs(cli.value()),
            "--max-connections" => cfg.max_connections = cli.value(),
            "--route" => cfg.route_nodes = cli.list(),
            "--peers" => cfg.peers = cli.list(),
            "--probe-interval-ms" => cfg.probe_interval = Duration::from_millis(cli.value()),
            "--forward-retries" => cfg.forward_retries = cli.value(),
            _ => cli.unknown(),
        }
    }
    cfg
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let mode = if cfg.route_nodes.is_empty() {
        "node"
    } else {
        "router"
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr} ({mode})"),
        Err(e) => {
            eprintln!("error: no local addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            println!("drained; goodbye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
