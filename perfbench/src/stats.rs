//! Small numeric helpers: medians, geomeans, nearest-rank latency
//! summaries,
//! the FNV fingerprint of a run's statistics, and host facts (peak RSS,
//! CPU model, core count) read from `/proc`.

use pipm_serve::bench::nearest_rank;
use pipm_types::SystemStats;
use std::time::Duration;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A latency sample summarised by nearest rank. Failed requests enter
/// as `Duration::MAX`, so they sit in the tail and miss any limit.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    sorted: Vec<Duration>,
}

impl Latencies {
    /// Sorts `samples` once for repeated percentile queries.
    pub fn new(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        Latencies { sorted: samples }
    }

    /// The samples, sorted.
    pub fn into_samples(self) -> Vec<Duration> {
        self.sorted
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `q` percentile in milliseconds (infinite for a failed sample).
    pub fn ms(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let d = nearest_rank(&self.sorted, q);
        if d == Duration::MAX {
            f64::INFINITY
        } else {
            d.as_secs_f64() * 1e3
        }
    }

    /// Samples strictly above the nearest-rank `q` percentile's rank —
    /// how many observations lie beyond the reported value.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        n.saturating_sub(rank)
    }

    /// `"p50=1.234ms p99=5.678ms n=9700 beyond_p99=97"`.
    pub fn describe(&self, qs: &[f64]) -> String {
        let mut out = String::new();
        for &q in qs {
            out.push_str(&format!("p{}={:.3}ms ", (q * 100.0).round(), self.ms(q)));
        }
        let top = qs.iter().copied().fold(0.0, f64::max);
        out.push_str(&format!(
            "n={} beyond_p{}={}",
            self.count(),
            (top * 100.0).round(),
            self.beyond(top)
        ));
        out
    }
}

/// FNV-1a over a little-endian encoding of every counter in
/// [`SystemStats`], in a fixed field order: equal fingerprints mean
/// bit-identical simulated statistics.
pub fn fingerprint(stats: &SystemStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    put(stats.cores.len() as u64);
    for c in &stats.cores {
        put(c.instructions);
        put(c.cycles);
        put(c.mem_refs);
        c.class_count.iter().for_each(|&v| put(v));
        c.class_latency.iter().for_each(|&v| put(v));
        c.class_stall.iter().for_each(|&v| put(v));
        put(c.mgmt_stall);
        put(c.transfer_stall);
    }
    let m = &stats.migration;
    put(m.pages_promoted);
    put(m.pages_demoted);
    put(m.lines_migrated_in);
    put(m.lines_migrated_back);
    put(m.transfer_bytes);
    put(m.harmful_promotions);
    put(m.evaluated_promotions);
    m.peak_resident_pages.iter().for_each(|&v| put(v));
    m.peak_resident_lines.iter().for_each(|&v| put(v));
    let f = &stats.fabric;
    put(f.switch_hops);
    f.device_messages.iter().for_each(|&v| put(v));
    f.device_bytes.iter().for_each(|&v| put(v));
    put(stats.local_remap_hits);
    put(stats.local_remap_misses);
    put(stats.global_remap_hits);
    put(stats.global_remap_misses);
    put(stats.directory_recalls);
    h
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host tag recorded with every result: CPU model and core count.
pub fn host_tag() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("cpu=\"{model}\" nproc={nproc}")
}
