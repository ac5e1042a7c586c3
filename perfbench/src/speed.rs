//! Host-speed probe.
//!
//! Shared hosts run in slow and fast phases that last seconds to minutes:
//! on a 2-vCPU Xeon VM one simulator cell took anywhere from 39 to 94 ms
//! within one minute, with no change in steal or CPU time per run. A
//! fixed reference kernel, run between measurements, slows down with the
//! host, so the ratio of a cell's time to the neighbouring probes moves
//! far less than either time does.
//!
//! The benchmark therefore reports the simulator's host times at a
//! nominal host speed: a time `t` measured between probes `p0` and `p1`
//! is reported as `t × NOMINAL_S / ((p0 + p1) / 2)`. The kernel is part of
//! the benchmark and never changes, so a change to the program moves the
//! reported numbers as it moves the raw ones. Raw values are printed
//! alongside.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time in seconds on the 2.1 GHz Xeon vCPU the benchmark
/// was built on, in its common phase: the speed all normalised host times
/// refer to. Only ratios between runs matter, so it never changes.
pub const NOMINAL_S: f64 = 0.0105;

/// Probes per reference kernel run: long enough (about 8–20 ms) that the
/// kernel's own jitter adds little to a normalised time.
const PROBES: usize = 900_000;

/// Runs the reference kernel once and returns its time in seconds.
///
/// The kernel probes an 8-way, 4 MiB set-associative tag store with a
/// pseudo-random address stream of sequential runs, moving hits to the
/// front and inserting misses: table probes and branchy integer work over
/// a working set larger than the L2, like the simulator's own structures.
pub fn probe() -> f64 {
    const SETS: usize = 1 << 16;
    const WAYS: usize = 8;
    let t0 = Instant::now();
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let (mut hits, mut run) = (0u64, 0u64);
    for _ in 0..PROBES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        run = if x & 3 == 0 {
            (x >> 24) & 0xf_ffff
        } else {
            run + 1
        };
        let base = (run as usize & (SETS - 1)) * WAYS;
        let set = &mut tags[base..base + WAYS];
        match set.iter().position(|&t| t == run) {
            Some(p) => {
                hits += 1;
                set[..=p].rotate_right(1);
            }
            None => {
                set.rotate_right(1);
                set[0] = run;
            }
        }
    }
    black_box(hits);
    t0.elapsed().as_secs_f64()
}
