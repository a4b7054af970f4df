//! Host facts recorded next to every result, so numbers from another machine
//! are rescaled or refused instead of silently compared.

use std::hint::black_box;
use std::time::Instant;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Rate of a fixed xorshift integer kernel in million operations per second
/// (best of three 20M-step runs): a code-independent speed reading of the host.
pub fn calibration_mops() -> f64 {
    const STEPS: u64 = 20_000_000;
    let mut best = f64::MAX;
    for round in 0..3u64 {
        let started = Instant::now();
        let mut x = black_box(0x2545_f491_4f6c_dd1d_u64 + round);
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        best = best.min(started.elapsed().as_secs_f64());
    }
    STEPS as f64 / best / 1e6
}

/// Peak resident set size of this process so far (`VmHWM`), in MB. `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
