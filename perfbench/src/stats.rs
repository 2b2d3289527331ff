//! Exact order statistics, run-to-run spread, failure counting, and the
//! peak resident set of a process.
//!
//! Latencies are kept as raw nanosecond samples and summarized by exact
//! order statistics; no bucketed histogram is involved anywhere.

use std::path::Path;

/// Fewest samples that must lie strictly above a tail percentile before it
/// is reported.
pub const MIN_ABOVE_TAIL: usize = 10;

/// Raw latency samples in nanoseconds, sorted once for order statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Sorts `samples` for querying.
    pub fn new(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Samples { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at least a
    /// `q` share of samples at or below it. `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// The median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 99th percentile, reported only when at least
    /// [`MIN_ABOVE_TAIL`] samples lie strictly above it.
    pub fn p99(&self) -> Option<u64> {
        let p = self.quantile(0.99)?;
        let above = self.sorted.len() - self.sorted.partition_point(|&s| s <= p);
        (above >= MIN_ABOVE_TAIL).then_some(p)
    }

    /// Arithmetic mean, `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0).then(|| self.sorted.iter().map(|&s| s as f64).sum::<f64>() / n as f64)
    }
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// First quartile, median and third quartile of per-repetition values,
/// computed like Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// Operations attempted and failed in one run. A cell fails if it needed
/// a retry (a cell that errors fails the whole run); a request fails if it
/// was answered `ok:false` or was lost to a transport error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// One completed sweep cell, `retries` the failed attempts before it
    /// succeeded.
    pub fn cell(&mut self, retries: u32) {
        self.attempted += 1;
        if retries > 0 {
            self.failed += 1;
        }
    }

    /// One request answered with `reply`.
    pub fn reply(&mut self, reply: &str) {
        self.attempted += 1;
        if !reply_ok(reply) {
            self.failed += 1;
        }
    }

    /// One request lost to a transport error.
    pub fn transport_error(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (zero when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether a daemon reply line reports success.
pub fn reply_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status =
        std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join("status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
