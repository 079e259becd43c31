//! Clocks, resource usage and order statistics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `struct timeval` as `getrusage(2)` fills it on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's resource usage so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, microseconds.
    pub cpu_us: u64,
    /// Peak resident set size, kilobytes.
    pub maxrss_kb: u64,
}

/// Read [`Usage`] for the whole process (every thread).
pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a writable, correctly laid-out `struct rusage`
    // and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let us = |t: TimeVal| (t.sec as u64) * 1_000_000 + t.usec as u64;
    Usage {
        cpu_us: us(ru.utime) + us(ru.stime),
        maxrss_kb: ru.maxrss as u64,
    }
}

/// Milliseconds in a duration, with sub-millisecond digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p`-quantile (0..=1) of `values` by nearest rank on a sorted
/// copy; 0 for an empty slice.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer self times from spans the benchmark opens around calls
/// into each layer's public entry points.
#[derive(Debug, Default)]
pub struct Spans {
    /// Layer name → total milliseconds.
    by_layer: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Time `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(layer, ms(started.elapsed()));
        out
    }

    /// Record `millis` of self time for `layer`.
    fn add(&mut self, layer: &'static str, millis: f64) {
        *self.by_layer.entry(layer).or_insert(0.0) += millis;
    }

    /// Total milliseconds recorded for `layer`.
    pub fn total(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn usage_is_live() {
        let u = usage();
        assert!(u.maxrss_kb > 0);
    }
}
