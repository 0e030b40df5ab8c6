//! Exact order statistics, the percentile rule, and window rates.
//!
//! Latencies are never bucketed: [`LatencyLog`] keeps every sample at the
//! nanosecond it was measured (a counting sort below 2¹⁷ ns, a sorted list
//! above), so a percentile is the exact order statistic. The log's memory is
//! the same whatever the throughput, which keeps it out of `peak_rss_mb`.

use std::time::{Duration, Instant};

/// Samples below this many nanoseconds (131 µs) are counted per exact value.
const DENSE_NS: usize = 1 << 17;

/// Every latency sample of one phase, in nanoseconds.
#[derive(Debug, Clone)]
pub struct LatencyLog {
    dense: Vec<u32>,
    sparse: Vec<u64>,
    n: u64,
}

impl Default for LatencyLog {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyLog {
    pub fn new() -> Self {
        Self { dense: vec![0; DENSE_NS], sparse: Vec::new(), n: 0 }
    }

    pub fn record(&mut self, ns: u64) {
        match self.dense.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.sparse.push(ns),
        }
        self.n += 1;
    }

    /// Sample count.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The `k`-th smallest sample (0-based), exactly.
    fn order_statistic(&mut self, k: u64) -> u64 {
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen > k {
                return ns as u64;
            }
        }
        // Every sparse sample lies above the dense range.
        self.sparse.sort_unstable();
        self.sparse.get((k - seen) as usize).copied().unwrap_or(0)
    }

    /// The nearest-rank percentile `p` (in percent), in nanoseconds; 0 for
    /// an empty log.
    pub fn percentile_ns(&mut self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        self.order_statistic(nearest_rank(self.n, p) - 1)
    }
}

/// The latencies of a closed-loop phase, one [`LatencyLog`] per window (an
/// operation belongs to the window it completes in). Which of the two
/// statistics a metric reports is fixed per metric, never chosen by how many
/// samples a run happened to collect.
#[derive(Debug, Clone)]
pub struct WindowedLatency {
    start: Instant,
    width: Duration,
    logs: Vec<LatencyLog>,
}

impl WindowedLatency {
    pub fn new(start: Instant, phase: Duration) -> Self {
        Self { start, width: phase / WINDOWS as u32, logs: vec![LatencyLog::new(); WINDOWS] }
    }

    pub fn record(&mut self, done: Instant, ns: u64) {
        let idx = (done.saturating_duration_since(self.start).as_nanos()
            / self.width.as_nanos().max(1)) as usize;
        let last = self.logs.len() - 1;
        self.logs[idx.min(last)].record(ns);
    }

    /// Sample count of the whole phase.
    pub fn n(&self) -> u64 {
        self.logs.iter().map(LatencyLog::n).sum()
    }

    /// Sample count of the thinnest window.
    pub fn thinnest(&self) -> u64 {
        self.logs.iter().map(LatencyLog::n).min().unwrap_or(0)
    }

    /// The median over the windows of each window's exact order statistic:
    /// the phase treated as [`WINDOWS`] back-to-back repeats, like
    /// [`Windows::median_rate`]. A burst from outside the process (this is
    /// a shared box) moves the windows it hits, not this number; so does an
    /// in-process tail that hits fewer than half of them, which is why
    /// [`WindowedLatency::pooled`] is printed beside it.
    pub fn median_window_ns(&mut self, p: f64) -> u64 {
        let per_window: Vec<f64> =
            self.logs.iter_mut().map(|log| log.percentile_ns(p) as f64).collect();
        median(&per_window).round() as u64
    }

    /// Every sample of the phase in one log: its percentiles are the exact
    /// order statistics over all samples.
    pub fn pooled(&self) -> LatencyLog {
        let mut whole = LatencyLog::new();
        for log in &self.logs {
            for (mine, &theirs) in whole.dense.iter_mut().zip(&log.dense) {
                *mine += theirs;
            }
            whole.sparse.extend_from_slice(&log.sparse);
            whole.n += log.n;
        }
        whole
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(n: u64, p: f64) -> u64 {
    // The epsilon keeps a product that is a whole number in exact
    // arithmetic (95 % of 200) from rounding up one rank in floating point.
    ((p / 100.0 * n as f64 - 1e-7).ceil() as u64).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: u64, p: f64) -> u64 {
    n - nearest_rank(n, p).min(n)
}

/// The percentiles a report may name, ascending.
pub const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// How many samples must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`] samples
/// beyond it; `None` when even the median has fewer.
pub fn honest_percentile(n: u64) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Whether naming percentile `p` over `n` samples honours the rule.
pub fn is_honest(n: u64, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A measured phase cut into equal windows. An operation's work is spread
/// over the windows it ran in, in proportion to the time it spent in each,
/// so a phase of few long operations (a 60 ms delta batch) still has a
/// smooth rate. The phase rate is the median window rate, which one
/// disturbed window cannot move.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Instant,
    width: Duration,
    work: Vec<f64>,
}

/// Windows per measured phase.
pub const WINDOWS: usize = 10;

impl Windows {
    pub fn new(start: Instant, phase: Duration) -> Self {
        Self { start, width: phase / WINDOWS as u32, work: vec![0.0; WINDOWS] }
    }

    /// Credits `units` of work done between `began` and `done`; the part
    /// that ran after the last window is dropped from the rate (the
    /// operation still has its latency).
    pub fn add(&mut self, began: Instant, done: Instant, units: u64) {
        let width = self.width.as_secs_f64();
        let from = began.saturating_duration_since(self.start).as_secs_f64();
        let to = done.saturating_duration_since(self.start).as_secs_f64();
        if to <= from {
            if let Some(w) = self.work.get_mut((to / width) as usize) {
                *w += units as f64;
            }
            return;
        }
        let per_sec = units as f64 / (to - from);
        let last = ((to / width) as usize).min(self.work.len().saturating_sub(1));
        for idx in (from / width) as usize..=last {
            let lo = (idx as f64 * width).max(from);
            let hi = ((idx + 1) as f64 * width).min(to);
            if hi > lo {
                self.work[idx] += per_sec * (hi - lo);
            }
        }
    }

    /// Median over windows of units per second.
    pub fn median_rate(&self) -> f64 {
        let secs = self.width.as_secs_f64();
        let rates: Vec<f64> = self.work.iter().map(|&w| w / secs).collect();
        median(&rates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let mut log = LatencyLog::new();
        // 1..=1000 µs in scrambled order (most of them above the dense
        // range), plus three stragglers.
        for i in 0..1000u64 {
            log.record(((i * 7919) % 1000 + 1) * 1000);
        }
        for big in [5_000_000u64, 3_000_000, 4_000_000] {
            log.record(big);
        }
        assert_eq!(log.n(), 1003);
        assert_eq!(log.percentile_ns(50.0), 502_000);
        assert_eq!(log.percentile_ns(100.0), 5_000_000);
        assert_eq!(log.percentile_ns(99.8), 3_000_000);
        assert_eq!(log.percentile_ns(0.0), 1000);
        assert_eq!(LatencyLog::new().percentile_ns(99.0), 0);
    }

    #[test]
    fn the_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(honest_percentile(10), None);
        assert_eq!(honest_percentile(20), Some(50.0));
        assert_eq!(honest_percentile(100), Some(90.0));
        assert_eq!(honest_percentile(199), Some(90.0));
        assert_eq!(honest_percentile(200), Some(95.0));
        assert_eq!(honest_percentile(250), Some(95.0));
        assert_eq!(honest_percentile(1000), Some(99.0));
        assert_eq!(honest_percentile(10_000), Some(99.9));
        assert_eq!(honest_percentile(100_000), Some(99.99));
        assert_eq!(samples_beyond(250, 95.0), 12);
        assert!(is_honest(250, 95.0) && !is_honest(250, 99.0));
    }

    #[test]
    fn a_burst_in_one_window_moves_the_pooled_percentile_not_the_median_window() {
        let start = Instant::now();
        let mut lat = WindowedLatency::new(start, Duration::from_secs(10));
        // 2,000 samples per window, 1..=2000 ns; window 4 was hit by a burst
        // that tripled everything in it.
        for w in 0..WINDOWS as u64 {
            let done = start + Duration::from_millis(w * 1000 + 500);
            for v in 1..=2000u64 {
                lat.record(done, if w == 4 { v * 3 } else { v });
            }
        }
        assert_eq!((lat.n(), lat.thinnest()), (20_000, 2000));
        assert_eq!(lat.median_window_ns(50.0), 1000);
        assert_eq!(lat.median_window_ns(99.0), 1980);
        assert_eq!(lat.pooled().percentile_ns(99.0), 5400);
        // Completions after the last window still count, in the last window.
        lat.record(start + Duration::from_secs(12), 7);
        assert_eq!(lat.n(), 20_001);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_rate_is_the_median_window() {
        let start = Instant::now();
        let mut w = Windows::new(start, Duration::from_secs(10));
        for i in 0..WINDOWS as u64 {
            // Window i completes 100 operations; window 3 was disturbed.
            let at = start + Duration::from_millis(i * 1000 + 500);
            w.add(at, at + Duration::from_millis(1), if i == 3 { 5 } else { 100 });
        }
        let late = start + Duration::from_secs(11);
        w.add(late, late + Duration::from_millis(1), 1000);
        assert!((w.median_rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn long_operations_are_spread_over_the_windows_they_ran_in() {
        let start = Instant::now();
        let mut w = Windows::new(start, Duration::from_secs(10));
        // Back-to-back 1.5 s batches of 300 rows: 200 rows/s in every window
        // they cover, although no window holds a whole number of batches.
        for i in 0..6u64 {
            let began = start + Duration::from_millis(i * 1500);
            w.add(began, began + Duration::from_millis(1500), 300);
        }
        assert!((w.median_rate() - 200.0).abs() < 1e-9);
        // Work past the last window is dropped, the part inside is kept.
        let mut tail = Windows::new(start, Duration::from_secs(10));
        tail.add(start + Duration::from_secs(9), start + Duration::from_secs(11), 100);
        assert!((tail.work[9] - 50.0).abs() < 1e-9);
    }
}
