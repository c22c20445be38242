//! Measurement primitives used throughout the workspace.
//!
//! - [`RunningStats`]: streaming mean / variance / min / max with normal
//!   confidence intervals (Welford's algorithm).
//! - [`TimeWeighted`]: average of a piecewise-constant signal weighted by
//!   how long each value was held (queue lengths, token levels, …).
//! - [`RateMeter`]: bytes-over-time throughput accounting with warm-up
//!   exclusion.
//! - [`Histogram`]: fixed-bin histogram with quantile queries.

use crate::time::{SimDuration, SimTime};

/// Streaming mean and variance via Welford's online algorithm.
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Half-width of the ~95% confidence interval for the mean, using the
    /// normal approximation (fine for the dozens-of-runs use here).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.n as f64).sqrt()
        }
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the value is
/// assumed to hold until the next change.
///
/// # Examples
///
/// ```
/// use airtime_sim::{SimTime, TimeWeighted};
///
/// let mut q = TimeWeighted::new(SimTime::ZERO, 0.0);
/// q.set(SimTime::from_secs(1), 10.0); // 0.0 held for 1 s
/// q.set(SimTime::from_secs(3), 0.0);  // 10.0 held for 2 s
/// assert!((q.average(SimTime::from_secs(4)) - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: SimTime,
    value: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            value,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Records a change of the signal to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.saturating_since(self.last_time).as_secs_f64();
        self.weighted_sum += self.value * dt;
        self.last_time = now.max(self.last_time);
        self.value = value;
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The time-weighted average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let tail = now.saturating_since(self.last_time).as_secs_f64();
        let total = now.saturating_since(self.start).as_secs_f64();
        if total <= 0.0 {
            self.value
        } else {
            (self.weighted_sum + self.value * tail) / total
        }
    }
}

/// Byte/throughput accounting with warm-up exclusion.
///
/// Measurement runs discard an initial warm-up window (TCP slow start,
/// queue fill) so steady-state throughput is reported.
#[derive(Clone, Debug)]
pub struct RateMeter {
    warmup_end: SimTime,
    bytes: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl RateMeter {
    /// Creates a meter that ignores everything before `warmup_end`.
    pub fn new(warmup_end: SimTime) -> Self {
        RateMeter {
            warmup_end,
            bytes: 0,
            first: None,
            last: None,
        }
    }

    /// Records `bytes` delivered at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        if now < self.warmup_end {
            return;
        }
        self.bytes += bytes;
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = Some(now);
    }

    /// Total post-warm-up bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Mean throughput in bits/s over `[warmup_end, end]`.
    pub fn bits_per_sec(&self, end: SimTime) -> f64 {
        let span = end.saturating_since(self.warmup_end).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / span
        }
    }

    /// Mean throughput in Mbit/s over `[warmup_end, end]`.
    pub fn mbps(&self, end: SimTime) -> f64 {
        self.bits_per_sec(end) / 1e6
    }
}

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `nbins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0 && lo < hi, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`), using the upper edge of
    /// the bin where the cumulative count crosses `q`. Returns `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.lo + width * (i as f64 + 1.0));
            }
        }
        Some(self.hi)
    }

    /// Fraction of observations at or above `x` (bin-resolution accuracy).
    pub fn frac_at_least(&self, x: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut above = self.overflow;
        for (i, &c) in self.bins.iter().enumerate() {
            let edge = self.lo + width * i as f64;
            if edge >= x {
                above += c;
            }
        }
        above as f64 / self.count as f64
    }
}

/// Utility: converts a byte count and duration to Mbit/s.
pub fn mbps(bytes: u64, span: SimDuration) -> f64 {
    let secs = span.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 * 8.0 / secs / 1e6
    }
}

/// Jain's fairness index over non-negative allocations.
///
/// Returns 1.0 for perfectly equal shares and approaches `1/n` as one
/// entity dominates. Empty or all-zero input has no index (`None`): an
/// allocation of nothing is neither fair nor unfair.
pub fn jain_index(xs: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    (sumsq > 0.0).then(|| sum * sum / (n * sumsq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_mean_var() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn running_stats_single_sample() {
        let mut s = RunningStats::new();
        s.record(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.set(SimTime::from_secs(2), 6.0);
        // 2.0 for 2 s, then 6.0 for 2 s → average 4.0 at t=4.
        assert!((tw.average(SimTime::from_secs(4)) - 4.0).abs() < 1e-9);
        assert_eq!(tw.current(), 6.0);
    }

    #[test]
    fn time_weighted_at_start() {
        let tw = TimeWeighted::new(SimTime::from_secs(1), 3.0);
        assert_eq!(tw.average(SimTime::from_secs(1)), 3.0);
    }

    #[test]
    fn time_weighted_zero_duration_holds() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        // Several changes at the same instant: the zero-duration holds
        // contribute no weight, only the last value persists.
        tw.set(SimTime::from_secs(1), 2.0);
        tw.set(SimTime::from_secs(1), 3.0);
        tw.set(SimTime::from_secs(1), 4.0);
        // 1.0 held for 1 s, then 4.0 held for 1 s.
        assert!((tw.average(SimTime::from_secs(2)) - 2.5).abs() < 1e-9);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn rate_meter_excludes_warmup() {
        let mut m = RateMeter::new(SimTime::from_secs(1));
        m.record(SimTime::from_millis(500), 1_000_000); // ignored
        m.record(SimTime::from_secs(2), 125_000); // 1 Mbit
        assert_eq!(m.bytes(), 125_000);
        let mbps = m.mbps(SimTime::from_secs(2));
        assert!((mbps - 1.0).abs() < 1e-9, "mbps={mbps}");
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 100);
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0, "median={med}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 90.0).abs() <= 1.0, "p90={p90}");
        assert!((h.frac_at_least(50.0) - 0.5).abs() <= 0.02);
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(50.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0), Some(0.0)); // underflow clamps to lo
        assert_eq!(h.quantile(1.0), Some(10.0)); // overflow clamps to hi
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.frac_at_least(0.5), 0.0);
    }

    #[test]
    fn histogram_out_of_range_q_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(5.0);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn jain_index_cases() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]).unwrap() - 1.0).abs() < 1e-12);
        let one_hog = jain_index(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((one_hog - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), None);
        assert_eq!(jain_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn mbps_helper() {
        let v = mbps(125_000, SimDuration::from_secs(1));
        assert!((v - 1.0).abs() < 1e-12);
        assert_eq!(mbps(1, SimDuration::ZERO), 0.0);
    }
}
