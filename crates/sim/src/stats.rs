//! Measurement primitives used throughout the workspace.
//!
//! - [`RateMeter`]: bytes-over-time throughput accounting with warm-up
//!   exclusion.
//! - [`Histogram`]: fixed-bin histogram with quantile queries.

use crate::time::SimTime;

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

/// Fixed-width-bin histogram over `[lo, hi)`; out-of-range samples count
/// toward the total and clamp quantiles to `lo` or `hi`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
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
            count: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x < self.hi {
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
}
