//! Host-side step timing: where does a run's wall-clock time go?
//!
//! [`NsHist`] is a fixed-footprint histogram of nanosecond costs, and
//! [`LoopProfiler`] keeps one per step label. Drivers time each step
//! from outside the engine, so everything here measures the *host*,
//! not the simulation — profiled and unprofiled runs produce identical
//! results.

use std::time::Duration;

/// Number of log2 buckets in an [`NsHist`]. Bucket `i` covers
/// durations whose nanosecond count has `i` significant bits, i.e.
/// `[2^(i-1), 2^i)` ns for `i >= 1` and exactly `0` ns for `i == 0`.
/// 48 buckets cover everything up to ~78 hours — far beyond any
/// single event dispatch.
pub const NS_HIST_BUCKETS: usize = 48;

/// A fixed-footprint log2-bucketed histogram of nanosecond durations.
///
/// Recording is O(1) and allocation-free (one `leading_zeros` plus an
/// array increment), which keeps it cheap enough to sit on the event
/// loop's per-dispatch hot path. Quantiles are resolved to the upper
/// edge of the owning bucket (clamped to the observed min/max), the
/// same upper-edge convention as [`crate::stats::Histogram`] — so a
/// reported p99 is an upper bound at log2 resolution, never an
/// underestimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NsHist {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: [u64; NS_HIST_BUCKETS],
}

impl Default for NsHist {
    fn default() -> Self {
        Self::new()
    }
}

impl NsHist {
    /// An empty histogram.
    pub fn new() -> Self {
        NsHist {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; NS_HIST_BUCKETS],
        }
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        // Significant bits of `ns`: 0 ns lands in bucket 0, 1 ns in
        // bucket 1, 2-3 ns in bucket 2, and so on.
        ((64 - ns.leading_zeros()) as usize).min(NS_HIST_BUCKETS - 1)
    }

    /// Upper edge (inclusive) of bucket `i`, in nanoseconds.
    #[inline]
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i).saturating_sub(1).max(1u64 << (i - 1))
        }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one duration given directly in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &NsHist) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Smallest recorded duration in nanoseconds, or `None` if empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Largest recorded duration in nanoseconds, or `None` if empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Mean recorded duration in nanoseconds, or `None` if empty.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0..=1.0`) in nanoseconds: the upper edge of
    /// the bucket holding the q-th recorded value, clamped to the
    /// observed `[min, max]`. `None` if empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Self::bucket_upper(i).clamp(self.min_ns, self.max_ns));
            }
        }
        Some(self.max_ns)
    }
}

/// Per-label host-cost distributions for a labelled-step loop.
///
/// A driver times each step from outside the engine and bills the cost
/// to the step's static label; [`LoopProfiler::dists`] then reports one
/// [`NsHist`] per label, whose counts are the per-label step counts.
#[derive(Clone, Debug, Default)]
pub struct LoopProfiler {
    // Static labels keep recording allocation-free; an event loop has a
    // small closed set of event types, so a linear scan beats a map.
    slots: Vec<(&'static str, NsHist)>,
}

impl LoopProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one step under `label` and attributes `cost` of host
    /// wall-clock time to it.
    #[inline]
    pub fn count_timed(&mut self, label: &'static str, cost: Duration) {
        match self.slots.iter_mut().find(|(l, _)| *l == label) {
            Some((_, h)) => h.record(cost),
            None => {
                let mut h = NsHist::new();
                h.record(cost);
                self.slots.push((label, h));
            }
        }
    }

    /// Per-label step-cost distributions, in first-seen order.
    pub fn dists(&self) -> Vec<(&'static str, NsHist)> {
        self.slots.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_label() {
        let mut p = LoopProfiler::new();
        p.count_timed("tx_end", Duration::ZERO);
        p.count_timed("tick", Duration::ZERO);
        p.count_timed("tx_end", Duration::ZERO);
        let counts: Vec<(&str, u64)> = p.dists().iter().map(|(l, h)| (*l, h.count())).collect();
        assert_eq!(counts, &[("tx_end", 2), ("tick", 1)]);
    }

    #[test]
    fn timed_counts_accumulate_cost() {
        let mut p = LoopProfiler::new();
        p.count_timed("tx_end", Duration::from_micros(5));
        p.count_timed("tx_end", Duration::from_micros(7));
        p.count_timed("tick", Duration::from_micros(1));
        let totals: Vec<(&str, u64)> = p.dists().iter().map(|(l, h)| (*l, h.total_ns())).collect();
        assert_eq!(totals, &[("tx_end", 12_000), ("tick", 1_000)]);
    }

    #[test]
    fn ns_hist_tracks_extremes_and_quantiles() {
        let mut h = NsHist::new();
        assert_eq!(h.quantile_ns(0.5), None);
        assert_eq!(h.min_ns(), None);
        for us in [1u64, 2, 3, 4, 100] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_ns(), Some(1_000));
        assert_eq!(h.max_ns(), Some(100_000));
        assert_eq!(h.total_ns(), 110_000);
        // p50 lands in the bucket holding 2 µs; the upper-edge answer
        // must bound it from above without exceeding the observed max.
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((2_000..=4_095).contains(&p50), "p50 = {p50}");
        // p99 of five samples is the largest one; clamped to max.
        assert_eq!(h.quantile_ns(0.99), Some(100_000));
        // q=0 resolves to the first bucket's upper edge: >= the true
        // minimum, < the next recorded value.
        let p0 = h.quantile_ns(0.0).unwrap();
        assert!((1_000..2_000).contains(&p0), "p0 = {p0}");
        assert_eq!(h.quantile_ns(1.0), Some(100_000));
    }

    #[test]
    fn ns_hist_merge_matches_combined_stream() {
        let mut a = NsHist::new();
        let mut b = NsHist::new();
        let mut both = NsHist::new();
        for ns in [10u64, 500, 90_000] {
            a.record(Duration::from_nanos(ns));
            both.record(Duration::from_nanos(ns));
        }
        for ns in [3u64, 7_000_000] {
            b.record(Duration::from_nanos(ns));
            both.record(Duration::from_nanos(ns));
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn ns_hist_zero_and_huge_durations_stay_in_range() {
        let mut h = NsHist::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.quantile_ns(0.01), Some(0));
        assert_eq!(h.quantile_ns(1.0), h.max_ns());
    }

    #[test]
    fn count_timed_populates_distributions() {
        let mut p = LoopProfiler::new();
        p.count_timed("tx_end", Duration::from_micros(5));
        p.count_timed("tx_end", Duration::from_micros(7));
        p.count_timed("tick", Duration::from_micros(1));
        let dists = p.dists();
        assert_eq!(dists.len(), 2);
        assert_eq!(dists[0].0, "tx_end");
        assert_eq!(dists[0].1.count(), 2);
        assert_eq!(dists[0].1.total_ns(), 12_000);
        assert_eq!(dists[1].0, "tick");
        assert_eq!(dists[1].1.max_ns(), Some(1_000));
    }
}
