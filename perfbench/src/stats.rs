//! Small numeric helpers: medians, a log-linear nanosecond histogram,
//! interpolated quantiles of the simulator's log2 histogram and FNV-1a
//! digests.

use std::time::Duration;

use airtime_sim::NsHist;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Sub-buckets per power of two: quantiles resolve to about 6%.
const SUB: u64 = 16;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A fixed-footprint log-linear histogram of nanosecond costs. It owns
/// no heap memory, so creating and recording never allocate: a traced
/// run's allocation counts stay the simulator's own. The exact sum is
/// kept alongside for means.
#[derive(Clone)]
pub struct Hist {
    count: u64,
    total_ns: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            total_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let sub = (ns >> (octave - SUB_BITS)) & (SUB - 1);
        ((octave - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Lower edge of bucket `i`, in nanoseconds.
    fn lower(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let octave = i / SUB + SUB_BITS as u64 - 1;
        let sub = i % SUB;
        (1 << octave) + (sub << (octave - SUB_BITS as u64))
    }

    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.buckets[Self::bucket(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count as f64)
    }

    /// The `q`-quantile: the `ceil(q·n)`-th smallest sample, placed by
    /// linear interpolation on its rank within its bucket. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = rank(q, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if seen + n >= target {
                let hi = if i + 1 < BUCKETS {
                    Self::lower(i + 1)
                } else {
                    u64::MAX
                };
                return interpolate(Self::lower(i) as f64, hi as f64, target - seen, n);
            }
            seen += n;
        }
        0.0
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(quantile, value_ns)`; `None` below eleven samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        if self.count < 11 {
            return None;
        }
        let q = 1.0 - 10.0 / self.count as f64;
        Some((q, self.quantile_ns(q)))
    }
}

/// The 1-based rank of the `q`-quantile among `n` samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// The `k`-th of `n` samples spread evenly over a bucket `[lo, hi)`.
fn interpolate(lo: f64, hi: f64, k: u64, n: u64) -> f64 {
    lo + (hi - lo) * (k as f64 - 0.5) / n as f64
}

/// The `q`-quantile of the simulator's log2 [`NsHist`], interpolated on
/// rank within its bucket as [`Hist::quantile_ns`] does, so that it moves
/// smoothly rather than in steps of two. `NsHist` shows its buckets only
/// through `quantile_ns`, which gives a bucket's upper edge; the rank
/// range of the bucket is found from that by bisection. 0 when empty.
pub fn log2_quantile_ns(h: &NsHist, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at = |k: u64| h.quantile_ns((k as f64 - 0.5) / n as f64).unwrap_or(0);
    let target = rank(q, n);
    let v = at(target);
    let (mut first, mut hi) = (1, target);
    while first < hi {
        let mid = (first + hi) / 2;
        if at(mid) < v {
            first = mid + 1;
        } else {
            hi = mid;
        }
    }
    let (mut lo, mut last) = (target, n);
    while lo < last {
        let mid = (lo + last).div_ceil(2);
        if at(mid) > v {
            last = mid - 1;
        } else {
            lo = mid;
        }
    }
    // `v` is its bucket's upper edge, or the largest sample when that is
    // lower; either way its bit length names the bucket.
    let bits = 64 - v.leading_zeros();
    if bits == 0 {
        return 0.0;
    }
    let lo_ns = (1u64 << (bits - 1)).max(h.min_ns().unwrap_or(0));
    let hi_ns = (1u64 << bits).min(h.max_ns().unwrap_or(0) + 1);
    interpolate(
        lo_ns as f64,
        hi_ns as f64,
        target - first + 1,
        last - first + 1,
    )
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a, for output digests.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn digest(s: &str) -> u64 {
    Fnv::default().str(s).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_edges_round_trip() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 123_456, 1 << 40] {
            let b = Hist::bucket(ns);
            assert!(b >= last, "bucket order at {ns}");
            assert!(Hist::lower(b) <= ns, "lower edge above sample at {ns}");
            last = b;
        }
        assert_eq!(Hist::lower(Hist::bucket(1000)), 992);
    }

    #[test]
    fn quantiles_and_tail() {
        let mut h = Hist::default();
        for ns in 1..=100u64 {
            h.record(Duration::from_nanos(ns * 10));
        }
        assert_eq!(h.count(), 100);
        assert!((h.quantile_ns(0.5) - 500.0).abs() <= 32.0);
        let (q, v) = h.tail().unwrap();
        assert!((q - 0.9).abs() < 1e-12);
        assert!((880.0..=920.0).contains(&v), "{v}");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn log2_quantiles_interpolate_like_the_fine_histogram() {
        let (mut coarse, mut fine) = (NsHist::new(), Hist::default());
        for ns in 300..=1700u64 {
            coarse.record_ns(ns);
            fine.record(Duration::from_nanos(ns));
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let (c, f) = (log2_quantile_ns(&coarse, q), fine.quantile_ns(q));
            let exact = 300.0 + q * 1400.0;
            assert!((c - exact).abs() / exact < 0.1, "q{q}: log2 {c} vs {exact}");
            assert!(
                (f - exact).abs() / exact < 0.02,
                "q{q}: fine {f} vs {exact}"
            );
        }
        // A sub-bucket shift moves the interpolated median, not only a
        // shift across a power of two.
        let mut shifted = NsHist::new();
        (300..=1700u64).for_each(|ns| shifted.record_ns(ns * 9 / 10));
        assert!(log2_quantile_ns(&shifted, 0.5) < log2_quantile_ns(&coarse, 0.5) * 0.95);
        assert_eq!(log2_quantile_ns(&NsHist::new(), 0.5), 0.0);
    }
}
