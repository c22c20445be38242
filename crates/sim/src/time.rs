//! Simulated time with nanosecond resolution.
//!
//! All timing in the workspace is done with exact integer nanoseconds.
//! 802.11 timing parameters are integer microseconds, but symbol and byte
//! durations at 5.5 and 11 Mbps are not (one byte at 5.5 Mbps lasts
//! 1454.54… ns), so nanoseconds keep rounding error negligible over even
//! very long runs while staying exactly reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds since the start of
/// the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any time a simulation will reach (half of `u64`
    /// range, leaving headroom so additions never overflow).
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX / 2);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the simulation origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the simulation origin (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Time since the origin expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Duration needed to transmit `bits` at `bits_per_sec`, rounded up to
    /// the next nanosecond so airtime is never under-counted.
    pub fn for_bits(bits: u64, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "rate must be positive");
        // ceil(bits * 1e9 / rate) in u64 whenever the product fits (every
        // frame does); only a product past u64 takes the slower u128 path.
        let ns = match bits.checked_mul(1_000_000_000) {
            Some(n) => n.div_ceil(bits_per_sec),
            None => (bits as u128 * 1_000_000_000u128).div_ceil(bits_per_sec as u128) as u64,
        };
        SimDuration(ns)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k >= 0.0, "scale must be non-negative");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    /// How many whole `other` fit in `self`.
    type Output = u64;
    fn div(self, other: SimDuration) -> u64 {
        self.0 / other.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_micros(10).as_micros(), 10);
        assert!((SimTime::from_secs(3).as_secs_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(100);
        let d = SimDuration::from_micros(50);
        assert_eq!(t + d, SimTime::from_micros(150));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_micros(50));
        assert_eq!(d + d, SimDuration::from_micros(100));
        assert_eq!(d * 3, SimDuration::from_micros(150));
        assert_eq!(d / 2, SimDuration::from_micros(25));
        assert_eq!((d * 7) / d, 7);
    }

    #[test]
    fn for_bits_rounds_up() {
        // One 1500-byte frame at 11 Mbps: 12000 bits / 11e6 = 1090.909.. us.
        let d = SimDuration::for_bits(12_000, 11_000_000);
        assert_eq!(d.as_nanos(), 1_090_910); // ceil(1090909.09..)
                                             // Exact division does not round up.
        let d = SimDuration::for_bits(8, 1_000_000);
        assert_eq!(d.as_nanos(), 8_000);
    }

    /// The u64 fast path and its u128 fallback agree with the plain
    /// u128 formula, on both sides of the overflow boundary.
    #[test]
    fn for_bits_matches_the_wide_formula() {
        let wide =
            |bits: u64, rate: u64| ((bits as u128 * 1_000_000_000).div_ceil(rate as u128)) as u64;
        let edge = u64::MAX / 1_000_000_000;
        let bits = [
            0,
            1,
            8,
            12_000,
            999_999_999,
            1_000_000_000,
            edge - 1,
            edge,
            edge + 1,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let rates = [1, 2, 3, 999, 1_000_000, 11_000_000, 54_000_000, u64::MAX];
        for b in bits {
            for r in rates {
                assert_eq!(
                    SimDuration::for_bits(b, r).as_nanos(),
                    wide(b, r),
                    "{b} bits at {r}"
                );
            }
        }
        // `edge` is the last product that fits in u64.
        assert!(edge.checked_mul(1_000_000_000).is_some());
        assert!((edge + 1).checked_mul(1_000_000_000).is_none());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn for_bits_zero_rate_panics() {
        let _ = SimDuration::for_bits(1, 0);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(late.saturating_since(early), SimDuration::from_micros(20));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        let d = SimDuration::from_micros(5);
        assert_eq!(
            d.saturating_sub(SimDuration::from_micros(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::from_nanos(1));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_micros(1);
        let db = SimDuration::from_micros(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
    }
}
