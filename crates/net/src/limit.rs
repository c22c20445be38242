//! Token-bucket rate limiting.
//!
//! Used for the paper's Table 4 scenario ("limiting the sending rate of
//! the application generating TCP packets at n2") and for paced UDP
//! sources. The bucket is exact-integer over nanoseconds via f64 token
//! arithmetic — precise enough that a 2.1 Mbit/s limit measures as
//! 2.1 Mbit/s over any experiment-length window.

use airtime_sim::{SimDuration, SimTime};

/// A byte-granularity token bucket.
#[derive(Clone, Debug)]
pub struct RateLimiter {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_fill: SimTime,
}

impl RateLimiter {
    /// Creates a limiter at `rate_bps` bits/s with a `burst_bytes` cap.
    /// The bucket starts full.
    ///
    /// # Panics
    ///
    /// Panics if the rate or burst is non-positive.
    pub fn new(rate_bps: f64, burst_bytes: u64) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive");
        assert!(burst_bytes > 0, "burst must be positive");
        RateLimiter {
            rate_bytes_per_sec: rate_bps / 8.0,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_fill: SimTime::ZERO,
        }
    }

    /// The configured rate in bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bytes_per_sec * 8.0
    }

    /// Tokens on hand at `now`, as a pure function of the state at the
    /// last successful consumption. Failed polls must not mutate the
    /// bucket: how often a caller polls is engine bookkeeping (the
    /// simulator re-polls a limiter-blocked flow after every dispatch
    /// until it sends), so accumulating `dt * rate` in per-poll
    /// increments would tie the float sum's partition to the dispatch
    /// cadence — one extra wake-up event would drift a `ready_at` by a
    /// nanosecond (caught by `verify-determinism` on the adjust-period
    /// ablation).
    fn available(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_fill).as_secs_f64();
        (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes)
    }

    /// Consumes `bytes` if available; returns whether it succeeded.
    pub fn try_consume(&mut self, now: SimTime, bytes: u64) -> bool {
        let available = self.available(now);
        if available >= bytes as f64 {
            self.tokens = available - bytes as f64;
            self.last_fill = self.last_fill.max(now);
            true
        } else {
            false
        }
    }

    /// Earliest time at which `bytes` tokens will be available, assuming
    /// no consumption in between. Returns `now` if already available.
    pub fn ready_at(&self, now: SimTime, bytes: u64) -> SimTime {
        let deficit = bytes as f64 - self.available(now);
        if deficit <= 0.0 {
            now
        } else {
            // Round up and never return a zero wait, or a caller loop
            // that advances time by `ready_at` could spin forever.
            let ns = (deficit / self.rate_bytes_per_sec * 1e9).ceil().max(1.0);
            now + SimDuration::from_nanos(ns as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_drains() {
        let mut l = RateLimiter::new(8_000.0, 1000); // 1000 B/s, 1000 B burst
        assert!(l.try_consume(SimTime::ZERO, 600));
        assert!(l.try_consume(SimTime::ZERO, 400));
        assert!(!l.try_consume(SimTime::ZERO, 1));
    }

    #[test]
    fn refills_at_rate() {
        let mut l = RateLimiter::new(8_000.0, 1000);
        assert!(l.try_consume(SimTime::ZERO, 1000));
        // After 0.5 s: 500 bytes back.
        assert!(l.try_consume(SimTime::from_millis(500), 500));
        assert!(!l.try_consume(SimTime::from_millis(500), 1));
    }

    #[test]
    fn burst_caps_accumulation() {
        let mut l = RateLimiter::new(8_000.0, 1000);
        // After a long idle period, only `burst` is available.
        assert!(l.try_consume(SimTime::from_secs(100), 1000));
        assert!(!l.try_consume(SimTime::from_secs(100), 1));
    }

    #[test]
    fn ready_at_predicts_availability() {
        let mut l = RateLimiter::new(8_000.0, 1000);
        assert!(l.try_consume(SimTime::ZERO, 1000));
        let at = l.ready_at(SimTime::ZERO, 250);
        assert_eq!(at, SimTime::from_millis(250));
        assert!(l.try_consume(at, 250));
        // Already-available bytes are ready immediately.
        let l2 = RateLimiter::new(8_000.0, 1000);
        assert_eq!(
            l2.ready_at(SimTime::from_secs(5), 10),
            SimTime::from_secs(5)
        );
    }

    #[test]
    fn long_run_rate_is_exact() {
        // Consume 1500-byte packets as fast as allowed at 2.1 Mbit/s for
        // 10 s: total must be 2.1 Mbit/s ± one packet.
        let mut l = RateLimiter::new(2_100_000.0, 3000);
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs(10);
        let mut sent = 0u64;
        while now < end {
            if l.try_consume(now, 1500) {
                sent += 1500;
            } else {
                now = l.ready_at(now, 1500);
            }
        }
        let mbps = sent as f64 * 8.0 / 10.0 / 1e6;
        assert!((mbps - 2.1).abs() < 0.01, "mbps={mbps}");
    }

    #[test]
    fn failed_polls_leave_the_bucket_bit_identical() {
        // Two buckets, same consumption schedule; one is additionally
        // polled (and refused) at many awkward intermediate times, the
        // way the event loop re-polls a limiter-blocked flow after every
        // dispatch. The extra polls must not perturb the float state —
        // otherwise a change in poll cadence (say, one more wake-up
        // event) drifts `ready_at` by a nanosecond over a long run.
        let mut quiet = RateLimiter::new(2_100_000.0, 3000);
        let mut noisy = RateLimiter::new(2_100_000.0, 3000);
        let mut now = SimTime::ZERO;
        for step in 1..500u64 {
            now += SimDuration::from_nanos(5_714_285 + step % 7);
            for poll in 1..4u64 {
                let mid = now + SimDuration::from_nanos(poll * 997);
                assert!(!noisy.try_consume(mid, 3001)); // always refused
            }
            let a = quiet.try_consume(now, 1500);
            let b = noisy.try_consume(now, 1500);
            assert_eq!(a, b, "step {step}");
            assert_eq!(
                quiet.ready_at(now, 1500),
                noisy.ready_at(now, 1500),
                "step {step}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = RateLimiter::new(0.0, 10);
    }
}
