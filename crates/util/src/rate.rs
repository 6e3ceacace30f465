//! Bandwidth arithmetic and rate limiting.
//!
//! [`Bandwidth`] converts between bits-per-second and the time it takes to
//! serialize a packet onto a link — the core quantity behind the fan-out
//! queueing that produces Figure 3's delay curves. [`TokenBucket`] models
//! rate-limited producers (e.g. a pacing media source).
//!
//! # Examples
//!
//! ```
//! use mmcs_util::rate::Bandwidth;
//!
//! let fast_ethernet = Bandwidth::from_mbps(100);
//! // A 1250-byte packet is 10_000 bits: 100 microseconds at 100 Mbps.
//! assert_eq!(fast_ethernet.transmit_time(1250).as_micros(), 100);
//! ```

use crate::time::{SimDuration, SimTime};
use core::fmt;

/// A link or NIC capacity in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero; a zero-capacity link can never transmit
    /// and would make serialization time infinite.
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        Self(bps)
    }

    /// Creates a bandwidth from kilobits per second.
    pub fn from_kbps(kbps: u64) -> Self {
        Self::from_bps(kbps * 1_000)
    }

    /// Creates a bandwidth from megabits per second.
    pub fn from_mbps(mbps: u64) -> Self {
        Self::from_bps(mbps * 1_000_000)
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn from_gbps(gbps: u64) -> Self {
        Self::from_bps(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto a link of this capacity.
    pub fn transmit_time(self, bytes: usize) -> SimDuration {
        let bits = bytes as u64 * 8;
        // nanos = bits / bps * 1e9, computed in u128 to avoid overflow.
        let nanos = (bits as u128 * 1_000_000_000u128) / self.0 as u128;
        SimDuration::from_nanos(nanos as u64)
    }

    /// How many bytes this capacity can carry in `window`.
    pub fn bytes_in(self, window: SimDuration) -> u64 {
        (self.0 as u128 * window.as_nanos() as u128 / 8 / 1_000_000_000) as u64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.1}Kbps", self.0 as f64 / 1e3)
        }
    }
}

/// A token bucket rate limiter over virtual time.
///
/// Tokens are measured in bytes and refill continuously at `rate`. The
/// bucket never holds more than `burst` bytes.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Bandwidth,
    burst_bytes: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero.
    pub fn new(rate: Bandwidth, burst_bytes: u64, now: SimTime) -> Self {
        assert!(burst_bytes > 0, "burst must be positive");
        Self {
            rate,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_refill: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_duration_since(self.last_refill);
        self.tokens = (self.tokens + self.rate.bps() as f64 / 8.0 * elapsed.as_secs_f64())
            .min(self.burst_bytes);
        self.last_refill = now;
    }

    /// Attempts to consume `bytes` tokens at `now`; returns whether the
    /// packet conforms to the rate.
    pub fn try_consume(&mut self, bytes: usize, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Returns when `bytes` tokens will next be available (possibly `now`).
    pub fn next_available(&mut self, bytes: usize, now: SimTime) -> SimTime {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            now
        } else {
            let deficit = bytes as f64 - self.tokens;
            let secs = deficit * 8.0 / self.rate.bps() as f64;
            now + SimDuration::from_secs_f64(secs)
        }
    }

    /// Currently available tokens in bytes (after refilling to `now`).
    pub fn available(&mut self, now: SimTime) -> u64 {
        self.refill(now);
        self.tokens as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmit_time_examples() {
        // 600 Kbps video, ~1000-byte packets: 13.33 ms of link time each.
        let video = Bandwidth::from_kbps(600);
        assert_eq!(video.transmit_time(1000).as_millis(), 13);
        // Gigabit: 1250 bytes in 10 us.
        assert_eq!(Bandwidth::from_gbps(1).transmit_time(1250).as_micros(), 10);
    }

    #[test]
    fn bytes_in_window_inverts_transmit_time() {
        let bw = Bandwidth::from_mbps(100);
        let window = SimDuration::from_millis(10);
        // 100 Mbps for 10 ms = 1 Mbit = 125_000 bytes.
        assert_eq!(bw.bytes_in(window), 125_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = Bandwidth::from_bps(0);
    }

    #[test]
    fn display_units() {
        assert_eq!(Bandwidth::from_kbps(600).to_string(), "600.0Kbps");
        assert_eq!(Bandwidth::from_mbps(240).to_string(), "240.0Mbps");
        assert_eq!(Bandwidth::from_gbps(1).to_string(), "1.0Gbps");
    }

    #[test]
    fn token_bucket_starts_full_and_drains() {
        let t0 = SimTime::ZERO;
        let mut tb = TokenBucket::new(Bandwidth::from_kbps(8), 1000, t0); // 1000 B/s refill
        assert!(tb.try_consume(1000, t0));
        assert!(!tb.try_consume(1, t0));
        // After half a second, 500 bytes refilled.
        let t1 = t0 + SimDuration::from_millis(500);
        assert!(tb.try_consume(500, t1));
        assert!(!tb.try_consume(1, t1));
    }

    #[test]
    fn token_bucket_next_available() {
        let t0 = SimTime::ZERO;
        let mut tb = TokenBucket::new(Bandwidth::from_kbps(8), 1000, t0);
        assert_eq!(tb.next_available(500, t0), t0);
        assert!(tb.try_consume(1000, t0));
        // Need 250 bytes at 1000 B/s -> 250 ms.
        let when = tb.next_available(250, t0);
        assert_eq!(when.as_millis(), 250);
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let t0 = SimTime::ZERO;
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8), 100, t0);
        let much_later = t0 + SimDuration::from_secs(60);
        assert_eq!(tb.available(much_later), 100);
    }
}
