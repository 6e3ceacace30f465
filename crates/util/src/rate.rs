//! Bandwidth arithmetic.
//!
//! [`Bandwidth`] converts between bits-per-second and the time it takes to
//! serialize a packet onto a link — the core quantity behind the fan-out
//! queueing that produces Figure 3's delay curves.
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

use crate::time::SimDuration;
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
}
