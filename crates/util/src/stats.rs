//! Statistics collection for experiments.
//!
//! Two tools, matching what the paper's figures need:
//!
//! * [`OnlineStats`] — streaming count/mean/variance/min/max (Welford).
//! * [`SampleSeries`] — stores every sample, for the per-packet series
//!   of Figure 3.
//!
//! # Examples
//!
//! ```
//! use mmcs_util::stats::OnlineStats;
//!
//! let mut s = OnlineStats::new();
//! for x in [1.0, 2.0, 3.0] {
//!     s.record(x);
//! }
//! assert_eq!(s.mean(), 2.0);
//! assert_eq!(s.count(), 3);
//! ```

use core::fmt;

/// Streaming mean/variance/min/max using Welford's algorithm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or +inf when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or -inf when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            if self.count == 0 { 0.0 } else { self.min },
            if self.count == 0 { 0.0 } else { self.max },
        )
    }
}

/// Stores every sample in insertion order: the per-packet series a
/// figure plots (Figure 3's delay and jitter).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSeries {
    samples: Vec<f64>,
}

impl SampleSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// All samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn series_keeps_samples_in_order() {
        let mut s = SampleSeries::new();
        assert!(s.is_empty());
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.samples(), &[3.0, 1.0, 2.0]);
    }
}
