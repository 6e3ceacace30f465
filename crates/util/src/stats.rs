//! Statistics collection for experiments.
//!
//! Two tools, matching what the paper's figures need:
//!
//! * [`OnlineStats`] — streaming count/mean/variance/min/max (Welford).
//! * [`SampleSeries`] — stores every sample so percentiles and the
//!   per-packet series of Figure 3 can be reported and written to CSV.
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

use core::cell::{Cell, RefCell};
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

/// Stores every sample for percentile queries and series export.
///
/// Percentile queries sort lazily and cache the sorted order, so a
/// burst of quantile reads (p50/p90/p99 in a report) sorts once;
/// recording a new sample invalidates the cache. The cache lives in a
/// [`RefCell`], which makes the type `!Sync` — experiment collection is
/// single-threaded, so nothing shares a series across threads.
pub struct SampleSeries {
    samples: Vec<f64>,
    sorted: RefCell<Option<Vec<f64>>>,
    sorts: Cell<u64>,
}

impl SampleSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self {
            samples: Vec::new(),
            sorted: RefCell::new(None),
            sorts: Cell::new(0),
        }
    }

    /// Appends one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted.get_mut().take();
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

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank interpolation, or 0
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            self.sorts.set(self.sorts.get() + 1);
            let mut sorted = self.samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in series"));
            sorted
        });
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }

    /// How many times percentile queries have had to sort; a burst of
    /// queries against an unchanged series costs exactly one sort.
    pub fn sorts_performed(&self) -> u64 {
        self.sorts.get()
    }

    /// Downsamples the series by averaging consecutive windows of `width`
    /// samples — how we turn 2000 per-packet values into a plot-friendly
    /// series like the paper's Figure 3.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn window_means(&self, width: usize) -> Vec<f64> {
        assert!(width > 0, "window width must be positive");
        self.samples
            .chunks(width)
            .map(|chunk| chunk.iter().sum::<f64>() / chunk.len() as f64)
            .collect()
    }

    /// Writes the series as two-column CSV (`index,value`) with a header.
    pub fn to_csv(&self, value_name: &str) -> String {
        let mut out = format!("index,{value_name}\n");
        for (i, v) in self.samples.iter().enumerate() {
            out.push_str(&format!("{i},{v:.6}\n"));
        }
        out
    }
}

impl fmt::Debug for SampleSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SampleSeries")
            .field("samples", &self.samples)
            .finish_non_exhaustive()
    }
}

impl Clone for SampleSeries {
    fn clone(&self) -> Self {
        // The sort cache is cheap to rebuild; clones start cold.
        Self {
            samples: self.samples.clone(),
            sorted: RefCell::new(None),
            sorts: Cell::new(0),
        }
    }
}

impl PartialEq for SampleSeries {
    fn eq(&self, other: &Self) -> bool {
        // Cache state is not part of a series' value.
        self.samples == other.samples
    }
}

impl Default for SampleSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<f64> for SampleSeries {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            samples: iter.into_iter().collect(),
            sorted: RefCell::new(None),
            sorts: Cell::new(0),
        }
    }
}

impl Extend<f64> for SampleSeries {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
        self.sorted.get_mut().take();
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
    fn series_percentiles() {
        let s: SampleSeries = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
        // Nearest-rank: index round(99 * 0.5) = 50 -> value 51.
        assert_eq!(s.percentile(0.5), 51.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_percentiles_sort_once_and_agree() {
        let mut s: SampleSeries = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let first: Vec<f64> = [0.0, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| s.percentile(q))
            .collect();
        for _ in 0..10 {
            let again: Vec<f64> = [0.0, 0.5, 0.9, 0.99, 1.0]
                .iter()
                .map(|&q| s.percentile(q))
                .collect();
            assert_eq!(again, first);
        }
        assert_eq!(s.sorts_performed(), 1);

        // Recording invalidates the cache: one more sort, new answers
        // reflect the new sample.
        s.record(f64::from(10_000));
        assert_eq!(s.percentile(1.0), 10_000.0);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.sorts_performed(), 2);
    }

    #[test]
    fn series_window_means() {
        let s: SampleSeries = vec![1.0, 3.0, 5.0, 7.0, 10.0].into_iter().collect();
        assert_eq!(s.window_means(2), vec![2.0, 6.0, 10.0]);
    }

    #[test]
    fn series_csv_has_header_and_rows() {
        let mut s = SampleSeries::new();
        s.record(1.5);
        let csv = s.to_csv("delay_ms");
        assert!(csv.starts_with("index,delay_ms\n"));
        assert!(csv.contains("0,1.500000"));
    }
}
