//! Estimators the report is built from.
//!
//! Every gated number is a **median over slices** of a phase (the
//! slice's throughput, or the slice's own percentile): one scheduler
//! stall on a shared host ruins one slice, not the phase. Latencies are
//! kept in a log-linear histogram ([`LogHist`], 64 sub-buckets per
//! power of two, < 1.6 % bucket width) rather than as raw samples, so
//! the benchmark's own memory stays out of `peak_rss_mb`; quantiles
//! interpolate by rank inside the bucket, so they are not quantised to
//! bucket bounds. Every figure carries its sample count.

/// Sub-buckets per power of two.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
/// Values at or above 2^40 ns (≈ 18 min) share the last bucket.
const MAX_EXP: u32 = 40;

/// A log-linear histogram of `u64` samples (nanoseconds here).
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; ((MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize],
            total: 0,
        }
    }

    /// Bucket index of `v`: values below 64 map one to one, above that
    /// each power of two splits into 64 equal sub-buckets.
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = (63 - v.leading_zeros()).min(MAX_EXP - 1);
        let shift = exp - SUB_BITS;
        let sub = ((v >> shift) - SUB).min(SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Inclusive lower and exclusive upper value bound of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, i + 1);
        }
        let shift = (i / SUB - 1) as u32;
        let lo = (SUB + i % SUB) << shift;
        (lo, lo + (1 << shift))
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[Self::index(v)] += n;
        self.total += n;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolated by rank inside its
    /// bucket; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, hi) = Self::bounds(i);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo as f64 + inside * (hi - lo) as f64);
            }
            seen += c;
        }
        None
    }
}

/// Median of `values` (mean of the middle two when even); `None` when
/// empty. Sorts in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &mut [f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        values[j - 1] + delta * (values[j] - values[j - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the repeatability criterion is stated in.
pub fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let (q1, q3) = quartiles(&mut v)?;
    let m = median(&mut v)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The percentile ladder tails are read from.
pub const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Whether `samples` observations support quantile `q`: at least ten
/// samples must lie beyond it.
pub fn supports(samples: u64, q: f64) -> bool {
    // `1.0 - 0.9` is a hair under 0.1; the slack keeps 100 samples enough.
    samples as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// The highest quantile of [`LADDER`] that `samples` observations
/// support; `None` below twenty samples.
pub fn highest_supported(samples: u64) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&q| supports(samples, q))
}

/// One phase cut into equal slices, each with its own delivery count
/// and latency histogram.
pub struct Slices {
    start_ns: u64,
    slice_ns: u64,
    pub counts: Vec<u64>,
    pub hists: Vec<LogHist>,
}

impl Slices {
    /// `n` slices of `slice_ns` starting at `start_ns` (monotonic ns).
    pub fn new(start_ns: u64, slice_ns: u64, n: usize) -> Self {
        Self {
            start_ns,
            slice_ns: slice_ns.max(1),
            counts: vec![0; n],
            hists: vec![LogHist::new(); n],
        }
    }

    /// `duration_ns` from `start_ns`, cut into at least eight slices,
    /// each at most a second long.
    pub fn over(start_ns: u64, duration_ns: u64) -> Self {
        let n = (duration_ns.div_ceil(1_000_000_000) as usize).max(8);
        Self::new(start_ns, duration_ns / n as u64, n)
    }

    /// Index of the slice `t_ns` falls into; `None` outside the phase.
    #[inline]
    pub fn slot(&self, t_ns: u64) -> Option<usize> {
        let i = (t_ns.checked_sub(self.start_ns)? / self.slice_ns) as usize;
        (i < self.counts.len()).then_some(i)
    }

    /// Events per second, slice by slice.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.slice_ns as f64 / 1e9;
        self.counts.iter().map(|&c| c as f64 / secs).collect()
    }

    /// Each slice's own `q`-quantile, skipping slices too thin to
    /// support it.
    pub fn quantiles(&self, q: f64) -> Vec<f64> {
        self.hists
            .iter()
            .filter(|h| supports(h.count(), q))
            .filter_map(|h| h.quantile(q))
            .collect()
    }

    /// Median over slices of events per second.
    pub fn rate_median(&self) -> Option<f64> {
        median(&mut self.rates())
    }

    /// Median over slices of each slice's own `q`-quantile.
    pub fn quantile_median(&self, q: f64) -> Option<f64> {
        median(&mut self.quantiles(q))
    }

    /// All slices' latency samples in one histogram.
    pub fn pooled(&self) -> LogHist {
        let mut all = LogHist::new();
        for h in &self.hists {
            all.merge(h);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            123_456,
            1 << 30,
            (1 << 40) - 1,
        ] {
            let (lo, hi) = LogHist::bounds(LogHist::index(v));
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            assert!((hi - lo) as f64 <= (lo.max(64) as f64) / 64.0 + 1.0);
        }
        // Out-of-range values land in the last bucket instead of panicking.
        let mut h = LogHist::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        let mut h = LogHist::new();
        for v in 0..1000u64 {
            h.record(100_000 + v * 100);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 150_000.0).abs() < 1_500.0, "p50 {p50}");
        let p90 = h.quantile(0.9).unwrap();
        assert!((p90 - 190_000.0).abs() < 2_000.0, "p90 {p90}");
        assert!(LogHist::new().quantile(0.5).is_none());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert!(supports(100_000, 0.9999));
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        let mut s = Slices::new(1_000, 1_000_000_000, 5);
        for (i, n) in [100u64, 101, 3, 99, 100].into_iter().enumerate() {
            let t = 1_000 + i as u64 * 1_000_000_000 + 5;
            let slot = s.slot(t).unwrap();
            s.counts[slot] += n;
            for _ in 0..n.max(20) {
                s.hists[slot].record(if i == 2 { 9_000_000 } else { 50_000 });
            }
        }
        assert_eq!(s.rate_median(), Some(100.0));
        let p50 = s.quantile_median(0.5).unwrap();
        assert!(p50 < 51_000.0, "p50 {p50}");
        assert!(s.slot(999).is_none());
        assert!(s.slot(1_000 + 5_000_000_000).is_none());
        assert_eq!(s.pooled().count(), 100 + 101 + 20 + 99 + 100);
    }
}
