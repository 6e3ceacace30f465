//! A fixed-memory, lock-free, log-linear histogram (HDR-style).
//!
//! Values are `u64` in caller-chosen units (the workspace convention is
//! nanoseconds for latencies, plain counts for widths). The bucket
//! layout is fixed at construction:
//!
//! - values `0..64` get one bucket each (**exact**);
//! - every power-of-two octave `[2^o, 2^(o+1))` for `o in 6..=63` is
//!   split into 64 equal sub-buckets.
//!
//! That is `64 + 58 × 64 = 3776` buckets ≈ 30 KiB per histogram,
//! covering the full `u64` range with relative quantile error bounded
//! by [`Histogram::REL_ERROR`] (reported values are bucket midpoints,
//! so the real bound is 1/128; 1/64 is the documented, conservative
//! contract). `count` and `sum` are tracked exactly, so `mean()` has no
//! bucketing error at all — the Figure-3 cross-check relies on that.
//!
//! Recording is an index computation plus relaxed `fetch_add`s: no
//! locks, no allocation, safe from any number of threads. A concurrent
//! [`Histogram::snapshot`] may observe a record in `count` but not yet
//! in `sum` (the fields are independent atomics); totals are exact once
//! writers have quiesced, which is what the concurrency tests assert.

use std::sync::atomic::{AtomicU64, Ordering};

use mmcs_util::time::SimDuration;

/// Number of sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave (64).
const SUBS: usize = 1 << SUB_BITS;
/// One exact bucket per value below `SUBS`.
const LINEAR: usize = SUBS;
/// Octaves `[2^o, 2^(o+1))` for `o in SUB_BITS..64`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
/// Total bucket count: 3776.
const BUCKETS: usize = LINEAR + OCTAVES * SUBS;

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUBS as u64 {
        value as usize
    } else {
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) & (SUBS as u64 - 1);
        LINEAR + (octave - SUB_BITS) as usize * SUBS + sub as usize
    }
}

/// Returns `(lo, width)`: the bucket covers `[lo, lo + width)`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < LINEAR {
        (index as u64, 1)
    } else {
        let rel = index - LINEAR;
        let octave = SUB_BITS + (rel / SUBS) as u32;
        let sub = (rel % SUBS) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        ((1u64 << octave) + sub * width, width)
    }
}

/// The value reported for a bucket: its midpoint (exact when width 1).
fn bucket_midpoint(index: usize) -> u64 {
    let (lo, width) = bucket_bounds(index);
    lo + (width - 1) / 2
}

/// A lock-free log-bucketed histogram. See the [module docs](self).
pub struct Histogram {
    /// Always exactly `BUCKETS` long.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    /// `0` until the first record (indistinguishable from a recorded 0;
    /// disambiguated via `count`).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Upper bound on the relative error of any reported quantile:
    /// `|reported - exact| ≤ exact × REL_ERROR`. Values below 64 are
    /// exact.
    pub const REL_ERROR: f64 = 1.0 / 64.0;

    /// Creates an empty histogram (~30 KiB, allocated once here; the
    /// record path never allocates).
    pub fn new() -> Self {
        // `AtomicU64` is not Copy, so build the boxed slice from an
        // iterator.
        let buckets: Box<[AtomicU64]> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // `bucket_index` is clamped to `BUCKETS - 1`; `get` keeps the
        // recording path panic-free regardless.
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Observations recorded so far (exact).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds every observation summarized by `snapshot` into `self`.
    /// Bucket layouts are identical by construction, so this is exactly
    /// equivalent to having recorded the union of both sample sets.
    pub fn absorb(&self, snapshot: &HistogramSnapshot) {
        for &(index, n) in &snapshot.buckets {
            self.buckets[index as usize].fetch_add(n, Ordering::Relaxed);
        }
        if snapshot.count > 0 {
            self.count.fetch_add(snapshot.count, Ordering::Relaxed);
            self.sum.fetch_add(snapshot.sum, Ordering::Relaxed);
            self.min.fetch_min(snapshot.min, Ordering::Relaxed);
            self.max.fetch_max(snapshot.max, Ordering::Relaxed);
        }
    }

    /// Takes a point-in-time copy of the non-empty buckets and totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time, sparse copy of a [`Histogram`]: only non-empty
/// buckets, plus exact totals. Cheap to clone, merge, and query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)`, sorted by index.
    buckets: Vec<(u32, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot of zero observations.
    pub fn empty() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Observations recorded (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean (`sum / count`), or 0.0 when empty.
    /// No bucketing error: `sum` and `count` are tracked exactly.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), using the
    /// nearest-rank convention: rank `round((count - 1) × q)`. Returns the containing bucket's
    /// midpoint — within [`Histogram::REL_ERROR`] of the exact order
    /// statistic. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if rank < seen {
                return Some(bucket_midpoint(index as usize));
            }
        }
        // A torn snapshot can leave `count` ahead of the bucket total;
        // fall back to the largest non-empty bucket.
        self.buckets
            .last()
            .map(|&(index, _)| bucket_midpoint(index as usize))
    }

    /// Merges two snapshots. Equivalent to one histogram having
    /// recorded the union of both sample sets (the property tests pin
    /// this down).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        buckets.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        buckets.push((ib, nb));
                        b.next();
                    } else {
                        buckets.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    buckets.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    buckets.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Merges any number of snapshots into one, equivalent to a single
    /// histogram having recorded every sample set — the pooling step
    /// for per-shard histograms: each shard keeps its own pool, and the
    /// capacity-frontier report merges them. `count` and `sum` add
    /// exactly, so the merged [`HistogramSnapshot::mean`] equals the
    /// pooled mean with no bucketing error, in any merge order.
    pub fn merge_all<'a, I>(snapshots: I) -> HistogramSnapshot
    where
        I: IntoIterator<Item = &'a HistogramSnapshot>,
    {
        snapshots
            .into_iter()
            .fold(HistogramSnapshot::empty(), |acc, s| acc.merge(s))
    }

    /// Iterates non-empty buckets as `(inclusive upper bound, count)`,
    /// in increasing bound order — the shape Prometheus exposition
    /// needs for cumulative `le` buckets.
    pub fn bucket_bounds(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|&(index, n)| {
            let (lo, width) = bucket_bounds(index as usize);
            (lo + (width - 1), n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        // Every bucket's range starts where the previous one ended.
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} misaligned");
            assert!(width >= 1);
            expected_lo = lo.saturating_add(width);
        }
        assert_eq!(expected_lo, u64::MAX); // saturated at the top octave
    }

    #[test]
    fn index_and_bounds_agree() {
        for v in [0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            let (lo, width) = bucket_bounds(i);
            assert!(lo <= v, "value {v} below bucket {i} lo {lo}");
            assert!(
                v - lo < width,
                "value {v} beyond bucket {i} range [{lo}, {lo}+{width})"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..64 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..64u64 {
            let q = v as f64 / 63.0;
            assert_eq!(s.quantile(q), Some(v));
        }
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(63));
        assert_eq!(s.sum(), (0..64).sum::<u64>());
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        let values: Vec<u64> = (0..1000).map(|i| i * i * 37 + 100).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let got = s.quantile(q).expect("non-empty");
            let bound = (exact as f64 * Histogram::REL_ERROR).ceil();
            assert!(
                (got as f64 - exact as f64).abs() <= bound,
                "q={q}: got {got}, exact {exact}, bound {bound}"
            );
        }
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new();
        for v in [3u64, 5, 1000, 123_456_789] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.mean(), (3.0 + 5.0 + 1000.0 + 123_456_789.0) / 4.0);
    }

    #[test]
    fn merge_equals_union() {
        let (a, b, u) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..500u64 {
            let v = v * 17 + 3;
            a.record(v);
            u.record(v);
        }
        for v in 0..300u64 {
            let v = v * v + 90;
            b.record(v);
            u.record(v);
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), u.snapshot());
    }

    #[test]
    fn merge_all_equals_one_pooled_histogram() {
        // Three per-shard pools vs one histogram that saw every sample:
        // merge_all must be exactly the pooled snapshot, and the mean
        // must be exact (sum/count carry no bucketing error).
        let pools = [Histogram::new(), Histogram::new(), Histogram::new()];
        let union = Histogram::new();
        for v in 0..900u64 {
            let v = v * 131 + 7;
            pools[(v % 3) as usize].record_n(v, 1 + v % 4);
            union.record_n(v, 1 + v % 4);
        }
        let snaps: Vec<HistogramSnapshot> = pools.iter().map(Histogram::snapshot).collect();
        let merged = HistogramSnapshot::merge_all(&snaps);
        assert_eq!(merged, union.snapshot());
        assert_eq!(merged.mean(), union.snapshot().mean());
        // Order independence.
        let reversed = HistogramSnapshot::merge_all(snaps.iter().rev());
        assert_eq!(reversed, merged);
        // Empty input is the empty snapshot.
        assert_eq!(
            HistogramSnapshot::merge_all(std::iter::empty()),
            HistogramSnapshot::empty()
        );
    }

    #[test]
    fn absorb_equals_union() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [1u64, 99, 70_000] {
            a.record(v);
        }
        for v in [2u64, 99, 1 << 40] {
            b.record(v);
        }
        let union = a.snapshot().merge(&b.snapshot());
        a.absorb(&b.snapshot());
        assert_eq!(a.snapshot(), union);
    }

    #[test]
    fn empty_snapshot_behaves() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), 0.0);
        let h = Histogram::new();
        assert_eq!(h.snapshot(), s);
    }

    #[test]
    fn record_duration_uses_nanos() {
        let h = Histogram::new();
        h.record_duration(SimDuration::from_micros(2));
        assert_eq!(h.snapshot().sum(), 2000);
    }
}
