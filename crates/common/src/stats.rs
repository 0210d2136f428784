//! Statistics primitives used by the experiment harness.
//!
//! Everything here is a plain accumulator: cheap to update every cycle and
//! queried once at the end of a run.

use std::fmt;

/// Running mean of a stream of `u64` samples (e.g. per-load latency).
///
/// # Example
///
/// ```
/// use psb_common::stats::RunningMean;
/// let mut m = RunningMean::new();
/// m.add(10);
/// m.add(20);
/// assert_eq!(m.mean(), 15.0);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunningMean {
    sum: u128,
    count: u64,
    min: u64,
    max: u64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        RunningMean { sum: 0, count: 0, min: u64::MAX, max: 0 }
    }

    /// Adds one sample.
    #[inline]
    pub fn add(&mut self, sample: u64) {
        self.sum += sample as u128;
        self.count += 1;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples seen.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for RunningMean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mean {:.2} (n={})", self.mean(), self.count)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples equal to `i`; samples `>= len` fall into the
/// overflow bucket. Used e.g. for Figure 4 (bits needed per Markov delta).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `len` exact-value buckets.
    pub fn new(len: usize) -> Self {
        Histogram { buckets: vec![0; len], overflow: 0, total: 0 }
    }

    /// Adds one sample.
    pub fn add(&mut self, sample: u64) {
        self.total += 1;
        match self.buckets.get_mut(sample as usize) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Count in bucket `i` (0 if out of range).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Count of samples that exceeded the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of samples `<= i` (a CDF point). 0.0 when empty.
    ///
    /// Overflow samples live in the half-open range `[len, ∞)`; the only
    /// index at which their contribution is exact is `i >= len`, where
    /// every sample — exact and overflow — is covered, so the CDF
    /// reaches 1.0 instead of silently plateauing below it.
    pub fn cdf(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if i >= self.buckets.len() {
            return 1.0;
        }
        let cum: u64 = self.buckets.iter().take(i + 1).sum();
        cum as f64 / self.total as f64
    }

    /// Number of exact buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if no exact buckets were configured.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hist(n={}, overflow={})", self.total, self.overflow)
    }
}

/// A histogram with power-of-two bucket boundaries.
///
/// Bucket 0 counts samples equal to 0; bucket `i >= 1` counts samples in
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the full `u64` range, so there
/// is no overflow bucket. Used for long-tailed distributions such as bus
/// queueing delays, where exact-value buckets would be wasteful.
///
/// # Example
///
/// ```
/// use psb_common::stats::Log2Histogram;
/// let mut h = Log2Histogram::new();
/// h.add(0); // bucket 0
/// h.add(1); // bucket 1: [1, 1]
/// h.add(5); // bucket 3: [4, 7]
/// assert_eq!(h.bucket(3), 1);
/// assert_eq!(Log2Histogram::bucket_range(3), (4, 7));
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    total: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Number of buckets (bucket 0 plus one per bit of `u64`).
    pub const BUCKETS: usize = 65;

    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Log2Histogram { buckets: [0; 65], total: 0, sum: 0, max: 0 }
    }

    /// Index of the bucket that `sample` falls into.
    #[inline]
    pub fn bucket_index(sample: u64) -> usize {
        (64 - sample.leading_zeros()) as usize
    }

    /// Inclusive `(lo, hi)` range of values counted by bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Self::BUCKETS`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < Self::BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 0)
        } else {
            (1 << (i - 1), u64::MAX >> (64 - i))
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn add(&mut self, sample: u64) {
        self.buckets[Self::bucket_index(sample)] += 1;
        self.total += 1;
        self.sum += sample as u128;
        self.max = self.max.max(sample);
    }

    /// Count in bucket `i` (0 if out of range).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Buckets with at least one sample, as `(index, count)` pairs in
    /// ascending index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c))
    }
}

impl fmt::Display for Log2Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log2hist(n={}, mean={:.1}, max={})", self.total, self.mean(), self.max)
    }
}

/// A sampled gauge: the most recent value of a fluctuating quantity
/// (queue depth, MSHR occupancy) plus min/max/mean over all samples.
///
/// # Example
///
/// ```
/// use psb_common::stats::GaugeStats;
/// let mut g = GaugeStats::new();
/// g.sample(3);
/// g.sample(7);
/// g.sample(5);
/// assert_eq!(g.last(), Some(5));
/// assert_eq!(g.max(), Some(7));
/// assert_eq!(g.mean(), 5.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GaugeStats {
    last: u64,
    mean: RunningMean,
}

impl GaugeStats {
    /// Creates an empty gauge.
    pub const fn new() -> Self {
        GaugeStats { last: 0, mean: RunningMean::new() }
    }

    /// Records the gauge's current value.
    #[inline]
    pub fn sample(&mut self, value: u64) {
        self.last = value;
        self.mean.add(value);
    }

    /// Most recent sample, or `None` if empty.
    pub fn last(&self) -> Option<u64> {
        (self.mean.count() > 0).then_some(self.last)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.mean.min()
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.mean.max()
    }

    /// Mean of all samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean.mean()
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.mean.count()
    }
}

impl fmt::Display for GaugeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.last() {
            Some(v) => write!(f, "gauge(last={v}, mean={:.1})", self.mean()),
            None => write!(f, "gauge(empty)"),
        }
    }
}

/// Tracks how many cycles a resource (e.g. a bus) was occupied.
///
/// # Example
///
/// ```
/// use psb_common::stats::Utilization;
/// let mut u = Utilization::new();
/// u.busy(25);
/// assert_eq!(u.percent(100), 25.0);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Utilization {
    busy_cycles: u64,
}

impl Utilization {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        Utilization { busy_cycles: 0 }
    }

    /// Records `n` busy cycles.
    #[inline]
    pub fn busy(&mut self, n: u64) {
        self.busy_cycles += n;
    }

    /// Total busy cycles recorded.
    #[inline]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Busy percentage over a run of `elapsed` cycles (0.0 if `elapsed` is 0).
    pub fn percent(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            100.0 * self.busy_cycles as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_basics() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.min(), None);
        m.add(4);
        m.add(8);
        m.add(0);
        assert_eq!(m.mean(), 4.0);
        assert_eq!(m.min(), Some(0));
        assert_eq!(m.max(), Some(8));
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum(), 12);
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::new();
        a.add(1);
        a.add(3);
        let mut b = RunningMean::new();
        b.add(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max(), Some(5));
    }

    #[test]
    fn histogram_cdf() {
        let mut h = Histogram::new(4);
        for s in [0, 1, 1, 2, 3, 9] {
            h.add(s);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.overflow(), 1);
        assert!((h.cdf(0) - 1.0 / 6.0).abs() < 1e-12);
        assert!((h.cdf(3) - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
    }

    #[test]
    fn histogram_cdf_covers_overflow_at_the_boundary() {
        let mut h = Histogram::new(4);
        for s in [0, 1, 1, 2, 3, 9, 100] {
            h.add(s);
        }
        assert_eq!(h.overflow(), 2);
        // The last exact bucket excludes the overflow samples (they are
        // all >= len)...
        assert!((h.cdf(3) - 5.0 / 7.0).abs() < 1e-12);
        // ...but at and beyond the bucket range every sample is <= i,
        // so the CDF must reach 1.0 instead of plateauing at 5/7.
        assert_eq!(h.cdf(4), 1.0);
        assert_eq!(h.cdf(usize::MAX), 1.0);

        // Overflow-only histogram: nothing below len, everything at it.
        let mut o = Histogram::new(2);
        o.add(50);
        assert_eq!(o.cdf(1), 0.0);
        assert_eq!(o.cdf(2), 1.0);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new(0);
        assert!(h.is_empty());
        assert_eq!(h.cdf(3), 0.0);
        assert_eq!(h.bucket(1), 0);
    }

    #[test]
    fn log2_bucket_boundaries() {
        // Every power of two starts a new bucket; value just below it
        // belongs to the previous bucket.
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(7), 3);
        assert_eq!(Log2Histogram::bucket_index(8), 4);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        for i in 0..Log2Histogram::BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_range(i);
            assert_eq!(Log2Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Log2Histogram::bucket_index(hi), i, "hi of bucket {i}");
            if i > 0 {
                assert_eq!(Log2Histogram::bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn log2_histogram_accumulates() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
        for s in [0, 0, 1, 5, 5, 6, 100] {
            h.add(s);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(3), 3); // 5, 5, 6 in [4, 7]
        assert_eq!(h.bucket(7), 1); // 100 in [64, 127]
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.sum(), 117);
        let nz: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(nz, vec![(0, 2), (1, 1), (3, 3), (7, 1)]);
    }

    #[test]
    fn gauge_tracks_last_and_extremes() {
        let mut g = GaugeStats::new();
        assert_eq!(g.last(), None);
        g.sample(4);
        g.sample(9);
        g.sample(2);
        assert_eq!(g.last(), Some(2));
        assert_eq!(g.min(), Some(2));
        assert_eq!(g.max(), Some(9));
        assert_eq!(g.mean(), 5.0);
        assert_eq!(g.samples(), 3);
    }

    #[test]
    fn utilization_percent() {
        let mut u = Utilization::new();
        u.busy(10);
        u.busy(15);
        assert_eq!(u.busy_cycles(), 25);
        assert_eq!(u.percent(100), 25.0);
        assert_eq!(u.percent(0), 0.0);
    }
}
