//! Measurement collection: latency histograms and their summaries.
//!
//! The histogram uses HDR-style log-linear bucketing: values are grouped by
//! power-of-two magnitude, each magnitude subdivided into 16 linear
//! sub-buckets. This gives ≤ 6.25 % relative error on percentile extraction
//! across the full `u64` range with a small constant footprint — accurate
//! enough to distinguish a 50 µs read from a 3 ms erase-stalled read by
//! orders of magnitude, which is what the paper's myth 3 requires.

use std::fmt;

use crate::time::SimDuration;

const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 16
const MAGNITUDES: usize = 64;
const BUCKETS: usize = MAGNITUDES * SUB_BUCKETS;

/// A log-linear histogram over `u64` values (typically nanoseconds).
///
/// Equality is exact bucket-state equality: two histograms compare equal
/// iff they recorded the same multiset of values — what the database
/// layer's QD-1 identity tests assert.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros(); // floor(log2(value)) >= 4
        let shift = magnitude - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((magnitude - SUB_BUCKET_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (lower-bound) value for a bucket index.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let magnitude = (idx / SUB_BUCKETS - 1) as u32 + SUB_BUCKET_BITS;
        let sub = (idx % SUB_BUCKETS) as u64;
        let base = 1u64 << magnitude;
        let step = 1u64 << (magnitude - SUB_BUCKET_BITS);
        base + sub * step
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration (nanoseconds).
    #[inline]
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of recorded values (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded value (exact). Zero if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact). Zero if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q ∈ [0, 1]` (bucket lower bound; ≤ 6.25 % relative
    /// error). Zero if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // clamp to true extrema for exactness at the edges
                return Self::bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand: median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Shorthand: 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Shorthand: 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Condensed summary snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean: self.mean(),
            min: self.min(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            max: self.max(),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

/// A condensed latency summary (all values in the recorded unit, typically ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            SimDuration::from_nanos(self.mean as u64),
            SimDuration::from_nanos(self.p50),
            SimDuration::from_nanos(self.p95),
            SimDuration::from_nanos(self.p99),
            SimDuration::from_nanos(self.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_small_values_exact() {
        for v in 0..16u64 {
            let idx = Histogram::bucket_index(v);
            assert_eq!(Histogram::bucket_floor(idx), v);
        }
    }

    #[test]
    fn bucket_floor_within_relative_error() {
        for &v in &[17u64, 100, 1_000, 50_000, 3_000_000, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // next bucket's floor must be above v
            let next = Histogram::bucket_floor(idx + 1);
            assert!(next > v, "next floor {next} <= value {v}");
            // relative error bound 1/16
            assert!((v - floor) as f64 / v as f64 <= 1.0 / 16.0 + 1e-12);
        }
    }

    #[test]
    fn quantiles_of_uniform_sequence() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((450..=550).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((930..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn bimodal_distribution_separates() {
        // 99 fast reads at 50µs + 1 erase-stalled read at 3ms:
        // p50 must stay ~50µs, max must report ~3ms. This is the exact
        // shape myth 3 depends on.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(50_000);
        }
        h.record(3_000_000);
        assert!(h.p50() < 60_000);
        assert_eq!(h.max(), 3_000_000);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn merged_quantiles_equal_rerecorded_quantiles() {
        // E13 combines per-txn-class histograms (read-only + update)
        // with merge() instead of re-recording samples; the merged
        // histogram must be bucket-for-bucket what recording the union
        // would have produced — quantiles, mean, extrema, equality.
        let fast: Vec<u64> = (0..600).map(|i| 40_000 + i * 37).collect();
        let slow: Vec<u64> = (0..60).map(|i| 2_500_000 + i * 11_113).collect();
        let mut a = Histogram::new();
        for &v in &fast {
            a.record(v);
        }
        let mut b = Histogram::new();
        for &v in &slow {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let mut union = Histogram::new();
        for &v in fast.iter().chain(&slow) {
            union.record(v);
        }
        assert_eq!(merged, union, "merge must equal re-recording the union");
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), union.quantile(q), "quantile {q}");
        }
        assert_eq!(merged.count(), 660);
        assert_eq!(merged.min(), union.min());
        assert_eq!(merged.max(), union.max());
        assert!((merged.mean() - union.mean()).abs() < 1e-9);
        // the bimodal split survives the merge: median stays in the fast
        // mode, p99 lands in the slow mode
        assert!(merged.p50() < 100_000);
        assert!(merged.p99() >= 2_500_000);
    }

    #[test]
    fn per_shard_merge_equals_whole_run_quantiles() {
        // The shard coordinator records latencies into per-shard
        // histograms (samples hash-partitioned exactly like the
        // keyspace, `key % N`) and merges them for the run report. For
        // any shard count the merged quantiles must equal what one
        // whole-run histogram would have reported.
        let samples: Vec<u64> = (0..4096u64)
            .map(|i| 30_000 + (i * 2_654_435_761 % 5_000_000))
            .collect();
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        for n in [2usize, 4, 8] {
            let mut shards = vec![Histogram::new(); n];
            for (i, &v) in samples.iter().enumerate() {
                shards[i % n].record(v);
            }
            let mut merged = Histogram::new();
            for h in &shards {
                merged.merge(h);
            }
            assert_eq!(merged, whole, "{n}-way shard merge must equal whole-run");
            for q in [0.5, 0.9, 0.99, 0.999] {
                assert_eq!(
                    merged.quantile(q),
                    whole.quantile(q),
                    "{n} shards: quantile {q}"
                );
            }
            assert_eq!(merged.count(), whole.count());
            assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(77);
        a.merge(&b);
        assert_eq!(a, b, "empty.merge(x) == x");
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "x.merge(empty) is a no-op");
    }

    #[test]
    fn quantile_extremes_clamped_to_true_min_max() {
        let mut h = Histogram::new();
        h.record(123_456);
        assert_eq!(h.quantile(0.0), 123_456);
        assert_eq!(h.quantile(1.0), 123_456);
    }
}
