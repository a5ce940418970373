//! Log-linear (HDR-style) latency histograms.
//!
//! Values are non-negative integer "ticks" (the serving layer records
//! nanoseconds). The bucket layout is fixed at compile time: values
//! below `SUB_BUCKETS` get exact unit buckets, and every power-of-two
//! octave above that is split into `SUB_BUCKETS` linear sub-buckets,
//! bounding relative error by `1 / SUB_BUCKETS` (6.25%). The layout is
//! identical for every histogram, so two histograms merge by bucket-wise
//! addition and a merged histogram answers quantile queries exactly as
//! if every sample had been recorded into one instrument — the property
//! the shard-merge proptest pins down.
//!
//! Recording is a single `fetch_add` on the bucket plus one on the sum;
//! there are no locks anywhere.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of sub-bucket resolution per octave.
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per octave (and exact unit buckets below it).
pub(crate) const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count: unit buckets plus `SUB_BUCKETS` per octave for
/// octaves `SUB_BITS..64`.
pub(crate) const BUCKET_COUNT: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Bucket index for a value. Exact below `SUB_BUCKETS`; log-linear above.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros();
        let group = (top - SUB_BITS) as usize;
        let offset = (v >> group) as usize - SUB_BUCKETS;
        SUB_BUCKETS + group * SUB_BUCKETS + offset
    }
}

/// Inclusive upper bound of bucket `i` (saturating for the last octave).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    debug_assert!(i < BUCKET_COUNT);
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let group = (i - SUB_BUCKETS) / SUB_BUCKETS;
        let offset = (i - SUB_BUCKETS) % SUB_BUCKETS;
        let upper = ((SUB_BUCKETS + offset + 1) as u128) << group;
        u64::try_from(upper - 1).unwrap_or(u64::MAX)
    }
}

/// Default export ladder for nanosecond latency histograms: native bucket
/// boundaries of the form `2^k - 1` every two octaves, spanning ~4 µs to
/// ~17 s. Because each rung is an exact bucket edge, the cumulative
/// Prometheus `_bucket` counts are exact, not interpolated.
pub fn latency_boundaries() -> Vec<u64> {
    (12..=34).step_by(2).map(|k| (1u64 << k) - 1).collect()
}

/// A fixed-layout concurrent histogram.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (~8 KiB of buckets).
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKET_COUNT]> = buckets
            .into_boxed_slice()
            .try_into()
            .map_err(|_| ())
            .expect("layout");
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration in nanosecond ticks.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the buckets, for quantiles and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum())
            .finish()
    }
}

/// An owned copy of a histogram's state. Mergeable; answers quantile and
/// cumulative-count queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// An all-zero snapshot, a merge accumulator.
    #[cfg(test)]
    pub(crate) fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKET_COUNT],
            sum: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values, in ticks.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket-wise addition; the layout is fixed so this is exact.
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.sum += other.sum;
    }

    /// Number of samples with value `<= bound`. Exact whenever `bound`
    /// is a bucket upper bound (all `2^k - 1` are, for `k >= SUB_BITS`);
    /// otherwise conservatively excludes the straddling bucket.
    pub(crate) fn cumulative_le(&self, bound: u64) -> u64 {
        let mut total = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if bucket_upper_bound(i) > bound {
                break;
            }
            total += c;
        }
        total
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the sample of rank `ceil(q * count)`. Returns 0 for an
    /// empty snapshot. Relative error is bounded by the bucket width
    /// (≤ 6.25%).
    #[cfg(test)]
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKET_COUNT - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn index_and_bounds_agree() {
        for v in (0u64..4096).chain([(1 << 40) - 3, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < BUCKET_COUNT, "index {i} out of range for {v}");
            assert!(
                bucket_upper_bound(i) >= v,
                "upper bound {} below value {v}",
                bucket_upper_bound(i)
            );
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < v);
            }
        }
    }

    #[test]
    fn upper_bounds_are_strictly_monotone() {
        for i in 1..BUCKET_COUNT {
            assert!(bucket_upper_bound(i - 1) < bucket_upper_bound(i));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(snap.quantile((v + 1) as f64 / SUB_BUCKETS as f64), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Values are increasing, so quantile(1.0) always lands in the
        // bucket of the most recent recording.
        let h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 123_456_789, 1 << 33] {
            h.record(v);
            let q = h.snapshot().quantile(1.0);
            assert!(q >= v);
            assert!((q - v) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0);
        }
    }

    #[test]
    fn cumulative_le_exact_on_boundaries() {
        let h = Histogram::new();
        for v in [10u64, 100, 5_000, 70_000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.cumulative_le((1 << 7) - 1), 2); // <=127: 10, 100
        assert_eq!(snap.cumulative_le((1 << 13) - 1), 3); // <=8191: +5000
        assert_eq!(snap.cumulative_le(u64::MAX), 5);
        // Ladder rungs never decrease.
        let mut prev = 0;
        for b in latency_boundaries() {
            let c = snap.cumulative_le(b);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn latency_ladder_rungs_are_native_bucket_edges() {
        for b in latency_boundaries() {
            let i = bucket_index(b);
            assert_eq!(bucket_upper_bound(i), b, "rung {b} is not a bucket edge");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn merged_shards_match_single_histogram(
            values in proptest::collection::vec(0u64..=1 << 36, 1..400),
            shards in 2usize..6,
        ) {
            let single = Histogram::new();
            let parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                single.record(v);
                parts[i % shards].record(v);
            }
            let mut merged = HistogramSnapshot::empty();
            for p in &parts {
                merged.merge(&p.snapshot());
            }
            let solo = single.snapshot();
            prop_assert_eq!(merged.count(), solo.count());
            prop_assert_eq!(merged.sum(), solo.sum());
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), solo.quantile(q));
            }
            for b in latency_boundaries() {
                prop_assert_eq!(merged.cumulative_le(b), solo.cumulative_le(b));
            }
            prop_assert_eq!(&merged, &solo);
        }
    }
}
