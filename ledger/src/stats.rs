//! Order statistics: median-of-passes summaries, nearest-rank
//! percentiles over sorted samples, and a fixed-bucket histogram that
//! records without allocating.

/// A metric as the ledger reports it: the median over `n` passes (or
/// spans) with the quartiles around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A quantity that is counted, not sampled.
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// Median and quartiles of `values` (sorted in place). `None` when
    /// there are no values.
    pub fn of(values: &mut [f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        Some(Summary {
            value: quantile_sorted(values, 0.5),
            n: values.len(),
            q1: quantile_sorted(values, 0.25),
            q3: quantile_sorted(values, 0.75),
        })
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    let weight = position - below as f64;
    sorted[below] * (1.0 - weight) + sorted[above] * weight
}

/// Nearest-rank percentile `p ∈ (0, 100]` of an ascending slice of
/// latency samples: the smallest sample with at least `p` % of the
/// samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// Fixed log2 buckets with 32 linear sub-buckets each (≈ 3 % value
/// resolution over the whole `u64` range). The array lives inline, so
/// `record` never allocates and can run inside a timed region.
pub struct Log2Histogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Log2Histogram {
    pub fn new() -> Self {
        Log2Histogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let top = 63 - value.leading_zeros();
        let shift = top - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        (shift as usize + 1) * SUB_BUCKETS + sub
    }

    /// Smallest value that lands in `bucket`.
    fn floor_of(bucket: usize) -> u64 {
        if bucket < SUB_BUCKETS {
            return bucket as u64;
        }
        let shift = (bucket / SUB_BUCKETS - 1) as u32;
        ((SUB_BUCKETS + bucket % SUB_BUCKETS) as u64) << shift
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile, reported as the floor of the bucket the
    /// rank falls in. `None` when nothing was recorded.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Self::floor_of(bucket));
            }
        }
        unreachable!("rank is bounded by the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_median_and_quartiles_of_passes() {
        let mut passes = [5.0, 1.0, 4.0, 2.0, 3.0];
        let s = Summary::of(&mut passes).unwrap();
        assert_eq!((s.value, s.n, s.q1, s.q3), (3.0, 5, 2.0, 4.0));
        assert_eq!(Summary::of(&mut []), None);
    }

    #[test]
    fn even_count_median_interpolates() {
        let mut passes = [10.0, 20.0, 30.0, 40.0];
        let s = Summary::of(&mut passes).unwrap();
        assert_eq!(s.value, 25.0);
        assert_eq!((s.q1, s.q3), (17.5, 32.5));
    }

    #[test]
    fn one_noisy_pass_does_not_move_the_median() {
        let mut quiet = [100.0, 101.0, 99.0, 100.0, 100.0];
        let mut noisy = [100.0, 101.0, 99.0, 100.0, 900.0];
        assert_eq!(
            Summary::of(&mut quiet).unwrap().value,
            Summary::of(&mut noisy).unwrap().value
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&samples, 50.0), 50);
        assert_eq!(percentile_sorted(&samples, 95.0), 95);
        assert_eq!(percentile_sorted(&samples, 99.0), 99);
        assert_eq!(percentile_sorted(&samples, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 95.0), 7);
        assert_eq!(percentile_sorted(&[1, 2, 3], 0.1), 1);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut previous = 0;
        for value in [0u64, 1, 31, 32, 33, 63, 64, 1000, 123_456, u64::MAX] {
            let bucket = Log2Histogram::bucket_of(value);
            assert!(bucket >= previous, "buckets ascend with value");
            assert!(bucket < BUCKETS);
            previous = bucket;
            let floor = Log2Histogram::floor_of(bucket);
            assert!(floor <= value);
            // Within one sub-bucket width of the true value.
            assert!((value - floor) as f64 <= value as f64 / SUB_BUCKETS as f64 + 1.0);
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        let samples: Vec<u64> = (1..=10_000).map(|i| i * 7).collect();
        for &s in &samples {
            h.record(s);
        }
        for p in [50.0, 95.0, 99.0, 99.9] {
            let exact = percentile_sorted(&samples, p) as f64;
            let approx = h.percentile(p).unwrap() as f64;
            assert!(
                approx <= exact && approx >= exact * (1.0 - 1.0 / 16.0),
                "p{p}"
            );
        }
    }
}
