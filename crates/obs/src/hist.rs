//! A fixed-layout log-bucket histogram for latency quantiles.
//!
//! The serving simulation records one latency sample per completed
//! request — far too many to sort — so quantiles come from an
//! HDR-style histogram: values bucket into powers of two subdivided
//! into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantisation error of any reported quantile at `1 / SUB_BUCKETS`
//! (6.25%).
//!
//! The layout is *fixed* (no auto-resizing, no configuration), so two
//! histograms are always mergeable and a merge is a plain per-bucket
//! add: shards recorded on different worker threads fold into exactly
//! the histogram a single thread would have produced, whatever the
//! shard boundaries or merge order. That property is what keeps
//! `fig11_service` byte-identical across `--jobs` counts, and the
//! proptest below locks it.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power-of-two octave (the precision knob).
pub const SUB_BUCKETS: usize = 16;

const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)

/// Bucket count: values below [`SUB_BUCKETS`] get exact unit buckets,
/// then 60 octaves (2^4 .. 2^63) of [`SUB_BUCKETS`] each.
pub const BUCKETS: usize = SUB_BUCKETS + 60 * SUB_BUCKETS;

/// A mergeable log-bucket histogram over `u64` samples.
///
/// Construction is `O(1)`, recording is `O(1)`, and quantile queries
/// walk the (fixed, small) bucket array. The exact minimum and maximum
/// are tracked alongside the buckets so `quantile(0.0)` and
/// `quantile(1.0)` are exact and interior quantiles clamp into
/// `[min, max]`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = ((v >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + ((octave - SUB_BITS) as usize) * SUB_BUCKETS + sub
}

/// The inclusive upper bound of a bucket — the value a quantile query
/// reports for samples in it (never an underestimate, at most
/// `1/SUB_BUCKETS` above the true sample).
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index - SUB_BUCKETS) as u32 / SUB_BUCKETS as u32 + SUB_BITS;
    let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let width = 1_u64 << (octave - SUB_BITS);
    let lower = (1_u64 << octave) + sub * width;
    lower + (width - 1)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. Bucket and total counts saturate at
    /// `u64::MAX` (and the sum at `u128::MAX`) rather than wrapping, so
    /// a pathological stream degrades quantile precision instead of
    /// corrupting the histogram.
    pub fn record(&mut self, value: u64) {
        let i = bucket_index(value);
        self.counts[i] = self.counts[i].saturating_add(1);
        self.total = self.total.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(value));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all samples, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum sample, `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample, `0` when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `ceil(q * count)`, clamped to
    /// the exact observed `[min, max]`. Within `1/`[`SUB_BUCKETS`]
    /// relative error of the exact order statistic; `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if rank == 1 {
            return self.min;
        }
        if rank == self.total {
            return self.max;
        }
        let mut seen = 0_u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Empties the histogram in place, keeping its bucket array: the
    /// same as replacing it with [`LogHistogram::new`], without the
    /// allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Folds another histogram into this one. Merging is commutative
    /// and associative, and the merge of any sharding of a sample
    /// stream equals the histogram of the unsharded stream. Counts
    /// saturate rather than wrap, mirroring [`LogHistogram::record`].
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile of a sorted sample set, same rank convention as
    /// [`LogHistogram::quantile`].
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn clear_equals_new() {
        let mut h = LogHistogram::new();
        for v in [0, 7, 1 << 20, u64::MAX] {
            h.record(v);
        }
        h.clear();
        assert_eq!(h, LogHistogram::new());
        h.record(42);
        let mut fresh = LogHistogram::new();
        fresh.record(42);
        assert_eq!(h, fresh);
    }

    #[test]
    fn bucket_layout_is_monotone_and_total() {
        let mut prev = None;
        for v in (0..4096).chain([u64::MAX, u64::MAX / 2, 1 << 40, (1 << 40) + 12345]) {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_upper(i) >= v, "upper({i}) < {v}");
            if let Some((pv, pi)) = prev {
                if v > pv {
                    assert!(i >= pi, "bucket order violated at {v}");
                }
            }
            prev = Some((v, i));
        }
        // Unit buckets are exact for small values.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn quantiles_match_exact_sorted_quantiles_within_bucket_error() {
        // A latency-shaped sample: a tight body plus a long tail.
        let mut samples: Vec<u64> = (0..2000).map(|i| 10_000 + (i * 37) % 5_000).collect();
        samples.extend((0..20).map(|i| 200_000 + i * 50_000));
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            assert!(est >= exact, "q{q}: estimate {est} under exact {exact}");
            let err = (est - exact) as f64 / exact.max(1) as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "q{q}: error {err} above 1/{SUB_BUCKETS} (est {est}, exact {exact})"
            );
        }
        assert_eq!(h.quantile(0.0), *sorted.first().unwrap());
        assert_eq!(h.quantile(1.0), *sorted.last().unwrap());
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.sum(), samples.iter().map(|&s| u128::from(s)).sum());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merging_empty_shards_is_the_identity() {
        let mut filled = LogHistogram::new();
        for v in [3, 99, 4096, 1 << 33] {
            filled.record(v);
        }
        // empty.merge(filled) == filled.
        let mut onto_empty = LogHistogram::new();
        onto_empty.merge(&filled);
        assert_eq!(onto_empty, filled);
        // filled.merge(empty) == filled — and min must survive the
        // empty shard's sentinel `u64::MAX` min.
        let mut onto_filled = filled.clone();
        onto_filled.merge(&LogHistogram::new());
        assert_eq!(onto_filled, filled);
        assert_eq!(onto_filled.min(), 3);
        // empty.merge(empty) stays a well-formed empty histogram.
        let mut both_empty = LogHistogram::new();
        both_empty.merge(&LogHistogram::new());
        assert_eq!(both_empty, LogHistogram::new());
        assert_eq!(both_empty.count(), 0);
        assert_eq!(both_empty.min(), 0);
        assert_eq!(both_empty.quantile(0.5), 0);
    }

    #[test]
    fn single_sample_answers_every_quantile_exactly() {
        for v in [0, 1, 17, 12_345, u64::MAX] {
            let mut h = LogHistogram::new();
            h.record(v);
            for q in [0.0, 0.001, 0.25, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "q{q} of single sample {v}");
            }
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
            assert_eq!(h.mean(), v as f64);
        }
    }

    #[test]
    fn rank_quantiles_at_exact_bounds_hit_min_and_max() {
        let mut h = LogHistogram::new();
        for v in [10, 20, 30, 40, 50] {
            h.record(v);
        }
        // q=0.0 has rank ceil(0) clamped up to 1 → exact min; q=1.0 has
        // rank == total → exact max. Neither passes through a bucket
        // upper bound.
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 50);
        // A tiny-but-positive q also clamps to rank 1.
        assert_eq!(h.quantile(1e-12), 10);
        // And a q above 1.0 clamps to rank total rather than running
        // off the bucket array.
        assert_eq!(h.quantile(1.5), 50);
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let mut h = LogHistogram::new();
        h.record(7);
        h.record(9);
        // Repeated self-merge doubles every counter; ~70 doublings
        // drives them far past u64::MAX, which must saturate, not wrap
        // or panic.
        for _ in 0..70 {
            let snapshot = h.clone();
            h.merge(&snapshot);
        }
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 9);
        // Quantiles stay well-formed on a saturated histogram.
        assert!(h.quantile(0.5) >= 7);
        assert!(h.quantile(0.5) <= 9);
        // Saturated recording is also a no-panic no-op on the counts.
        h.record(8);
        assert_eq!(h.count(), u64::MAX);
    }

    #[test]
    fn merge_is_commutative_and_matches_unsharded() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..1000_u64 {
            let v = (i * 2654435761) % 1_000_000;
            whole.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }
}
