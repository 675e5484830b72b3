//! Sample summaries: the median, and the highest percentile that still
//! has at least ten samples beyond it.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 3] = [0.999, 0.99, 0.9];

/// A tail percentile is reported only with at least this many samples
/// strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// Median and tail of one set of host-time samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(quantile, value)` of the highest ladder percentile with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder quantile that leaves at least [`MIN_BEYOND`]
/// samples above its nearest rank, if any.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n >= MIN_BEYOND && n - rank(q, n) >= MIN_BEYOND)
}

/// The median of `xs` (mean of the middle pair for even counts); NaN
/// when there are no samples, so a run whose cells all failed still
/// reports.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Summarises `xs`.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = tail_quantile(v.len()).map(|q| (q, v[rank(q, v.len()) - 1]));
    Summary {
        n: v.len(),
        p50: median(&v),
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        match self.tail {
            Some((q, v)) => write!(f, ", p{} {v:.4}", q * 100.0)?,
            None => write!(f, ", no tail (fewer than {MIN_BEYOND} samples beyond p90)")?,
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(
            tail_quantile(99),
            None,
            "rank 90 of 99 leaves only 9 beyond"
        );
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1009), Some(0.99));
        assert_eq!(tail_quantile(9999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_median_and_ranked_tail() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, Some((0.9, 90.0)));
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail), (2.0, None));
    }
}
