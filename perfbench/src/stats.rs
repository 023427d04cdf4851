//! Order statistics over latency samples. Quantiles are kept in
//! per-mille so ranks are exact integers.

/// Candidate tail quantiles in per-mille, highest first. The reported
/// tail is the highest one, up to a per-workload cap, that still has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
const TAIL_PER_MILLE: [usize; 7] = [999, 990, 950, 900, 800, 750, 500];

/// Samples a tail quantile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of the `per_mille` quantile among `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank quantile of ascending-sorted `sorted`.
pub fn quantile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 500)
}

/// The highest quantile (per-mille) of [`TAIL_PER_MILLE`], at most
/// `cap`, with at least [`TAIL_MIN_BEYOND`] of `n` samples beyond it (the
/// median if none has). The cap keeps the tail at one quantile from run
/// to run when sample counts straddle a candidate's threshold.
pub fn tail_per_mille(n: usize, cap: usize) -> usize {
    TAIL_PER_MILLE
        .into_iter()
        .find(|&q| q <= cap && n.saturating_sub(rank(n, q)) >= TAIL_MIN_BEYOND)
        .unwrap_or(500)
}

/// Percentile label: `950` → `"p95"`, `999` → `"p99.9"`.
pub fn label(per_mille: usize) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// Median and tail of one series.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value, at quantile [`Summary::tail_per_mille`].
    pub tail: f64,
    /// Which quantile `tail` is, in per-mille.
    pub tail_per_mille: usize,
}

/// Summarises a non-empty sample, with the tail at most the `cap`
/// quantile (per-mille).
pub fn summarize_capped(samples: &[f64], cap: usize) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_per_mille = tail_per_mille(sorted.len(), cap);
    Summary {
        n: sorted.len(),
        p50: quantile(&sorted, 500),
        tail: quantile(&sorted, tail_per_mille),
        tail_per_mille,
    }
}

/// Summarises a non-empty sample, with the tail as high as the sample
/// count allows.
pub fn summarize(samples: &[f64]) -> Summary {
    summarize_capped(samples, 999)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_per_mille(40, 999), 750);
        assert_eq!(tail_per_mille(100, 999), 900);
        assert_eq!(tail_per_mille(300, 999), 950);
        assert_eq!(tail_per_mille(1000, 999), 990);
        assert_eq!(tail_per_mille(10_000, 999), 999);
        assert_eq!(tail_per_mille(5, 999), 500);
        assert_eq!(tail_per_mille(10_000, 950), 950);
        assert_eq!(tail_per_mille(100, 950), 900);
        assert_eq!(label(999), "p99.9");
        assert_eq!(label(950), "p95");
    }

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 500), 5.0);
        assert_eq!(quantile(&s, 900), 9.0);
        assert_eq!(quantile(&s, 1000), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
