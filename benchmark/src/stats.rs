//! Exact order statistics over raw samples — no histogram bucketing.

/// Samples that must lie strictly above a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile of `sorted` (ascending) at `per_mille`/1000,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[u64], per_mille: usize) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, or `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(q1, q2, q3)| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 500), Some(500));
        assert_eq!(percentile(&sorted, 990), Some(990));
        // p99.9 of 1000 samples has one sample beyond it: not reportable.
        assert_eq!(percentile(&sorted, 999), None);
        let sorted: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&sorted, 999), Some(9990));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond — reported.
        let sorted: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&sorted, 990), Some(989));
        // 999 samples: p99 is rank 990 with 9 beyond — withheld.
        let sorted: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&sorted, 990), None);
        // Tiny samples have no median either.
        assert_eq!(percentile(&[5; 19], 500), None);
        assert_eq!(percentile(&[5; 20], 500), Some(5));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }
}
