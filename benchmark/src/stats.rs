//! Percentiles, medians of segments and the quartile spread the
//! repeatability check uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `p` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice: a workload that completed no op has no
/// latency to report, and the caller must have failed it earlier.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, minimum and maximum of a set of per-segment (or per-repeat)
/// values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// # Panics
///
/// Panics on an empty slice or a NaN, both bugs in the caller.
pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    assert!(n > 0, "spread of no values");
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    Spread { median, min: v[0], max: v[n - 1] }
}

pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

pub fn median_u64(sorted: &[u64]) -> u64 {
    percentile(sorted, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so that `--repeat` judges spread
/// the way the acceptance check does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), 3);
    }

    #[test]
    fn median_of_segments_ignores_one_outlier_each_side() {
        let s = spread(&[10.0, 11.0, 500.0, 9.0, 0.1]);
        assert_eq!(s, Spread { median: 10.0, min: 0.1, max: 500.0 });
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
