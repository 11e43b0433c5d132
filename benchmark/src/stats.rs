//! Order statistics for the benchmark's reports.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the two middle values for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The tolerance keeps 99.9 % of 10 000 at rank 9 990 despite binary rounding.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest rank of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The highest of the usual percentiles that still has [`MIN_SAMPLES_BEYOND`]
/// samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median: the run-to-run (or
/// pass-to-pass) spread a bound is compared against. 0 when it cannot be formed.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 10.0);
        assert_eq!(percentile(&values, 95.0), 19.0);
        assert_eq!(percentile(&values, 100.0), 20.0);
        assert_eq!(percentile(&values, 1.0), 1.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is rank 190: exactly ten lie beyond it.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert!((quartile_spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
