//! Sample statistics: medians, quartiles as `compare.py` computes them,
//! and the tail-percentile picker.

/// Sorted copy of `xs` (NaNs are a bug in the caller and sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median; the mean of the two middle samples for an even count.
/// `0.0` for no samples, so an unexercised layer reads as zero.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// gives them, so the spread this binary prints is the spread
/// `compare.py` and the driver compute. One sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank index (1-based) of the `pm`-per-mille point among `n`
/// samples, in integer arithmetic so `p90` of 100 samples is rank 90.
fn rank(n: usize, pm: usize) -> usize {
    (n * pm).div_ceil(1000).clamp(1, n)
}

/// The `p`-th percentile (nearest rank; `p` to one decimal) of `xs`;
/// `0.0` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), (p * 10.0).round() as usize) - 1]
}

/// The highest percentile of the usual ladder that still has at least
/// ten samples beyond it, with its value — `None` below twenty samples,
/// where even the median has fewer than ten on either side.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    const LADDER_PM: [usize; 5] = [999, 990, 950, 900, 500];
    let n = xs.len();
    LADDER_PM
        .iter()
        .find(|&&pm| n >= 1 && n - rank(n, pm) >= 10)
        .map(|&pm| (pm as f64 / 10.0, percentile(xs, pm as f64 / 10.0)))
}

/// One line describing a timing sample set: median, quartiles, spread,
/// count, and the tail percentile when the count supports one.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let (q1, q2, q3) = quartiles(xs);
    let tail = tail_percentile(xs)
        .filter(|(p, _)| *p > 50.0)
        .map(|(p, v)| format!(" p{p}={v:.4}"))
        .unwrap_or_default();
    format!(
        "median={q2:.4} q1={q1:.4} q3={q3:.4}{tail} {unit} spread={:.1}% (n={})",
        spread(xs) * 100.0,
        xs.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let n = |k: usize| -> Vec<f64> { (0..k).map(|i| i as f64).collect() };
        assert_eq!(tail_percentile(&n(19)), None);
        assert_eq!(tail_percentile(&n(20)).unwrap().0, 50.0);
        assert_eq!(tail_percentile(&n(99)).unwrap().0, 50.0);
        assert_eq!(tail_percentile(&n(100)).unwrap().0, 90.0);
        assert_eq!(tail_percentile(&n(200)).unwrap().0, 95.0);
        assert_eq!(tail_percentile(&n(1000)).unwrap().0, 99.0);
        let (p, v) = tail_percentile(&n(10_000)).unwrap();
        assert_eq!(p, 99.9);
        // Nearest rank: ten samples lie beyond the reported value.
        assert_eq!(n(10_000).iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
    }
}
