//! Order statistics used by every metric: nearest-rank percentiles, the
//! median, and quartiles computed exactly as Python's
//! `statistics.quantiles(values, n=4)` computes them, so a spread printed
//! here is the spread an external checker recomputes from the same values.

/// Ascending copy of `values` (total order, so NaN cannot panic a sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` percent of the samples at or below it. `0.0` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples (the epsilon
/// keeps 99.9 % of 10,000 at rank 9,990 despite binary rounding).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly above the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of `candidates` (percent) that keeps at least ten samples
/// beyond it among `n` — the tail percentile a sample count can support.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| samples_beyond(n, q) >= 10)
        .max_by(f64::total_cmp)
}

/// Median (mean of the middle pair for an even count). `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, Python `statistics.quantiles(n=4)` (the
/// default "exclusive" method). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    match len {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let m = len + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// every bound in `BENCHMARK.json` is compared against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[5.0, 9.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let tails = [99.9, 99.0, 95.0, 90.0];
        assert_eq!(highest_supported_percentile(10_000, &tails), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000, &tails), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &tails), Some(95.0));
        assert_eq!(highest_supported_percentile(100, &tails), Some(90.0));
        assert_eq!(highest_supported_percentile(50, &tails), None);
    }
}
