//! Period detection for load series.
//!
//! SAP workloads are strongly periodic (Figure 10 of the ICDE paper: daily
//! rhythms with morning/midday/evening peaks and nightly batch windows).
//! The forecaster needs to know the period before it can match patterns;
//! we detect it with a normalized autocorrelation over the archived series.

/// Normalized autocorrelation of `series` at integer `lag`
/// (`1 ≤ lag < series.len()`), in `[-1, 1]`.
///
/// Returns `None` if the series is shorter than `lag + 2` samples or has
/// zero variance (a constant series correlates with everything — callers
/// should treat it as aperiodic).
pub fn autocorrelation(series: &[f64], lag: usize) -> Option<f64> {
    let (mean, variance) = moments(series);
    correlation(series, lag, mean, variance)
}

/// The mean and the population variance of `series`.
fn moments(series: &[f64]) -> (f64, f64) {
    let mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
    let variance: f64 =
        series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / series.len() as f64;
    (mean, variance)
}

/// [`autocorrelation`] at `lag` from the series' precomputed [`moments`].
fn correlation(series: &[f64], lag: usize, mean: f64, variance: f64) -> Option<f64> {
    if lag == 0 || series.len() < lag + 2 || variance < 1e-12 {
        return None;
    }
    let n = series.len() - lag;
    let covariance: f64 = (0..n)
        .map(|i| (series[i] - mean) * (series[i + lag] - mean))
        .sum::<f64>()
        / n as f64;
    Some(covariance / variance)
}

/// Find the lag in `[min_lag, max_lag]` with the highest autocorrelation.
/// Returns `(lag, correlation)`; `None` if the series is too short, has no
/// variance, or no candidate correlates above `threshold`. The series'
/// moments are computed once for all lags.
pub fn detect_period(
    series: &[f64],
    min_lag: usize,
    max_lag: usize,
    threshold: f64,
) -> Option<(usize, f64)> {
    let (mean, variance) = moments(series);
    let mut best: Option<(usize, f64)> = None;
    for lag in min_lag..=max_lag {
        if let Some(r) = correlation(series, lag, mean, variance) {
            if r >= threshold && best.is_none_or(|(_, br)| r > br) {
                best = Some((lag, r));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(period: usize, cycles: usize) -> Vec<f64> {
        (0..period * cycles)
            .map(|i| (i as f64 / period as f64 * std::f64::consts::TAU).sin() * 0.3 + 0.5)
            .collect()
    }

    #[test]
    fn autocorrelation_peaks_at_the_true_period() {
        let series = sine_series(24, 5);
        let at_period = autocorrelation(&series, 24).unwrap();
        let off_period = autocorrelation(&series, 11).unwrap();
        assert!(at_period > 0.95, "full-period lag correlates: {at_period}");
        assert!(at_period > off_period);
        // Half period anti-correlates for a sine.
        let anti = autocorrelation(&series, 12).unwrap();
        assert!(anti < -0.9, "half-period lag anti-correlates: {anti}");
    }

    #[test]
    fn detect_period_finds_the_daily_rhythm() {
        let series = sine_series(24, 6);
        let (lag, r) = detect_period(&series, 12, 36, 0.5).unwrap();
        assert_eq!(lag, 24);
        assert!(r > 0.9);
    }

    #[test]
    fn constant_series_is_aperiodic() {
        let series = vec![0.5; 100];
        assert!(autocorrelation(&series, 10).is_none());
        assert!(detect_period(&series, 2, 30, 0.1).is_none());
    }

    #[test]
    fn short_series_yield_none() {
        assert!(autocorrelation(&[0.1, 0.2], 1).is_none());
        assert!(autocorrelation(&[0.1, 0.2, 0.3], 5).is_none());
        assert!(autocorrelation(&[0.1; 10], 0).is_none());
    }

    #[test]
    fn noisy_periodic_series_still_detected() {
        // Deterministic "noise" via a second incommensurate sine.
        let series: Vec<f64> = (0..24 * 6)
            .map(|i| {
                let t = i as f64;
                0.5 + 0.3 * (t / 24.0 * std::f64::consts::TAU).sin() + 0.05 * (t * 0.7373).sin()
            })
            .collect();
        let (lag, _) = detect_period(&series, 12, 36, 0.5).unwrap();
        assert_eq!(lag, 24);
    }

    #[test]
    fn threshold_filters_weak_periodicity() {
        // Deterministic pseudo-random (LCG) series: aperiodic noise.
        let mut state = 0x2545F4914F6CDD1Du64;
        let series: Vec<f64> = (0..200)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f64 / (1u64 << 24) as f64
            })
            .collect();
        assert!(detect_period(&series, 2, 40, 0.9).is_none());
    }

    #[test]
    fn detect_period_matches_a_per_lag_scan() {
        // The moments computed once must give every lag the bits that
        // `autocorrelation` computes for it alone, on noisy, periodic and
        // constant series alike.
        autoglobe_rng::check::cases(256, |rng| {
            let len = rng.random_below(200);
            let period = (2 + rng.random_below(40)) as f64;
            let series: Vec<f64> = match rng.random_below(4) {
                0 => vec![rng.random_range(0.0..=1.0); len],
                1 => (0..len).map(|_| rng.random_range(0.0..=1.0)).collect(),
                _ => (0..len)
                    .map(|i| {
                        let phase = i as f64 / period * std::f64::consts::TAU;
                        0.5 + 0.3 * phase.sin() + rng.random_range(-0.1..=0.1)
                    })
                    .collect(),
            };
            let min_lag = rng.random_below(30);
            let max_lag = min_lag + rng.random_below(30);
            let threshold = rng.random_range(-1.0..=1.0);
            let mut expected: Option<(usize, f64)> = None;
            for lag in min_lag..=max_lag {
                if let Some(r) = autocorrelation(&series, lag) {
                    if r >= threshold && expected.is_none_or(|(_, br)| r > br) {
                        expected = Some((lag, r));
                    }
                }
            }
            let bits = |best: Option<(usize, f64)>| best.map(|(lag, r)| (lag, r.to_bits()));
            assert_eq!(
                bits(detect_period(&series, min_lag, max_lag, threshold)),
                bits(expected)
            );
        });
    }
}
