//! The statistics every number in the benchmark goes through.

/// Share of the fastest samples the floor averages.
pub const FLOOR_SHARE: f64 = 0.05;
/// The same for a run's set-ups, of which there are a dozen, not hundreds.
pub const SETUP_FLOOR_SHARE: f64 = 0.25;

/// Indices of the fastest `share` of `samples` (at least one).
fn fastest(samples: &[f64], share: f64) -> Vec<usize> {
    assert!(!samples.is_empty(), "floor of no samples");
    let mut idx: Vec<usize> = (0..samples.len()).collect();
    idx.sort_by(|&a, &b| samples[a].total_cmp(&samples[b]));
    let k = ((samples.len() as f64 * share).ceil() as usize).max(1);
    idx.truncate(k);
    idx
}

/// Indices of the fastest `FLOOR_SHARE` of `samples` (at least one).
pub fn floor_indices(samples: &[f64]) -> Vec<usize> {
    fastest(samples, FLOOR_SHARE)
}

/// Mean of the fastest `share` of `samples`.
pub fn floor_of(samples: &[f64], share: f64) -> f64 {
    let idx = fastest(samples, share);
    idx.iter().map(|&i| samples[i]).sum::<f64>() / idx.len() as f64
}

/// The floor: mean of the fastest 5 % of `samples`. Interference on a
/// shared host only ever adds time to a step, so the fast tail repeats
/// between runs where the median and the mean do not.
pub fn floor(samples: &[f64]) -> f64 {
    floor_of(samples, FLOOR_SHARE)
}

/// Linear-interpolated percentile, `q` in `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) — the spread the acceptance rule is stated in.
/// Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_averages_the_fastest_twentieth() {
        // 40 samples: the fastest 5 % are the two smallest.
        let mut v: Vec<f64> = (0..40).map(|i| 10.0 + i as f64).collect();
        v.reverse();
        assert_eq!(floor(&v), 10.5);
        assert_eq!(floor_indices(&v), vec![39, 38]);
        assert_eq!(floor(&[3.0]), 3.0);
        assert_eq!(floor(&[5.0, 4.0, 9.0]), 4.0);
        // Eight set-ups: the fastest quarter are the two smallest.
        assert_eq!(floor_of(&[8.0, 3.0, 7.0, 1.0, 6.0, 5.0, 4.0, 2.0], SETUP_FLOOR_SHARE), 1.5);
    }

    #[test]
    fn floor_ignores_slow_outliers() {
        let clean: Vec<f64> = (0..100).map(|i| 50.0 + (i % 10) as f64 * 0.1).collect();
        let mut noisy = clean.clone();
        for x in noisy.iter_mut().skip(50) {
            *x *= 3.0;
        }
        assert_eq!(floor(&clean), floor(&noisy));
        assert!(median(&noisy) > median(&clean));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
