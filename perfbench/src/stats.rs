//! Order statistics, computed the way Python's `statistics` module does so
//! the benchmark's percentiles match a reader's own check of the samples.

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 1, 2)
}

/// The `i`-th of the `n`-quantiles of `samples` by Python's default
/// `statistics.quantiles(..., method="exclusive")`: `quantile(s, 9, 10)`
/// is the 90th percentile. One sample is returned as is.
pub fn quantile(samples: &[f64], i: usize, n: usize) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return data[0];
    }
    if n == 2 && i == 1 {
        // statistics.median: exact middle, not the interpolated form.
        return if ld % 2 == 1 {
            data[ld / 2]
        } else {
            (data[ld / 2 - 1] + data[ld / 2]) / 2.0
        };
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..=10], n=10)[8] == 9.9
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 9, 10) - 9.9).abs() < 1e-12);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert!((quantile(&v, 1, 4) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 3, 4) - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
