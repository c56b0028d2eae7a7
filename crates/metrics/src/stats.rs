//! Small summary-statistics helpers used across the benchmark harness.

/// Arithmetic mean. Panics on empty input.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (n−1 denominator); 0 for fewer than two samples.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Minimum. Panics on empty input.
pub(crate) fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum. Panics on empty input (returns -inf).
pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Median (averages the middle pair for even lengths).
pub(crate) fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(max(&xs), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(variance(&[7.0]), 0.0);
    }

    #[test]
    fn variance_matches_formula() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }
}
