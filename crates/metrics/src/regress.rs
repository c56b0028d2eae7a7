//! Ordinary least squares on (x, y) pairs.

/// Result of a univariate linear fit `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept (the latency α of an affine network model).
    pub intercept: f64,
    /// Slope (the inverse bandwidth 1/β of an affine network model).
    pub slope: f64,
    /// Squared correlation coefficient r² ∈ [0, 1]; defined as 1 when the
    /// data has no y-variance (a constant is fitted exactly).
    pub r2: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    #[cfg(test)]
    pub(crate) fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Weighted least squares: minimizes `Σ wᵢ (α + β·xᵢ − yᵢ)²`. With
/// `wᵢ = 1/yᵢ²` this becomes *relative* least squares — the right loss when
/// accuracy is judged with the logarithmic error of §7.1, because residuals
/// count proportionally to the measured value. `None` weights are all-ones
/// (plain OLS).
pub(crate) fn fit_weighted(xs: &[f64], ys: &[f64], ws: Option<&[f64]>) -> LinearFit {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    assert!(n >= 2, "need at least two points to fit a line");
    let ones = vec![1.0; n];
    let ws = ws.unwrap_or(&ones);
    assert_eq!(ws.len(), n);
    assert!(ws.iter().all(|&w| w > 0.0 && w.is_finite()));
    let wsum: f64 = ws.iter().sum();
    let mx = xs.iter().zip(ws).map(|(&x, &w)| w * x).sum::<f64>() / wsum;
    let my = ys.iter().zip(ws).map(|(&y, &w)| w * y).sum::<f64>() / wsum;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for ((&x, &y), &w) in xs.iter().zip(ys).zip(ws) {
        sxx += w * (x - mx) * (x - mx);
        sxy += w * (x - mx) * (y - my);
        syy += w * (y - my) * (y - my);
    }
    assert!(sxx > 0.0, "x values are all identical");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy <= f64::EPSILON * my.abs().max(1.0) {
        1.0 // constant data, fitted exactly
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        intercept,
        slope,
        r2,
    }
}

/// Least-squares fit. Panics on fewer than 2 points or zero x-variance.
#[cfg(test)]
pub(crate) fn fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    fit_weighted(xs, ys, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let f = fit(&xs, &ys);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!((f.predict(100.0) - 203.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        // Deterministic "noise".
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                1.0 + x
                    + if (x as u64).is_multiple_of(2) {
                        5.0
                    } else {
                        -5.0
                    }
            })
            .collect();
        let f = fit(&xs, &ys);
        assert!(f.r2 < 0.99);
        assert!(f.r2 > 0.5);
    }

    #[test]
    fn constant_data_r2_is_one() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 4.0, 4.0];
        let f = fit(&xs, &ys);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_single_point() {
        fit(&[1.0], &[1.0]);
    }

    #[test]
    fn relative_weights_prefer_small_values() {
        // Two clusters: small (x~1, y~1) and large (x~1000, y~2000 with an
        // offset). Plain OLS all but ignores the small cluster; 1/y² weights
        // keep its relative residuals small.
        let xs = [1.0, 2.0, 3.0, 1000.0, 1100.0, 1200.0];
        let ys = [1.0, 2.0, 3.0, 2500.0, 2700.0, 2900.0];
        let w: Vec<f64> = ys.iter().map(|y| 1.0 / (y * y)).collect();
        let rel = fit_weighted(&xs, &ys, Some(&w));
        let plain = fit_weighted(&xs, &ys, None);
        let rel_err_small = ((rel.predict(2.0) - 2.0) / 2.0).abs();
        let plain_err_small = ((plain.predict(2.0) - 2.0) / 2.0).abs();
        assert!(rel_err_small < plain_err_small);
    }

    #[test]
    fn uniform_weights_match_plain_ols() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 - 0.5 * x).collect();
        let a = fit(&xs, &ys);
        let b = fit_weighted(&xs, &ys, Some(&[2.0; 20]));
        assert!((a.slope - b.slope).abs() < 1e-12);
        assert!((a.intercept - b.intercept).abs() < 1e-12);
    }
}
