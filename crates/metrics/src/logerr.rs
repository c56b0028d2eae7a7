//! The logarithmic error metric (paper §7.1, from Velho & Legrand \[26\]).
//!
//! The relative error `(X - R)/R` is asymmetric: overestimating by 2× gives
//! +100%, underestimating by 2× gives −50%. The paper therefore measures
//! `LogErr = |ln X − ln R|`, which is symmetric and can be aggregated
//! additively (mean, max, variance); `e^LogErr − 1` converts an aggregate
//! back to a percentage.

/// `|ln x − ln r|`. Panics on non-positive inputs (times are positive).
pub(crate) fn log_error(x: f64, r: f64) -> f64 {
    assert!(
        x > 0.0 && r > 0.0,
        "log error needs positive values ({x}, {r})"
    );
    (x.ln() - r.ln()).abs()
}

/// Converts a (possibly aggregated) log error back to a fractional error:
/// `e^le − 1` (multiply by 100 for the paper's percentages).
pub(crate) fn to_fraction(le: f64) -> f64 {
    le.exp() - 1.0
}

/// Mean log error over paired samples.
pub(crate) fn mean_log_error(xs: &[f64], rs: &[f64]) -> f64 {
    assert_eq!(xs.len(), rs.len());
    assert!(!xs.is_empty());
    xs.iter()
        .zip(rs)
        .map(|(&x, &r)| log_error(x, r))
        .sum::<f64>()
        / xs.len() as f64
}

/// Maximum log error over paired samples.
pub(crate) fn max_log_error(xs: &[f64], rs: &[f64]) -> f64 {
    assert_eq!(xs.len(), rs.len());
    xs.iter()
        .zip(rs)
        .map(|(&x, &r)| log_error(x, r))
        .fold(0.0, f64::max)
}

/// Summary of an accuracy comparison: the numbers the paper quotes for each
/// figure ("8.63% average error overall, with worst case at 27%").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Mean log error (fraction, e.g. 0.0863 for 8.63%).
    pub mean: f64,
    /// Worst-case log error (fraction).
    pub max: f64,
}

impl ErrorSummary {
    /// Compares predictions against references.
    pub fn compare(predicted: &[f64], reference: &[f64]) -> Self {
        ErrorSummary {
            mean: to_fraction(mean_log_error(predicted, reference)),
            max: to_fraction(max_log_error(predicted, reference)),
        }
    }
}

impl std::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "avg {:.2}%, worst {:.2}%",
            self.mean * 100.0,
            self.max * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_unlike_relative_error() {
        let double = log_error(2.0, 1.0);
        let half = log_error(0.5, 1.0);
        assert!((double - half).abs() < 1e-15);
        assert!((to_fraction(double) - 1.0).abs() < 1e-12); // 100%
    }

    #[test]
    fn exact_prediction_is_zero() {
        assert_eq!(log_error(3.5, 3.5), 0.0);
        assert_eq!(to_fraction(0.0), 0.0);
    }

    #[test]
    fn aggregation() {
        let xs = [1.0, 2.0, 4.0];
        let rs = [1.0, 1.0, 1.0];
        let mean = mean_log_error(&xs, &rs);
        assert!((mean - (2.0f64.ln() + 4.0f64.ln()) / 3.0).abs() < 1e-12);
        assert!((max_log_error(&xs, &rs) - 4.0f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn summary_formats() {
        let s = ErrorSummary::compare(&[1.1, 0.9], &[1.0, 1.0]);
        assert!(s.mean > 0.0 && s.max >= s.mean);
        assert!(s.to_string().contains('%'));
    }

    #[test]
    #[should_panic]
    fn rejects_non_positive() {
        log_error(0.0, 1.0);
    }
}
