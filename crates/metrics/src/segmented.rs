//! Segmented (piece-wise) linear regression (paper §4.1).
//!
//! "SMPI models point-to-point communication times with a piece-wise linear
//! model with an arbitrary number of linear segments. Each segment is
//! obtained using linear regression on a set of real measurements. The
//! number of segments and the segment boundaries are chosen such that the
//! product of the correlation coefficients is maximized."
//!
//! Implementation: points are sorted by x; boundaries can fall between any
//! two consecutive points; a dynamic program over (first i points, j
//! segments) maximizes Σ log r² (≡ maximizing Π r²), with a minimum number
//! of points per segment so each regression is well-posed.

use crate::regress::{fit_weighted, LinearFit};

/// Minimum points per segment (a 2-point fit has r² = 1 by construction and
/// would let the optimizer cheat).
pub(crate) const MIN_POINTS: usize = 3;

/// One fitted segment over `[lo, hi)` in x-space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedSegment {
    /// Inclusive lower x-bound of the segment's points.
    pub x_lo: f64,
    /// Exclusive upper x-bound (`f64::INFINITY` for the last segment).
    pub x_hi: f64,
    /// The per-segment regression.
    pub fit: LinearFit,
}

/// A fitted piece-wise linear model.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedFit {
    /// Segments in increasing x order.
    pub segments: Vec<FittedSegment>,
    /// Product of per-segment r².
    pub score: f64,
}

impl SegmentedFit {
    /// Prediction at `x` (the segment whose range contains `x`).
    #[cfg(test)]
    pub(crate) fn predict(&self, x: f64) -> f64 {
        for s in &self.segments {
            if x < s.x_hi {
                return s.fit.predict(x);
            }
        }
        self.segments.last().expect("non-empty fit").fit.predict(x)
    }
}

/// Fits `k` segments to `(xs, ys)` maximizing the product of r², with
/// *relative* least squares (1/y² weights) per segment. Points need not be
/// sorted. Panics if there are fewer than `k * MIN_POINTS` points. This is
/// the right variant for transfer times judged by the logarithmic error:
/// segments spanning decades of message size would otherwise be fitted
/// only to their largest points.
pub fn fit_segments_relative(xs: &[f64], ys: &[f64], k: usize) -> SegmentedFit {
    assert_eq!(xs.len(), ys.len());
    assert!(k >= 1);
    let n = xs.len();
    assert!(
        n >= k * MIN_POINTS,
        "need at least {} points for {k} segments, have {n}",
        k * MIN_POINTS
    );
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let sx: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
    let sy: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
    let weights: Vec<f64> = sy.iter().map(|&y| 1.0 / (y * y).max(1e-300)).collect();
    let seg_fit = |a: usize, b: usize| fit_weighted(&sx[a..b], &sy[a..b], &weights[a..b]);

    // log_r2[a * (n + 1) + b] = log r² of fitting points a..b (exclusive
    // b), scored once for every segment some layer can end: the first
    // starts at 0, a later one at MIN_POINTS or beyond. r² = 0 gives a
    // finite floor, so that split never wins unless forced.
    let mut log_r2 = vec![f64::NEG_INFINITY; (n + 1) * (n + 1)];
    let starts = (0..=n - MIN_POINTS).filter(|&a| a == 0 || (k > 1 && a >= MIN_POINTS));
    for a in starts {
        for b in (a + MIN_POINTS)..=n {
            log_r2[a * (n + 1) + b] = seg_fit(a, b).r2.max(1e-300).ln();
        }
    }

    // dp[j][i]: best Σ log r² covering the first i points with j segments.
    let neg = f64::NEG_INFINITY;
    let mut dp = vec![vec![neg; n + 1]; k + 1];
    let mut cut = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0.0;
    for j in 1..=k {
        for i in (j * MIN_POINTS)..=n {
            // Last segment covers points m..i.
            for m in ((j - 1) * MIN_POINTS)..=(i - MIN_POINTS) {
                if dp[j - 1][m] == neg {
                    continue;
                }
                let cand = dp[j - 1][m] + log_r2[m * (n + 1) + i];
                if cand > dp[j][i] {
                    dp[j][i] = cand;
                    cut[j][i] = m;
                }
            }
        }
    }
    assert!(dp[k][n] > neg, "no valid segmentation found");

    // Reconstruct boundaries.
    let mut bounds = vec![n];
    let mut i = n;
    for j in (1..=k).rev() {
        i = cut[j][i];
        bounds.push(i);
    }
    bounds.reverse(); // 0 = bounds[0] < ... < bounds[k] = n
    debug_assert_eq!(bounds[0], 0);

    let mut segments = Vec::with_capacity(k);
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let f = seg_fit(a, b);
        let x_hi = if b == n {
            f64::INFINITY
        } else {
            // Boundary halfway (geometrically, sizes span decades) between
            // the last point of this segment and the first of the next.
            (sx[b - 1] * sx[b]).sqrt()
        };
        segments.push(FittedSegment {
            x_lo: sx[a],
            x_hi,
            fit: f,
        });
    }
    SegmentedFit {
        segments,
        score: dp[k][n].exp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic piece-wise data with 3 regimes (like a real ping-pong).
    fn synthetic() -> (Vec<f64>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        // Log-spaced sizes from 1 to 1e7.
        for i in 0..60 {
            let x = 10f64.powf(i as f64 * 7.0 / 59.0);
            let y = if x < 1e3 {
                50e-6 + x / 250e6
            } else if x < 65536.0 {
                80e-6 + x / 110e6
            } else {
                250e-6 + x / 120e6
            };
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn recovers_three_regimes() {
        let (xs, ys) = synthetic();
        let sf = fit_segments_relative(&xs, &ys, 3);
        assert_eq!(sf.segments.len(), 3);
        // Each regime's slope should be recovered within a few percent.
        let slopes: Vec<f64> = sf.segments.iter().map(|s| s.fit.slope).collect();
        assert!((slopes[0] - 1.0 / 250e6).abs() / (1.0 / 250e6) < 0.25);
        assert!((slopes[2] - 1.0 / 120e6).abs() / (1.0 / 120e6) < 0.05);
        // Last boundary should sit near the 64 KiB protocol switch.
        let b = sf.segments[1].x_hi;
        assert!(b > 2e4 && b < 3e5, "boundary at {b}");
    }

    #[test]
    fn more_segments_never_score_worse() {
        let (xs, ys) = synthetic();
        let sweep: Vec<SegmentedFit> = (1..=4)
            .map(|k| fit_segments_relative(&xs, &ys, k))
            .collect();
        for w in sweep.windows(2) {
            assert!(
                w[1].score >= w[0].score - 1e-9,
                "score must be monotone in k: {} then {}",
                w[0].score,
                w[1].score
            );
        }
    }

    #[test]
    fn predictions_are_continuous_enough() {
        let (xs, ys) = synthetic();
        let sf = fit_segments_relative(&xs, &ys, 3);
        for (&x, &y) in xs.iter().zip(&ys) {
            let p = sf.predict(x);
            assert!(
                (p - y).abs() / y < 0.5,
                "prediction at {x}: {p} vs truth {y}"
            );
        }
    }

    #[test]
    fn segments_tile_the_axis() {
        let (xs, ys) = synthetic();
        let sf = fit_segments_relative(&xs, &ys, 3);
        assert!(sf.segments.last().unwrap().x_hi.is_infinite());
        for w in sf.segments.windows(2) {
            assert!(w[0].x_hi <= w[1].x_lo + 1e-9 || w[0].x_hi <= w[1].x_hi);
        }
    }

    #[test]
    #[should_panic]
    fn too_few_points_rejected() {
        fit_segments_relative(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0], 2);
    }
}
