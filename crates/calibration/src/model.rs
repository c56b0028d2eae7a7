//! Transfer-model instantiation from ping-pong measurements (paper §6).
//!
//! Three instantiations, matching the three SMPI curves of Figs. 3–5:
//!
//! * **piece-wise linear** — segmented regression (product of correlation
//!   coefficients maximized, [`smpi_metrics::segmented`]) with `k` segments
//!   (the paper settles on 3);
//! * **default affine** — latency from the 1-byte message time, bandwidth at
//!   92% of nominal ("the standard method for instantiating the affine
//!   model ... the approach taken by many of the MPI simulators");
//! * **best-fit affine** — the (α, β) minimizing the mean logarithmic error
//!   against the measurements (the strongest possible affine baseline).
//!
//! Fitted absolute parameters (α seconds, β bytes/s) are converted into the
//! *factors* of a [`TransferModel`] relative to the calibration route's
//! nominal latency and bandwidth, which is what lets a griffon calibration
//! drive gdx simulations (Figs. 4–5).

use smpi_metrics::segmented::fit_segments_relative;
use surf_sim::{Segment, TransferModel};

use crate::pingpong::Sample;

/// Nominal properties of the route the calibration ran on.
#[derive(Debug, Clone, Copy)]
pub struct RouteRef {
    /// Sum of nominal link latencies, seconds.
    pub latency: f64,
    /// Bottleneck nominal bandwidth, bytes/s.
    pub bandwidth: f64,
}

/// Caps keeping degenerate fits physical: a flat segment can regress to a
/// non-positive slope; its bandwidth factor is clamped here (the per-link
/// capacity still applies inside the engine).
const MAX_BW_FACTOR: f64 = 100.0;
const MIN_LAT_FACTOR: f64 = 0.0;

fn to_factors(intercept: f64, slope: f64, route: RouteRef) -> (f64, f64) {
    let lat_factor = (intercept / route.latency).max(MIN_LAT_FACTOR);
    let bw_factor = if slope > 0.0 {
        (1.0 / slope / route.bandwidth).min(MAX_BW_FACTOR)
    } else {
        MAX_BW_FACTOR
    };
    (lat_factor, bw_factor)
}

/// Fits the piece-wise linear model of §4.1 with `k` segments.
pub fn fit_piecewise(samples: &[Sample], k: usize, route: RouteRef) -> TransferModel {
    let xs: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.time).collect();
    let sf = fit_segments_relative(&xs, &ys, k);
    let segments = sf
        .segments
        .iter()
        .map(|seg| {
            let (lat_factor, bw_factor) = to_factors(seg.fit.intercept, seg.fit.slope, route);
            Segment {
                upper: seg.x_hi,
                lat_factor,
                bw_factor,
            }
        })
        .collect();
    TransferModel::new(segments)
}

/// The "Default Affine" instantiation: 1-byte latency, 92% of nominal
/// bandwidth.
pub fn fit_default_affine(samples: &[Sample], route: RouteRef) -> TransferModel {
    let smallest = samples
        .iter()
        .min_by_key(|s| s.bytes)
        .expect("non-empty calibration data");
    let lat_factor = (smallest.time / route.latency).max(MIN_LAT_FACTOR);
    TransferModel::affine(lat_factor, 0.92)
}

/// The "Best-Fit Affine" instantiation: the (α, β) minimizing the mean
/// logarithmic error against the samples (coarse log-space grid search with
/// two refinement passes — the objective is smooth and unimodal enough).
pub fn fit_best_affine(samples: &[Sample], route: RouteRef) -> TransferModel {
    assert!(!samples.is_empty());
    let objective = |alpha: f64, beta: f64| -> f64 {
        samples
            .iter()
            .map(|s| {
                let pred = alpha + s.bytes as f64 / beta;
                (pred.ln() - s.time.ln()).abs()
            })
            .sum::<f64>()
    };

    let t_min = samples.iter().map(|s| s.time).fold(f64::INFINITY, f64::min);
    // Sensible search ranges: α within [t_min/100, t_min*100], β within
    // [1 kB/s, 100 GB/s].
    let mut lo_a = (t_min / 100.0).max(1e-9);
    let mut hi_a = t_min * 100.0;
    let mut lo_b = 1e3;
    let mut hi_b = 1e11;
    let mut best = (f64::INFINITY, lo_a, lo_b);
    for _pass in 0..3 {
        const N: usize = 48;
        let (mut nlo_a, mut nhi_a, mut nlo_b, mut nhi_b) = (lo_a, hi_a, lo_b, hi_b);
        for i in 0..=N {
            let alpha = log_interp(lo_a, hi_a, i as f64 / N as f64);
            for j in 0..=N {
                let beta = log_interp(lo_b, hi_b, j as f64 / N as f64);
                let err = objective(alpha, beta);
                if err < best.0 {
                    best = (err, alpha, beta);
                    // Refinement window: one grid cell each way.
                    let step_a = (hi_a / lo_a).powf(1.0 / N as f64);
                    let step_b = (hi_b / lo_b).powf(1.0 / N as f64);
                    nlo_a = alpha / step_a;
                    nhi_a = alpha * step_a;
                    nlo_b = beta / step_b;
                    nhi_b = beta * step_b;
                }
            }
        }
        lo_a = nlo_a;
        hi_a = nhi_a;
        lo_b = nlo_b;
        hi_b = nhi_b;
    }
    let (_, alpha, beta) = best;
    let (lat_factor, bw_factor) = to_factors(alpha, 1.0 / beta, route);
    TransferModel::affine(lat_factor, bw_factor)
}

fn log_interp(lo: f64, hi: f64, t: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * t).exp()
}

/// Closed-form predictions of a model over the calibration sizes, for
/// accuracy summaries (Figs. 3–5 are no-contention single-flow curves, so
/// the closed form equals the engine's behaviour).
pub fn predict(model: &TransferModel, samples: &[Sample], route: RouteRef) -> Vec<f64> {
    samples
        .iter()
        .map(|s| model.predict(s.bytes as f64, route.latency, route.bandwidth))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(route: RouteRef) -> Vec<Sample> {
        // Three-regime synthetic ping-pong like a real GbE cluster, with a
        // deterministic ±2% measurement jitter.
        let regime = |x: f64| -> f64 {
            if x < 1e3 {
                route.latency + x / (2.0 * route.bandwidth)
            } else if x < 65536.0 {
                1.6 * route.latency + x / (0.9 * route.bandwidth)
            } else {
                5.0 * route.latency + x / (0.95 * route.bandwidth)
            }
        };
        let mut out = Vec::new();
        let mut s = 1u64;
        let mut i = 0u64;
        while s <= 1 << 24 {
            for bytes in [s, s * 3 / 2] {
                let jitter = 1.0 + 0.02 * ((i % 5) as f64 - 2.0) / 2.0;
                out.push(Sample {
                    bytes: bytes.max(1),
                    time: regime(bytes.max(1) as f64) * jitter,
                });
                i += 1;
            }
            s *= 2;
        }
        out.sort_by_key(|s| s.bytes);
        out.dedup_by_key(|s| s.bytes);
        out
    }

    const ROUTE: RouteRef = RouteRef {
        latency: 100e-6,
        bandwidth: 125e6,
    };

    #[test]
    fn piecewise_fits_three_segments() {
        let samples = synth(ROUTE);
        let m = fit_piecewise(&samples, 3, ROUTE);
        assert_eq!(m.segments().len(), 3);
        // Large-message bandwidth factor close to 0.95.
        let big = m.segment_for(1e7);
        assert!((big.bw_factor - 0.95).abs() < 0.2, "{}", big.bw_factor);
    }

    #[test]
    fn default_affine_uses_one_byte_latency() {
        let samples = synth(ROUTE);
        let m = fit_default_affine(&samples, ROUTE);
        let seg = m.segment_for(1.0);
        assert_eq!(seg.bw_factor, 0.92);
        // 1-byte time ≈ route latency => factor ≈ 1.
        assert!((seg.lat_factor - 1.0).abs() < 0.1);
    }

    #[test]
    fn best_affine_beats_default_on_log_error() {
        let samples = synth(ROUTE);
        let best = fit_best_affine(&samples, ROUTE);
        let default = fit_default_affine(&samples, ROUTE);
        let truth: Vec<f64> = samples.iter().map(|s| s.time).collect();
        let e_best = smpi_metrics::ErrorSummary::compare(&predict(&best, &samples, ROUTE), &truth);
        let e_def =
            smpi_metrics::ErrorSummary::compare(&predict(&default, &samples, ROUTE), &truth);
        assert!(
            e_best.mean <= e_def.mean + 1e-9,
            "best-fit ({}) must not lose to default ({})",
            e_best,
            e_def
        );
    }

    #[test]
    fn piecewise_beats_both_affines() {
        // The paper's headline result for Figs. 3–5, in miniature.
        let samples = synth(ROUTE);
        let truth: Vec<f64> = samples.iter().map(|s| s.time).collect();
        let pw = fit_piecewise(&samples, 3, ROUTE);
        let best = fit_best_affine(&samples, ROUTE);
        let e_pw = smpi_metrics::ErrorSummary::compare(&predict(&pw, &samples, ROUTE), &truth);
        let e_best = smpi_metrics::ErrorSummary::compare(&predict(&best, &samples, ROUTE), &truth);
        assert!(
            e_pw.mean < e_best.mean,
            "piece-wise ({e_pw}) must beat best-fit affine ({e_best})"
        );
    }

    #[test]
    fn degenerate_flat_data_is_clamped() {
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample {
                bytes: 1 + i,
                time: 1e-4,
            })
            .collect();
        let m = fit_piecewise(&samples, 1, ROUTE);
        let seg = m.segment_for(5.0);
        assert!(seg.bw_factor <= MAX_BW_FACTOR);
        assert!(seg.lat_factor >= 0.0);
    }
}
