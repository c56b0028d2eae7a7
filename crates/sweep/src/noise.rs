//! Stochastic variability models: amplitudes → platform perturbations.
//!
//! A [`NoiseModel`] is a *distribution family* over platforms: bounded
//! multiplicative jitter amplitudes for link bandwidth, link latency and
//! host speed. Sampling it with a [`CbRng`] yields a concrete
//! [`PlatformPerturbation`] — every factor drawn uniformly from
//! `[1 - a, 1 + a)` for the axis amplitude `a`. Because the draw is
//! counter-based (stream per resource class, counter per resource index),
//! the sampled perturbation is a pure function of `(model, rng key)` and
//! never depends on thread scheduling.
//!
//! The zero-amplitude model samples the identity overlay, which the
//! platform layer applies bit-exactly (`x * 1.0 == x`) — so a "no noise"
//! sweep cell is byte-identical to a run with no overlay at all.

use smpi_platform::{Platform, PlatformPerturbation};

use crate::rng::CbRng;

/// Sub-stream tags for the three resource classes.
const STREAM_LINK_BW: u64 = 0;
const STREAM_LINK_LAT: u64 = 1;
const STREAM_HOST_SPEED: u64 = 2;

/// Bounded multiplicative jitter amplitudes (each in `[0, 1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Per-link bandwidth jitter amplitude: factors in `[1-a, 1+a)`.
    pub link_bandwidth: f64,
    /// Per-link latency jitter amplitude.
    pub link_latency: f64,
    /// Per-host speed jitter amplitude.
    pub host_speed: f64,
}

impl NoiseModel {
    /// The deterministic model: samples the identity perturbation.
    pub fn none() -> Self {
        NoiseModel {
            link_bandwidth: 0.0,
            link_latency: 0.0,
            host_speed: 0.0,
        }
    }

    /// Uniform jitter with the same amplitude on all three axes.
    pub fn uniform_jitter(amplitude: f64) -> Self {
        NoiseModel {
            link_bandwidth: amplitude,
            link_latency: amplitude,
            host_speed: amplitude,
        }
    }

    /// `true` when every amplitude is exactly zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.link_bandwidth == 0.0 && self.link_latency == 0.0 && self.host_speed == 0.0
    }

    /// Checks every amplitude is finite and in `[0, 1)` (an amplitude of 1
    /// would allow zero bandwidth/speed factors, which the platform layer
    /// rejects as non-physical).
    pub fn validate(&self) -> Result<(), String> {
        for (name, a) in [
            ("link_bandwidth", self.link_bandwidth),
            ("link_latency", self.link_latency),
            ("host_speed", self.host_speed),
        ] {
            if !a.is_finite() || !(0.0..1.0).contains(&a) {
                return Err(format!("noise amplitude {name} = {a} outside [0, 1)"));
            }
        }
        Ok(())
    }

    /// Samples a concrete perturbation for `platform` from the stream of
    /// `rng`: resource `i` of each class draws its factor at counter `i` of
    /// the class's sub-stream. Pure in `(self, platform shape, rng)`.
    pub fn sample(&self, platform: &Platform, rng: &CbRng) -> PlatformPerturbation {
        let mut p = PlatformPerturbation::identity(platform);
        if self.is_zero() {
            return p;
        }
        let draw = |stream: &CbRng, i: usize, amp: f64| -> f64 {
            if amp == 0.0 {
                1.0
            } else {
                1.0 + amp * stream.symmetric(i as u64)
            }
        };
        let bw = rng.stream(STREAM_LINK_BW);
        let lat = rng.stream(STREAM_LINK_LAT);
        let speed = rng.stream(STREAM_HOST_SPEED);
        for i in 0..p.link_bandwidth.len() {
            p.link_bandwidth[i] = draw(&bw, i, self.link_bandwidth);
        }
        for i in 0..p.link_latency.len() {
            p.link_latency[i] = draw(&lat, i, self.link_latency);
        }
        for i in 0..p.host_speed.len() {
            p.host_speed[i] = draw(&speed, i, self.host_speed);
        }
        debug_assert!(p.validate(platform).is_ok());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi_platform::{flat_cluster, ClusterConfig};

    fn platform() -> Platform {
        flat_cluster("n", 4, &ClusterConfig::default())
    }

    #[test]
    fn zero_model_samples_identity() {
        let p = platform();
        let s = NoiseModel::none().sample(&p, &CbRng::new(9));
        assert!(s.is_identity());
    }

    #[test]
    fn factors_respect_amplitude_bounds() {
        let p = platform();
        let m = NoiseModel {
            link_bandwidth: 0.3,
            link_latency: 0.1,
            host_speed: 0.05,
        };
        let s = m.sample(&p, &CbRng::new(1));
        assert!(s.link_bandwidth.iter().all(|f| (0.7..1.3).contains(f)));
        assert!(s.link_latency.iter().all(|f| (0.9..1.1).contains(f)));
        assert!(s.host_speed.iter().all(|f| (0.95..1.05).contains(f)));
        assert!(s.validate(&p).is_ok());
    }

    #[test]
    fn sampling_is_pure_and_seed_sensitive() {
        let p = platform();
        let m = NoiseModel::uniform_jitter(0.2);
        let a = m.sample(&p, &CbRng::new(5).stream(2));
        let b = m.sample(&p, &CbRng::new(5).stream(2));
        assert_eq!(a.link_bandwidth, b.link_bandwidth);
        assert_eq!(a.host_speed, b.host_speed);
        let c = m.sample(&p, &CbRng::new(5).stream(3));
        assert_ne!(a.link_bandwidth, c.link_bandwidth);
    }

    #[test]
    fn validate_rejects_out_of_range_amplitudes() {
        assert!(NoiseModel::uniform_jitter(0.999).validate().is_ok());
        assert!(NoiseModel::uniform_jitter(1.0).validate().is_err());
        assert!(NoiseModel::uniform_jitter(-0.1).validate().is_err());
        assert!(NoiseModel::uniform_jitter(f64::NAN).validate().is_err());
    }
}
