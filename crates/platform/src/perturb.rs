//! Stochastic platform perturbation overlays.
//!
//! A [`PlatformPerturbation`] is a set of multiplicative factors applied to
//! a platform's nominal parameters — per-host compute speed, per-link
//! bandwidth and latency — when a simulation backend materializes the
//! platform for one run. The factors are applied in one place,
//! [`crate::PlatformImage`], for both backends. The platform description
//! itself stays untouched and shared: many concurrent runs over one
//! [`crate::RoutedPlatform`] can each carry a different overlay, which is
//! what makes variability sweeps ("does the predicted makespan survive ±5%
//! link jitter?") cheap.
//!
//! Factors are *multiplicative* so the identity overlay (all `1.0`) is
//! bit-exact: `x * 1.0 == x` for every finite IEEE-754 `x`, which the
//! zero-amplitude determinism tests rely on.

use crate::spec::Platform;

/// Multiplicative perturbation factors for one platform, indexed by the
/// platform's own host and link numbering.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformPerturbation {
    /// Per-host compute-speed factor (`platform.num_hosts()` entries).
    pub host_speed: Vec<f64>,
    /// Per-link bandwidth factor (`platform.num_links()` entries).
    pub link_bandwidth: Vec<f64>,
    /// Per-link latency factor (`platform.num_links()` entries).
    pub link_latency: Vec<f64>,
}

impl PlatformPerturbation {
    /// The identity overlay for `p`: every factor exactly `1.0`.
    pub fn identity(p: &Platform) -> Self {
        PlatformPerturbation {
            host_speed: vec![1.0; p.num_hosts()],
            link_bandwidth: vec![1.0; p.num_links()],
            link_latency: vec![1.0; p.num_links()],
        }
    }

    /// `true` when every factor is exactly `1.0` (the do-nothing overlay).
    pub fn is_identity(&self) -> bool {
        self.host_speed
            .iter()
            .chain(&self.link_bandwidth)
            .chain(&self.link_latency)
            .all(|&f| f == 1.0)
    }

    /// Checks the overlay against a platform: lengths must match the host
    /// and link counts, and every factor must be finite and positive (a
    /// zero or negative speed/bandwidth would stall the kernel).
    pub fn validate(&self, p: &Platform) -> Result<(), String> {
        if self.host_speed.len() != p.num_hosts() {
            return Err(format!(
                "host_speed has {} factors, platform has {} hosts",
                self.host_speed.len(),
                p.num_hosts()
            ));
        }
        if self.link_bandwidth.len() != p.num_links() {
            return Err(format!(
                "link_bandwidth has {} factors, platform has {} links",
                self.link_bandwidth.len(),
                p.num_links()
            ));
        }
        if self.link_latency.len() != p.num_links() {
            return Err(format!(
                "link_latency has {} factors, platform has {} links",
                self.link_latency.len(),
                p.num_links()
            ));
        }
        for (what, fs) in [
            ("host_speed", &self.host_speed),
            ("link_bandwidth", &self.link_bandwidth),
            ("link_latency", &self.link_latency),
        ] {
            if let Some(f) = fs.iter().find(|f| !f.is_finite() || **f <= 0.0) {
                return Err(format!("{what} factor {f} is not finite and positive"));
            }
        }
        Ok(())
    }

    /// Speed factor for host `h` (`1.0` past the vector end, so partial
    /// overlays behave as identity for the remainder).
    pub(crate) fn host_factor(&self, h: usize) -> f64 {
        self.host_speed.get(h).copied().unwrap_or(1.0)
    }

    /// Bandwidth factor for platform link `l`.
    pub(crate) fn bandwidth_factor(&self, l: usize) -> f64 {
        self.link_bandwidth.get(l).copied().unwrap_or(1.0)
    }

    /// Latency factor for platform link `l`.
    pub(crate) fn latency_factor(&self, l: usize) -> f64 {
        self.link_latency.get(l).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{flat_cluster, ClusterConfig};

    #[test]
    fn identity_validates_and_reports_identity() {
        let p = flat_cluster("c", 4, &ClusterConfig::default());
        let o = PlatformPerturbation::identity(&p);
        assert!(o.validate(&p).is_ok());
        assert!(o.is_identity());
    }

    #[test]
    fn wrong_lengths_and_bad_factors_are_rejected() {
        let p = flat_cluster("c", 4, &ClusterConfig::default());
        let mut o = PlatformPerturbation::identity(&p);
        o.host_speed.pop();
        assert!(o.validate(&p).is_err());

        let mut o = PlatformPerturbation::identity(&p);
        o.link_bandwidth[0] = 0.0;
        assert!(o.validate(&p).is_err());
        o.link_bandwidth[0] = f64::NAN;
        assert!(o.validate(&p).is_err());
        o.link_bandwidth[0] = 0.9;
        assert!(o.validate(&p).is_ok());
        assert!(!o.is_identity());
    }
}
