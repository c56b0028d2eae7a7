//! Simulated time.
//!
//! The simulation clock is a non-negative `f64` number of seconds wrapped in
//! [`SimTime`]. A newtype is used instead of a bare `f64` so that simulated
//! time cannot be accidentally mixed with wall-clock durations (which matter
//! separately when measuring *simulation speed*, cf. Fig. 17 of the paper),
//! and so that a total order can be defined (`f64` alone is only `PartialOrd`).
//!
//! A `SimTime` is never `-0.0` (construction canonicalizes it to `+0.0`), so
//! equality, the order and the raw bits all agree: for two times `a` and `b`,
//! `a < b` exactly when `a.to_bits() < b.to_bits()`. The event calendar
//! ([`crate::calendar`]) keys on those bits.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// A time later than every reachable simulation instant.
    pub(crate) const INFINITY: SimTime = SimTime(f64::INFINITY);

    /// Creates a time from seconds. Panics on NaN or negative values: a NaN
    /// clock would silently corrupt the event calendar's ordering. `-0.0`
    /// is accepted and stored as `+0.0`.
    pub(crate) fn from_secs(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "invalid SimTime: {secs}");
        SimTime(secs + 0.0)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The IEEE-754 bits of the seconds. Times are non-negative and never
    /// `-0.0`, so these bits order exactly like the times themselves.
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// Duration from `earlier` to `self`, saturating at zero so that tiny
    /// floating-point regressions never produce negative durations.
    pub fn duration_since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        debug_assert!(rhs >= 0.0, "cannot schedule into the past: {rhs}");
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert!(a < SimTime::INFINITY);
    }

    #[test]
    fn negative_zero_is_zero() {
        let z = SimTime::from_secs(-0.0);
        assert_eq!(z, SimTime::ZERO);
        assert_eq!(z.cmp(&SimTime::ZERO), std::cmp::Ordering::Equal);
        assert!(z < SimTime::from_secs(f64::from_bits(1)));
        assert_eq!(z.to_bits(), SimTime::ZERO.to_bits());
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1.5) + 0.5;
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!(t.duration_since(SimTime::from_secs(1.0)), 1.0);
        // saturation
        assert_eq!(SimTime::ZERO.duration_since(t), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(0.25).to_string(), "0.250000000s");
    }
}
