//! The byte-stability discipline, as a trait.
//!
//! Several report types carry a mix of *simulated* quantities (exactly
//! reproducible run-to-run) and *host-dependent* ones (wall-clock phase
//! timings, solver nanoseconds, events/sec). The determinism tests and
//! the divergence-attribution tooling both need the former with the
//! latter zeroed. [`Deterministic`] is the one way to get it: one method,
//! implemented next to each type, composing through `Option` so callers
//! can strip a whole report tree in one call.

/// Types that can reduce themselves to their deterministic projection —
/// zeroing every host- or schedule-dependent field (wall-clock, rates,
/// which thread did what) while leaving simulated quantities untouched. After
/// [`strip_nondeterminism`](Deterministic::strip_nondeterminism), two
/// values produced by identical simulated runs must compare (and
/// serialize) byte-identically.
pub trait Deterministic {
    /// Zeroes every host-dependent field in place.
    fn strip_nondeterminism(&mut self);
}

impl<T: Deterministic> Deterministic for Option<T> {
    fn strip_nondeterminism(&mut self) {
        if let Some(v) = self {
            v.strip_nondeterminism();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelfProfile;

    #[test]
    fn option_composes_and_none_is_a_no_op() {
        let mut none: Option<SelfProfile> = None;
        none.strip_nondeterminism();
        assert!(none.is_none());

        let mut some = Some(SelfProfile {
            wall_seconds: 1.25,
            simcalls: 42,
            ..SelfProfile::default()
        });
        some.strip_nondeterminism();
        let p = some.unwrap();
        assert_eq!(p.wall_seconds, 0.0, "wall-clock stripped");
        assert_eq!(p.simcalls, 42, "simulated quantities untouched");
    }
}
