//! Counter-based pseudo-random numbers for reproducible sweeps.
//!
//! A sweep needs randomness that is a *pure function* of `(seed, stream,
//! counter)` — never of which worker thread draws it or in what order
//! scenarios complete. Sequential generators (PCG, xoshiro, …) carry
//! mutable state and would make scenario results depend on scheduling;
//! counter-based generators (Random123's Philox/Threefry family) instead
//! evaluate a keyed bijective mix of the counter. [`CbRng`] is a small
//! generator in that style built on the SplitMix64 finalizer, whose
//! avalanche quality is far beyond what bounded jitter factors need.
//!
//! Keys are derived, never mutated: [`CbRng::stream`] returns a *new*
//! generator for a sub-stream (per axis, per link class, …) and
//! [`CbRng::at`] evaluates the stream at a counter. Both are `&self`; a
//! `CbRng` can be shared by any number of threads.

/// Weyl-sequence increment (2^64 / φ), the SplitMix64 stream constant.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix: a bijective avalanche over `u64`.
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// A counter-based generator: an immutable key evaluated at counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbRng {
    key: u64,
}

impl CbRng {
    /// Creates a generator from a user seed.
    pub fn new(seed: u64) -> Self {
        CbRng {
            key: mix(seed.wrapping_add(GAMMA)),
        }
    }

    /// Derives the generator of sub-stream `s`: statistically independent
    /// of this one and of every other sub-stream. Chain freely —
    /// `rng.stream(platform).stream(rep)` — the derivation is itself a
    /// pure function.
    pub fn stream(&self, s: u64) -> CbRng {
        CbRng {
            key: mix(self.key ^ mix(s.wrapping_mul(GAMMA).wrapping_add(GAMMA))),
        }
    }

    /// The raw 64-bit value of this stream at `counter`.
    pub(crate) fn at(&self, counter: u64) -> u64 {
        mix(self.key.wrapping_add(counter.wrapping_mul(GAMMA)))
    }

    /// Uniform double in `[0, 1)` at `counter` (53 mantissa bits).
    pub(crate) fn uniform(&self, counter: u64) -> f64 {
        (self.at(counter) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform double in `[-1, 1)` at `counter`.
    pub(crate) fn symmetric(&self, counter: u64) -> f64 {
        2.0 * self.uniform(counter) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_and_counter_is_pure() {
        let a = CbRng::new(42).stream(7);
        let b = CbRng::new(42).stream(7);
        for c in 0..100 {
            assert_eq!(a.at(c), b.at(c));
        }
    }

    #[test]
    fn streams_and_seeds_decorrelate() {
        let base = CbRng::new(1);
        assert_ne!(base.stream(0).at(0), base.stream(1).at(0));
        assert_ne!(CbRng::new(1).at(0), CbRng::new(2).at(0));
        // Order of stream derivation matters (it's a path, not a set).
        assert_ne!(
            base.stream(1).stream(2).at(0),
            base.stream(2).stream(1).at(0)
        );
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let rng = CbRng::new(0xDEAD_BEEF);
        for c in 0..10_000 {
            let u = rng.uniform(c);
            assert!((0.0..1.0).contains(&u));
            let s = rng.symmetric(c);
            assert!((-1.0..1.0).contains(&s));
        }
    }

    #[test]
    fn bits_look_balanced() {
        // Crude sanity: each output bit flips for roughly half the
        // counters (no stuck bits after the mix).
        let rng = CbRng::new(3);
        let n = 4096;
        for bit in 0..64 {
            let ones: u64 = (0..n).map(|c| (rng.at(c) >> bit) & 1).sum();
            assert!(
                (n / 4..3 * n / 4).contains(&ones),
                "bit {bit} set {ones}/{n} times"
            );
        }
    }
}
