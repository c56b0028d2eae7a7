//! The one hasher for maps on the per-event path.
//!
//! `std`'s default SipHash is keyed per process and built to resist
//! adversarial keys; the simulator's keys are its own small integers (route
//! link indices, host pairs, envelope fields), so that strength is pure
//! per-event cost. [`FastHasher`] is a multiply-rotate word hash in the
//! style of rustc's `FxHasher`: deterministic, unseeded, a few cycles per
//! word. Tables whose keys are ids the simulation issues itself are dense
//! `Vec`s instead and hash nothing; [`FastMap`] is for what must stay keyed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the golden-ratio family `FxHasher`
/// uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic, unseeded word hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(K).rotate_left(26);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FastHasher`]s (zero-sized).
pub(crate) type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        FastBuild::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_and_runs_agree() {
        let key: Box<[u32]> = vec![3, 1, 4, 1, 5].into();
        assert_eq!(hash_of(&key), hash_of(&key.clone()));
        // Unseeded: the value is a constant of the key, not of the process.
        assert_eq!(hash_of(&7u64), hash_of(&7u64));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn a_map_round_trips() {
        let mut m: FastMap<(u32, i32), usize> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i % 37, i as i32 - 500), i as usize);
        }
        for i in 0..1000u32 {
            assert_eq!(m[&(i % 37, i as i32 - 500)], i as usize);
        }
    }
}
