//! The event calendar both kernels share: an addressable binary min-heap
//! with at most one entry per id, keyed by one integer.
//!
//! A [`Key`] packs `(time, seq)` into one `u128`, `time.to_bits() << 64 |
//! seq`. A [`SimTime`] is non-negative and never `-0.0`, so its bits order
//! like its value and keys order exactly like `(SimTime, seq)` pairs: the
//! pop sequence is a function of the keys alone, not of insertion history,
//! and one integer comparison decides it.
//!
//! Every id knows its entry's position, so an entry is re-keyed in place and
//! removed without search; the heap never holds a stale entry and its size
//! is the number of ids with a pending event.
//!
//! * The flow kernel (`engine.rs`) has one id per action slot: the entry is
//!   the action's predicted completion, re-keyed on every rate change.
//! * The packet network (`packetnet`) has one id per contended channel — the
//!   earliest event of that channel's stream — plus one for its heap of
//!   FatPipe arrivals and delays.

use crate::time::SimTime;

/// `pos` value of an id with no entry.
const ABSENT: u32 = u32::MAX;

/// A calendar key: `(time, seq)` as one integer. Keys order exactly like
/// `(time, seq)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(u128);

impl Key {
    /// The smallest key at the infinite horizon.
    const INFINITE: Key = Key((f64::INFINITY.to_bits() as u128) << 64);

    /// The key of an event at `time` scheduled as the `seq`-th event.
    #[inline]
    pub fn new(time: SimTime, seq: u64) -> Key {
        Key((u128::from(time.to_bits()) << 64) | u128::from(seq))
    }

    /// The event's time.
    #[inline]
    pub fn time(self) -> SimTime {
        SimTime::from_secs(f64::from_bits((self.0 >> 64) as u64))
    }

    /// The event's schedule sequence number.
    #[inline]
    pub(crate) fn seq(self) -> u64 {
        self.0 as u64
    }
}

/// The addressable min-heap of `(key, id)` entries.
#[derive(Debug, Default)]
pub struct Calendar {
    heap: Vec<(Key, u32)>,
    /// Id → index of its entry in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl Calendar {
    /// The earliest entry.
    #[inline]
    pub fn peek(&self) -> Option<(Key, u32)> {
        self.heap.first().copied()
    }

    /// Number of ids with an entry.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no id has an entry.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Publishes `key` for `id`, replacing the entry it may already have.
    /// A key at the infinite horizon (the event can never happen) leaves
    /// the id without an entry.
    pub fn set(&mut self, id: u32, key: Key) {
        if key >= Key::INFINITE {
            self.remove(id);
            return;
        }
        if self.pos.len() <= id as usize {
            self.pos.resize(id as usize + 1, ABSENT);
        }
        let i = self.pos[id as usize];
        if i == ABSENT {
            self.heap.push((key, id));
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = i as usize;
            let went_earlier = key < self.heap[i].0;
            self.heap[i] = (key, id);
            if went_earlier {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Drops the entry of `id`, if it has one.
    pub fn remove(&mut self, id: u32) {
        let Some(&i) = self.pos.get(id as usize) else {
            return;
        };
        if i == ABSENT {
            return;
        }
        let i = i as usize;
        self.pos[id as usize] = ABSENT;
        let last = self.heap.pop().expect("a positioned entry exists");
        if i < self.heap.len() {
            // The last entry fills the hole and may belong either way.
            self.heap[i] = last;
            self.pos[last.1 as usize] = i as u32;
            self.sift_up(i);
            self.sift_down(self.pos[last.1 as usize] as usize);
        }
    }

    /// Removes and returns the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(Key, u32)> {
        let top = self.peek()?;
        self.remove(top.1);
        Some(top)
    }

    #[inline]
    fn place(&mut self, i: usize, e: (Key, u32)) {
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= e.0 {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1].0 < self.heap[child].0 {
                child += 1;
            }
            if e.0 <= self.heap[child].0 {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn k(secs: f64, seq: u64) -> Key {
        Key::new(SimTime::from_secs(secs), seq)
    }

    #[test]
    fn pops_by_prediction_then_birth_order() {
        let mut h = Calendar::default();
        h.set(3, k(2.0, 30));
        h.set(1, k(1.0, 11));
        h.set(0, k(1.0, 10));
        h.set(2, k(1.0, 12));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.1).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_rekeys_in_place_and_infinite_removes() {
        let mut h = Calendar::default();
        for id in 0..8u32 {
            h.set(id, k(10.0 + id as f64, id as u64));
        }
        h.set(7, k(1.0, 7)); // moves to the front
        h.set(0, k(99.0, 0)); // moves to the back
        h.set(3, Key::new(SimTime::INFINITY, 3)); // can never happen: no entry
        assert_eq!(h.len(), 7);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.1).collect();
        assert_eq!(order, vec![7, 1, 2, 4, 5, 6, 0]);
        h.remove(5); // absent: no-op
        assert!(h.is_empty());
    }

    #[test]
    fn matches_a_sorted_model_under_random_updates() {
        // Tiny LCG; the model is "sort the live keys".
        let mut x = 12345u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let mut h = Calendar::default();
        let mut model: Vec<Option<(SimTime, u64)>> = vec![None; 32];
        for step in 0..2000u64 {
            let id = next() % 32;
            match next() % 4 {
                0 => {
                    h.remove(id);
                    model[id as usize] = None;
                }
                _ => {
                    let pred = SimTime::from_secs((next() % 16) as f64);
                    h.set(id, Key::new(pred, step));
                    model[id as usize] = Some((pred, step));
                }
            }
            let min = model
                .iter()
                .enumerate()
                .filter_map(|(s, k)| k.map(|(p, q)| (p, q, s as u32)))
                .min();
            let top = h.peek().map(|(key, id)| (key.time(), key.seq(), id));
            assert_eq!(top, min);
            assert_eq!(h.len(), model.iter().flatten().count());
        }
    }

    /// Non-negative times, weighted toward the edges of the bit order:
    /// zero, subnormals, `f64::MAX`, and a few repeated values so that
    /// `seq` alone decides between equal times.
    fn time() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::from_bits(1)),
            Just(f64::MIN_POSITIVE),
            (1u64..1 << 52).prop_map(f64::from_bits),
            Just(1.0),
            Just(1.5e-6),
            0.0f64..1e3,
            Just(f64::MAX),
        ]
    }

    proptest! {
        /// Integer keys pop in exactly the order of sorting by
        /// `(SimTime, seq)`.
        #[test]
        fn integer_keys_pop_in_time_then_seq_order(
            entries in proptest::collection::vec((time(), 0..u32::MAX), 1..64),
        ) {
            let mut h = Calendar::default();
            let mut expected = Vec::new();
            for (id, &(secs, hi)) in entries.iter().enumerate() {
                // Unique, but in no relation to the insertion order.
                let seq = u64::from(hi) << 32 | id as u64;
                let t = SimTime::from_secs(secs);
                h.set(id as u32, Key::new(t, seq));
                expected.push((t, seq, id as u32));
            }
            expected.sort();
            let popped: Vec<_> = std::iter::from_fn(|| h.pop())
                .map(|(key, id)| (key.time(), key.seq(), id))
                .collect();
            prop_assert_eq!(popped, expected);
        }
    }
}
