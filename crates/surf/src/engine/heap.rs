//! The completion calendar: an addressable binary min-heap of predicted
//! completion instants, one entry per action that can make progress.
//!
//! Entries are keyed `(prediction, birth seq)` — a total order, so the pop
//! sequence is a function of the keys alone, not of insertion history —
//! and every action slot knows its entry's position. A rate change re-keys
//! the entry in place and a completion removes it, so the heap never holds
//! a stale entry and its size is exactly the number of progressing actions.

use crate::time::SimTime;

/// `pos` value of a slot with no entry.
const ABSENT: u32 = u32::MAX;

/// One calendar entry: `(predicted completion, birth seq, action slot)`.
pub(super) type Event = (SimTime, u64, u32);

#[derive(Debug, Default)]
pub(super) struct EventHeap {
    heap: Vec<Event>,
    /// Action slot → index of its entry in `heap`, or `ABSENT`.
    pos: Vec<u32>,
}

impl EventHeap {
    /// The earliest entry.
    pub(super) fn peek(&self) -> Option<Event> {
        self.heap.first().copied()
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Publishes `pred` for the action in `slot`, replacing the entry it
    /// may already have. An infinite prediction (the action cannot
    /// progress) leaves the slot without an entry.
    pub(super) fn set(&mut self, slot: u32, pred: SimTime, seq: u64) {
        if pred.is_infinite() {
            self.remove(slot);
            return;
        }
        if self.pos.len() <= slot as usize {
            self.pos.resize(slot as usize + 1, ABSENT);
        }
        let i = self.pos[slot as usize];
        if i == ABSENT {
            self.heap.push((pred, seq, slot));
            self.sift_up(self.heap.len() - 1);
        } else {
            let i = i as usize;
            let went_earlier = (pred, seq) < (self.heap[i].0, self.heap[i].1);
            self.heap[i] = (pred, seq, slot);
            if went_earlier {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Drops the entry of `slot`, if it has one.
    pub(super) fn remove(&mut self, slot: u32) {
        let Some(&i) = self.pos.get(slot as usize) else {
            return;
        };
        if i == ABSENT {
            return;
        }
        let i = i as usize;
        self.pos[slot as usize] = ABSENT;
        let last = self.heap.pop().expect("a positioned entry exists");
        if i < self.heap.len() {
            // The last entry fills the hole and may belong either way.
            self.heap[i] = last;
            self.pos[last.2 as usize] = i as u32;
            self.sift_up(i);
            self.sift_down(self.pos[last.2 as usize] as usize);
        }
    }

    /// Removes and returns the earliest entry.
    pub(super) fn pop(&mut self) -> Option<Event> {
        let top = self.peek()?;
        self.remove(top.2);
        Some(top)
    }

    #[inline]
    fn key(&self, i: usize) -> (SimTime, u64) {
        (self.heap[i].0, self.heap[i].1)
    }

    #[inline]
    fn place(&mut self, i: usize, e: Event) {
        self.heap[i] = e;
        self.pos[e.2 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(parent) <= (e.0, e.1) {
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
            if child + 1 < self.heap.len() && self.key(child + 1) < self.key(child) {
                child += 1;
            }
            if (e.0, e.1) <= self.key(child) {
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

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_by_prediction_then_birth_order() {
        let mut h = EventHeap::default();
        h.set(3, t(2.0), 30);
        h.set(1, t(1.0), 11);
        h.set(0, t(1.0), 10);
        h.set(2, t(1.0), 12);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.2).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_rekeys_in_place_and_infinite_removes() {
        let mut h = EventHeap::default();
        for slot in 0..8u32 {
            h.set(slot, t(10.0 + slot as f64), slot as u64);
        }
        h.set(7, t(1.0), 7); // moves to the front
        h.set(0, t(99.0), 0); // moves to the back
        h.set(3, SimTime::INFINITY, 3); // cannot progress: no entry
        assert_eq!(h.len(), 7);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.2).collect();
        assert_eq!(order, vec![7, 1, 2, 4, 5, 6, 0]);
        h.remove(5); // absent: no-op
        assert_eq!(h.len(), 0);
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
        let mut h = EventHeap::default();
        let mut model: Vec<Option<(SimTime, u64)>> = vec![None; 32];
        for step in 0..2000u64 {
            let slot = next() % 32;
            match next() % 4 {
                0 => {
                    h.remove(slot);
                    model[slot as usize] = None;
                }
                _ => {
                    let pred = t((next() % 16) as f64);
                    h.set(slot, pred, step);
                    model[slot as usize] = Some((pred, step));
                }
            }
            let min = model
                .iter()
                .enumerate()
                .filter_map(|(s, k)| k.map(|(p, q)| (p, q, s as u32)))
                .min();
            assert_eq!(h.peek(), min);
            assert_eq!(h.len(), model.iter().flatten().count());
        }
    }
}
