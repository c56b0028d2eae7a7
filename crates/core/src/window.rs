//! Dense tables over per-rank post indices.
//!
//! A rank names its requests by post index, 0, 1, 2, … (see
//! [`ReqId`](crate::ReqId)), and retires them roughly in that order. A
//! [`PostWindow`] stores the live ones in a ring indexed by
//! `post - base`, so a lookup is an offset and a subtraction, never a hash.
//! `base` advances past retired posts as they leave the front.
//!
//! One long-lived post must not pin the window open: a rank that keeps an
//! early receive posted while it issues a million sends would otherwise
//! hold a million mostly empty slots. When fewer than half the window's
//! slots are live, the oldest live entry is moved out to a short sorted
//! side list (the *stragglers*) and the front advances past it, so the
//! table holds O(live) entries, not O(posts).

use std::collections::VecDeque;

/// Slots the ring may hold beyond twice its live entries before the oldest
/// live entry moves to the stragglers.
const SLACK: usize = 32;

/// Live entries keyed by a post index that only grows (see the module docs).
#[derive(Debug, Clone)]
pub struct PostWindow<T> {
    /// Post index of `ring[0]`.
    base: u32,
    /// `ring[i]` holds post `base + i`; the front is live (or the ring is
    /// empty).
    ring: VecDeque<Option<T>>,
    /// Live entries in `ring`.
    in_ring: usize,
    /// Live entries older than `base`, sorted by post.
    stragglers: Vec<(u32, T)>,
}

impl<T> Default for PostWindow<T> {
    fn default() -> Self {
        PostWindow {
            base: 0,
            ring: VecDeque::new(),
            in_ring: 0,
            stragglers: Vec::new(),
        }
    }
}

impl<T> PostWindow<T> {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `val` under `post`, which must be larger than every post
    /// inserted before (gaps are allowed).
    pub fn insert(&mut self, post: u32, val: T) {
        if self.ring.is_empty() {
            self.base = post;
        }
        let end = self.base as usize + self.ring.len();
        assert!(post as usize >= end, "post {post} inserted out of order");
        self.ring
            .resize_with(post as usize - self.base as usize, || None);
        self.ring.push_back(Some(val));
        self.in_ring += 1;
        while self.ring.len() > 2 * self.in_ring + SLACK {
            let val = self.ring.pop_front().flatten().expect("the front is live");
            self.stragglers.push((self.base, val));
            self.base += 1;
            self.in_ring -= 1;
            self.trim_front();
        }
    }

    /// The entry stored under `post`, if live.
    pub fn get(&self, post: u32) -> Option<&T> {
        match post.checked_sub(self.base) {
            Some(off) => self.ring.get(off as usize)?.as_ref(),
            None => self.straggler(post).map(|i| &self.stragglers[i].1),
        }
    }

    /// Mutable access to the entry stored under `post`, if live.
    pub fn get_mut(&mut self, post: u32) -> Option<&mut T> {
        match post.checked_sub(self.base) {
            Some(off) => self.ring.get_mut(off as usize)?.as_mut(),
            None => {
                let i = self.straggler(post)?;
                Some(&mut self.stragglers[i].1)
            }
        }
    }

    /// Removes and returns the entry stored under `post`, if live.
    pub fn remove(&mut self, post: u32) -> Option<T> {
        let Some(off) = post.checked_sub(self.base) else {
            let i = self.straggler(post)?;
            return Some(self.stragglers.remove(i).1);
        };
        let val = self.ring.get_mut(off as usize)?.take()?;
        self.in_ring -= 1;
        self.trim_front();
        Some(val)
    }

    /// Slots the window has allocated (ring and stragglers): its footprint,
    /// which follows the live count, not the post count.
    pub fn slots(&self) -> usize {
        self.ring.capacity() + self.stragglers.capacity()
    }

    fn straggler(&self, post: u32) -> Option<usize> {
        self.stragglers.binary_search_by_key(&post, |s| s.0).ok()
    }

    /// Drops retired slots off the front.
    fn trim_front(&mut self) {
        while let Some(None) = self.ring.front() {
            self.ring.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posts_are_found_by_offset_and_retire_from_the_front() {
        let mut w = PostWindow::new();
        for p in 0..10u32 {
            w.insert(p, p * 10);
        }
        assert_eq!(w.get(3), Some(&30));
        assert_eq!(w.remove(0), Some(0));
        assert_eq!(w.remove(0), None, "already retired");
        assert_eq!(w.get(0), None);
        *w.get_mut(9).unwrap() += 1;
        assert_eq!(w.remove(9), Some(91));
        assert_eq!(w.get(10), None, "never inserted");
        assert_eq!((1..9).filter(|&p| w.get(p).is_some()).count(), 8);
    }

    #[test]
    fn gaps_are_allowed_and_hold_nothing() {
        let mut w = PostWindow::new();
        w.insert(5, 'a');
        w.insert(9, 'b');
        assert_eq!(w.get(5), Some(&'a'));
        assert_eq!(w.get(7), None);
        assert_eq!(w.get(2), None);
        assert_eq!(w.remove(5), Some('a'));
        assert_eq!(w.get(9), Some(&'b'));
    }

    #[test]
    fn one_early_entry_does_not_pin_the_window() {
        let mut w = PostWindow::new();
        w.insert(0, u32::MAX);
        for p in 1..100_000u32 {
            w.insert(p, p);
            if p % 3 == 0 {
                assert_eq!(w.remove(p), Some(p));
            }
            if p > 2 && p % 3 == 2 {
                assert_eq!(w.remove(p - 1), Some(p - 1));
                assert_eq!(w.remove(p), Some(p));
            }
        }
        assert!(w.slots() < 256, "{} slots", w.slots());
        assert_eq!(w.get(0), Some(&u32::MAX), "the early entry straggles");
        *w.get_mut(0).unwrap() = 7;
        assert_eq!(w.remove(0), Some(7));
        assert_eq!(w.get(0), None);
    }
}
