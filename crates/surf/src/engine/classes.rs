//! Route classes: the unit the max-min system shares at.
//!
//! Two flows with the same deduplicated route and the same rate-bound bit
//! pattern are interchangeable to the solver — they cross the same
//! constraints and freeze at the same level — and so are all executions on
//! one host. The engine therefore keeps one [`Class`] per (route | host,
//! bound) that any live action names. A class is interned when its first
//! action starts, refcounted, and its slot recycled — buffers and all — when
//! its last action completes, so the table is sized by peak concurrency.
//!
//! A class knows its *sharing* members (flows past their latency phase,
//! running executions) in birth order; links and hosts list the classes
//! that constrain on them, never individual actions.

use crate::hash::FastMap;
use crate::ids::{HostId, LinkId};
use std::ops::{Index, IndexMut};

/// Birth-ordered key of an action inside a class: the start sequence
/// number first, so iteration replays creation order.
pub(super) type UserKey = (u64, u32);

/// `Hop::at` of a route link that does not list the class.
pub(super) const DETACHED: u32 = u32::MAX;

/// One link of a class's route.
#[derive(Debug, Clone, Copy)]
pub(super) struct Hop {
    pub(super) link: LinkId,
    /// While the link constrains the class: the class's position in the
    /// link's class list. `DETACHED` otherwise.
    pub(super) at: u32,
}

/// First key word of an execution class (no link has this index).
const HOST_KEY: u32 = u32::MAX;

/// A bound's bit pattern as the two key words that end a transfer class's
/// key.
fn bound_words(bound: f64) -> [u32; 2] {
    let bits = bound.to_bits();
    [bits as u32, (bits >> 32) as u32]
}

#[derive(Debug, Default)]
pub(super) struct Class {
    /// The route with duplicate links removed (first occurrence kept): a
    /// link crossed twice still constrains — and accounts — the flow once.
    /// Empty for an execution class.
    pub(super) route: Vec<Hop>,
    /// The host of an execution class.
    pub(super) host: Option<HostId>,
    /// The rate bound every member shares, to the bit.
    pub(super) bound: f64,
    /// Live actions naming this class, sharing or still in latency phase.
    refs: u32,
    /// Sharing members in birth order.
    pub(super) members: Vec<UserKey>,
    /// Listed on at least one link or host.
    pub(super) attached: bool,
}

impl Class {
    /// The links of the route, in order.
    pub(super) fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.route.iter().map(|hop| hop.link)
    }

    /// The links that list this class: the ones constraining it.
    pub(super) fn listed_on(&self) -> impl Iterator<Item = LinkId> + '_ {
        let listed = self.route.iter().filter(|hop| hop.at != DETACHED);
        listed.map(|hop| hop.link)
    }

    /// Adds a sharing member, keeping birth order.
    pub(super) fn join(&mut self, key: UserKey) {
        let at = self.members.partition_point(|m| *m < key);
        self.members.insert(at, key);
    }

    /// Removes a sharing member; `false` when `key` never joined (a flow
    /// that completed straight out of its latency phase).
    pub(super) fn leave(&mut self, key: UserKey) -> bool {
        match self.members.binary_search(&key) {
            Ok(at) => {
                self.members.remove(at);
                true
            }
            Err(_) => false,
        }
    }
}

/// Length from which [`sort_by_seq`] orders by radix. The radix pays a
/// 256-bucket pass per byte of the seq span, so it overtakes the
/// comparison sort from about 128 elements when the span fits in two bytes
/// and from about 512 when it takes three; at 1 024 it takes 0.57–0.88 of
/// the comparison sort's time (EXPERIMENTS records the measurement).
const RADIX_MIN_LEN: usize = 256;

/// Sorts `items` by their birth seqs, which must be distinct, so the order
/// is the one `sort_unstable` gives keys that start with them. Long inputs
/// go through an LSD radix sort, 8 bits a pass over `seq - min` (the seq
/// bits in use), with `tmp` as the second buffer; short ones through the
/// comparison sort.
pub(super) fn sort_by_seq<T: Copy>(items: &mut [T], tmp: &mut Vec<T>, seq: impl Fn(&T) -> u64) {
    if items.len() < RADIX_MIN_LEN {
        items.sort_unstable_by_key(seq);
        return;
    }
    let (lo, hi) = items.iter().fold((u64::MAX, 0), |(lo, hi), x| {
        let s = seq(x);
        (lo.min(s), hi.max(s))
    });
    let passes = (u64::BITS - (hi - lo).leading_zeros()).div_ceil(8);
    tmp.clear();
    tmp.extend_from_slice(items);
    let (mut src, mut dst) = (&mut *items, tmp.as_mut_slice());
    for pass in 0..passes {
        let digit = |x: &T| ((seq(x) - lo) >> (8 * pass)) as u8 as usize;
        let mut at = [0usize; 256];
        for x in src.iter() {
            at[digit(x)] += 1;
        }
        let mut start = 0;
        for slot in &mut at {
            (*slot, start) = (start, start + *slot);
        }
        for x in src.iter() {
            let d = digit(x);
            dst[at[d]] = *x;
            at[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// The class arena plus its lookup by (route | host, bound).
#[derive(Debug, Default)]
pub(super) struct ClassTable {
    slots: Vec<Class>,
    free: Vec<u32>,
    /// Key words → slot. A transfer class's key is its deduplicated route's
    /// link indices followed by the two halves of the bound's bit pattern
    /// (≥ 3 words); an execution class's is `[HOST_KEY, host]`.
    by_key: FastMap<Box<[u32]>, u32>,
    /// The key being looked up; reused across calls.
    key: Vec<u32>,
}

impl ClassTable {
    /// The class of a transfer along `route` (duplicates allowed) bounded
    /// at `bound`, taking one reference.
    pub(super) fn intern_route(&mut self, route: &[LinkId], bound: f64) -> u32 {
        self.key.clear();
        for l in route {
            if !self.key.contains(&l.0) {
                self.key.push(l.0);
            }
        }
        let hops = self.key.len();
        self.key.extend(bound_words(bound));
        let k = self.intern();
        let class = &mut self.slots[k as usize];
        if class.refs == 1 {
            class.route.extend(self.key[..hops].iter().map(|&l| Hop {
                link: LinkId(l),
                at: DETACHED,
            }));
            class.bound = bound;
        }
        k
    }

    /// The class of executions on `host`, taking one reference.
    pub(super) fn intern_host(&mut self, host: HostId) -> u32 {
        self.key.clear();
        self.key.extend([HOST_KEY, host.0]);
        let k = self.intern();
        let class = &mut self.slots[k as usize];
        class.host = Some(host);
        class.bound = f64::INFINITY;
        k
    }

    /// Finds or creates the class of `self.key`; a created class has
    /// `refs == 1` and is otherwise blank.
    fn intern(&mut self) -> u32 {
        if let Some(&k) = self.by_key.get(self.key.as_slice()) {
            self.slots[k as usize].refs += 1;
            return k;
        }
        let k = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Class::default());
            u32::try_from(self.slots.len() - 1).expect("class arena overflow")
        });
        self.slots[k as usize].refs = 1;
        self.by_key.insert(self.key.as_slice().into(), k);
        k
    }

    /// Drops one reference; the last one frees the class for reuse.
    pub(super) fn release(&mut self, k: u32) {
        let class = &mut self.slots[k as usize];
        class.refs -= 1;
        if class.refs > 0 {
            return;
        }
        debug_assert!(class.members.is_empty() && !class.attached);
        self.key.clear();
        match class.host.take() {
            Some(h) => self.key.extend([HOST_KEY, h.0]),
            None => {
                self.key.extend(class.route.iter().map(|hop| hop.link.0));
                self.key.extend(bound_words(class.bound));
            }
        }
        class.route.clear();
        self.by_key.remove(self.key.as_slice());
        self.free.push(k);
    }

    /// Number of interned classes.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Slots ever allocated (live + free): the bound for stamp arrays.
    pub(super) fn capacity_slots(&self) -> usize {
        self.slots.len()
    }
}

impl Index<u32> for ClassTable {
    type Output = Class;
    fn index(&self, k: u32) -> &Class {
        &self.slots[k as usize]
    }
}

impl IndexMut<u32> for ClassTable {
    fn index_mut(&mut self, k: u32) -> &mut Class {
        &mut self.slots[k as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sort_by_seq` orders as `sort_unstable` does, whichever way it
    /// sorts: empty and one-element input, lengths either side of
    /// `RADIX_MIN_LEN`, seq spans of one to eight radix passes, and seqs at
    /// the top of the range a birth counter reaches.
    #[test]
    fn sort_by_seq_matches_sort_unstable() {
        let mut x = 5u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let top = u64::MAX >> 1;
        let (mut pairs_tmp, mut triples_tmp) = (Vec::new(), Vec::new());
        for len in [
            0,
            1,
            2,
            RADIX_MIN_LEN - 1,
            RADIX_MIN_LEN,
            RADIX_MIN_LEN + 1,
            1024,
        ] {
            // (lowest seq, gap between consecutive seqs)
            for (base, gap) in [
                (0, 1),
                (3_000_000, 37),
                (1 << 20, 4099),
                (0, top / 1024),
                (top - 4 * 1024, 3),
            ] {
                let mut seqs: Vec<u64> = (0..len as u64).map(|i| base + i * gap).collect();
                for i in (1..seqs.len()).rev() {
                    seqs.swap(i, next() as usize % (i + 1));
                }
                let mut pairs: Vec<(u64, u32)> = seqs.iter().map(|&s| (s, next() as u32)).collect();
                let mut triples: Vec<(u64, u32, u32)> =
                    pairs.iter().map(|&(s, k)| (s, k, next() as u32)).collect();
                let (mut want_pairs, mut want_triples) = (pairs.clone(), triples.clone());
                want_pairs.sort_unstable();
                want_triples.sort_unstable();
                sort_by_seq(&mut pairs, &mut pairs_tmp, |x| x.0);
                sort_by_seq(&mut triples, &mut triples_tmp, |x| x.0);
                assert_eq!(pairs, want_pairs, "len {len}, base {base}, gap {gap}");
                assert_eq!(triples, want_triples, "len {len}, base {base}, gap {gap}");
            }
        }
    }
}
