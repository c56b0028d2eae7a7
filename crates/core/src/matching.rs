//! MPI message matching with per-(source, tag) FIFOs.
//!
//! The MPI matching rule (used by `crate::runtime`): a receive posted on
//! `(cid, dst)` matches the **earliest compatible unmatched message** in
//! send-post order (the non-overtaking guarantee), where the receive's
//! source/tag may each be a wildcard ([`ANY_SOURCE`]/[`ANY_TAG`]).
//!
//! A single queue per `(cid, dst)` makes every match a linear scan — at 10k+
//! ranks the unexpected-message queue of a busy destination holds thousands
//! of entries and matching dominates the maestro. This module keys the
//! queues one level deeper:
//!
//! * **pending messages** are bucketed by their *concrete* envelope
//!   `(src, tag)`. A concrete receive probes exactly one bucket front: O(1).
//!   A wildcard receive scans only the bucket *fronts* (one per distinct
//!   live envelope), not every queued message.
//! * **posted receives** are bucketed by their *specification*
//!   `(src-or-any, tag-or-any)`. An incoming message probes the at most four
//!   buckets that could match it — `(src, tag)`, `(ANY, tag)`, `(src, ANY)`,
//!   `(ANY, ANY)` — again O(1).
//!
//! Global post order is preserved by stamping every entry with a sequence
//! number at insertion; ties across buckets are broken by taking the minimum
//! sequence among candidate fronts. Each bucket is itself a FIFO, so the
//! front always carries the bucket's minimum — the scan never looks deeper.
//!
//! The `(cid, dst)` level hashes nothing: destinations are world ranks, a
//! dense table, and each lists the communicators it has entries queued on
//! (a handful). The buckets below are keyed by envelope fields the
//! application chooses (any tag), so they stay a map, on the simulator's
//! [`FastHasher`](surf_sim::hash::FastHasher). Emptied buckets and channels
//! leave the tables — they hold live entries only — but their storage is
//! kept for the next one, so steady-state matching allocates nothing.
//!
//! The structures are generic over the stored id so the differential tests
//! can drive them directly against a reference implementation.

use std::collections::VecDeque;
use std::hash::Hash;

use surf_sim::hash::FastMap;

/// Wildcard source (`MPI_ANY_SOURCE`); mirrors [`crate::runtime::ANY_SOURCE`].
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (`MPI_ANY_TAG`); mirrors [`crate::runtime::ANY_TAG`].
pub const ANY_TAG: i32 = -1;

/// `true` if an envelope `(msg_src, msg_tag)` matches a receive's
/// specification (wildcards allowed).
pub fn env_matches(want_src: i32, want_tag: i32, msg_src: u32, msg_tag: i32) -> bool {
    (want_src == ANY_SOURCE || want_src == msg_src as i32)
        && (want_tag == ANY_TAG || want_tag == msg_tag)
}

/// A FIFO of `(seq, id)`.
type Fifo<T> = VecDeque<(u64, T)>;

/// One channel's buckets: second-level key -> FIFO.
type Buckets<K, T> = FastMap<K, Fifo<T>>;

/// Emptied FIFOs and bucket maps kept for reuse, at most this many each.
const SPARES: usize = 64;

/// The storage both stores share: channel `(cid, dst)` is found by indexing
/// `by_dst[dst]` and scanning its communicator list; every listed channel
/// and every bucket in it is non-empty.
#[derive(Debug)]
struct Channels<K, T> {
    by_dst: Vec<Vec<(u32, Buckets<K, T>)>>,
    spare_fifos: Vec<Fifo<T>>,
    spare_maps: Vec<Buckets<K, T>>,
}

impl<K, T> Default for Channels<K, T> {
    fn default() -> Self {
        Channels {
            by_dst: Vec::new(),
            spare_fifos: Vec::new(),
            spare_maps: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, T: Copy> Channels<K, T> {
    fn get(&self, cid: u32, dst: u32) -> Option<&Buckets<K, T>> {
        let chans = self.by_dst.get(dst as usize)?;
        chans.iter().find(|c| c.0 == cid).map(|c| &c.1)
    }

    fn push(&mut self, cid: u32, dst: u32, key: K, seq: u64, id: T) {
        let dst = dst as usize;
        if dst >= self.by_dst.len() {
            self.by_dst.resize_with(dst + 1, Vec::new);
        }
        let chans = &mut self.by_dst[dst];
        let at = match chans.iter().position(|c| c.0 == cid) {
            Some(at) => at,
            None => {
                chans.push((cid, self.spare_maps.pop().unwrap_or_default()));
                chans.len() - 1
            }
        };
        let spare = &mut self.spare_fifos;
        let fifo = chans[at]
            .1
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        fifo.push_back((seq, id));
    }

    /// Pops the front of bucket `key` of channel `(cid, dst)`, which the
    /// caller found non-empty; an emptied bucket or channel leaves its
    /// table and its storage is kept for reuse.
    fn pop(&mut self, cid: u32, dst: u32, key: K) -> T {
        let chans = &mut self.by_dst[dst as usize];
        let at = chans.iter().position(|c| c.0 == cid).expect("live channel");
        let buckets = &mut chans[at].1;
        let fifo = buckets.get_mut(&key).expect("live bucket");
        let (_, id) = fifo.pop_front().expect("empty bucket not removed");
        if fifo.is_empty() {
            let fifo = buckets.remove(&key).expect("live bucket");
            if self.spare_fifos.len() < SPARES {
                self.spare_fifos.push(fifo);
            }
            if buckets.is_empty() {
                let (_, map) = chans.swap_remove(at);
                if self.spare_maps.len() < SPARES {
                    self.spare_maps.push(map);
                }
            }
        }
        id
    }

    /// Every entry of channel `(cid, dst)` as `(key, seq, id)`, in push
    /// order. Diagnostics only.
    fn entries(&self, cid: u32, dst: u32) -> Vec<(K, u64, T)> {
        let mut out = Vec::new();
        for (&key, fifo) in self.get(cid, dst).into_iter().flatten() {
            out.extend(fifo.iter().map(|&(seq, id)| (key, seq, id)));
        }
        out.sort_by_key(|&(_, seq, _)| seq);
        out
    }

    /// The channel and key holding `id`. Diagnostics only — a full scan.
    fn find(&self, id: T) -> Option<(u32, u32, K)>
    where
        T: PartialEq,
    {
        for (dst, chans) in self.by_dst.iter().enumerate() {
            for (cid, buckets) in chans {
                for (&key, fifo) in buckets {
                    if fifo.iter().any(|&(_, i)| i == id) {
                        return Some((*cid, dst as u32, key));
                    }
                }
            }
        }
        None
    }
}

/// Unmatched (unexpected) messages awaiting a receive, bucketed by
/// `(cid, dst)` and then by concrete envelope `(src, tag)`.
#[derive(Debug)]
pub struct MsgFifos<T> {
    chans: Channels<(u32, i32), T>,
}

impl<T> Default for MsgFifos<T> {
    fn default() -> Self {
        MsgFifos {
            chans: Channels::default(),
        }
    }
}

impl<T: Copy> MsgFifos<T> {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a message with envelope `(src, tag)`. `seq` must be
    /// strictly increasing across *all* pushes into one `(cid, dst)` bucket
    /// (post order); the caller's monotonically allocated message sequence
    /// number serves.
    pub fn push(&mut self, cid: u32, dst: u32, src: u32, tag: i32, seq: u64, id: T) {
        self.chans.push(cid, dst, (src, tag), seq, id);
    }

    /// Removes and returns the earliest message (by push order) matching a
    /// receive specification, or `None`. A concrete spec probes one bucket;
    /// a wildcard spec scans bucket fronts only.
    pub fn pop_match(&mut self, cid: u32, dst: u32, want_src: i32, want_tag: i32) -> Option<T> {
        let envs = self.chans.get(cid, dst)?;
        let key = if want_src != ANY_SOURCE && want_tag != ANY_TAG {
            // Fully concrete: single bucket.
            let k = (want_src as u32, want_tag);
            envs.contains_key(&k).then_some(k)?
        } else {
            // Wildcard in at least one position: earliest compatible front.
            envs.iter()
                .filter(|((src, tag), _)| env_matches(want_src, want_tag, *src, *tag))
                .min_by_key(|(_, q)| q.front().expect("empty bucket not removed").0)
                .map(|(&k, _)| k)?
        };
        Some(self.chans.pop(cid, dst, key))
    }

    /// Every unmatched message queued for `(cid, dst)` as
    /// `(src, tag, seq, id)`, in push (send-post) order. Diagnostics only —
    /// this walks every bucket.
    pub(crate) fn envelopes(&self, cid: u32, dst: u32) -> Vec<(u32, i32, u64, T)> {
        let entries = self.chans.entries(cid, dst).into_iter();
        entries
            .map(|((src, tag), seq, id)| (src, tag, seq, id))
            .collect()
    }

    /// Locates a queued message by id, returning its
    /// `(cid, dst, src, tag)`. Diagnostics only — a full scan.
    pub(crate) fn find(&self, id: T) -> Option<(u32, u32, u32, i32)>
    where
        T: PartialEq,
    {
        let (cid, dst, (src, tag)) = self.chans.find(id)?;
        Some((cid, dst, src, tag))
    }
}

/// Posted receives awaiting a message, bucketed by `(cid, dst)` and then by
/// specification `(src-or-any, tag-or-any)`.
#[derive(Debug)]
pub struct RecvFifos<T> {
    chans: Channels<(i32, i32), T>,
}

impl<T> Default for RecvFifos<T> {
    fn default() -> Self {
        RecvFifos {
            chans: Channels::default(),
        }
    }
}

impl<T: Copy> RecvFifos<T> {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a receive with specification `(src, tag)` (either may be a
    /// wildcard). `seq` must be strictly increasing across all pushes into
    /// one `(cid, dst)` bucket (post order).
    pub fn push(&mut self, cid: u32, dst: u32, src: i32, tag: i32, seq: u64, id: T) {
        self.chans.push(cid, dst, (src, tag), seq, id);
    }

    /// Removes and returns the earliest receive (by push order) whose
    /// specification matches an incoming message's concrete envelope, or
    /// `None`. At most four buckets are probed.
    pub fn pop_match(&mut self, cid: u32, dst: u32, msg_src: u32, msg_tag: i32) -> Option<T> {
        let specs = self.chans.get(cid, dst)?;
        let candidates = [
            (msg_src as i32, msg_tag),
            (ANY_SOURCE, msg_tag),
            (msg_src as i32, ANY_TAG),
            (ANY_SOURCE, ANY_TAG),
        ];
        let key = candidates
            .into_iter()
            .filter_map(|k| {
                specs
                    .get(&k)
                    .map(|q| (q.front().expect("empty bucket not removed").0, k))
            })
            .min()
            .map(|(_, k)| k)?;
        Some(self.chans.pop(cid, dst, key))
    }

    /// Every unmatched receive posted on `(cid, dst)` as
    /// `(src, tag, seq, id)` (wildcards included), in push (post) order.
    /// Diagnostics only — this walks every bucket.
    pub(crate) fn specs(&self, cid: u32, dst: u32) -> Vec<(i32, i32, u64, T)> {
        let entries = self.chans.entries(cid, dst).into_iter();
        entries
            .map(|((src, tag), seq, id)| (src, tag, seq, id))
            .collect()
    }

    /// Locates a posted receive by id, returning its
    /// `(cid, dst, src, tag)` specification. Diagnostics only — a full scan.
    pub(crate) fn find(&self, id: T) -> Option<(u32, u32, i32, i32)>
    where
        T: PartialEq,
    {
        let (cid, dst, (src, tag)) = self.chans.find(id)?;
        Some((cid, dst, src, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_recv_pops_in_send_order() {
        let mut m = MsgFifos::new();
        m.push(0, 1, 5, 9, 10, "a");
        m.push(0, 1, 5, 9, 11, "b");
        assert_eq!(m.pop_match(0, 1, 5, 9), Some("a"));
        assert_eq!(m.pop_match(0, 1, 5, 9), Some("b"));
        assert_eq!(m.pop_match(0, 1, 5, 9), None);
    }

    #[test]
    fn wildcard_recv_takes_global_earliest() {
        let mut m = MsgFifos::new();
        m.push(0, 1, 7, 0, 3, "late-src7");
        m.push(0, 1, 2, 0, 1, "early-src2");
        assert_eq!(m.pop_match(0, 1, ANY_SOURCE, ANY_TAG), Some("early-src2"));
        assert_eq!(m.pop_match(0, 1, ANY_SOURCE, 0), Some("late-src7"));
    }

    #[test]
    fn msg_probes_all_four_recv_specs() {
        let mut r = RecvFifos::new();
        r.push(0, 1, ANY_SOURCE, ANY_TAG, 4, "aa");
        r.push(0, 1, 3, ANY_TAG, 2, "sa");
        r.push(0, 1, ANY_SOURCE, 8, 3, "at");
        r.push(0, 1, 3, 8, 1, "st");
        // Earliest matching spec wins regardless of bucket.
        assert_eq!(r.pop_match(0, 1, 3, 8), Some("st"));
        assert_eq!(r.pop_match(0, 1, 3, 8), Some("sa"));
        assert_eq!(r.pop_match(0, 1, 3, 8), Some("at"));
        assert_eq!(r.pop_match(0, 1, 3, 8), Some("aa"));
        assert_eq!(r.pop_match(0, 1, 3, 8), None);
    }

    #[test]
    fn incompatible_envelopes_do_not_match() {
        let mut m = MsgFifos::new();
        m.push(0, 1, 5, 9, 0, "x");
        assert_eq!(m.pop_match(0, 1, 6, 9), None);
        assert_eq!(m.pop_match(0, 1, 5, 8), None);
        assert_eq!(m.pop_match(0, 2, 5, 9), None);
        assert_eq!(m.pop_match(1, 1, 5, 9), None);
        assert_eq!(m.pop_match(0, 1, 5, 9), Some("x"));
    }

    #[test]
    fn inspection_apis_report_queue_contents() {
        let mut m = MsgFifos::new();
        m.push(0, 1, 5, 9, 1, "b");
        m.push(0, 1, 2, 3, 0, "a");
        assert_eq!(m.envelopes(0, 1), vec![(2, 3, 0, "a"), (5, 9, 1, "b")]);
        assert_eq!(m.envelopes(0, 9), vec![]);
        assert_eq!(m.find("b"), Some((0, 1, 5, 9)));
        assert_eq!(m.find("zz"), None);
        let mut r = RecvFifos::new();
        r.push(0, 2, ANY_SOURCE, 7, 4, "x");
        assert_eq!(r.specs(0, 2), vec![(ANY_SOURCE, 7, 4, "x")]);
        assert_eq!(r.find("x"), Some((0, 2, ANY_SOURCE, 7)));
        assert_eq!(r.find("y"), None);
    }

    #[test]
    fn communicators_are_isolated() {
        let mut r = RecvFifos::new();
        r.push(0, 1, ANY_SOURCE, ANY_TAG, 0, "cid0");
        r.push(1, 1, ANY_SOURCE, ANY_TAG, 1, "cid1");
        assert_eq!(r.pop_match(1, 1, 0, 0), Some("cid1"));
        assert_eq!(r.pop_match(1, 1, 0, 0), None);
        assert_eq!(r.pop_match(0, 1, 0, 0), Some("cid0"));
    }
}
