//! Scatter, gather and allgather families.
//!
//! `scatter`/`gather` use the binomial tree of Fig. 6 (the algorithm whose
//! accuracy Figs. 7–9 evaluate); the `v` variants are linear, as in MPICH2;
//! `allgather` uses recursive doubling on power-of-two communicators and a
//! ring otherwise.

use std::ops::Range;

use super::{tree, TAG_ALLGATHER, TAG_GATHER, TAG_SCATTER};
use crate::comm::Comm;
use crate::ctx::Ctx;
use crate::datatype::{Datatype, Payload};

impl Ctx<'_> {
    /// `MPI_Scatter` (binomial tree): `send` on the root holds `p * chunk`
    /// elements ordered by destination rank; every rank gets its `chunk`.
    ///
    /// One body carries the data down the tree: the root packs everything
    /// but its own chunk once, and every rank forwards each child a slice of
    /// the body it holds ([`Payload::slice`], no copy). A rank copies out
    /// only its own chunk.
    pub fn scatter<T: Datatype>(
        &self,
        send: Option<&[T]>,
        chunk: usize,
        root: usize,
        comm: &Comm,
    ) -> Vec<T> {
        let _region = self.coll_region("scatter");
        let p = comm.size();
        let r = self.comm_rank(comm);
        let v = (r + p - root) % p;

        // `body` holds the chunks of relative ranks `first..v + span`, in
        // relative rank order.
        let (body, first, own) = if r == root {
            let data = send.expect("root must supply the scatter buffer");
            assert_eq!(data.len(), p * chunk, "scatter buffer size mismatch");
            let own = data[root * chunk..(root + 1) * chunk].to_vec();
            let body = if root == 0 {
                // Rotation is the identity: pack the peers' chunks as they lie.
                Payload::pack(&data[chunk..])
            } else {
                // Rotate into relative order, then adopt the rotated copy.
                let mut rotated = Vec::with_capacity((p - 1) * chunk);
                for rel in 1..p {
                    let abs = (root + rel) % p;
                    rotated.extend_from_slice(&data[abs * chunk..(abs + 1) * chunk]);
                }
                Payload::from_vec(rotated)
            };
            (body, 1, Some(own))
        } else {
            let span = tree::subtree_span(v, p);
            let parent = (tree::parent(v) + root) % p;
            let req = self.irecv::<T>(parent as i32, TAG_SCATTER, span * chunk, comm);
            let (body, status) = self.wait_recv_packed(req, comm);
            debug_assert_eq!(status.count::<T>(), span * chunk);
            (body, v, None)
        };

        // Forward each child its subtree slice (largest subtree first, as
        // the root does in the paper's Fig. 6 description).
        for c in tree::children(v, p) {
            let child_span = tree::subtree_span(c, p);
            let off = (c - first) * chunk;
            let child = (c + root) % p;
            self.send_packed(
                &body.slice(off..off + child_span * chunk),
                child,
                TAG_SCATTER,
                comm,
            );
        }
        own.unwrap_or_else(|| body.slice(..chunk).to_vec())
    }

    /// `MPI_Gather` (binomial tree, the reverse of [`Ctx::scatter`]): every rank
    /// contributes `send`; the root returns the concatenation in rank order.
    pub fn gather<T: Datatype>(&self, send: &[T], root: usize, comm: &Comm) -> Option<Vec<T>> {
        let _region = self.coll_region("gather");
        let p = comm.size();
        let chunk = send.len();
        let r = self.comm_rank(comm);
        let v = (r + p - root) % p;
        let span = tree::subtree_span(v, p);

        let mut block = vec![T::default(); span * chunk];
        block[..chunk].copy_from_slice(send);
        // Collect children smallest-first (reverse send order of scatter).
        for c in tree::children(v, p).into_iter().rev() {
            let child_span = tree::subtree_span(c, p);
            let off = (c - v) * chunk;
            let child = (c + root) % p;
            let status = self.recv(
                &mut block[off..off + child_span * chunk],
                child as i32,
                TAG_GATHER,
                comm,
            );
            debug_assert_eq!(status.count::<T>(), child_span * chunk);
        }
        if v == 0 {
            // Rotate back to absolute rank order.
            let mut out = vec![T::default(); p * chunk];
            for rel in 0..p {
                let abs = (root + rel) % p;
                out[abs * chunk..(abs + 1) * chunk]
                    .copy_from_slice(&block[rel * chunk..(rel + 1) * chunk]);
            }
            Some(out)
        } else {
            let parent = (tree::parent(v) + root) % p;
            self.send(&block, parent, TAG_GATHER, comm);
            None
        }
    }

    /// `MPI_Scatterv` (linear): the root sends rank `i` its `counts[i]`
    /// elements; every rank passes its own expected count as `my_count`.
    pub fn scatterv<T: Datatype>(
        &self,
        send: Option<&[T]>,
        counts: Option<&[usize]>,
        my_count: usize,
        root: usize,
        comm: &Comm,
    ) -> Vec<T> {
        let _region = self.coll_region("scatterv");
        let p = comm.size();
        let r = self.comm_rank(comm);
        if r == root {
            let data = send.expect("root must supply the scatterv buffer");
            let counts = counts.expect("root must supply scatterv counts");
            assert_eq!(counts.len(), p);
            assert_eq!(data.len(), counts.iter().sum::<usize>());
            assert_eq!(my_count, counts[root]);
            // One body for every peer; each gets a slice of it.
            let body = Payload::pack(data);
            let mut offset = 0usize;
            let mut own = Vec::new();
            let mut pending = Vec::new();
            for (i, &c) in counts.iter().enumerate() {
                let piece = offset..offset + c;
                offset += c;
                if i == r {
                    own = data[piece].to_vec();
                } else {
                    pending.push(self.isend_packed(&body.slice(piece), i, TAG_SCATTER, comm));
                }
            }
            self.wait_all_sends(pending);
            own
        } else {
            let (data, _) = self.recv_vec::<T>(root as i32, TAG_SCATTER, my_count, comm);
            data
        }
    }

    /// `MPI_Gatherv` (linear): the root returns the concatenation of every
    /// rank's contribution, sized by `counts` on the root.
    pub fn gatherv<T: Datatype>(
        &self,
        send: &[T],
        counts: Option<&[usize]>,
        root: usize,
        comm: &Comm,
    ) -> Option<Vec<T>> {
        let _region = self.coll_region("gatherv");
        let p = comm.size();
        let r = self.comm_rank(comm);
        if r == root {
            let counts = counts.expect("root must supply gatherv counts");
            assert_eq!(counts.len(), p);
            assert_eq!(send.len(), counts[root]);
            let offsets: Vec<usize> = counts
                .iter()
                .scan(0usize, |acc, &c| {
                    let o = *acc;
                    *acc += c;
                    Some(o)
                })
                .collect();
            let total: usize = counts.iter().sum();
            let mut out = vec![T::default(); total];
            out[offsets[root]..offsets[root] + counts[root]].copy_from_slice(send);
            let mut reqs = Vec::new();
            for (i, &cnt) in counts.iter().enumerate() {
                if i != root {
                    reqs.push((i, self.irecv::<T>(i as i32, TAG_GATHER, cnt, comm)));
                }
            }
            for (i, req) in reqs {
                let block = &mut out[offsets[i]..offsets[i] + counts[i]];
                let status = self.wait_recv_into(req, block, comm);
                assert_eq!(status.count::<T>(), counts[i]);
            }
            Some(out)
        } else {
            self.send(send, root, TAG_GATHER, comm);
            None
        }
    }

    /// `MPI_Allgather`: recursive doubling on power-of-two sizes, ring
    /// otherwise. Every rank contributes `send` (equal lengths) and gets the
    /// concatenation in rank order.
    pub fn allgather<T: Datatype>(&self, send: &[T], comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("allgather");
        if comm.size().is_power_of_two() {
            self.allgather_rdb(send, comm)
        } else {
            self.allgather_ring(send, comm)
        }
    }

    /// Recursive-doubling allgather (requires power-of-two ranks).
    pub fn allgather_rdb<T: Datatype>(&self, send: &[T], comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("allgather_rdb");
        let p = comm.size();
        assert!(p.is_power_of_two());
        let chunk = send.len();
        let r = self.comm_rank(comm);
        let mut out = vec![T::default(); p * chunk];
        out[r * chunk..(r + 1) * chunk].copy_from_slice(send);
        // Invariant: before a round with stride k, each rank holds the k
        // blocks of its k-rank subcube [r & !(k-1), r & !(k-1) + k).
        let mut k = 1usize;
        while k < p {
            let partner = r ^ k;
            let my_base = r & !(k - 1);
            let partner_base = partner & !(k - 1);
            self.exchange_within(
                &mut out,
                my_base * chunk..(my_base + k) * chunk,
                partner,
                partner_base * chunk..(partner_base + k) * chunk,
                partner,
                comm,
            );
            k <<= 1;
        }
        out
    }

    /// Ring allgather (works for any communicator size): p-1 steps, each
    /// forwarding the most recently received block to the right neighbour.
    pub fn allgather_ring<T: Datatype>(&self, send: &[T], comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("allgather_ring");
        let p = comm.size();
        let chunk = send.len();
        let r = self.comm_rank(comm);
        let mut out = vec![T::default(); p * chunk];
        out[r * chunk..(r + 1) * chunk].copy_from_slice(send);
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        for s in 0..p.saturating_sub(1) {
            let send_block = (r + p - s) % p;
            let recv_block = (r + p - s - 1) % p;
            self.exchange_within(
                &mut out,
                send_block * chunk..(send_block + 1) * chunk,
                right,
                recv_block * chunk..(recv_block + 1) * chunk,
                left,
                comm,
            );
        }
        out
    }

    /// One allgather round, an `MPI_Sendrecv` whose two buffers are blocks
    /// of the same `out`: the outgoing block is packed straight from it and
    /// the incoming one unpacked straight into it.
    fn exchange_within<T: Datatype>(
        &self,
        out: &mut [T],
        outgoing: Range<usize>,
        dst: usize,
        incoming: Range<usize>,
        src: usize,
        comm: &Comm,
    ) {
        let rr = self.irecv::<T>(src as i32, TAG_ALLGATHER, incoming.len(), comm);
        let sr = self.isend(&out[outgoing], dst, TAG_ALLGATHER, comm);
        self.wait_recv_into(rr, &mut out[incoming], comm);
        self.wait_send(sr);
    }

    /// `MPI_Allgatherv` (ring): contributions of varying sizes; `counts[i]`
    /// is rank `i`'s length, known everywhere.
    pub fn allgatherv<T: Datatype>(&self, send: &[T], counts: &[usize], comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("allgatherv");
        let p = comm.size();
        assert_eq!(counts.len(), p);
        let r = self.comm_rank(comm);
        assert_eq!(send.len(), counts[r]);
        let offsets: Vec<usize> = counts
            .iter()
            .scan(0usize, |acc, &c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let total: usize = counts.iter().sum();
        let mut out = vec![T::default(); total];
        out[offsets[r]..offsets[r] + counts[r]].copy_from_slice(send);
        let right = (r + 1) % p;
        let left = (r + p - 1) % p;
        for s in 0..p.saturating_sub(1) {
            let send_block = (r + p - s) % p;
            let recv_block = (r + p - s - 1) % p;
            self.exchange_within(
                &mut out,
                offsets[send_block]..offsets[send_block] + counts[send_block],
                right,
                offsets[recv_block]..offsets[recv_block] + counts[recv_block],
                left,
                comm,
            );
        }
        out
    }
}
