//! Reduction collectives: reduce, allreduce, scan, reduce_scatter.

use super::{tree, TAG_ALLREDUCE, TAG_REDUCE, TAG_SCAN};
use crate::comm::Comm;
use crate::ctx::Ctx;
use crate::datatype::Datatype;
use crate::op::Op;

impl Ctx<'_> {
    /// `MPI_Reduce`: element-wise reduction of every rank's `send` to the
    /// root. Commutative operators use a binomial tree; non-commutative
    /// operators fall back to a linear gather folded in rank order (the
    /// MPI-mandated evaluation order).
    pub fn reduce<T: Datatype>(
        &self,
        send: &[T],
        op: &Op<T>,
        root: usize,
        comm: &Comm,
    ) -> Option<Vec<T>> {
        let _region = self.coll_region("reduce");
        if op.commutative {
            self.reduce_binomial(send, op, root, comm)
        } else {
            self.reduce_linear(send, op, root, comm)
        }
    }

    /// Binomial-tree reduction (commutative operators).
    pub(crate) fn reduce_binomial<T: Datatype>(
        &self,
        send: &[T],
        op: &Op<T>,
        root: usize,
        comm: &Comm,
    ) -> Option<Vec<T>> {
        let _region = self.coll_region("reduce_binomial");
        let p = comm.size();
        let r = self.comm_rank(comm);
        let v = (r + p - root) % p;
        let mut acc = send.to_vec();
        let mut tmp = vec![T::default(); send.len()];
        // Children combine in ascending order (reverse of the send order).
        for c in tree::children(v, p).into_iter().rev() {
            let child = (c + root) % p;
            let status = self.recv(&mut tmp, child as i32, TAG_REDUCE, comm);
            debug_assert_eq!(status.count::<T>(), tmp.len());
            op.fold_into(&mut acc, &tmp);
        }
        if v == 0 {
            Some(acc)
        } else {
            let parent = (tree::parent(v) + root) % p;
            self.send(&acc, parent, TAG_REDUCE, comm);
            None
        }
    }

    /// Linear reduction preserving rank order (non-commutative operators):
    /// the root receives every contribution and folds 0 ⊕ 1 ⊕ … ⊕ (p−1).
    pub(crate) fn reduce_linear<T: Datatype>(
        &self,
        send: &[T],
        op: &Op<T>,
        root: usize,
        comm: &Comm,
    ) -> Option<Vec<T>> {
        let _region = self.coll_region("reduce_linear");
        let p = comm.size();
        let r = self.comm_rank(comm);
        if r == root {
            // Collect all contributions, then fold in rank order.
            let mut reqs = Vec::new();
            for i in 0..p {
                if i == root {
                    continue;
                }
                reqs.push((i, self.irecv::<T>(i as i32, TAG_REDUCE, send.len(), comm)));
            }
            let mut by_rank: Vec<Option<Vec<T>>> = vec![None; p];
            by_rank[root] = Some(send.to_vec());
            for (i, req) in reqs {
                let (data, _) = self.wait_recv(req, comm);
                by_rank[i] = Some(data);
            }
            let mut iter = by_rank.into_iter().flatten();
            let mut acc = iter.next().expect("p >= 1");
            for part in iter {
                op.fold_into(&mut acc, &part);
            }
            Some(acc)
        } else {
            self.send(send, root, TAG_REDUCE, comm);
            None
        }
    }

    /// `MPI_Allreduce`: recursive doubling on power-of-two communicators
    /// with commutative operators; reduce + bcast otherwise.
    pub fn allreduce<T: Datatype>(&self, send: &[T], op: &Op<T>, comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("allreduce");
        let p = comm.size();
        if p.is_power_of_two() && op.commutative {
            self.allreduce_rdb(send, op, comm)
        } else {
            let root = 0;
            let reduced = self.reduce(send, op, root, comm);
            let mut buf = reduced.unwrap_or_else(|| vec![T::default(); send.len()]);
            self.bcast(&mut buf, root, comm);
            buf
        }
    }

    /// Recursive-doubling allreduce (power-of-two ranks, commutative op).
    pub(crate) fn allreduce_rdb<T: Datatype>(&self, send: &[T], op: &Op<T>, comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("allreduce_rdb");
        let p = comm.size();
        assert!(p.is_power_of_two());
        let r = self.comm_rank(comm);
        let mut acc = send.to_vec();
        let mut incoming = vec![T::default(); send.len()];
        let mut k = 1usize;
        while k < p {
            let partner = r ^ k;
            self.sendrecv(
                &acc,
                partner,
                TAG_ALLREDUCE,
                &mut incoming,
                partner as i32,
                TAG_ALLREDUCE,
                comm,
            );
            op.fold_into(&mut acc, &incoming);
            k <<= 1;
        }
        acc
    }

    /// `MPI_Scan` (inclusive prefix reduction): rank `r` returns
    /// `send₀ ⊕ send₁ ⊕ … ⊕ send_r`. Distance-doubling (Hillis–Steele),
    /// correct for non-commutative operators too.
    pub fn scan<T: Datatype>(&self, send: &[T], op: &Op<T>, comm: &Comm) -> Vec<T> {
        let _region = self.coll_region("scan");
        let p = comm.size();
        let r = self.comm_rank(comm);
        let mut acc = send.to_vec();
        let mut incoming = vec![T::default(); send.len()];
        let mut k = 1usize;
        while k < p {
            let send_to = r + k;
            let recv_from = r.checked_sub(k);
            match (send_to < p, recv_from) {
                (true, Some(from)) => {
                    self.sendrecv(
                        &acc,
                        send_to,
                        TAG_SCAN,
                        &mut incoming,
                        from as i32,
                        TAG_SCAN,
                        comm,
                    );
                    // incoming holds the prefix ending at r-k: it goes on
                    // the left.
                    let mut merged = incoming.clone();
                    op.fold_into(&mut merged, &acc);
                    acc = merged;
                }
                (true, None) => self.send(&acc, send_to, TAG_SCAN, comm),
                (false, Some(from)) => {
                    let status = self.recv(&mut incoming, from as i32, TAG_SCAN, comm);
                    debug_assert_eq!(status.count::<T>(), incoming.len());
                    let mut merged = incoming.clone();
                    op.fold_into(&mut merged, &acc);
                    acc = merged;
                }
                (false, None) => {}
            }
            k <<= 1;
        }
        acc
    }

    /// `MPI_Reduce_scatter`: reduce `send` (length = Σ counts) element-wise
    /// over all ranks, then scatter segment `i` (of `counts[i]` elements) to
    /// rank `i`. Implemented as reduce-to-0 + scatterv, the MPICH2 fallback
    /// algorithm.
    pub fn reduce_scatter<T: Datatype>(
        &self,
        send: &[T],
        counts: &[usize],
        op: &Op<T>,
        comm: &Comm,
    ) -> Vec<T> {
        let _region = self.coll_region("reduce_scatter");
        let p = comm.size();
        assert_eq!(counts.len(), p);
        assert_eq!(send.len(), counts.iter().sum::<usize>());
        let r = self.comm_rank(comm);
        let root = 0;
        let reduced = self.reduce(send, op, root, comm);
        self.scatterv(
            reduced.as_deref(),
            if r == root { Some(counts) } else { None },
            counts[r],
            root,
            comm,
        )
    }
}
