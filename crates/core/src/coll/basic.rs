//! Barrier and broadcast.

use super::{tree, TAG_BARRIER, TAG_BCAST};
use crate::comm::Comm;
use crate::ctx::Ctx;
use crate::datatype::{Datatype, Payload};

impl Ctx<'_> {
    /// `MPI_Barrier`: dissemination algorithm — ⌈log₂ p⌉ rounds of
    /// zero-byte exchanges with exponentially growing stride.
    pub fn barrier(&self, comm: &Comm) {
        let _region = self.coll_region("barrier");
        let p = comm.size();
        let r = self.comm_rank(comm);
        let mut k = 1usize;
        let empty: [u8; 0] = [];
        let mut sink: [u8; 0] = [];
        while k < p {
            let to = (r + k) % p;
            let from = (r + p - k) % p;
            self.sendrecv(
                &empty,
                to,
                TAG_BARRIER,
                &mut sink,
                from as i32,
                TAG_BARRIER,
                comm,
            );
            k <<= 1;
        }
    }

    /// `MPI_Bcast` over a binomial tree: `buf` holds the payload on `root`
    /// and receives it everywhere else (all callers pass the same length).
    /// The root packs `buf` once; every rank forwards the body it received.
    pub fn bcast<T: Datatype>(&self, buf: &mut [T], root: usize, comm: &Comm) {
        let _region = self.coll_region("bcast");
        let p = comm.size();
        if p == 1 {
            return;
        }
        let r = self.comm_rank(comm);
        let v = (r + p - root) % p; // relative rank
        let body = if v == 0 {
            Payload::pack(buf)
        } else {
            let parent = (tree::parent(v) + root) % p;
            let req = self.irecv::<T>(parent as i32, TAG_BCAST, buf.len(), comm);
            let (body, status) = self.wait_recv_packed(req, comm);
            debug_assert_eq!(status.count::<T>(), buf.len());
            body.unpack_into(buf);
            body
        };
        for c in tree::children(v, p) {
            let child = (c + root) % p;
            self.send_packed(&body, child, TAG_BCAST, comm);
        }
    }
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end in the crate's integration tests (they need a
    // full World); the tree shape itself is unit-tested in `tree`.
}
