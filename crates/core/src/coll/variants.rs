//! Alternative collective algorithms for ablation studies.
//!
//! §5.3 of the paper notes that "there is no unique algorithm for any
//! collective operation, each variant being best in particular settings"
//! and plans multiple selectable variants as future work. These variants
//! exist so the `ablation_collectives` bench can compare them against the
//! defaults under the same network model.

use super::{TAG_BCAST, TAG_SCATTER};
use crate::comm::Comm;
use crate::ctx::Ctx;
use crate::datatype::{Datatype, Payload};

impl Ctx<'_> {
    /// Flat-tree (linear) scatter: the root sends every rank its chunk
    /// directly. Asymptotically worse than the binomial tree at the root's
    /// uplink, better for tiny messages on very small communicators.
    pub fn scatter_linear<T: Datatype>(
        &self,
        send: Option<&[T]>,
        chunk: usize,
        root: usize,
        comm: &Comm,
    ) -> Vec<T> {
        let _region = self.coll_region("scatter_linear");
        let p = comm.size();
        let counts = vec![chunk; p];
        let r = self.comm_rank(comm);
        let _ = r;
        self.scatterv(
            send,
            if self.comm_rank(comm) == root {
                Some(&counts)
            } else {
                None
            },
            chunk,
            root,
            comm,
        )
    }

    /// Flat-tree broadcast: the root sends the whole buffer to every rank.
    pub fn bcast_linear<T: Datatype>(&self, buf: &mut [T], root: usize, comm: &Comm) {
        let _region = self.coll_region("bcast_linear");
        let p = comm.size();
        let r = self.comm_rank(comm);
        if r == root {
            let body = Payload::pack(buf);
            let reqs = (0..p)
                .filter(|&i| i != root)
                .map(|i| self.isend_packed(&body, i, TAG_BCAST, comm))
                .collect();
            self.wait_all_sends(reqs);
        } else {
            self.recv(buf, root as i32, TAG_BCAST, comm);
        }
    }

    /// Scatter over a chain (pipeline) — each rank forwards the remainder
    /// to the next. The worst reasonable algorithm; useful as a lower
    /// baseline in ablations.
    pub fn scatter_chain<T: Datatype>(
        &self,
        send: Option<&[T]>,
        chunk: usize,
        root: usize,
        comm: &Comm,
    ) -> Vec<T> {
        let _region = self.coll_region("scatter_chain");
        let p = comm.size();
        let r = self.comm_rank(comm);
        let v = (r + p - root) % p; // position along the chain
        let mut block: Vec<T>;
        if v == 0 {
            let data = send.expect("root must supply the scatter buffer");
            assert_eq!(data.len(), p * chunk);
            // Rotate into chain order.
            block = Vec::with_capacity(p * chunk);
            for rel in 0..p {
                let abs = (root + rel) % p;
                block.extend_from_slice(&data[abs * chunk..(abs + 1) * chunk]);
            }
        } else {
            let prev = (v - 1 + root) % p;
            block = vec![T::default(); (p - v) * chunk];
            self.recv(&mut block, prev as i32, TAG_SCATTER, comm);
        }
        if v + 1 < p {
            let next = (v + 1 + root) % p;
            self.send(&block[chunk..], next, TAG_SCATTER, comm);
        }
        block.truncate(chunk);
        block
    }
}
