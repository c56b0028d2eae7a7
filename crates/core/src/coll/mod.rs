//! Collective communication operations (paper §4.2, §5.3).
//!
//! SMPI does **not** model collectives monolithically: each collective is a
//! literal set of point-to-point messages that contend with each other in
//! the network model, exactly like a real MPI implementation. The
//! algorithms mirror the MPICH2 implementations the paper copied
//! ("cut-modify-and-paste", §5.3), plus the pairwise many-to-many algorithm
//! of OpenMPI:
//!
//! | operation | algorithm |
//! |---|---|
//! | `barrier` | dissemination |
//! | `bcast` | binomial tree |
//! | `scatter` / `gather` | binomial tree (Fig. 6) |
//! | `scatterv` / `gatherv` | linear (root-rooted) |
//! | `allgather` | recursive doubling (2^k ranks) or ring |
//! | `reduce` | binomial (commutative ops), linear otherwise |
//! | `allreduce` | recursive doubling, or reduce+bcast |
//! | `scan` | distance doubling (Hillis-Steele) |
//! | `reduce_scatter` | reduce + scatterv |
//! | `alltoall` / `alltoallv` | pairwise exchange (Fig. 10) |
//!
//! Alternative algorithms for ablation studies live in `variants`.

pub(crate) mod alltoall;
pub(crate) mod basic;
pub(crate) mod gather;
pub(crate) mod reduce;
pub mod tree;
pub(crate) mod variants;

use crate::comm::Comm;
use crate::ctx::Ctx;

/// Reserved tag space for collective traffic (applications should use tags
/// below this; context ids already isolate communicators, the tag only
/// separates phases within one collective).
pub(crate) const COLL_TAG_BASE: i32 = 1 << 20;

pub(crate) const TAG_BARRIER: i32 = COLL_TAG_BASE;
pub(crate) const TAG_BCAST: i32 = COLL_TAG_BASE + 1;
pub(crate) const TAG_SCATTER: i32 = COLL_TAG_BASE + 2;
pub(crate) const TAG_GATHER: i32 = COLL_TAG_BASE + 3;
pub(crate) const TAG_ALLGATHER: i32 = COLL_TAG_BASE + 4;
pub(crate) const TAG_REDUCE: i32 = COLL_TAG_BASE + 5;
pub(crate) const TAG_ALLREDUCE: i32 = COLL_TAG_BASE + 6;
pub(crate) const TAG_SCAN: i32 = COLL_TAG_BASE + 7;
pub(crate) const TAG_ALLTOALL: i32 = COLL_TAG_BASE + 8;

impl Ctx<'_> {
    /// This rank within `comm` (`MPI_Comm_rank`). Panics when the caller is
    /// not a member.
    pub fn comm_rank(&self, comm: &Comm) -> usize {
        comm.local_rank(self.rank() as u32)
            .expect("caller is not a member of this communicator")
    }
}
