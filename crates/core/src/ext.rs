//! An extension beyond the paper's SMPI subset: [`Ctx::comm_split`], the
//! one communicator operation the subset explicitly excluded ("and their
//! operations (except Comm_split)"). Implemented as a real collective: an
//! allgather of `(color, key)` pairs followed by deterministic group
//! construction, so every member derives identical sub-communicators.

use crate::comm::Comm;
use crate::ctx::Ctx;
use crate::group::Group;

/// Color value meaning "I do not join any sub-communicator"
/// (`MPI_UNDEFINED`).
pub const UNDEFINED_COLOR: i32 = -1;

impl Ctx<'_> {
    /// `MPI_Comm_split`: partitions `comm` by `color`; within each color,
    /// ranks are ordered by `(key, old rank)`. Ranks passing
    /// [`UNDEFINED_COLOR`] get `None`. Collective over `comm`.
    pub fn comm_split(&self, comm: &Comm, color: i32, key: i32) -> Option<Comm> {
        let r = self.comm_rank(comm);
        // Exchange (color, key) with everyone: 2 i64 per rank.
        let mine = [i64::from(color), i64::from(key)];
        let all = self.allgather(&mine, comm);

        if color == UNDEFINED_COLOR {
            return None;
        }
        // Deterministic membership: all ranks with my color, sorted by
        // (key, parent rank), translated to world ranks.
        let mut members: Vec<(i64, usize)> = (0..comm.size())
            .filter(|&i| all[2 * i] == i64::from(color))
            .map(|i| (all[2 * i + 1], i))
            .collect();
        members.sort_unstable();
        debug_assert!(members.iter().any(|&(_, i)| i == r));
        let group = Group::new(members.iter().map(|&(_, i)| comm.world_rank(i)).collect());
        Some(self.comm_create(comm, &group))
    }
}
