//! Communicators (`MPI_Comm`).
//!
//! A communicator is a [`Group`] plus a **context id** isolating its message
//! traffic from every other communicator's. Context ids must be agreed upon
//! collectively; here agreement is deterministic: all members of a group
//! execute the same sequence of communicator creations on that group, so a
//! shared registry keyed by `(group, per-group sequence number)` hands every
//! member the same id without extra communication.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::group::Group;

/// The context id of `MPI_COMM_WORLD`.
pub const WORLD_CID: u32 = 0;

/// A communicator: a group of processes plus an isolated message context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comm {
    cid: u32,
    group: Group,
}

impl Comm {
    /// The world communicator over `n` ranks.
    pub fn world(n: usize) -> Self {
        Comm {
            cid: WORLD_CID,
            group: Group::world(n),
        }
    }

    pub(crate) fn from_parts(cid: u32, group: Group) -> Self {
        Comm { cid, group }
    }

    /// The context id.
    pub fn cid(&self) -> u32 {
        self.cid
    }

    /// The communicator's group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// World rank of communicator rank `r`.
    pub fn world_rank(&self, r: usize) -> u32 {
        self.group.world_rank(r)
    }

    /// Communicator rank of world rank `w`, if a member.
    pub fn local_rank(&self, w: u32) -> Option<usize> {
        self.group.local_rank(w)
    }
}

/// Deterministic context-id allocation shared by all ranks.
#[derive(Debug, Default)]
pub struct CommRegistry {
    inner: RefCell<RegistryInner>,
}

#[derive(Debug)]
struct RegistryInner {
    next_cid: u32,
    by_key: HashMap<(Vec<u32>, u64), u32>,
}

impl Default for RegistryInner {
    fn default() -> Self {
        RegistryInner {
            next_cid: WORLD_CID + 1,
            by_key: HashMap::new(),
        }
    }
}

impl CommRegistry {
    /// Creates an empty registry (cid 0 is reserved for the world).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the context id for the `seq`-th communicator created over
    /// `group`. The first member to ask allocates; later members (same
    /// `group`, same `seq`) observe the same id.
    pub fn cid_for(&self, group: &Group, seq: u64) -> u32 {
        let mut inner = self.inner.borrow_mut();
        let key = (group.members().to_vec(), seq);
        if let Some(&cid) = inner.by_key.get(&key) {
            return cid;
        }
        let cid = inner.next_cid;
        inner.next_cid += 1;
        inner.by_key.insert(key, cid);
        cid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_comm_basics() {
        let c = Comm::world(4);
        assert_eq!(c.cid(), WORLD_CID);
        assert_eq!(c.size(), 4);
        assert_eq!(c.world_rank(3), 3);
        assert_eq!(c.local_rank(2), Some(2));
        assert_eq!(c.local_rank(9), None);
    }

    #[test]
    fn registry_same_key_same_cid() {
        let reg = CommRegistry::new();
        let g = Group::new(vec![0, 2, 4]);
        let a = reg.cid_for(&g, 0);
        let b = reg.cid_for(&g, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn registry_distinguishes_sequence_numbers() {
        let reg = CommRegistry::new();
        let g = Group::new(vec![0, 1]);
        let first = reg.cid_for(&g, 0);
        let second = reg.cid_for(&g, 1);
        assert_ne!(first, second);
    }

    #[test]
    fn registry_distinguishes_groups() {
        let reg = CommRegistry::new();
        let a = reg.cid_for(&Group::new(vec![0, 1]), 0);
        let b = reg.cid_for(&Group::new(vec![0, 2]), 0);
        assert_ne!(a, b);
        assert_ne!(a, WORLD_CID);
    }

    #[test]
    fn sub_communicator_ranks_translate() {
        let g = Group::world(8).incl(&[1, 3, 5]);
        let c = Comm::from_parts(7, g);
        assert_eq!(c.size(), 3);
        assert_eq!(c.world_rank(2), 5);
        assert_eq!(c.local_rank(3), Some(1));
    }

    #[test]
    fn every_rank_shares_one_world_member_list() {
        use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
        let rp = RoutedPlatform::new(flat_cluster("t", 4, &ClusterConfig::default()));
        let world = crate::World::smpi(std::sync::Arc::new(rp), surf_sim::TransferModel::ideal());
        let comms = world.run(4, |ctx| ctx.world()).results;
        for c in &comms {
            assert_eq!(*c, Comm::world(4));
            assert!(std::ptr::eq(
                c.group().members(),
                comms[0].group().members()
            ));
        }
    }
}
