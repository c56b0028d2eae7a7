//! Process groups (`MPI_Group`).
//!
//! A group is an ordered set of world ranks. SMPI supports "process groups,
//! communicators, and their operations (except Comm_split)"; the classic
//! group algebra is implemented here and communicators wrap a group plus a
//! context id in [`crate::comm`].

use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An ordered set of distinct world ranks.
///
/// Equality and hashing read the members alone; the inverse lookup is a
/// function of them.
#[derive(Debug, Clone)]
pub struct Group {
    members: Arc<Vec<u32>>,
    /// `(world rank, local rank)` of every member, sorted by world rank:
    /// [`local_rank`](Self::local_rank) is a binary search.
    by_world: Arc<[(u32, u32)]>,
}

impl PartialEq for Group {
    fn eq(&self, other: &Self) -> bool {
        self.members == other.members
    }
}

impl Eq for Group {}

impl Hash for Group {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.members.hash(state);
    }
}

impl Group {
    /// Builds a group from world ranks. Ranks must be distinct.
    pub fn new(members: Vec<u32>) -> Self {
        let mut by_world: Vec<(u32, u32)> = (0u32..).zip(&members).map(|(r, &w)| (w, r)).collect();
        by_world.sort_unstable();
        assert!(
            by_world.windows(2).all(|p| p[0].0 != p[1].0),
            "group members must be distinct"
        );
        Group {
            members: Arc::new(members),
            by_world: by_world.into(),
        }
    }

    /// The group `{0, 1, …, n-1}` (the world group).
    pub fn world(n: usize) -> Self {
        Group::new((0..n as u32).collect())
    }

    /// Number of members (`MPI_Group_size`).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// `true` for the empty group.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// World rank of local rank `r` (`MPI_Group_translate_ranks` to world).
    pub fn world_rank(&self, r: usize) -> u32 {
        self.members[r]
    }

    /// Local rank of world rank `w` (`MPI_Group_rank`), if a member.
    /// O(log size), no allocation.
    pub fn local_rank(&self, w: u32) -> Option<usize> {
        let at = self.by_world.binary_search_by_key(&w, |&(m, _)| m).ok()?;
        Some(self.by_world[at].1 as usize)
    }

    /// Members in local-rank order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// `MPI_Group_incl`: the sub-group of the listed local ranks, in order.
    pub fn incl(&self, ranks: &[usize]) -> Group {
        Group::new(ranks.iter().map(|&r| self.members[r]).collect())
    }

    /// `MPI_Group_excl`: all members except the listed local ranks,
    /// preserving order.
    pub fn excl(&self, ranks: &[usize]) -> Group {
        let excluded: std::collections::HashSet<usize> = ranks.iter().copied().collect();
        Group::new(
            self.members
                .iter()
                .enumerate()
                .filter(|(i, _)| !excluded.contains(i))
                .map(|(_, &w)| w)
                .collect(),
        )
    }

    /// `MPI_Group_union`: members of `self`, then members of `other` not in
    /// `self`, in `other`'s order.
    pub fn union(&self, other: &Group) -> Group {
        let mut out: Vec<u32> = self.members.as_ref().clone();
        for &w in other.members.iter() {
            if !out.contains(&w) {
                out.push(w);
            }
        }
        Group::new(out)
    }

    /// `MPI_Group_intersection`: members of `self` also in `other`, in
    /// `self`'s order.
    pub fn intersection(&self, other: &Group) -> Group {
        Group::new(
            self.members
                .iter()
                .copied()
                .filter(|w| other.local_rank(*w).is_some())
                .collect(),
        )
    }

    /// `MPI_Group_difference`: members of `self` not in `other`.
    pub fn difference(&self, other: &Group) -> Group {
        Group::new(
            self.members
                .iter()
                .copied()
                .filter(|w| other.local_rank(*w).is_none())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_is_identity() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        for r in 0..4 {
            assert_eq!(g.world_rank(r), r as u32);
            assert_eq!(g.local_rank(r as u32), Some(r));
        }
    }

    #[test]
    fn incl_and_excl() {
        let g = Group::world(6);
        let sub = g.incl(&[4, 2, 0]);
        assert_eq!(sub.members(), &[4, 2, 0]);
        assert_eq!(sub.local_rank(2), Some(1));
        let rest = g.excl(&[4, 2, 0]);
        assert_eq!(rest.members(), &[1, 3, 5]);
    }

    #[test]
    fn set_algebra() {
        let a = Group::new(vec![0, 1, 2, 3]);
        let b = Group::new(vec![2, 3, 4, 5]);
        assert_eq!(a.union(&b).members(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(a.intersection(&b).members(), &[2, 3]);
        assert_eq!(a.difference(&b).members(), &[0, 1]);
        assert_eq!(b.difference(&a).members(), &[4, 5]);
    }

    #[test]
    fn empty_group() {
        let g = Group::new(vec![]);
        assert!(g.is_empty());
        assert_eq!(g.size(), 0);
    }

    #[test]
    #[should_panic]
    fn duplicates_rejected() {
        Group::new(vec![1, 1]);
    }

    #[test]
    fn local_rank_matches_the_linear_scan() {
        let scan = |g: &Group, w: u32| g.members().iter().position(|&m| m == w);
        let world = Group::world(37);
        // A permuted sub-group: every fifth rank, backwards.
        let sub = world.incl(&(0..37).rev().step_by(5).collect::<Vec<_>>());
        let scattered = Group::new(vec![90, 3, 41, 7, 1000, 0]);
        for g in [&world, &sub, &scattered, &Group::new(vec![])] {
            for w in 0..1100 {
                assert_eq!(g.local_rank(w), scan(g, w), "world rank {w}");
            }
            assert_eq!(g.local_rank(u32::MAX), None);
            for (r, &w) in g.members().iter().enumerate() {
                assert_eq!(g.local_rank(w), Some(r));
            }
        }
        assert_eq!(sub.local_rank(36), Some(0));
        assert_eq!(sub.local_rank(35), None, "not a member");
    }

    #[test]
    fn equality_and_hash_read_the_members() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |g: &Group| {
            let mut h = DefaultHasher::new();
            g.hash(&mut h);
            h.finish()
        };
        let a = Group::world(6).incl(&[4, 2, 0]);
        let b = Group::new(vec![4, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, Group::new(vec![0, 2, 4]), "order is part of a group");
    }

    #[test]
    fn incl_of_incl_composes() {
        let g = Group::world(8);
        let evens = g.incl(&[0, 2, 4, 6]);
        let quarter = evens.incl(&[1, 3]); // world ranks 2, 6
        assert_eq!(quarter.members(), &[2, 6]);
    }
}
