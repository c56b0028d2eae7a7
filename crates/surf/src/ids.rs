//! Strongly-typed index handles for simulation resources.
//!
//! All simulation objects live in flat `Vec` arenas and are referred to by
//! index. Newtypes prevent a link index from being used where a host index is
//! expected — a class of bug that plain `usize` indices make very easy.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Builds an id from a raw arena index.
            pub fn from_index(ix: usize) -> Self {
                $name(u32::try_from(ix).expect("resource arena overflow"))
            }

            /// The raw arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

define_id!(
    /// A network link (cable or switch backplane share).
    LinkId
);
define_id!(
    /// A compute host (cluster node).
    HostId
);

/// A simulation action: an ongoing network transfer or CPU execution.
///
/// Unlike resource ids, actions are *transient*: their slab slots are
/// recycled once they complete. The handle therefore carries both the slot
/// and the slot's generation at creation time; a recycled slot bumps the
/// generation, so a stale handle can never alias a newer action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl ActionId {
    /// Builds a handle from a slab `(slot, generation)` pair.
    pub(crate) fn new(slot: u32, gen: u32) -> Self {
        ActionId { slot, gen }
    }

    /// The slab slot (reused across action lifetimes).
    #[cfg(test)]
    pub(crate) fn slot(self) -> u32 {
        self.slot
    }

    /// Packs the handle into a single `u64` (`generation << 32 | slot`),
    /// unique over the whole simulation run. Used by transport backends to
    /// derive completion tokens.
    pub fn raw(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.slot)
    }

    /// Rebuilds a handle from its [`raw`](Self::raw) packing.
    pub fn from_raw(raw: u64) -> Self {
        ActionId {
            slot: raw as u32,
            gen: (raw >> 32) as u32,
        }
    }
}

impl std::fmt::Display for ActionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ActionId#{}.{}", self.slot, self.gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let l = LinkId::from_index(7);
        assert_eq!(l.index(), 7);
        assert_eq!(l.to_string(), "LinkId#7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(HostId::from_index(1) < HostId::from_index(2));
    }

    #[test]
    fn action_raw_packs_slot_and_generation() {
        let a = ActionId::new(7, 3);
        assert_eq!(a.slot(), 7);
        assert_eq!(a.raw(), (3u64 << 32) | 7);
        assert_eq!(a.to_string(), "ActionId#7.3");
        assert_ne!(ActionId::new(7, 3).raw(), ActionId::new(7, 4).raw());
    }
}
