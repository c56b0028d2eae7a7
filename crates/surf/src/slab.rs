//! Generation-tagged slab arena for simulation actions.
//!
//! The kernel used to keep every action ever started in a growing `Vec`,
//! which made per-event cost proportional to the *lifetime* action count.
//! This slab recycles slots through a free list so the arena stays as small
//! as the peak number of concurrently-live entries, and tags each slot with
//! a generation counter so a recycled slot can never be confused with the
//! action that previously occupied it: a handle whose generation does not
//! match the slot's current generation refers to a removed (completed)
//! entry.

/// A slab arena with free-list slot recycling and per-slot generations.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Entry<T>>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    gen: u32,
    val: Option<T>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
        }
    }

    /// Inserts a value, recycling a free slot when one exists. Returns the
    /// `(slot, generation)` pair identifying the entry.
    pub fn insert(&mut self, val: T) -> (u32, u32) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(slot) = self.free.pop() {
            let e = &mut self.slots[slot as usize];
            debug_assert!(e.val.is_none());
            e.val = Some(val);
            (slot, e.gen)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab overflow");
            self.slots.push(Entry {
                gen: 0,
                val: Some(val),
            });
            (slot, 0)
        }
    }

    /// Removes the entry in `slot`, bumping its generation so outstanding
    /// handles become stale. Panics if the slot is vacant.
    pub fn remove(&mut self, slot: u32) -> T {
        let e = &mut self.slots[slot as usize];
        let val = e.val.take().expect("slab slot already vacant");
        e.gen = e.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        val
    }

    /// `true` when `(slot, gen)` still refers to a live entry.
    pub fn contains(&self, slot: u32, gen: u32) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|e| e.gen == gen && e.val.is_some())
    }

    /// The live entry in `slot`, if any (ignores generation).
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize).and_then(|e| e.val.as_ref())
    }

    /// Mutable access to the live entry in `slot`, if any.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots
            .get_mut(slot as usize)
            .and_then(|e| e.val.as_mut())
    }

    /// The live entry in `slot` iff its generation matches.
    #[cfg(test)]
    pub(crate) fn get_tagged(&self, slot: u32, gen: u32) -> Option<&T> {
        self.slots
            .get(slot as usize)
            .filter(|e| e.gen == gen)
            .and_then(|e| e.val.as_ref())
    }

    /// Current generation of `slot` (slots never shrink away).
    pub fn generation(&self, slot: u32) -> u32 {
        self.slots[slot as usize].gen
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// High-water mark of concurrently-live entries.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Number of allocated slots (live + free); the arena footprint.
    #[cfg(test)]
    pub(crate) fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over live entries as `(slot, generation, &value)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.val.as_ref().map(|v| (i as u32, e.gen, v)))
    }

    /// Iterates over live entries as `(slot, generation, &mut value)`.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u32, u32, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, e)| e.val.as_mut().map(|v| (i as u32, e.gen, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let (slot, gen) = s.insert("a");
        assert_eq!(s.get_tagged(slot, gen), Some(&"a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(slot), "a");
        assert!(s.is_empty());
        assert!(!s.contains(slot, gen));
    }

    #[test]
    fn slots_are_recycled_with_fresh_generations() {
        let mut s = Slab::new();
        let (s0, g0) = s.insert(1);
        s.remove(s0);
        let (s1, g1) = s.insert(2);
        assert_eq!(s0, s1, "free slot must be recycled");
        assert_ne!(g0, g1, "recycled slot must get a new generation");
        assert!(!s.contains(s0, g0), "old handle must be stale");
        assert!(s.contains(s1, g1));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = Slab::new();
        let (a, _) = s.insert(1);
        let (b, _) = s.insert(2);
        s.remove(a);
        s.remove(b);
        s.insert(3);
        assert_eq!(s.peak(), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.capacity_slots(), 2, "arena must not grow past the peak");
    }

    #[test]
    fn iter_yields_live_entries_only() {
        let mut s = Slab::new();
        let (a, _) = s.insert(10);
        let (_b, _) = s.insert(20);
        s.remove(a);
        let got: Vec<i32> = s.iter().map(|(_, _, &v)| v).collect();
        assert_eq!(got, vec![20]);
    }
}
