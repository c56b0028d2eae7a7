//! RAM folding (`SMPI_SHARED_MALLOC`, paper §3.2) and memory accounting.
//!
//! Single-node on-line simulation of `m` ranks would need `m ×` the
//! application's per-rank footprint. Technique #1 of \[3\] (Adve et al.)
//! replaces per-rank arrays by one shared array: with folding enabled,
//! [`Ctx::shared_malloc`] returns every rank the *same* buffer for the same
//! allocation site, cutting the requirement from `m·s` to `s`. The
//! application then computes with corrupted data — acceptable for
//! non-data-dependent codes, exactly the paper's trade-off.
//!
//! A [`SharedSlice`]'s storage is one reference-counted block, the same
//! type a [`Payload`] views, so [`SharedSlice::share`] makes a message body
//! of the buffer without copying it. The buffer is copy-on-write: the first
//! mutable access through a [`SharedGuard`] copies the block if a body still
//! shares it, so the body keeps the elements it was shared with — a
//! snapshot, exactly what [`Payload::pack`] would have copied — and the
//! writer (every rank of a folded site) moves on to the copy. A buffer that
//! is not written while its bodies are in flight is never copied. A site's
//! buffer lives as long as a handle to it: the heap holds it weakly, and
//! its last handle — whichever rank allocated it — frees it.
//!
//! The [`MemoryTracker`] accounts both the **actual** footprint (what this
//! simulation really allocated) and the **logical** footprint (what an
//! unfolded simulation would have needed), which is how Fig. 16's
//! with/without-folding bars are produced from a single run.

use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::rc::{Rc, Weak};
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::datatype::{zeroed, Datatype, Payload};
use crate::state::SharedState;

/// Tracks simulated-application memory usage (bytes): current and peak, both
/// actual (folded) and logical (unfolded).
#[derive(Debug, Default)]
pub struct MemoryTracker {
    inner: RefCell<MemInner>,
}

#[derive(Debug, Default, Clone, Copy)]
struct MemInner {
    current: u64,
    peak: u64,
    logical_current: u64,
    logical_peak: u64,
}

/// Snapshot of the tracker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Peak bytes actually allocated by the simulation for app buffers.
    pub peak_bytes: u64,
    /// Peak bytes an unfolded simulation would have allocated.
    pub logical_peak_bytes: u64,
}

impl MemoryReport {
    /// Folding factor: logical / actual (1.0 when folding is off).
    pub fn folding_factor(&self) -> f64 {
        if self.peak_bytes == 0 {
            1.0
        } else {
            self.logical_peak_bytes as f64 / self.peak_bytes as f64
        }
    }
}

impl MemoryTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation.
    pub fn allocate(&self, actual: u64, logical: u64) {
        let mut m = self.inner.borrow_mut();
        m.current += actual;
        m.peak = m.peak.max(m.current);
        m.logical_current += logical;
        m.logical_peak = m.logical_peak.max(m.logical_current);
    }

    /// Records a deallocation.
    pub fn release(&self, actual: u64, logical: u64) {
        let mut m = self.inner.borrow_mut();
        m.current = m.current.saturating_sub(actual);
        m.logical_current = m.logical_current.saturating_sub(logical);
    }

    /// Current + peak usage.
    pub fn report(&self) -> MemoryReport {
        let m = self.inner.borrow();
        MemoryReport {
            peak_bytes: m.peak,
            logical_peak_bytes: m.logical_peak,
        }
    }
}

/// Type-erased buffer of the folded heap. Weak: a site's buffer lives as
/// long as a handle to it does, not as long as the run.
type HeapEntry = Weak<dyn Any>;

/// An application buffer: the cell every rank of a folded site borrows
/// through, around the block that bodies shared from the buffer also hold.
/// It accounts the bytes it really allocated, and releases them when its
/// last handle drops.
struct Buffer<T> {
    block: RefCell<Arc<Vec<T>>>,
    /// Fixed at allocation, so reading it takes no borrow.
    len: usize,
    site: Box<str>,
    /// Keeps the memory tracker alive, so dropping releases into it.
    shared: Rc<SharedState>,
    bytes: u64,
}

impl<T: Datatype> Buffer<T> {
    /// A zero-filled buffer of `len` elements for `site`, counted as
    /// actually allocated (calloc'd and advised huge pages: its pages are
    /// faulted in by their first write, not here).
    fn new(shared: &Rc<SharedState>, site: &str, len: usize) -> Rc<Buffer<T>> {
        let bytes = (len * T::SIZE) as u64;
        shared.memory.allocate(bytes, 0);
        Rc::new(Buffer {
            block: RefCell::new(Arc::new(zeroed(len))),
            len,
            site: site.into(),
            shared: Rc::clone(shared),
            bytes,
        })
    }

    /// Borrows the block, or panics naming the site if a guard is alive:
    /// waiting would hang the one thread every rank runs on.
    fn lock(&self) -> RefMut<'_, Arc<Vec<T>>> {
        self.block.try_borrow_mut().unwrap_or_else(|_| {
            panic!(
                "shared buffer `{}` is locked by a rank suspended in an MPI call; \
                 drop the guard before calling MPI",
                self.site
            )
        })
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        self.shared.memory.release(self.bytes, 0);
    }
}

/// The folded allocation table, keyed by allocation site.
#[derive(Default)]
pub struct SharedHeap {
    inner: RefCell<HashMap<String, HeapEntry>>,
}

impl std::fmt::Debug for SharedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedHeap({} sites)", self.inner.borrow().len())
    }
}

impl SharedHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// The site's live buffer, or a fresh one when no handle to the site
    /// is left. The length check reads the buffer's fixed length, not the
    /// block, so it holds while a rank has the buffer locked.
    fn get_or_insert<T: Datatype>(
        &self,
        shared: &Rc<SharedState>,
        site: &str,
        len: usize,
    ) -> Rc<Buffer<T>> {
        let mut map = self.inner.borrow_mut();
        if let Some(entry) = map.get(site).and_then(Weak::upgrade) {
            let buf = entry
                .downcast::<Buffer<T>>()
                .expect("shared_malloc site reused with a different element type");
            assert_eq!(
                buf.len, len,
                "shared_malloc site {site:?} reused with a different length"
            );
            buf
        } else {
            let buf = Buffer::new(shared, site, len);
            map.insert(site.to_string(), Rc::downgrade(&buf) as HeapEntry);
            buf
        }
    }
}

/// A buffer returned by [`Ctx::shared_malloc`]. With folding on, all ranks
/// using the same site observe (and clobber) the same storage, which is
/// freed — and released from the actual footprint — when the last of their
/// handles drops. Access is a `RefCell` borrow, held by a [`SharedGuard`].
/// Ranks run one at a time on one thread, so the buffer is free exactly
/// when no rank is suspended holding a guard: a guard must be dropped
/// before the next MPI call. One held across a call cannot be waited for —
/// the holder only resumes once this rank yields — so [`lock`](Self::lock)
/// panics in the rank that finds it taken.
///
/// [`share`](Self::share) sends the buffer without copying it: the body
/// and the buffer hold one block until the next write through a guard
/// copies it (see the module docs).
pub struct SharedSlice<T: Datatype> {
    data: Rc<Buffer<T>>,
}

impl<T: Datatype> SharedSlice<T> {
    /// A handle to `data`: one rank's allocation of it, as an unfolded run
    /// would have made it.
    fn new(data: Rc<Buffer<T>>) -> Self {
        data.shared.memory.allocate(0, data.bytes);
        SharedSlice { data }
    }

    /// Locks the buffer for reading/writing. Drop the guard before the
    /// next MPI call; panics if another guard of the buffer is alive.
    pub fn lock(&self) -> SharedGuard<'_, T> {
        SharedGuard(self.data.lock())
    }

    /// The whole buffer as a message body, without a copy: the body shares
    /// the buffer's block, and the buffer copies it on its next write while
    /// the body is alive. [`Payload::slice`] narrows it to the elements to
    /// send. Panics, like [`lock`](Self::lock), if a guard is alive.
    pub fn share(&self) -> Payload {
        T::wrap(Arc::clone(&self.data.lock()), 0..self.data.len)
    }

    /// Buffer length in elements. Takes no borrow, so it works under a guard.
    pub fn len(&self) -> usize {
        self.data.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A locked [`SharedSlice`], from [`SharedSlice::lock`]: dereferences to
/// the buffer's elements. Reading shares the block with any body in
/// flight; the first mutable access copies the block if a body still holds
/// it (`Arc::make_mut`), so bodies keep what they were shared with.
pub struct SharedGuard<'a, T: Datatype>(RefMut<'a, Arc<Vec<T>>>);

impl<T: Datatype> Deref for SharedGuard<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T: Datatype> DerefMut for SharedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut *self.0).as_mut_slice()
    }
}

impl<T: Datatype> Drop for SharedSlice<T> {
    fn drop(&mut self) {
        self.data.shared.memory.release(0, self.data.bytes);
    }
}

impl Ctx<'_> {
    /// `SMPI_SHARED_MALLOC`: allocates `len` elements for allocation site
    /// `site`. With folding enabled, all ranks share one buffer per site
    /// while any of them holds it (`SMPI_FREE` is the handle's `Drop`; a
    /// site allocated again after its last free is a fresh, zeroed
    /// buffer). Without folding each rank gets a private buffer, so the
    /// tracker exposes the true unfolded footprint.
    pub fn shared_malloc<T: Datatype>(&self, site: &str, len: usize) -> SharedSlice<T> {
        // Local simcall tier: the folded-heap lookup stays inside the rank;
        // allocation involves no switch to the maestro.
        self.shared.count_local_call();
        let data = if self.shared.config.ram_folding {
            self.shared.heap.get_or_insert(&self.shared, site, len)
        } else {
            Buffer::new(&self.shared, site, len)
        };
        SharedSlice::new(data)
    }

    /// A tracked private allocation (ordinary rank-local buffer that should
    /// count towards the footprint of Fig. 16).
    pub fn tracked_vec<T: Datatype>(&self, len: usize) -> SharedSlice<T> {
        SharedSlice::new(Buffer::new(&self.shared, "tracked_vec", len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accounts_peaks() {
        let t = MemoryTracker::new();
        t.allocate(100, 400);
        t.allocate(50, 50);
        t.release(100, 400);
        t.allocate(20, 20);
        let r = t.report();
        assert_eq!(r.peak_bytes, 150);
        assert_eq!(r.logical_peak_bytes, 450);
        assert!((r.folding_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn release_saturates() {
        let t = MemoryTracker::new();
        t.release(10, 10);
        assert_eq!(t.report().peak_bytes, 0);
    }

    fn state() -> Rc<SharedState> {
        Rc::new(SharedState::new(crate::state::RunConfig::default()))
    }

    #[test]
    fn heap_folds_same_site() {
        let shared = state();
        let a = shared.heap.get_or_insert::<f64>(&shared, "s", 8);
        let b = shared.heap.get_or_insert::<f64>(&shared, "s", 8);
        assert!(Rc::ptr_eq(&a, &b));
        // One block is allocated and counted, by the first call.
        assert_eq!(shared.memory.report().peak_bytes, 64);
        Arc::make_mut(&mut a.lock())[0] = 42.0;
        assert_eq!(b.lock()[0], 42.0);
    }

    #[test]
    fn heap_distinguishes_sites() {
        let shared = state();
        let a = shared.heap.get_or_insert::<u32>(&shared, "a", 4);
        let b = shared.heap.get_or_insert::<u32>(&shared, "b", 4);
        assert!(!Rc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic]
    fn heap_rejects_len_mismatch() {
        let shared = state();
        let _a = shared.heap.get_or_insert::<u32>(&shared, "a", 4);
        let _ = shared.heap.get_or_insert::<u32>(&shared, "a", 8);
    }
}
