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
//! is not written while its bodies are in flight is never copied.
//!
//! The [`MemoryTracker`] accounts both the **actual** footprint (what this
//! simulation really allocated) and the **logical** footprint (what an
//! unfolded simulation would have needed), which is how Fig. 16's
//! with/without-folding bars are produced from a single run.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use crate::ctx::Ctx;
use crate::datatype::{Datatype, Payload};
use crate::state::lock;

/// Tracks simulated-application memory usage (bytes): current and peak, both
/// actual (folded) and logical (unfolded).
#[derive(Debug, Default)]
pub struct MemoryTracker {
    inner: Mutex<MemInner>,
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
        let mut m = lock(&self.inner);
        m.current += actual;
        m.peak = m.peak.max(m.current);
        m.logical_current += logical;
        m.logical_peak = m.logical_peak.max(m.logical_current);
    }

    /// Records a deallocation.
    pub fn release(&self, actual: u64, logical: u64) {
        let mut m = lock(&self.inner);
        m.current = m.current.saturating_sub(actual);
        m.logical_current = m.logical_current.saturating_sub(logical);
    }

    /// Current + peak usage.
    pub fn report(&self) -> MemoryReport {
        let m = lock(&self.inner);
        MemoryReport {
            peak_bytes: m.peak,
            logical_peak_bytes: m.logical_peak,
        }
    }
}

/// Type-erased entry of the folded heap.
type HeapEntry = Arc<dyn std::any::Any + Send + Sync>;

/// An application buffer: the lock every rank of a folded site goes
/// through, around the block that bodies shared from the buffer also hold.
type Buffer<T> = Mutex<Arc<Vec<T>>>;

/// A zero-filled buffer of `len` elements (calloc'd: pages are faulted in
/// by their first write, not here).
fn new_buffer<T: Datatype>(len: usize) -> Arc<Buffer<T>> {
    Arc::new(Mutex::new(Arc::new(vec![T::default(); len])))
}

/// The folded allocation table, keyed by allocation site.
#[derive(Default)]
pub struct SharedHeap {
    inner: Mutex<HashMap<String, HeapEntry>>,
}

impl std::fmt::Debug for SharedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedHeap({} sites)", lock(&self.inner).len())
    }
}

impl SharedHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T: Datatype>(&self, site: &str, len: usize) -> (Arc<Buffer<T>>, bool) {
        let mut map = lock(&self.inner);
        if let Some(entry) = map.get(site) {
            let arc = entry
                .clone()
                .downcast::<Buffer<T>>()
                .expect("shared_malloc site reused with a different element type");
            assert_eq!(
                lock_buffer(&arc, site).len(),
                len,
                "shared_malloc site {site:?} reused with a different length"
            );
            (arc, false)
        } else {
            let arc = new_buffer(len);
            map.insert(site.to_string(), arc.clone() as HeapEntry);
            (arc, true)
        }
    }
}

/// Locks an application buffer, or panics naming `site` if a guard is alive:
/// blocking would hang the one thread every rank runs on. Poisoning is
/// ignored as in [`lock`].
fn lock_buffer<'a, T>(data: &'a Buffer<T>, site: &str) -> MutexGuard<'a, Arc<Vec<T>>> {
    match data.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => panic!(
            "shared buffer `{site}` is locked by a rank suspended in an MPI call; \
             drop the guard before calling MPI"
        ),
    }
}

/// A buffer returned by [`Ctx::shared_malloc`]. With folding on, all ranks
/// using the same site observe (and clobber) the same storage. Access goes
/// through a lock. Ranks run one at a time on one thread, so the lock is
/// free exactly when no rank is suspended holding it: a guard must be
/// dropped before the next MPI call. One held across a call cannot be
/// waited for — the holder only resumes once this rank yields — so
/// [`lock`](Self::lock) panics in the rank that finds it taken.
///
/// [`share`](Self::share) sends the buffer without copying it: the body
/// and the buffer hold one block until the next write through a guard
/// copies it (see the module docs).
pub struct SharedSlice<T: Datatype> {
    data: Arc<Buffer<T>>,
    /// Fixed at allocation, so reading it takes no lock.
    len: usize,
    site: Box<str>,
    tracker: Arc<TrackerRef>,
    actual: u64,
    logical: u64,
}

/// Keeps the tracker alive and lets `SharedSlice` release on drop.
struct TrackerRef {
    shared: Arc<crate::state::SharedState>,
}

impl<T: Datatype> SharedSlice<T> {
    /// Locks the buffer for reading/writing. Drop the guard before the
    /// next MPI call; panics if another guard of the buffer is alive.
    pub fn lock(&self) -> SharedGuard<'_, T> {
        SharedGuard(lock_buffer(&self.data, &self.site))
    }

    /// The whole buffer as a message body, without a copy: the body shares
    /// the buffer's block, and the buffer copies it on its next write while
    /// the body is alive. [`Payload::slice`] narrows it to the elements to
    /// send. Panics, like [`lock`](Self::lock), if a guard is alive.
    pub fn share(&self) -> Payload {
        T::wrap(
            Arc::clone(&lock_buffer(&self.data, &self.site)),
            0..self.len,
        )
    }

    /// Buffer length in elements. Takes no lock.
    pub fn len(&self) -> usize {
        self.len
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
pub struct SharedGuard<'a, T: Datatype>(MutexGuard<'a, Arc<Vec<T>>>);

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
        self.tracker
            .shared
            .memory
            .release(self.actual, self.logical);
    }
}

impl Ctx<'_> {
    /// `SMPI_SHARED_MALLOC`: allocates `len` elements for allocation site
    /// `site`. With folding enabled, all ranks share one buffer per site
    /// (`SMPI_FREE` is the handle's `Drop`). Without folding each rank gets
    /// a private buffer, so the tracker exposes the true unfolded footprint.
    pub fn shared_malloc<T: Datatype>(&self, site: &str, len: usize) -> SharedSlice<T> {
        // Local simcall tier: the folded-heap lookup stays inside the rank;
        // allocation involves no switch to the maestro.
        self.shared.count_local_call();
        let bytes = (len * T::SIZE) as u64;
        let (data, actual) = if self.shared.config.ram_folding {
            let (arc, fresh) = self.shared.heap.get_or_insert::<T>(site, len);
            (arc, if fresh { bytes } else { 0 })
        } else {
            (new_buffer(len), bytes)
        };
        self.shared.memory.allocate(actual, bytes);
        SharedSlice {
            data,
            len,
            site: site.into(),
            tracker: Arc::new(TrackerRef {
                shared: Arc::clone(&self.shared),
            }),
            actual,
            logical: bytes,
        }
    }

    /// A tracked private allocation (ordinary rank-local buffer that should
    /// count towards the footprint of Fig. 16).
    pub fn tracked_vec<T: Datatype>(&self, len: usize) -> SharedSlice<T> {
        let bytes = (len * T::SIZE) as u64;
        self.shared.memory.allocate(bytes, bytes);
        SharedSlice {
            data: new_buffer(len),
            len,
            site: "tracked_vec".into(),
            tracker: Arc::new(TrackerRef {
                shared: Arc::clone(&self.shared),
            }),
            actual: bytes,
            logical: bytes,
        }
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

    #[test]
    fn heap_folds_same_site() {
        let h = SharedHeap::new();
        let (a, fresh_a) = h.get_or_insert::<f64>("s", 8);
        let (b, fresh_b) = h.get_or_insert::<f64>("s", 8);
        assert!(fresh_a);
        assert!(!fresh_b);
        assert!(Arc::ptr_eq(&a, &b));
        Arc::make_mut(&mut lock(&a))[0] = 42.0;
        assert_eq!(lock(&b)[0], 42.0);
    }

    #[test]
    fn heap_distinguishes_sites() {
        let h = SharedHeap::new();
        let (a, _) = h.get_or_insert::<u32>("a", 4);
        let (b, _) = h.get_or_insert::<u32>("b", 4);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic]
    fn heap_rejects_len_mismatch() {
        let h = SharedHeap::new();
        let _ = h.get_or_insert::<u32>("a", 4);
        let _ = h.get_or_insert::<u32>("a", 8);
    }
}
