//! The one counting global allocator of the suite's allocation pins
//! (`frame_allocs`, `payload_passes`, `pingpong_allocs`, `replay_allocs`,
//! `reshare_allocs`). A pin is its own test binary and installs this
//! allocator by declaring `mod alloc;`; the library crates stay
//! `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;

/// What [`tally`] counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Blocks of at least the threshold allocated or grown.
    pub blocks: usize,
    /// Their bytes (a grown block counts its new size).
    pub bytes: usize,
    /// The largest block of any size.
    pub largest: usize,
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks, {} B, largest {} B",
            self.blocks, self.bytes, self.largest
        )
    }
}

thread_local! {
    /// The threshold while [`tally`] runs on this thread; `None` outside
    /// it, and on the harness's other threads, which count nothing.
    static MIN_SIZE: Cell<Option<usize>> = const { Cell::new(None) };
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            blocks: 0,
            bytes: 0,
            largest: 0,
        })
    };
}

/// Counts the blocks of at least `min_size` bytes that `f` allocates or
/// grows on this thread (a run's ranks are fibers on it).
pub fn tally<R>(min_size: usize, f: impl FnOnce() -> R) -> (R, Tally) {
    TALLY.with(|t| t.set(Tally::default()));
    MIN_SIZE.with(|m| m.set(Some(min_size)));
    let out = f();
    MIN_SIZE.with(|m| m.set(None));
    (out, TALLY.with(Cell::get))
}

fn count(size: usize) {
    if let Some(min_size) = MIN_SIZE.with(Cell::get) {
        TALLY.with(|t| {
            let mut n = t.get();
            n.largest = n.largest.max(size);
            if size >= min_size {
                n.blocks += 1;
                n.bytes += size;
            }
            t.set(n);
        });
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the only addition is an update of
// const-initialised, destructor-free thread-locals, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
