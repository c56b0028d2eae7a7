//! The calibration ping-pong carries sizes, not buffers: a 16 MiB round
//! trip on the packet-level testbed allocates no block of a MiB or more
//! (no send buffer, no receive buffer, no message body).
//!
//! Own test binary because it installs a counting global allocator (the
//! library crates stay `forbid(unsafe_code)`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use smpi::{MpiProfile, World};
use smpi_calibrate::pingpong;
use smpi_platform::{griffon, RoutedPlatform};

struct Counting;

const MIB: usize = 1 << 20;

thread_local! {
    /// Set while [`pingpong`] runs (its ranks are fibers on this thread;
    /// the harness's other threads count nothing).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LARGE_BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    if COUNTING.with(Cell::get) {
        LARGEST.with(|n| n.set(n.get().max(size)));
        if size >= MIB {
            LARGE_BLOCKS.with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the only addition is a bump of
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

#[test]
fn a_16_mib_pingpong_allocates_no_large_block() {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    let testbed = World::testbed(rp, MpiProfile::openmpi_like());
    COUNTING.with(|c| c.set(true));
    let samples = pingpong(&testbed, 0, 1, &[16 * MIB as u64], 1);
    COUNTING.with(|c| c.set(false));
    assert!(samples[0].time > 0.1, "16 MiB at ~1 Gb/s: {samples:?}");
    let (blocks, largest) = (LARGE_BLOCKS.with(Cell::get), LARGEST.with(Cell::get));
    assert_eq!(blocks, 0, "{blocks} blocks of ≥ 1 MiB, largest {largest} B");
}
