//! Stackful coroutines on the calling thread — the one module of the
//! workspace that contains `unsafe`.
//!
//! A [`Fiber`] is a private stack plus one saved stack pointer.
//! [`Fiber::resume`] switches the calling thread onto that stack and returns
//! when the body calls [`suspend`] or ends; nothing else ever runs in
//! between, which is all the "sequential, under the control of the kernel"
//! contract of the paper (§5.1) asks for.
//!
//! **Memory.** One anonymous `mmap` per stack, lowest page `PROT_NONE`:
//!
//! ```text
//!  base                base + PAGE                                  base + len
//!  | guard (PROT_NONE) | stack, grows down <-- first frame | Control |
//! ```
//!
//! The pages are untouched until the stack grows into them (no zero-fill),
//! an overflow faults on the guard instead of reaching a neighbour's stack,
//! and a stack costs two kernel mappings (`vm.max_map_count` bounds the
//! stacks a process holds at ~32k by default).
//!
//! A mapping outlives its fiber. When a fiber ends, its whole mapping, guard
//! page still `PROT_NONE`, joins a spare list of the thread it ran on, one
//! list per mapping length, and the next [`Fiber::new`] of that length takes
//! it instead of calling the kernel: a repeated run of the same size maps,
//! protects, unmaps and faults in nothing new. Only an ended fiber gives a
//! mapping back, so the live and spare stacks of a thread never outnumber
//! the most fibers it had live at once, and a spare keeps the pages its last
//! fiber touched resident. The spares are unmapped when the thread exits.
//!
//! **Switch.** [`switch`] pushes the six callee-saved registers of the
//! System V x86-64 ABI (`rbp rbx r12 r13 r14 r15`), exchanges `rsp` with the
//! slot it is given, pops six and returns — on the other stack. Everything
//! else is caller-saved, so the compiler has already spilled it around the
//! call. MXCSR and the x87 control word are not saved: both sides run code of
//! the same program under the same settings.
//!
//! **First frame.** A new fiber's stack is seeded so that the first switch
//! "returns" into [`entry`]: six zero register slots, then `entry`'s
//! address, then a null return address that ends backtraces. All eight words
//! are written, as a recycled stack holds whatever its last fiber left.
//! `top` is 16-byte aligned, so `entry` starts with `rsp ≡ 8 (mod 16)`,
//! exactly as after a `call`.
//!
//! **Panics and kills.** A panic in the body is caught at the fiber's base
//! (the unwinder never crosses a switch) and handed to the resumer. Dropping
//! a suspended fiber resumes it with the kill flag up; [`suspend`] then
//! raises [`Killed`] *without* the panic hook, the fiber's frames unwind —
//! destructors run — and the base swallows the marker. That is safe while
//! the resumer is itself unwinding: the marker never leaves the fiber's
//! stack, so no second panic meets the first.
//!
//! **Porting.** Another target supplies `switch` (save the callee-saved
//! registers, exchange the stack pointer through `*slot`, restore, return),
//! the matching first frame in [`Fiber::new`], and `MAP_PRIVATE_ANON`.
//!
//! **Huge-page advice.** The module also declares `madvise`, for one safe
//! wrapper that has nothing to do with fibers: [`advise_huge_pages`] marks
//! the whole 2 MiB extents of a block the runtime has just allocated for
//! application data `MADV_HUGEPAGE`, so its first write faults it in 2 MiB
//! at a time. Fiber stacks are not advised: they are touched sparsely, and
//! a huge page would make each one's resident size 2 MiB.

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "simix fibers are implemented for x86-64 unix only; a port supplies \
     `fiber::switch` (callee-saved registers, stack-pointer exchange) and the \
     first-frame layout seeded by `Fiber::new` in crates/simix/src/fiber.rs"
);

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

const PAGE: usize = 4096;
const MAX_STACK: usize = 1 << 40;
const PROT_NONE: i32 = 0;
const PROT_RW: i32 = 1 | 2;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_PRIVATE_ANON: i32 = 0x02 | 0x20;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_PRIVATE_ANON: i32 = 0x02 | 0x1000; // the BSD family, macOS included
#[cfg(any(target_os = "linux", target_os = "android"))]
const MADV_HUGEPAGE: i32 = 14;
/// The x86-64 PMD size: the extent one transparent huge page maps.
const HUGE_PAGE: usize = 2 << 20;

// Declared here rather than through the `libc` crate: the build is offline,
// and std already links the C library these come from.
extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
}

/// Exchanges the running stack with the one saved in `*slot`.
///
/// # Safety
/// `*slot` must hold a stack pointer left there by an earlier `switch`, or
/// the first frame seeded by [`Fiber::new`], on a stack that is still mapped
/// and is not running; and the caller must be on the thread that stack
/// belongs to.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(slot: *mut *mut u8) {
    core::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "mov rax, [rdi]",
        "mov [rdi], rsp",
        "mov rsp, rax",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
    )
}

/// Per-fiber bookkeeping, at the top of the fiber's own mapping (a stable
/// address both sides can reach). Aligned so the stack below starts aligned.
#[repr(align(16))]
struct Control {
    /// Stack pointer of the side that is *not* running.
    other_sp: Cell<*mut u8>,
    /// The body has returned or unwound: the stack holds no live frame.
    done: Cell<bool>,
    kill: Cell<bool>,
    /// Taken by [`entry`]: still present means the fiber never started.
    body: Cell<Option<Box<dyn FnOnce()>>>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

thread_local! {
    /// The innermost fiber running on this thread, null outside any.
    static CURRENT: Cell<*const Control> = const { Cell::new(ptr::null()) };
    /// The stacks of fibers that ended on this thread.
    static SPARES: Spares = const { Spares(RefCell::new(Vec::new())) };
}

/// Whole stack mappings, guard page included, that no fiber holds: the bases
/// of each mapping length in one list, for the next fiber of that length.
struct Spares(RefCell<Vec<(usize, Vec<NonNull<u8>>)>>);

impl Spares {
    fn take(&self, len: usize) -> Option<NonNull<u8>> {
        let mut lists = self.0.borrow_mut();
        lists.iter_mut().find(|(l, _)| *l == len)?.1.pop()
    }

    fn put(&self, len: usize, base: NonNull<u8>) {
        let mut lists = self.0.borrow_mut();
        match lists.iter_mut().find(|(l, _)| *l == len) {
            Some((_, bases)) => bases.push(base),
            None => lists.push((len, vec![base])),
        }
    }
}

impl Drop for Spares {
    /// Runs when the thread exits: gives every spare back to the kernel.
    fn drop(&mut self) {
        for (len, bases) in self.0.get_mut().drain(..) {
            for base in bases {
                // SAFETY: a spare is a whole mapping of `len` bytes that no
                // fiber holds and nothing points into.
                unsafe { munmap(base.as_ptr(), len) };
            }
        }
    }
}

/// Unwinds a suspended fiber whose owner is dropped; never leaves the fiber.
struct Killed;

/// A coroutine with its own guarded stack, bound to the thread that made it
/// (the raw pointers keep it — and whatever owns it — `!Send`).
pub(crate) struct Fiber {
    /// At the very top of the mapping, which is `len` bytes long.
    ctl: NonNull<Control>,
    len: usize,
}

impl Fiber {
    /// Takes a stack of `stack_size` bytes rounded up to whole pages, plus
    /// one guard page — a spare of that length if the thread has one, a
    /// fresh mapping otherwise — and seeds it to run `body` on the first
    /// [`resume`](Self::resume). Panics if the kernel refuses the mapping.
    pub(crate) fn new(stack_size: usize, body: Box<dyn FnOnce()>) -> Fiber {
        assert!(stack_size <= MAX_STACK, "actor stack size above 1 TiB");
        let len = stack_size.max(1).next_multiple_of(PAGE) + PAGE;
        let spare = SPARES.try_with(|spares| spares.take(len)).ok().flatten();
        let base = spare.unwrap_or_else(|| map_stack(len)).as_ptr();
        // SAFETY: all offsets stay inside the `len - PAGE >= PAGE` writable
        // bytes above the guard, which no fiber holds. `base + len` is
        // page-aligned and `Control`'s size is a multiple of its 16-byte
        // alignment, so `ctl` and `top` are 16-aligned. The eight words below
        // `top` are the first frame described in the module docs.
        unsafe {
            let ctl = base.add(len).cast::<Control>().sub(1);
            let top = ctl.cast::<usize>();
            top.sub(1).write(0);
            top.sub(2).write(entry as *const () as usize);
            ptr::write_bytes(top.sub(8), 0, 6);
            ctl.write(Control {
                other_sp: Cell::new(top.sub(8).cast()),
                done: Cell::new(false),
                kill: Cell::new(false),
                body: Cell::new(Some(body)),
                panic: Cell::new(None),
            });
            let ctl = NonNull::new_unchecked(ctl);
            Fiber { ctl, len }
        }
    }

    fn ctl(&self) -> &Control {
        // SAFETY: written by `new`, dropped only by `drop`, inside a mapping
        // this fiber owns for its whole life.
        unsafe { self.ctl.as_ref() }
    }

    /// Runs the fiber on the calling thread until it suspends (`Ok(false)`)
    /// or its body returns (`Ok(true)`); a panic of the body comes back as
    /// `Err` with the original payload. Panics on a fiber that has ended.
    pub(crate) fn resume(&mut self) -> std::thread::Result<bool> {
        let ctl = self.ctl();
        assert!(!ctl.done.get(), "resuming a finished fiber");
        let outer = CURRENT.replace(self.ctl.as_ptr());
        // SAFETY: not done, so `other_sp` holds the seeded first frame or the
        // pointer `suspend` left there, on a stack this fiber keeps mapped.
        // A `Fiber` is `!Send` and `&mut self` rules out re-entry (the
        // running fiber's resumer holds the borrow), so this is the owning
        // thread and the stack is not running.
        unsafe { switch(ctl.other_sp.as_ptr()) };
        CURRENT.set(outer);
        ctl.panic.take().map_or(Ok(ctl.done.get()), Err)
    }
}

impl Drop for Fiber {
    /// Frees a fiber that never started without running it; unwinds one
    /// that is suspended mid-body so its destructors run. A body that
    /// catches the kill and suspends again is simply killed again; what it
    /// panics with while being killed is dropped.
    fn drop(&mut self) {
        let started = self.ctl().body.take().is_none();
        self.ctl().kill.set(true);
        while started && !self.ctl().done.get() {
            let _ = self.resume();
        }
        // SAFETY: never started or done: no frame lives on the stack and
        // `CURRENT` does not point here. `ctl` was written by `new` and is
        // dropped once, here; then exactly the mapping `new` took is handed
        // on, to the spares of this thread (a `Fiber` is `!Send`, so the one
        // it was made on) or, once they are gone at thread exit, to `munmap`.
        // An error of `munmap` would leak the mapping, which is all `drop`
        // can do about it.
        unsafe {
            ptr::drop_in_place(self.ctl.as_ptr());
            let base = self.ctl.add(1).cast::<u8>().sub(self.len);
            if SPARES
                .try_with(|spares| spares.put(self.len, base))
                .is_err()
            {
                munmap(base.as_ptr(), self.len);
            }
        }
    }
}

/// Maps `len` bytes whose lowest page is the guard. Panics if the kernel
/// refuses.
fn map_stack(len: usize) -> NonNull<u8> {
    // SAFETY: a fresh private anonymous mapping at an address of the
    // kernel's choosing aliases nothing.
    let base = unsafe { mmap(ptr::null_mut(), len, PROT_RW, MAP_PRIVATE_ANON, -1, 0) };
    if base as isize == -1 {
        map_failed(std::io::Error::last_os_error(), "mmap", len);
    }
    // SAFETY: `base..base + PAGE` is the bottom of the mapping just made
    // and nothing points into it yet.
    if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
        let err = std::io::Error::last_os_error();
        // SAFETY: unmaps exactly the mapping made above, still unused.
        unsafe { munmap(base, len) };
        map_failed(err, "mprotect", len);
    }
    // SAFETY: `mmap` succeeded, so `base` is not null.
    unsafe { NonNull::new_unchecked(base) }
}

/// Suspends the innermost running fiber: its `resume` returns `Ok(false)`,
/// and this call returns when it is resumed next. Panics outside a fiber.
/// Called while the fiber is being killed (from a destructor), it unwinds
/// again — inside a destructor that is an abort, so destructors of actor
/// code must not suspend when `std::thread::panicking()`.
pub(crate) fn suspend() {
    // SAFETY: `CURRENT` is non-null only between `resume`'s switch and its
    // return, while the fiber it names is running — this code is on that
    // fiber's stack, and `resume` borrows the `Fiber` for the whole time.
    let ctl = unsafe { CURRENT.get().as_ref() }.expect("simcall outside an actor");
    // SAFETY: `other_sp` holds the pointer the resumer's `switch` saved; the
    // resumer is suspended inside `resume` on this same thread.
    unsafe { switch(ctl.other_sp.as_ptr()) };
    if ctl.kill.get() {
        resume_unwind(Box::new(Killed));
    }
}

/// Base frame of every fiber, entered by the first switch (see the module
/// docs for the frame that leads here).
extern "sysv64" fn entry() -> ! {
    // SAFETY: only `resume` switches to a fresh stack, after pointing
    // `CURRENT` at that fiber's control block.
    let ctl = unsafe { &*CURRENT.get() };
    let body = ctl.body.take().expect("a fresh fiber has its body");
    // A `Killed` lands here too; only `drop` kills, and it discards this.
    ctl.panic.set(catch_unwind(AssertUnwindSafe(body)).err());
    ctl.done.set(true);
    // SAFETY: as in `suspend`. A done fiber is never resumed, so this call
    // does not return.
    unsafe { switch(ctl.other_sp.as_ptr()) };
    std::process::abort()
}

/// Advises `MADV_HUGEPAGE` on the whole 2 MiB extents of `block` — the
/// initialised elements of a fresh block, or the spare capacity of a fresh
/// `Vec` — so that the first write faults each extent in as one huge page,
/// not 512 small ones. Call it before anything writes the block: a page
/// already faulted in stays small until the kernel's background collapse
/// gets to it. A block without one whole aligned extent (under 2 MiB, or
/// straddling two) is left alone, and so are its unaligned head and tail.
///
/// It is a hint and nothing more. Advice never changes what memory holds,
/// so any block may be passed; a refused call (transparent huge pages
/// compiled out) is ignored, with THP `never` the advice has no effect, and
/// with THP `always` it is what the kernel does anyway. A no-op off Linux.
pub fn advise_huge_pages<T>(block: &[T]) {
    let interior = huge_page_interior(block.as_ptr() as usize, std::mem::size_of_val(block));
    if interior.is_empty() {
        return;
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    // SAFETY: `MADV_HUGEPAGE` changes how the range's pages are backed,
    // never their contents, and the range lies inside `block`, which the
    // caller borrows: it is this process's memory, mapped. The result is
    // ignored on purpose (see the docs).
    unsafe {
        madvise(interior.start as *mut u8, interior.len(), MADV_HUGEPAGE);
    }
}

/// The 2 MiB-aligned interior of the `bytes` bytes at `addr`:
/// `[align_up(addr), align_down(addr + bytes))`, empty when it holds no
/// whole extent.
pub(crate) fn huge_page_interior(addr: usize, bytes: usize) -> Range<usize> {
    let start = addr.next_multiple_of(HUGE_PAGE);
    let end = (addr + bytes) / HUGE_PAGE * HUGE_PAGE;
    start..end.max(start)
}

fn map_failed(err: std::io::Error, call: &str, len: usize) -> ! {
    panic!(
        "{call} of a {len}-byte actor stack failed: {err}; every stack a thread holds, live \
         or spare, is 2 memory mappings — check `sysctl vm.max_map_count` and `ulimit -v`"
    )
}

#[cfg(test)]
mod tests {
    use super::{huge_page_interior, Fiber, HUGE_PAGE};

    const MIB: usize = 1 << 20;

    #[test]
    fn an_ended_fibers_stack_goes_to_the_next_fiber_of_its_length() {
        let mut ran = Fiber::new(64 * 1024, Box::new(|| {}));
        assert_eq!(ran.resume().ok(), Some(true));
        let top = ran.ctl;
        drop(ran);
        let larger = Fiber::new(128 * 1024, Box::new(|| {}));
        assert_ne!(larger.ctl, top, "a 64 KiB spare served a 128 KiB stack");
        let never_started = Fiber::new(64 * 1024, Box::new(|| unreachable!()));
        assert_eq!(never_started.ctl, top, "the spare was not reused");
        drop(never_started);
        let mut again = Fiber::new(64 * 1024, Box::new(|| {}));
        assert_eq!(
            again.ctl, top,
            "a never-started fiber kept its stack from the spares"
        );
        assert_eq!(again.resume().ok(), Some(true));
    }

    #[test]
    fn a_block_without_a_whole_extent_has_no_interior() {
        for (addr, bytes) in [
            (0, 0),
            (HUGE_PAGE, 0),
            (HUGE_PAGE, HUGE_PAGE - 1),
            (HUGE_PAGE + 16, HUGE_PAGE),
            // 2 MiB straddling two extents covers neither whole.
            (3 * MIB, 2 * MIB),
            (3 * MIB, 3 * MIB - 1),
            (16, 64 * 1024),
        ] {
            assert!(
                huge_page_interior(addr, bytes).is_empty(),
                "{addr:#x}+{bytes}"
            );
        }
    }

    #[test]
    fn an_unaligned_block_keeps_its_whole_extents() {
        let base = 7 * HUGE_PAGE;
        // glibc's 16-byte chunk header in front of a fresh mapping.
        assert_eq!(
            huge_page_interior(base + 16, 8 * MIB),
            base + HUGE_PAGE..base + 4 * HUGE_PAGE
        );
        assert_eq!(
            huge_page_interior(base + HUGE_PAGE - 1, HUGE_PAGE + 1),
            base + HUGE_PAGE..base + 2 * HUGE_PAGE
        );
        assert_eq!(
            huge_page_interior(base + 3 * MIB, 128 * MIB),
            base + 4 * MIB..base + 130 * MIB
        );
    }

    #[test]
    fn an_aligned_block_is_its_own_interior() {
        let base = 5 * HUGE_PAGE;
        assert_eq!(huge_page_interior(base, HUGE_PAGE), base..base + HUGE_PAGE);
        assert_eq!(huge_page_interior(base, 128 * MIB), base..base + 128 * MIB);
        // An aligned start with a ragged end drops only the tail.
        assert_eq!(huge_page_interior(base, 3 * MIB), base..base + HUGE_PAGE);
    }
}
