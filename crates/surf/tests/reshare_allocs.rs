//! A steady-state kernel event allocates nothing but the `Vec` of
//! completions it hands back: reshare, solve and the completion heap work
//! in buffers the simulation keeps.
//!
//! Own test binary because it installs a counting global allocator (the
//! library crates stay `forbid(unsafe_code)`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use surf_sim::{LinkId, Segment, Simulation, TransferModel};

struct Counting;

thread_local! {
    /// Allocations made by this thread (the harness's own threads must not
    /// leak into the count).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the only addition is a bump of a
// const-initialised, destructor-free thread-local, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HOSTS: usize = 128;
const UPLINKS: usize = 8;

/// Starts one round — flows in same-route pairs, every size different,
/// sizes straddling the model's two segments so the component is
/// mixed-bound until the small flows are gone and uniform after — and
/// drains it. Returns the events observed and the allocations made inside
/// the `advance_to_next` loop.
fn round(
    sim: &mut Simulation,
    private: &[LinkId],
    uplinks: &[LinkId],
    model: &TransferModel,
) -> (usize, usize) {
    let per_group = HOSTS / UPLINKS;
    let shift = per_group + per_group / 2;
    for flow in 0..HOSTS {
        let src = flow & !1;
        let dst = (src + shift) % HOSTS;
        let route = [
            private[src],
            uplinks[src / per_group],
            uplinks[dst / per_group],
            private[dst],
        ];
        sim.start_transfer(&route, 2e5 + 1.3e4 * flow as f64, model);
    }
    let before = ALLOCS.with(Cell::get);
    let mut events = 0;
    while let Some((_, done)) = sim.advance_to_next() {
        assert!(done.len() <= 4, "a batch that regrows its Vec would count");
        events += 1;
    }
    (events, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_warm_reshare_allocates_nothing() {
    let mut sim = Simulation::new();
    let private: Vec<_> = (0..HOSTS).map(|_| sim.add_link(125e6, 5e-5)).collect();
    let uplinks: Vec<_> = (0..UPLINKS).map(|_| sim.add_link(1.25e9, 1e-5)).collect();
    let model = TransferModel::new(vec![
        Segment {
            upper: 1e6,
            lat_factor: 1.0,
            bw_factor: 0.9,
        },
        Segment {
            upper: f64::INFINITY,
            lat_factor: 1.0,
            bw_factor: 1.0,
        },
    ]);
    let (warm_events, _) = round(&mut sim, &private, &uplinks, &model);
    let (events, allocs) = round(&mut sim, &private, &uplinks, &model);
    assert_eq!(events, warm_events, "same shape, same schedule");
    assert!(
        events >= HOSTS / 2,
        "the round should not collapse into batches"
    );
    let k = sim.kernel_profile();
    assert!(
        k.component_vars.max >= (HOSTS / 2) as f64,
        "one coupled component"
    );
    assert!(k.classes_folded > 0, "the uniform tail folds pairs");
    assert!(
        allocs <= events,
        "{allocs} allocations over {events} events: more than the returned Vec each"
    );
}
