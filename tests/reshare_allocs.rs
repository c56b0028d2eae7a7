//! A steady-state kernel event allocates nothing but the `Vec` of
//! completions it hands back: reshare, solve and the completion heap work
//! in buffers the simulation keeps.

mod alloc;

use surf_sim::{LinkId, Segment, Simulation, TransferModel};

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
    let (events, tally) = alloc::tally(0, || {
        let mut events = 0;
        while let Some((_, done)) = sim.advance_to_next() {
            assert!(done.len() <= 4, "a batch that regrows its Vec would count");
            events += 1;
        }
        events
    });
    (events, tally.blocks)
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
