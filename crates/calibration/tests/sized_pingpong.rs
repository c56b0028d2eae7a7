//! The calibration ping-pong exchanges sizes, not buffers. A transfer's
//! timing depends on its byte count alone, so it must measure bit for bit
//! what the same ping-pong over real `u8` buffers measures — on the
//! packet-level testbed and on the flow model, across routes and MPI
//! personalities, with metrics off and on — and the model fitted from it
//! must not move by a bit.

use std::sync::Arc;

use smpi::{MpiProfile, World};
use smpi_calibrate::{fit_piecewise, pingpong, RouteRef, Sample};
use smpi_platform::{gdx, griffon, HostIx, RoutedPlatform};

/// The buffer-carrying ping-pong `pingpong` replaced: same sizes, tags and
/// order, with a typed send and receive of `bytes` bytes each way.
fn typed_pingpong(
    world: &World,
    host_a: usize,
    host_b: usize,
    sizes: &[u64],
    reps: usize,
) -> Vec<Sample> {
    let sizes: Arc<Vec<u64>> = Arc::new(sizes.to_vec());
    let sizes_for_run = Arc::clone(&sizes);
    let world = world.clone().place(vec![host_a, host_b]);
    let report = world.run(2, move |ctx| {
        let comm = ctx.world();
        let mut times = Vec::with_capacity(sizes_for_run.len());
        for &bytes in sizes_for_run.iter() {
            let buf = vec![0u8; bytes as usize];
            let mut echo = vec![0u8; bytes as usize];
            let t0 = ctx.wtime();
            for _ in 0..reps {
                if ctx.rank() == 0 {
                    ctx.send(&buf, 1, 0, &comm);
                    ctx.recv(&mut echo, 1, 0, &comm);
                } else {
                    ctx.recv(&mut echo, 0, 0, &comm);
                    ctx.send(&buf, 0, 0, &comm);
                }
            }
            times.push((ctx.wtime() - t0) / reps as f64 / 2.0);
        }
        times
    });
    sizes
        .iter()
        .zip(&report.results[0])
        .map(|(&bytes, &time)| Sample { bytes, time })
        .collect()
}

/// Sizes around every regime edge: empty, one frame, the frame boundary,
/// the eager / rendezvous threshold, and multi-MiB.
fn sizes() -> Vec<u64> {
    vec![
        0,
        1,
        1447,
        1448,
        1449,
        10_000,
        65_535,
        65_536,
        65_537,
        300_000,
        1 << 20,
        3 << 20,
    ]
}

fn bits(samples: &[Sample]) -> Vec<(u64, u64)> {
    samples
        .iter()
        .map(|s| (s.bytes, s.time.to_bits()))
        .collect()
}

fn route(rp: &RoutedPlatform, a: usize, b: usize) -> RouteRef {
    RouteRef {
        latency: rp.latency(HostIx(a as u32), HostIx(b as u32)),
        bandwidth: rp.bandwidth(HostIx(a as u32), HostIx(b as u32)),
    }
}

/// Runs both drivers; returns (sized, typed) after asserting equal bits.
fn both(world: &World, a: usize, b: usize, reps: usize, what: &str) -> (Vec<Sample>, Vec<Sample>) {
    let sized = pingpong(world, a, b, &sizes(), reps);
    let typed = typed_pingpong(world, a, b, &sizes(), reps);
    assert_eq!(
        bits(&sized),
        bits(&typed),
        "{what}, hosts {a}<->{b}, reps {reps}"
    );
    (sized, typed)
}

#[test]
fn sized_pingpong_measures_what_buffers_measure() {
    let platforms = [
        (
            "griffon",
            Arc::new(RoutedPlatform::new(griffon())),
            vec![(0, 1), (0, 91)],
        ),
        ("gdx", Arc::new(RoutedPlatform::new(gdx())), vec![(0, 1)]),
    ];
    for (name, rp, pairs) in &platforms {
        for &(a, b) in pairs {
            for reps in [1, 3] {
                for profile in [MpiProfile::openmpi_like(), MpiProfile::mpich2_like()] {
                    let what = format!("{name} testbed {}", profile.name);
                    let testbed = World::testbed(Arc::clone(rp), profile);
                    let (sized, typed) = both(&testbed, a, b, reps, &what);
                    // A recorder keeps every message in the packet
                    // network's event loop; alone on the network, a
                    // message is otherwise played in one pass. Both must
                    // measure the same bits.
                    let traced_what = format!("{what} with metrics");
                    let traced = testbed.clone().metrics(true);
                    let (traced, _) = both(&traced, a, b, reps, &traced_what);
                    assert_eq!(bits(&traced), bits(&sized), "{traced_what}");

                    // The model fitted from each, then the flow model
                    // simulating the same ping-pong with it.
                    let model = fit_piecewise(&sized, 3, route(rp, a, b));
                    let from_typed = fit_piecewise(&typed, 3, route(rp, a, b));
                    let from_traced = fit_piecewise(&traced, 3, route(rp, a, b));
                    assert_eq!(format!("{model:?}"), format!("{from_typed:?}"), "{what}");
                    assert_eq!(
                        format!("{model:?}"),
                        format!("{from_traced:?}"),
                        "{traced_what}"
                    );
                    let smpi = World::smpi(Arc::clone(rp), model);
                    both(&smpi, a, b, reps, &format!("{name} smpi"));
                }
            }
        }
    }
}
