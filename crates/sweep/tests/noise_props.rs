//! Property-based tests of the stochastic variability models.
//!
//! Invariants checked on random amplitudes, seeds and platform shapes:
//! 1. Bounds: every sampled factor lies inside `[1 - a, 1 + a)` for its
//!    axis amplitude `a`, and the overlay always validates.
//! 2. Purity: sampling is a pure function of `(model, platform, rng key)` —
//!    byte-identical draws, no hidden state.
//! 3. Identity: the zero-amplitude model samples the exact identity
//!    overlay, and a replay under it is *byte-identical* to a replay with
//!    no overlay at all (`x * 1.0 == x`, end to end through the kernel).

use std::sync::Arc;

use proptest::prelude::*;
use smpi::{TiTrace, World};
use smpi_platform::{flat_cluster, ClusterConfig, Platform, RoutedPlatform};
use smpi_sweep::{CbRng, NoiseModel};
use surf_sim::TransferModel;

fn platform(hosts: usize) -> Platform {
    flat_cluster("n", hosts, &ClusterConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sampled factor respects its axis amplitude bound.
    #[test]
    fn factors_stay_within_amplitude(
        bw in 0.0f64..0.9,
        lat in 0.0f64..0.9,
        speed in 0.0f64..0.9,
        seed in 0u64..u64::MAX,
        hosts in 2usize..10,
    ) {
        let model = NoiseModel { link_bandwidth: bw, link_latency: lat, host_speed: speed };
        prop_assert!(model.validate().is_ok());
        let p = platform(hosts);
        let s = model.sample(&p, &CbRng::new(seed));
        prop_assert!(s.validate(&p).is_ok());
        let within = |fs: &[f64], a: f64| fs.iter().all(|f| (1.0 - a..1.0 + a).contains(f));
        prop_assert!(within(&s.link_bandwidth, bw.max(f64::EPSILON)));
        prop_assert!(within(&s.link_latency, lat.max(f64::EPSILON)));
        prop_assert!(within(&s.host_speed, speed.max(f64::EPSILON)));
    }

    /// Sampling is a pure function of (model, platform, key): no hidden
    /// state, no order dependence.
    #[test]
    fn sampling_is_pure(
        amp in 0.0f64..0.9,
        seed in 0u64..u64::MAX,
        stream in 0u64..u64::MAX,
        hosts in 2usize..10,
    ) {
        let model = NoiseModel::uniform_jitter(amp);
        let p = platform(hosts);
        let key = CbRng::new(seed).stream(stream);
        let a = model.sample(&p, &key);
        // Interleave unrelated draws — they must not perturb the result.
        let _ = model.sample(&p, &CbRng::new(seed ^ 1));
        let b = model.sample(&p, &key);
        prop_assert_eq!(a.host_speed, b.host_speed);
        prop_assert_eq!(a.link_bandwidth, b.link_bandwidth);
        prop_assert_eq!(a.link_latency, b.link_latency);
    }

    /// The zero model samples the identity overlay for any platform/seed.
    #[test]
    fn zero_amplitude_samples_identity(seed in 0u64..u64::MAX, hosts in 2usize..10) {
        let p = platform(hosts);
        let s = NoiseModel::none().sample(&p, &CbRng::new(seed));
        prop_assert!(s.is_identity());
    }
}

/// Zero-amplitude end-to-end: a perturbed replay under the identity
/// overlay is byte-identical to an unperturbed replay — same makespan
/// bits, same per-rank finish times, same recaptured trace.
#[test]
fn zero_amplitude_replay_is_byte_identical() {
    let rp = Arc::new(RoutedPlatform::new(platform(4)));
    let world = World::smpi(Arc::clone(&rp), TransferModel::default_affine()).capture(true);
    let online = world.run(4, |ctx| {
        ctx.compute(1e5);
        let x = [ctx.rank() as f64];
        ctx.allreduce(&x, &smpi::op::sum::<f64>(), &ctx.world());
    });
    let trace: Arc<TiTrace> = Arc::new(online.ti_trace.unwrap());

    let plain = smpi_replay::replay(&world.clone().capture(true), Arc::clone(&trace));
    let identity = NoiseModel::none().sample(rp.platform(), &CbRng::new(99));
    let perturbed_world = world.capture(true).perturbation(Arc::new(identity));
    let perturbed = smpi_replay::replay(&perturbed_world, Arc::clone(&trace));

    assert_eq!(plain.sim_time.to_bits(), perturbed.sim_time.to_bits());
    assert_eq!(plain.finish_times, perturbed.finish_times);
    assert_eq!(plain.ti_trace, perturbed.ti_trace);
}

/// Non-zero amplitude is not a no-op (the overlay actually reaches the
/// kernel's rate computations).
#[test]
fn nonzero_amplitude_changes_timing() {
    let rp = Arc::new(RoutedPlatform::new(platform(4)));
    let world = World::smpi(Arc::clone(&rp), TransferModel::default_affine()).capture(true);
    let online = world.run(4, |ctx| {
        let payload = vec![1.0f64; 64 * 1024];
        let mut buf = vec![0.0f64; 64 * 1024];
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.sendrecv(&payload, right, 1, &mut buf, left as i32, 1, &ctx.world());
    });
    let trace = Arc::new(online.ti_trace.unwrap());

    let plain = smpi_replay::replay(&world, Arc::clone(&trace));
    let jitter = NoiseModel::uniform_jitter(0.3).sample(rp.platform(), &CbRng::new(7));
    let perturbed = smpi_replay::replay(
        &world.clone().perturbation(Arc::new(jitter)),
        Arc::clone(&trace),
    );
    assert_ne!(plain.sim_time, perturbed.sim_time);
}
