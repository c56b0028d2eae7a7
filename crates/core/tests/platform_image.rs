//! Both backends read one translation of a platform into network resources
//! (`smpi_platform::PlatformImage`): the same resource ids, the same names,
//! the same routes, the same perturbed parameters.
//!
//! The pins below are the simulated times, as f64 bits, of OpenMPI-profile
//! runs — the profile whose rendezvous handshake reads the backends' control
//! latency — on the standard clusters (every link `Shared`) and on a
//! hand-built platform that mixes all three sharing policies, with and
//! without a perturbation overlay. How resources are numbered or named must
//! not move them.

use std::sync::Arc;

use smpi::{Backend, Ctx, MpiProfile, World};
use smpi_platform::{gdx, griffon, Platform, PlatformPerturbation, RoutedPlatform, SharingPolicy};
use surf_sim::{EngineConfig, TransferModel};

const RANKS: usize = 8;

/// Three switches in a line, `s0 -core0- s1 -core1- s2`, with a
/// `SplitDuplex` core, a `FatPipe` core, and host links of all three
/// policies at different speeds.
fn mixed() -> Arc<RoutedPlatform> {
    use SharingPolicy::{FatPipe, Shared, SplitDuplex};
    let mut p = Platform::new();
    let s = [p.add_switch("s0"), p.add_switch("s1"), p.add_switch("s2")];
    p.link_between(s[0], s[1], "core0", 250e6, 20e-6, SplitDuplex);
    p.link_between(s[1], s[2], "core1", 500e6, 15e-6, FatPipe);
    let hosts = [
        (0, 125e6, 10e-6, Shared),
        (0, 125e6, 12e-6, Shared),
        (0, 60e6, 8e-6, Shared),
        (0, 1e9, 5e-6, FatPipe),
        (1, 125e6, 10e-6, SplitDuplex),
        (1, 250e6, 7e-6, SplitDuplex),
        (2, 100e6, 9e-6, Shared),
        (2, 125e6, 11e-6, SplitDuplex),
    ];
    for (i, (sw, bw, lat, policy)) in hosts.into_iter().enumerate() {
        let h = p.add_host(format!("h{i}"), 1e9 * (i + 1) as f64);
        let node = p.host_node(h);
        p.link_between(node, s[sw], format!("l{i}"), bw, lat, policy);
    }
    Arc::new(RoutedPlatform::new(p))
}

/// A deterministic, non-identity overlay touching every host and link.
fn overlay(p: &Platform) -> Arc<PlatformPerturbation> {
    let mut o = PlatformPerturbation::identity(p);
    for (h, f) in o.host_speed.iter_mut().enumerate() {
        *f = 1.0 + 0.01 * (h % 7) as f64;
    }
    for (l, f) in o.link_bandwidth.iter_mut().enumerate() {
        *f = 0.8 + 0.05 * (l % 5) as f64;
    }
    for (l, f) in o.link_latency.iter_mut().enumerate() {
        *f = 1.0 + 0.1 * (l % 3) as f64;
    }
    Arc::new(o)
}

/// Compute, a shifted ring of eager, MTU-sized and rendezvous messages, an
/// incast of rendezvous messages into rank 0, and a barrier.
fn program(ctx: &Ctx) {
    let comm = ctx.world();
    let (r, n) = (ctx.rank(), ctx.size());
    ctx.compute(1e6 * (r + 1) as f64);
    let sizes = [0u64, 1_000, 1_448, 30_000, 65_536, 65_537, 300_000];
    for (i, &bytes) in sizes.iter().enumerate() {
        let shift = 1 + i % (n - 1);
        let (to, from) = ((r + shift) % n, (r + n - shift) % n);
        let tag = i as i32;
        ctx.sendrecv_sized(bytes, to, tag, bytes, from as i32, tag, &comm);
    }
    if r == 0 {
        for src in 1..n {
            ctx.recv_sized(src as i32, 99, 200_000, &comm);
        }
    } else {
        ctx.send_sized(200_000, 0, 99, &comm);
    }
    ctx.barrier(&comm);
    ctx.compute(5e5);
}

fn packet(rp: Arc<RoutedPlatform>) -> World {
    World::testbed(rp, MpiProfile::openmpi_like())
}

fn surf(rp: Arc<RoutedPlatform>) -> World {
    World::new(
        rp,
        Backend::Surf {
            model: TransferModel::default_affine(),
            engine: EngineConfig::default(),
        },
        MpiProfile::openmpi_like(),
    )
}

/// `sim_time` and every rank's finish time, as bit patterns.
fn bits(world: World) -> (u64, Vec<u64>) {
    let report = world.run(RANKS, program);
    let finish = report.finish_times.iter().map(|t| t.to_bits()).collect();
    (report.sim_time.to_bits(), finish)
}

fn griffon_world(world: fn(Arc<RoutedPlatform>) -> World) -> World {
    // Two ranks in each cabinet, and two more: routes cross the spine.
    world(Arc::new(RoutedPlatform::new(griffon()))).place(vec![0, 1, 33, 34, 60, 61, 91, 2])
}

fn gdx_world(world: fn(Arc<RoutedPlatform>) -> World) -> World {
    // Spread over the second-level switch.
    world(Arc::new(RoutedPlatform::new(gdx()))).place(vec![0, 1, 17, 100, 150, 200, 250, 311])
}

fn perturbed(world: World, rp: &RoutedPlatform) -> World {
    world.perturbation(overlay(rp.platform()))
}

/// Asserts `world`'s run against its recorded pin.
fn check(world: World, sim_time: u64, finish: [u64; RANKS]) {
    let (t, f) = bits(world);
    assert_eq!(
        (t, f.as_slice()),
        (sim_time, finish.as_slice()),
        "simulated times moved (sim_time, finish_times as f64 bits)"
    );
}

#[test]
fn packet_griffon_times_are_pinned() {
    let rp = RoutedPlatform::new(griffon());
    check(
        griffon_world(packet),
        0x3f996247d7e7c1ed,
        [
            0x3f9921fe10c95fd6,
            0x3f9921fe10c95fd6,
            0x3f99422089dee43c,
            0x3f9942255ed23d87,
            0x3f99422089dee43c,
            0x3f9942255ed23d87,
            0x3f99624302f468a2,
            0x3f996247d7e7c1ed,
        ],
    );
    check(
        perturbed(griffon_world(packet), &rp),
        0x3f9dc5a0f78e7b00,
        [
            0x3f9d7c4fe38d7fee,
            0x3f9d7ee1312a2478,
            0x3f9da06a06c95cfd,
            0x3f9da1a69c991b2f,
            0x3f9d9e14692c5bca,
            0x3f9da340594eff1d,
            0x3f9dc5a0f78e7b00,
            0x3f9dc2568a4cf91f,
        ],
    );
}

#[test]
fn packet_gdx_times_are_pinned() {
    let rp = RoutedPlatform::new(gdx());
    check(
        gdx_world(packet),
        0x3fa019ae3e9f51c2,
        [
            0x3f9feaecf7cab0c3,
            0x3f9feaecf7cab0c3,
            0x3fa00582e37cc149,
            0x3fa00582e37cc149,
            0x3fa009a1d707e8da,
            0x3fa009b9ffc8a751,
            0x3fa019ae3e9f51c2,
            0x3fa019ae3e9f51c2,
        ],
    );
    check(
        perturbed(gdx_world(packet), &rp),
        0x3fa32d08a73e00a6,
        [
            0x3fa303afcbad375d,
            0x3fa3044e03f1de00,
            0x3fa31410e5c83ec9,
            0x3fa3163796f17730,
            0x3fa3183aa8305d3e,
            0x3fa31b324b6eb775,
            0x3fa328c6a36604f1,
            0x3fa32d08a73e00a6,
        ],
    );
}

#[test]
fn packet_mixed_policy_times_are_pinned() {
    let rp = mixed();
    check(
        packet(Arc::clone(&rp)),
        0x3fa1764c5a726f2d,
        [
            0x3fa1764c5a726f2d,
            0x3fa155cadaab0eb0,
            0x3fa14d6391541103,
            0x3fa1446887a4ac6b,
            0x3fa1477ab5cf8d17,
            0x3fa14560f1cad794,
            0x3fa1483cf142bd2e,
            0x3fa141e29b670110,
        ],
    );
    check(
        perturbed(packet(Arc::clone(&rp)), &rp),
        0x3fa2181dd44d9902,
        [
            0x3fa2181dd44d9902,
            0x3fa1f704c0c262fb,
            0x3fa1ef280683b28f,
            0x3fa1e59c5b9c1d60,
            0x3fa1e9247b264b41,
            0x3fa1e685de36fdba,
            0x3fa1ea76a3824d07,
            0x3fa1e3fb3eb38a53,
        ],
    );
}

#[test]
fn surf_mixed_policy_times_are_pinned() {
    let rp = mixed();
    check(
        surf(Arc::clone(&rp)),
        0x3fa10f41afc12dd9,
        [
            0x3fa10f41afc12dd9,
            0x3fa0eec02ff9cd5d,
            0x3fa0e60e68fb2f15,
            0x3fa0dd73009c11c0,
            0x3fa0e033a53c6f99,
            0x3fa0de25f5981954,
            0x3fa0e08522817c31,
            0x3fa0daa195041332,
        ],
    );
    check(
        perturbed(surf(Arc::clone(&rp)), &rp),
        0x3fa1b5c01b873dac,
        [
            0x3fa1b5c01b873dac,
            0x3fa194a871aa7b94,
            0x3fa18c7d20e3da5a,
            0x3fa18355b46a3f04,
            0x3fa186741eab41b8,
            0x3fa183f39b692b1d,
            0x3fa187636aa267d5,
            0x3fa181631ca8a5dc,
        ],
    );
}

/// A delivered message: `(src, dst, bytes, route)`.
type Flow = (u32, u32, u64, Vec<u32>);

/// The run's resource names and every delivered message, sorted.
fn flows(world: World) -> (Vec<String>, Vec<Flow>) {
    let report = world.metrics(true).run(RANKS, program);
    let c = report.contention.expect("metrics => contention");
    let mut flows: Vec<_> = c
        .flows
        .into_iter()
        .map(|f| (f.src, f.dst, f.bytes, f.attr.route))
        .collect();
    flows.sort();
    (c.link_names, flows)
}

#[test]
fn both_backends_name_and_route_the_same_resources() {
    let rp = mixed();
    let (surf_names, surf_flows) = flows(surf(Arc::clone(&rp)));
    let (packet_names, packet_flows) = flows(packet(Arc::clone(&rp)));
    assert_eq!(surf_names, packet_names);
    assert_eq!(surf_names, rp.image().resource_names());
    assert!(surf_names.iter().any(|n| n == "core0:up"));
    assert!(!surf_flows.is_empty());
    assert_eq!(surf_flows, packet_flows);
}
