//! "What if?" capacity planning — the paper's first motivation:
//! "determine a cost-effective hardware configuration appropriate for the
//! expected application workload" before buying anything.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```
//!
//! The expected workload (a 16-process pairwise all-to-all of 1 MiB
//! blocks — a transpose-heavy solver) is captured *once* as a
//! time-independent trace. The sweep engine then replays it across the
//! full purchase matrix: 2 candidate interconnects × 2 network models
//! (the calibrated surf kernel and the packet-level substrate) × noise
//! on/off — with 8 jittered replications per noisy cell, so the answer is
//! a makespan *distribution* per candidate, not a single optimistic
//! number. None of the clusters needs to exist.

use std::sync::Arc;

use smpi_suite::platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_suite::smpi::World;
use smpi_suite::surf::TransferModel;
use smpi_suite::sweep::{run_sweep, FabricKind, NoiseAxis, Program, SweepConfig};
use smpi_suite::workloads::timed_alltoall;

fn candidate(name: &str, bw: f64, lat: f64) -> (String, Arc<RoutedPlatform>) {
    (
        name.to_string(),
        Arc::new(RoutedPlatform::new(flat_cluster(
            name,
            16,
            &ClusterConfig {
                link_bandwidth: bw,
                link_latency: lat,
                ..ClusterConfig::default()
            },
        ))),
    )
}

fn main() {
    let chunk = 128 * 1024; // 1 MiB per peer

    // Capture the workload once, on the cheapest candidate — streamed
    // straight to a TITRACE2 file, so capture memory stays bounded no
    // matter how long the expected workload runs.
    let tit2 = std::env::temp_dir().join("capacity_planning.tit2");
    let gbe = candidate("1gbe-50us", 125e6, 50e-6);
    let world = World::smpi(Arc::clone(&gbe.1), TransferModel::default_affine()).capture_to(&tit2);
    world.run(16, move |ctx| {
        timed_alltoall(ctx, chunk);
    });
    // The sweep decodes this file once and every worker replays that copy.
    let reader = Arc::new(smpi_suite::smpi::TiV2Reader::open(&tit2).expect("open capture"));

    // The purchase matrix: platforms × models × weather.
    let cfg = SweepConfig {
        programs: vec![Program::stream("alltoall-1MiB", reader)],
        platforms: vec![gbe, candidate("10gbe-30us", 1.25e9, 30e-6)],
        fabrics: vec![
            ("surf".into(), FabricKind::surf()),
            ("packet".into(), FabricKind::packet()),
        ],
        // 92% of nominal is the standard TCP payload derate.
        calibrations: vec![("affine-92".into(), TransferModel::default_affine())],
        noises: vec![NoiseAxis::none(), NoiseAxis::jitter("j10", 0.10, 8)],
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: 2011,
        strip_hostdep: true,
    };

    println!(
        "sweeping {} scenarios over {} workers...\n",
        cfg.scenario_count(),
        cfg.workers
    );
    // Stream the per-scenario table to a sink we discard here; the
    // distributions are the deliverable for a purchase decision.
    let (report, _lines) = run_sweep(&cfg, std::io::sink()).expect("sweep");

    println!("{}", report.render());
    println!("(simulated on one machine; no cluster was purchased in the making of this table)");
}
