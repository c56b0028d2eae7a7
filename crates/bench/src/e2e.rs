//! Deterministic end-to-end regression reports (`repro -- dt` / `repro -- ep`).
//!
//! These targets exist to pin the simulator's *numerics*: they run a fixed
//! NAS DT and a fixed NAS EP configuration on-line on griffon with the SMPI
//! backend and print every simulated quantity at full 9-decimal precision,
//! with no wall-clock noise. The output is compared byte-for-byte against
//! golden files (`tests/golden/{dt,ep}_report.txt`) captured before the
//! O(active) kernel refactor, so any change to the engine's arithmetic is
//! caught immediately.

use std::fmt::Write as _;
use std::sync::Arc;

use smpi::World;
use smpi_platform::{griffon, RoutedPlatform};
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};
use surf_sim::TransferModel;

fn world() -> World {
    World::smpi(
        Arc::new(RoutedPlatform::new(griffon())),
        TransferModel::default_affine(),
    )
}

/// Fixed DT run (class A, black-hole graph, griffon, affine model).
pub fn dt_report() -> String {
    let class = DtClass::A;
    let graph = Arc::new(build_graph(class, DtGraph::Bh));
    let g = Arc::clone(&graph);
    let report = world().run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class));
    let mut out = String::new();
    let _ = writeln!(out, "# e2e dt: class A, graph BH, griffon, smpi affine");
    let _ = writeln!(out, "ranks {}", graph.num_nodes());
    let _ = writeln!(out, "sim_time {:.9}", report.sim_time);
    for (r, t) in report.finish_times.iter().enumerate() {
        let _ = writeln!(out, "finish {r} {t:.9}");
    }
    for (r, checksum) in report.results.iter().enumerate() {
        let _ = writeln!(out, "checksum {r} {checksum:.9e}");
    }
    out
}

/// Fixed EP-style run (2^16 pairs over 8 ranks, griffon, affine model).
///
/// Unlike [`smpi_workloads::ep_rank`], compute bursts are charged as
/// *explicit* flop counts instead of measured wall-clock (`sample_local`
/// measures the host machine, which would make the report irreproducible);
/// the communication structure (block loop + final allreduce) is the same.
pub fn ep_report() -> String {
    const RANKS: u64 = 8;
    const TOTAL_PAIRS: u64 = 1 << 16;
    const BLOCKS: u64 = 8;
    /// Deterministic stand-in for the measured per-pair cost.
    const FLOPS_PER_PAIR: f64 = 120.0;

    let report = world().run(RANKS as usize, move |ctx| {
        let r = ctx.rank() as u64;
        let my_pairs = TOTAL_PAIRS / RANKS;
        let per_block = my_pairs / BLOCKS;
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut accepted = 0.0;
        for b in 0..BLOCKS {
            let part = smpi_workloads::ep_block(r * my_pairs + b * per_block, per_block);
            ctx.compute(per_block as f64 * FLOPS_PER_PAIR);
            sx += part.sx;
            sy += part.sy;
            accepted += part.q.iter().sum::<f64>();
        }
        let global = ctx.allreduce(&[sx, sy, accepted], &smpi::op::sum(), &ctx.world());
        (global[0], global[1], global[2])
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# e2e ep: 65536 pairs, 8 blocks/rank, explicit flops, griffon, smpi affine"
    );
    let _ = writeln!(out, "ranks {RANKS}");
    let _ = writeln!(out, "sim_time {:.9}", report.sim_time);
    for (r, t) in report.finish_times.iter().enumerate() {
        let _ = writeln!(out, "finish {r} {t:.9}");
    }
    // Globally reduced, identical on every rank; print rank 0's copy.
    let (sx, sy, accepted) = report.results[0];
    let _ = writeln!(out, "sx {sx:.9e}");
    let _ = writeln!(out, "sy {sy:.9e}");
    let _ = writeln!(out, "accepted {accepted:.9e}");
    out
}
