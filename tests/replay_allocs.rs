//! What a replayed op costs in heap blocks, once the run is warm.
//!
//! The maestro's tables are dense (requests by post, messages and fabric
//! tokens by slot, matching channels by rank) and keep their storage, so
//! the blocks a replay allocates per op are the few its simcall vocabulary
//! carries by value — a wait's request list, its completions, the trace op
//! the cursor hands out and the one the flight ring keeps — plus the
//! kernel's per-event completion `Vec`. This test pins that count on a ring
//! exchange, so a table that starts allocating per op again shows up.

mod alloc;

use std::sync::Arc;

use smpi::{TiOp, TiTrace, WaitMode, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

const RANKS: u32 = 16;

/// Blocks allocated per replayed op on the warm ring, at most.
const BLOCKS_PER_OP: f64 = 1.75;

/// `rounds` of a ring exchange: every rank receives from its left
/// neighbour, sends to its right one and waits on both, 3 ops a round.
fn ring(rounds: u32) -> TiTrace {
    let ranks = (0..RANKS)
        .map(|r| {
            let (left, right) = ((r + RANKS - 1) % RANKS, (r + 1) % RANKS);
            (0..rounds)
                .flat_map(|i| {
                    [
                        TiOp::Recv {
                            src: left as i32,
                            cid: 0,
                            tag: 0,
                            max_bytes: 4096,
                        },
                        TiOp::Send {
                            dst: right,
                            cid: 0,
                            tag: 0,
                            bytes: 4096,
                        },
                        TiOp::Wait {
                            reqs: vec![2 * i, 2 * i + 1],
                            mode: WaitMode::All,
                        },
                    ]
                })
                .collect()
        })
        .collect();
    TiTrace { ranks }
}

/// Blocks allocated by one replay of `trace` on `world`.
fn blocks(world: &World, trace: &Arc<TiTrace>) -> usize {
    let (report, tally) = alloc::tally(0, || smpi_replay::replay(world, Arc::clone(trace)));
    assert!(report.sim_time > 0.0);
    tally.blocks
}

#[test]
fn a_warm_replayed_op_allocates_a_pinned_number_of_blocks() {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "ring",
        RANKS as usize,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(rp, TransferModel::default_affine());
    let (short, long) = (Arc::new(ring(100)), Arc::new(ring(1100)));
    // Warm: first-use set-up (interned region names, lazily built route
    // caches) is paid here, not below.
    blocks(&world, &short);
    // Set-up costs the same for both lengths; the difference is the ops.
    let per_op = (blocks(&world, &long) as f64 - blocks(&world, &short) as f64)
        / (3.0 * 1000.0 * RANKS as f64);
    println!("{per_op:.3} blocks per replayed op");
    assert!(
        per_op <= BLOCKS_PER_OP,
        "{per_op:.3} blocks per replayed op, more than the pinned {BLOCKS_PER_OP}"
    );
}
