//! Replay at a rank count no stack-per-rank scheme reaches on default
//! sysctls: 65 536 replayed ranks are 65 536 trace cursors stepped on the
//! calling thread. The same trace is *not* attempted through the stackful
//! oracle — 65 536 fibers need 131 072 mappings, twice the default
//! `vm.max_map_count`.
//!
//! This test lives alone in its binary: it reads the process thread count,
//! which sibling tests running on harness threads would perturb.

use std::sync::Arc;

use smpi_suite::platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_suite::replay;
use smpi_suite::smpi::{TiOp, TiTrace, WaitMode, World};
use smpi_suite::surf::TransferModel;

const RANKS: u32 = 65_536;
const ROUNDS: u32 = 2;

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// Every rank, `ROUNDS` times: compute, receive from the left neighbour,
/// send to the right one, wait for both.
fn ring_trace() -> TiTrace {
    let rank_ops = |rank: u32| {
        (0..ROUNDS)
            .flat_map(|round| {
                [
                    TiOp::Compute { flops: 1e5 },
                    TiOp::Recv {
                        src: ((rank + RANKS - 1) % RANKS) as i32,
                        cid: 0,
                        tag: round as i32,
                        max_bytes: 1024,
                    },
                    TiOp::Send {
                        dst: (rank + 1) % RANKS,
                        cid: 0,
                        tag: round as i32,
                        bytes: 1024,
                    },
                    TiOp::Wait {
                        reqs: vec![2 * round, 2 * round + 1],
                        mode: WaitMode::All,
                    },
                ]
            })
            .collect()
    };
    TiTrace {
        ranks: (0..RANKS).map(rank_ops).collect(),
    }
}

#[test]
fn replays_65536_ranks_without_spawning_a_thread() {
    let trace = Arc::new(ring_trace());
    let ops: u64 = trace.ranks.iter().map(|r| r.len() as u64).sum();
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "n",
        256,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(rp, TransferModel::default_affine());

    let before = process_threads();
    let start = std::time::Instant::now();
    let report = replay::replay(&world, trace);
    let wall = start.elapsed();
    assert_eq!(process_threads(), before, "replay must not spawn threads");

    assert_eq!(report.profile.simcalls, ops, "one simcall per captured op");
    assert_eq!(report.finish_times.len(), RANKS as usize);
    assert!(report.finish_times.iter().all(|&t| t > 0.0));
    eprintln!("{RANKS} ranks, {ops} simcalls replayed in {wall:.2?}");
}
