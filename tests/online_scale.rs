//! On-line ranks are fibers on the calling thread: a 1 024-rank run — the
//! paper's "large instance on one node" — creates no OS thread. (That
//! 16 384 of them fit the default `vm.max_map_count` is `simix`'s
//! `tests/fiber_scale.rs` and CI's `scale-16k` job.)
//!
//! This test lives alone in its binary: it reads the process thread count,
//! which sibling tests running on harness threads would perturb.

use std::sync::Arc;

use smpi_suite::platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_suite::smpi::World;
use smpi_suite::surf::TransferModel;

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn online_runs_spawn_no_thread() {
    // 61 hosts: odd, so no power-of-two partner distance of the collectives
    // pairs two ranks of one host (the fabric models no intra-host wire).
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "n",
        61,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(rp, TransferModel::default_affine());
    let before = process_threads();

    // 1 024 ranks of real traffic; the count is read from inside the run
    // too, while every rank is alive.
    let report = world.run(1024, |ctx| {
        let comm = ctx.world();
        let sum = ctx.allreduce(&[ctx.rank() as f64], &smpi_suite::smpi::op::sum(), &comm);
        ctx.barrier(&comm);
        (sum[0], process_threads())
    });
    assert_eq!(process_threads(), before, "an on-line run spawned threads");
    for (sum, threads) in &report.results {
        assert_eq!(*sum, (1023 * 1024 / 2) as f64);
        assert_eq!(*threads, before, "a live rank is a thread");
    }
}
