//! On-line ranks are fibers on the calling thread: a 1 024-rank run — the
//! paper's "large instance on one node" — creates no OS thread, and
//! 16 384 of them fit the default `vm.max_map_count` (the `#[ignore]`d
//! test, CI's `scale-16k` job; `simix`'s `tests/fiber_scale.rs` checks the
//! same count without a fabric).
//!
//! The tier-1 test lives alone in its binary: it reads the process thread
//! count, which sibling tests running on harness threads would perturb.

use std::sync::Arc;

use smpi_suite::platform::{flat_cluster, griffon, ClusterConfig, RoutedPlatform};
use smpi_suite::smpi::World;
use smpi_suite::surf::TransferModel;
use smpi_suite::workloads::{ep_block, EpPartial};

/// The value of line `key` of `/proc/self/status`, units included.
fn process_status(key: &str) -> String {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("{key}: line"));
    line.trim().to_string()
}

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> u64 {
    process_status("Threads").parse().expect("thread count")
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

/// The yardstick of ROADMAP item 2: 16 384 on-line ranks on griffon with
/// default sysctls. `sample_global` makes compute time and the folded
/// `shared_malloc` field makes application RAM independent of the rank
/// count, so what the wall-clock shows is simulator cost per simcall.
/// Minutes, not seconds, until the flow kernel scales: run it with
/// `cargo test --release --test online_scale -- --ignored --nocapture`.
#[test]
#[ignore = "16 384 ranks: minutes of fabric, release build only"]
fn online_16384_ranks_on_default_sysctls() {
    const RANKS: usize = 16_384;
    const BLOCKS_PER_RANK: u64 = 4;
    /// Blocks that execute, pooled across all ranks; the rest replay the
    /// mean and contribute nothing.
    const GLOBAL_MEASURE: u32 = 8;
    const PAIRS_PER_BLOCK: u64 = 4096;
    /// Folded per-rank field, 256 KiB logical per rank.
    const FIELD_LEN: usize = 1 << 15;

    let rp = Arc::new(RoutedPlatform::new(griffon()));
    let world = World::smpi(rp, TransferModel::default_affine());
    let report = world.run(RANKS, |ctx| {
        let field = ctx.shared_malloc::<f64>("scale:field", FIELD_LEN);
        let r = ctx.rank() as u64;
        let mut local = [0.0; 3];
        for b in 0..BLOCKS_PER_RANK {
            let part = std::cell::Cell::new(EpPartial::default());
            ctx.sample_global("scale:block", GLOBAL_MEASURE, || {
                part.set(ep_block(
                    (r * BLOCKS_PER_RANK + b) * PAIRS_PER_BLOCK,
                    PAIRS_PER_BLOCK,
                ));
            });
            let p = part.get();
            local[0] += p.sx;
            local[1] += p.sy;
            local[2] += p.q.iter().sum::<f64>();
            // Ranks clobber each other: the accepted trade-off of folding.
            field.lock()[(r as usize * 7 + b as usize) % FIELD_LEN] = local[0];
        }
        let global = ctx.allreduce(&local, &smpi_suite::smpi::op::sum(), &ctx.world());
        (local, global)
    });

    // Every rank holds the same sums; the pair counts are integers, so
    // that one is exact whatever the reduction order.
    let (_, global) = &report.results[0];
    let mut expect = [0.0; 3];
    for (local, got) in &report.results {
        assert_eq!(got, global);
        for (e, l) in expect.iter_mut().zip(local) {
            *e += l;
        }
    }
    assert!(expect[2] > 0.0, "the measured blocks accepted no pair");
    assert_eq!(global[2], expect[2]);
    for i in 0..2 {
        assert!((global[i] - expect[i]).abs() <= 1e-9 * expect[i].abs().max(1.0));
    }

    let wall_s = report.wall.as_secs_f64();
    let simcalls = report.profile.simcalls;
    println!(
        "{RANKS} ranks: wall {wall_s:.3} s, sim_time {:.6} s, {simcalls} simcalls \
         ({:.1}/s), {} local, peak {} B actual / {} B logical",
        report.sim_time,
        simcalls as f64 / wall_s,
        report.profile.local_simcalls,
        report.memory.peak_bytes,
        report.memory.logical_peak_bytes,
    );
    // The finished ranks' stacks stay mapped as spares of this thread, with
    // the pages they touched: their footprint is part of these two.
    println!(
        "after the run: VmRSS {}, VmHWM {}",
        process_status("VmRSS"),
        process_status("VmHWM")
    );
    let kernel = report.profile.kernel.as_ref().expect("surf counts always");
    print!("{}", kernel.render());
}
