//! CPU sampling (§3.1) and RAM folding (§3.2) behaviour, end-to-end.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use smpi::World;
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

fn world(n: usize) -> World {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "t",
        n,
        &ClusterConfig::default(),
    )));
    World::smpi(rp, TransferModel::ideal())
}

#[test]
fn sample_local_executes_n_times_per_rank() {
    let executions = Arc::new(AtomicUsize::new(0));
    let ex = Arc::clone(&executions);
    world(4).run(4, move |ctx| {
        for _ in 0..10 {
            ctx.sample_local("site", 3, || {
                ex.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    // 4 ranks x first 3 iterations each.
    assert_eq!(executions.load(Ordering::Relaxed), 12);
}

#[test]
fn sample_global_executes_n_times_total() {
    let executions = Arc::new(AtomicUsize::new(0));
    let ex = Arc::clone(&executions);
    world(8).run(8, move |ctx| {
        for _ in 0..5 {
            ctx.sample_global("gsite", 3, || {
                ex.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(executions.load(Ordering::Relaxed), 3);
}

#[test]
fn sample_replay_advances_simulated_time() {
    let report = world(1).run(1, |ctx| {
        for _ in 0..8 {
            ctx.sample_local("work", 2, || {
                // A small but measurable burst.
                let mut x = 0u64;
                for i in 0..200_000u64 {
                    x = x.wrapping_add(i * i);
                }
                std::hint::black_box(x);
            });
        }
        ctx.wtime()
    });
    // 2 measured + 6 replayed bursts must all appear on the clock; replay
    // charges the mean, so total ~ 8 x mean > 0.
    assert!(report.results[0] > 0.0);
    assert!(report.sim_time > 0.0);
}

#[test]
fn sample_delay_burns_flops_without_executing() {
    let report = world(2).run(2, |ctx| {
        ctx.sample_delay(1e9); // at 1 Gf/s hosts: exactly 1 simulated second
        ctx.wtime()
    });
    for &t in &report.results {
        assert!(
            (t - 1.0).abs() < 1e-9,
            "expected 1 s of simulated compute, got {t}"
        );
    }
}

#[test]
fn cpu_factor_scales_measured_bursts() {
    // With a huge cpu_factor, even a tiny measured burst becomes large
    // simulated time; with factor 1 it stays tiny.
    let slow = world(1).cpu_factor(1e6).run(1, |ctx| {
        ctx.sample_local("burst", 1, || {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        ctx.wtime()
    });
    let fast = world(1).cpu_factor(1.0).run(1, |ctx| {
        ctx.sample_local("burst", 1, || {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        ctx.wtime()
    });
    assert!(slow.results[0] > fast.results[0] * 100.0);
}

#[test]
fn folding_shares_buffers_across_ranks() {
    let report = world(8).ram_folding(true).run(8, |ctx| {
        let buf = ctx.shared_malloc::<f64>("data", 1000);
        if ctx.rank() == 0 {
            buf.lock()[0] = 42.0;
        }
        ctx.barrier(&ctx.world());
        let v = buf.lock()[0];
        v
    });
    // All ranks observe rank 0's write: one shared buffer.
    assert!(report.results.iter().all(|&v| v == 42.0));
    // Actual footprint: one 8 KB buffer. Logical: eight.
    assert_eq!(report.memory.peak_bytes, 8000);
    assert_eq!(report.memory.logical_peak_bytes, 64000);
    assert!((report.memory.folding_factor() - 8.0).abs() < 1e-12);
}

#[test]
fn no_folding_gives_private_buffers() {
    let report = world(8).ram_folding(false).run(8, |ctx| {
        let buf = ctx.shared_malloc::<f64>("data", 1000);
        if ctx.rank() == 0 {
            buf.lock()[0] = 42.0;
        }
        ctx.barrier(&ctx.world());
        let v = buf.lock()[0];
        v
    });
    // Only rank 0 sees its write.
    assert_eq!(report.results[0], 42.0);
    assert!(report.results[1..].iter().all(|&v| v == 0.0));
    assert_eq!(report.memory.peak_bytes, 64000);
    assert_eq!(report.memory.logical_peak_bytes, 64000);
}

/// Rank 0 keeps its guard over the barrier; rank 1 locks the same site.
fn guard_held_across_barrier(folding: bool) {
    world(2).ram_folding(folding).run(2, |ctx| {
        let buf = ctx.shared_malloc::<f64>("data", 16);
        if ctx.rank() == 0 {
            let mut guard = buf.lock();
            ctx.barrier(&ctx.world());
            guard[0] = 1.0;
        } else {
            buf.lock()[0] = 2.0;
            ctx.barrier(&ctx.world());
        }
    });
}

#[test]
#[should_panic(
    expected = "shared buffer `data` is locked by a rank suspended in an MPI call; \
                drop the guard before calling MPI"
)]
fn guard_held_across_an_mpi_call_is_diagnosed_not_a_hang() {
    // Folded, both ranks lock one mutex on one thread: blocking on it would
    // hang the maestro. The second rank panics instead, and the panic
    // reaches `run`'s caller.
    guard_held_across_barrier(true);
}

#[test]
fn guard_held_across_an_mpi_call_is_harmless_on_private_buffers() {
    guard_held_across_barrier(false);
}

#[test]
fn length_reads_take_no_lock() {
    // The length is fixed at allocation: a rank holding its own guard can
    // still ask for it.
    world(1).run(1, |ctx| {
        let buf = ctx.shared_malloc::<f64>("data", 16);
        let mut guard = buf.lock();
        guard[0] = buf.len() as f64;
        assert!(!buf.is_empty());
        assert_eq!(guard[0], 16.0);
    });
}

#[test]
fn allocating_a_site_again_under_its_guard_is_not_an_mpi_call() {
    // The folded heap checks a site's length from its table, not through
    // the buffer, so the rank holding the guard may look the site up again.
    world(1).run(1, |ctx| {
        let a = ctx.shared_malloc::<f64>("x", 4);
        let mut g = a.lock();
        let b = ctx.shared_malloc::<f64>("x", 4);
        g[0] = 7.0;
        drop(g);
        assert_eq!(b.lock()[0], 7.0);
    });
}

#[test]
#[should_panic(expected = "shared_malloc site \"x\" reused with a different length")]
fn a_length_mismatch_under_a_guard_names_the_length() {
    world(1).run(1, |ctx| {
        let a = ctx.shared_malloc::<f64>("x", 4);
        let _g = a.lock();
        ctx.shared_malloc::<f64>("x", 8);
    });
}

#[test]
fn rank_bodies_may_share_rc_state() {
    // Ranks run one at a time on the calling thread, so a body need not be
    // `Send` or `Sync`: an `Rc<Cell>` is enough to count across ranks.
    let visits = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&visits);
    let report = world(4).run(4, move |ctx| {
        seen.set(seen.get() + 1);
        ctx.barrier(&ctx.world());
        seen.get()
    });
    assert_eq!(report.results, vec![4; 4]);
    assert_eq!(visits.get(), 4);
}

#[test]
fn a_rank_panic_under_a_guard_and_a_sample_leaves_the_world_reusable() {
    // Rank 1 panics while it holds a folded buffer's guard, inside a
    // sampled burst. The panic reaches the caller as it was raised, and the
    // next run on the same world starts from fresh shared state: nothing of
    // the failed run (guard, sample table, heap) is left to hide or poison.
    let w = world(2);
    let body = |fail: bool| {
        move |ctx: &smpi::Ctx| {
            let buf = ctx.shared_malloc::<f64>("data", 8);
            ctx.barrier(&ctx.world());
            let mut ran = false;
            if ctx.rank() == 1 {
                ran = ctx.sample_local("burst", 1, || {
                    let mut guard = buf.lock();
                    guard[0] = 1.0;
                    if fail {
                        panic!("rank 1 failed inside its burst");
                    }
                });
            }
            ctx.barrier(&ctx.world());
            ran
        }
    };
    let payload = catch_unwind(AssertUnwindSafe(|| w.run(2, body(true))))
        .expect_err("the rank's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"rank 1 failed inside its burst")
    );
    let report = w.run(2, body(false));
    assert_eq!(
        report.results,
        vec![false, true],
        "the burst is measured anew"
    );
}

#[test]
fn tracked_vec_counts_per_rank_both_ways() {
    for folding in [true, false] {
        let report = world(4).ram_folding(folding).run(4, |ctx| {
            let _buf = ctx.tracked_vec::<u8>(500);
            ctx.barrier(&ctx.world());
        });
        assert_eq!(report.memory.peak_bytes, 2000);
        assert_eq!(report.memory.logical_peak_bytes, 2000);
    }
}

#[test]
fn memory_is_released_on_drop() {
    let report = world(2).run(2, |ctx| {
        {
            let _a = ctx.tracked_vec::<u8>(1000);
            ctx.barrier(&ctx.world());
        } // dropped here
        ctx.barrier(&ctx.world());
        let _b = ctx.tracked_vec::<u8>(500);
        ctx.barrier(&ctx.world());
    });
    // Peak was during the first allocation wave (2 x 1000), not cumulative.
    assert_eq!(report.memory.peak_bytes, 2000);
}

#[test]
fn wall_clock_is_reported() {
    let report = world(2).run(2, |ctx| {
        ctx.barrier(&ctx.world());
    });
    assert!(report.wall.as_nanos() > 0);
    assert_eq!(report.finish_times.len(), 2);
}
