//! End-to-end workload integration: DT and EP on both backends.

use std::sync::Arc;

use smpi_suite::platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_suite::smpi::{MpiProfile, World};
use smpi_suite::surf::TransferModel;
use smpi_suite::workloads::{build_graph, dt_rank, ep_rank, DtClass, DtGraph, EpConfig, TaskGraph};

fn platform(n: usize) -> Arc<RoutedPlatform> {
    Arc::new(RoutedPlatform::new(flat_cluster(
        "w",
        n,
        &ClusterConfig::default(),
    )))
}

fn dt_checksum(world: &World, class: DtClass, shape: DtGraph) -> (f64, f64) {
    let graph = Arc::new(build_graph(class, shape));
    let g = Arc::clone(&graph);
    let report = world.run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class));
    (report.results.iter().sum(), report.sim_time)
}

#[test]
fn dt_class_s_checksums_agree_across_backends() {
    // Without folding, the data path is exact: both backends must compute
    // the identical checksum (time differs, data must not).
    for shape in [DtGraph::Bh, DtGraph::Wh, DtGraph::Sh] {
        let graph = build_graph(DtClass::S, shape);
        let n = graph.num_nodes();
        let smpi = World::smpi(platform(n), TransferModel::ideal()).ram_folding(false);
        let packet = World::testbed(platform(n), MpiProfile::openmpi_like()).ram_folding(false);
        let (c1, t1) = dt_checksum(&smpi, DtClass::S, shape);
        let (c2, t2) = dt_checksum(&packet, DtClass::S, shape);
        assert!(c1.is_finite() && c1 != 0.0);
        assert_eq!(c1, c2, "{shape:?}: data must be backend-independent");
        assert!(t1 > 0.0 && t2 > 0.0);
    }
}

/// The feature array source rank `r` generates (the LCG of `dt_rank`).
fn source_array(class: DtClass, r: usize) -> Vec<f64> {
    let mut seed = 271_828_183u64.wrapping_add(r as u64);
    (0..class.num_samples())
        .map(|_| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// What node `r` holds after its combine step, worked out on the graph
/// alone: the concatenation, in predecessor order, of what each predecessor
/// forwards — its whole buffer (BH, WH) or `r`'s share of it (SH).
fn node_buffer(graph: &TaskGraph, r: usize, source: &dyn Fn(usize) -> Vec<f64>) -> Vec<f64> {
    if graph.pred[r].is_empty() {
        return source(r);
    }
    let mut buf = Vec::new();
    for &p in &graph.pred[r] {
        let from = node_buffer(graph, p, source);
        let succs = &graph.succ[p];
        let share = match graph.shape {
            DtGraph::Bh | DtGraph::Wh => 0..from.len(),
            DtGraph::Sh => {
                let chunk = from.len() / succs.len();
                let j = succs.iter().position(|&s| s == r).expect("edge");
                let hi = if j == succs.len() - 1 {
                    from.len()
                } else {
                    (j + 1) * chunk
                };
                j * chunk..hi
            }
        };
        buf.extend_from_slice(&from[share]);
    }
    buf
}

#[test]
fn dt_sink_checksums_are_the_sums_of_the_source_arrays() {
    // No MPI on the right-hand side: each sink sums, in buffer order, the
    // source arrays the graph routes to it — all of them for BH, its share
    // of each for SH, one copy of the single source per sink for WH. Exact
    // to the bit on both backends.
    for class in [DtClass::S, DtClass::W] {
        for shape in [DtGraph::Bh, DtGraph::Wh, DtGraph::Sh] {
            let graph = build_graph(class, shape);
            let n = graph.num_nodes();
            let last_source = *graph.sources().last().unwrap();
            for folding in [false, true] {
                // Folded, the sources share one array and every one of them
                // fills it before any resumes from its compute: all forward
                // what the last wrote. SH then also folds its interior
                // layers, whose nodes hold different halves: which half a
                // node forwards depends on who ran last, so there only the
                // unfolded run has a closed form and the folded one a bound.
                let exact = !(folding && shape == DtGraph::Sh);
                let source = |r: usize| source_array(class, if folding { last_source } else { r });
                let expected: Vec<f64> = (0..n)
                    .map(|r| {
                        if graph.succ[r].is_empty() {
                            node_buffer(&graph, r, &source).iter().sum()
                        } else {
                            0.0
                        }
                    })
                    .collect();
                for world in [
                    World::smpi(platform(n), TransferModel::ideal()),
                    World::testbed(platform(n), MpiProfile::openmpi_like()),
                ] {
                    let g = graph.clone();
                    let report = world
                        .ram_folding(folding)
                        .run(n, move |ctx| dt_rank(ctx, &g, class));
                    if exact {
                        assert_eq!(
                            report.results, expected,
                            "{class:?} {shape:?} folding={folding}"
                        );
                    } else {
                        // Every element is some element of the one array.
                        let len = class.num_samples() as f64;
                        for (got, unfolded) in report.results.iter().zip(&expected) {
                            assert_eq!(*got == 0.0, *unfolded == 0.0);
                            assert!((0.0..len).contains(got), "{class:?} SH folded: {got}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn dt_bh_is_slower_than_wh() {
    // The Fig. 15 trend at class W scale, on both backends.
    for make in [
        |n: usize| World::smpi(platform(n), TransferModel::ideal()),
        |n: usize| World::testbed(platform(n), MpiProfile::openmpi_like()),
    ] {
        let nodes = build_graph(DtClass::W, DtGraph::Bh).num_nodes();
        let (_, bh) = dt_checksum(&make(nodes), DtClass::W, DtGraph::Bh);
        let (_, wh) = dt_checksum(&make(nodes), DtClass::W, DtGraph::Wh);
        assert!(
            bh > wh * 1.3,
            "BH ({bh}) must be clearly slower than WH ({wh})"
        );
    }
}

#[test]
fn dt_folding_changes_memory_not_time() {
    let shape = DtGraph::Wh;
    let class = DtClass::S;
    let n = build_graph(class, shape).num_nodes();
    let folded = {
        let world = World::smpi(platform(n), TransferModel::ideal()).ram_folding(true);
        let graph = Arc::new(build_graph(class, shape));
        let g = Arc::clone(&graph);
        world.run(n, move |ctx| dt_rank(ctx, &g, class))
    };
    let unfolded = {
        let world = World::smpi(platform(n), TransferModel::ideal()).ram_folding(false);
        let graph = Arc::new(build_graph(class, shape));
        let g = Arc::clone(&graph);
        world.run(n, move |ctx| dt_rank(ctx, &g, class))
    };
    assert_eq!(
        folded.sim_time, unfolded.sim_time,
        "folding must not change timing"
    );
    assert!(folded.memory.peak_bytes < unfolded.memory.peak_bytes);
    assert_eq!(
        folded.memory.logical_peak_bytes,
        unfolded.memory.logical_peak_bytes
    );
}

#[test]
fn ep_verifies_at_full_sampling() {
    // At ratio 1.0 every block executes: the reduced sums must match a
    // serial tally of the same stream.
    let cfg = EpConfig {
        total_pairs: 1 << 16,
        blocks_per_rank: 8,
        sampling_ratio: 1.0,
    };
    let world = World::smpi(platform(4), TransferModel::ideal());
    let report = world.run(4, move |ctx| ep_rank(ctx, cfg));
    let serial = smpi_suite::workloads::ep_block(0, cfg.total_pairs);
    let expected_accept: f64 = serial.q.iter().sum();
    let r = report.results[0];
    assert!((r.sx - serial.sx).abs() < 1e-6, "{} vs {}", r.sx, serial.sx);
    assert!((r.sy - serial.sy).abs() < 1e-6);
    assert_eq!(r.accepted, expected_accept);
    // All ranks agree (allreduce).
    for other in &report.results {
        assert_eq!(other, &r);
    }
}

#[test]
fn ep_sampling_reduces_wall_time_not_simulated_time() {
    let base = EpConfig {
        total_pairs: 1 << 22,
        blocks_per_rank: 64,
        sampling_ratio: 1.0,
    };
    let run = |ratio: f64| {
        let cfg = EpConfig {
            sampling_ratio: ratio,
            ..base
        };
        let world = World::smpi(platform(4), TransferModel::ideal()).cpu_factor(1.0);
        world.run(4, move |ctx| ep_rank(ctx, cfg))
    };
    let full = run(1.0);
    let quarter = run(0.25);
    // Simulated time stays within a factor ~2 (mean replay vs full run).
    let ratio_sim = quarter.sim_time / full.sim_time;
    assert!(
        (0.4..2.5).contains(&ratio_sim),
        "simulated time drifted: {ratio_sim}"
    );
    // Wall time drops substantially (not strictly 4x on a noisy machine).
    assert!(
        quarter.wall.as_secs_f64() < full.wall.as_secs_f64() * 0.7,
        "sampling did not speed the simulation up: {:?} vs {:?}",
        quarter.wall,
        full.wall
    );
}
