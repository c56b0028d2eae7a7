//! Tests of the extension beyond the paper's SMPI subset: comm_split.

use std::sync::Arc;

use smpi::{op, MpiProfile, World, UNDEFINED_COLOR};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

fn worlds(n: usize) -> [World; 2] {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "x",
        n,
        &ClusterConfig::default(),
    )));
    [
        World::smpi(Arc::clone(&rp), TransferModel::ideal()),
        World::testbed(rp, MpiProfile::openmpi_like()),
    ]
}

#[test]
fn comm_split_partitions_by_color() {
    for world in worlds(8) {
        let report = world.run(8, |ctx| {
            let comm = ctx.world();
            let color = (ctx.rank() % 3) as i32;
            let sub = ctx.comm_split(&comm, color, 0).expect("member");
            let r = ctx.rank() as i32;
            let sum = ctx.allreduce(&[r], &op::sum::<i32>(), &sub);
            (color, sub.size(), sum[0])
        });
        // Colors: 0 -> {0,3,6}, 1 -> {1,4,7}, 2 -> {2,5}.
        let expect = [(0, 3, 9), (1, 3, 12), (2, 2, 7)];
        for (r, &(color, size, sum)) in report.results.iter().enumerate() {
            let (ec, es, esum) = expect[r % 3];
            assert_eq!(color, ec);
            assert_eq!(size, es, "rank {r}");
            assert_eq!(sum, esum, "rank {r}");
        }
    }
}

#[test]
fn comm_split_key_orders_ranks() {
    for world in worlds(4) {
        let report = world.run(4, |ctx| {
            let comm = ctx.world();
            // Same color, reversed keys: rank 3 becomes rank 0 of the sub.
            let key = -(ctx.rank() as i32);
            let sub = ctx.comm_split(&comm, 0, key).unwrap();
            ctx.comm_rank(&sub)
        });
        assert_eq!(report.results, vec![3, 2, 1, 0]);
    }
}

#[test]
fn comm_split_undefined_returns_none() {
    for world in worlds(4) {
        let report = world.run(4, |ctx| {
            let comm = ctx.world();
            let color = if ctx.rank() < 2 { 0 } else { UNDEFINED_COLOR };
            let sub = ctx.comm_split(&comm, color, 0);
            match sub {
                Some(c) => {
                    let s = ctx.allreduce(&[1i32], &op::sum::<i32>(), &c);
                    s[0]
                }
                None => -1,
            }
        });
        assert_eq!(report.results, vec![2, 2, -1, -1]);
    }
}

#[test]
fn nested_splits_compose() {
    let [world, _] = worlds(8);
    let report = world.run(8, |ctx| {
        let comm = ctx.world();
        // Split into halves, then split each half by parity.
        let half = ctx.comm_split(&comm, (ctx.rank() / 4) as i32, 0).unwrap();
        let parity = ctx
            .comm_split(&half, (ctx.comm_rank(&half) % 2) as i32, 0)
            .unwrap();
        let sum = ctx.allreduce(&[ctx.rank() as i32], &op::sum::<i32>(), &parity);
        (parity.size(), sum[0])
    });
    // Halves {0..4} and {4..8}; parities {0,2}/{1,3} and {4,6}/{5,7}.
    let expect = [
        (2, 2),
        (2, 4),
        (2, 2),
        (2, 4),
        (2, 10),
        (2, 12),
        (2, 10),
        (2, 12),
    ];
    for (r, (&got, &want)) in report.results.iter().zip(&expect).enumerate() {
        assert_eq!(got, want, "rank {r}");
    }
}
