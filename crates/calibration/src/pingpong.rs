//! SKaMPI-style ping-pong measurements (paper §6).
//!
//! "Using the simple ping-pong MPI benchmark provided by SKaMPI, we obtain
//! data transfer times achieved for a wide range of message sizes." The
//! driver runs the classic two-rank ping-pong on any [`World`] — in this
//! reproduction the `testbed` (packet-level) world plays SKaMPI-on-hardware,
//! and the same driver on an SMPI world produces the model curves of
//! Figs. 3–5.

use std::sync::Arc;

use smpi::World;

/// One measurement: message size in bytes and one-way time in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Message size, bytes.
    pub bytes: u64,
    /// One-way communication time (round-trip / 2), seconds.
    pub time: f64,
}

/// The default size sweep: log-spaced from 1 B to 16 MiB, the range of the
/// paper's Figs. 3–5 (1 to 10⁷ bytes).
pub fn default_sizes() -> Vec<u64> {
    let mut sizes = Vec::new();
    let mut s = 1u64;
    while s <= 16 * 1024 * 1024 {
        sizes.push(s);
        // Two points per octave for a smooth curve.
        let next = (s * 3).div_ceil(2).max(s + 1);
        sizes.push(next.min(16 * 1024 * 1024 + 1));
        s *= 2;
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes.retain(|&s| s <= 16 * 1024 * 1024);
    sizes
}

/// Runs a ping-pong between `host_a` and `host_b` on `world` for every size
/// in `sizes`, with `reps` round trips per size. Returns one-way times: each
/// is half the mean of the size's `reps` round trips, every one of them
/// counted (none is dropped as a warm-up).
///
/// The messages carry no data: a transfer's timing depends on its byte
/// count alone, so the ranks exchange sizes (`send_sized` / `recv_sized`)
/// rather than buffers nobody reads.
pub fn pingpong(
    world: &World,
    host_a: usize,
    host_b: usize,
    sizes: &[u64],
    reps: usize,
) -> Vec<Sample> {
    assert!(reps >= 1);
    assert_ne!(host_a, host_b);
    let sizes: Arc<Vec<u64>> = Arc::new(sizes.to_vec());
    let sizes_for_run = Arc::clone(&sizes);
    let world = world_placed(world, host_a, host_b);
    let report = world.run(2, move |ctx| {
        let comm = ctx.world();
        let mut times = Vec::with_capacity(sizes_for_run.len());
        for &bytes in sizes_for_run.iter() {
            let t0 = ctx.wtime();
            for _ in 0..reps {
                if ctx.rank() == 0 {
                    ctx.send_sized(bytes, 1, 0, &comm);
                    ctx.recv_sized(1, 0, bytes, &comm);
                } else {
                    ctx.recv_sized(0, 0, bytes, &comm);
                    ctx.send_sized(bytes, 0, 0, &comm);
                }
            }
            let rtt = (ctx.wtime() - t0) / reps as f64;
            times.push(rtt / 2.0);
        }
        times
    });
    sizes
        .iter()
        .zip(&report.results[0])
        .map(|(&bytes, &time)| Sample { bytes, time })
        .collect()
}

/// Rebuilds the world with ranks 0/1 pinned on the requested host pair.
fn world_placed(world: &World, a: usize, b: usize) -> World {
    world.clone().place(vec![a, b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi::MpiProfile;
    use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};

    #[test]
    fn sizes_are_sorted_and_bounded() {
        let sizes = default_sizes();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sizes[0], 1);
        assert!(*sizes.last().unwrap() <= 16 * 1024 * 1024);
        assert!(sizes.len() > 30, "need a dense sweep, got {}", sizes.len());
    }

    #[test]
    fn pingpong_times_increase_with_size() {
        let rp = std::sync::Arc::new(RoutedPlatform::new(flat_cluster(
            "t",
            4,
            &ClusterConfig::default(),
        )));
        let world = World::testbed(rp, MpiProfile::openmpi_like());
        let samples = pingpong(&world, 0, 1, &[1, 1024, 1_000_000], 1);
        assert_eq!(samples.len(), 3);
        assert!(samples[0].time < samples[1].time);
        assert!(samples[1].time < samples[2].time);
        // 1 MB over ~125 MB/s is at least 8 ms one way.
        assert!(samples[2].time > 8e-3);
    }
}
