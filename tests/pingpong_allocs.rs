//! The calibration ping-pong carries sizes, not buffers: a 16 MiB round
//! trip on the packet-level testbed allocates no block of a MiB or more
//! (no send buffer, no receive buffer, no message body).

mod alloc;

use std::sync::Arc;

use smpi::{MpiProfile, World};
use smpi_calibrate::pingpong;
use smpi_platform::{griffon, RoutedPlatform};

const MIB: usize = 1 << 20;

#[test]
fn a_16_mib_pingpong_allocates_no_large_block() {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    let testbed = World::testbed(rp, MpiProfile::openmpi_like());
    let (samples, tally) = alloc::tally(MIB, || pingpong(&testbed, 0, 1, &[16 * MIB as u64], 1));
    assert!(samples[0].time > 0.1, "16 MiB at ~1 Gb/s: {samples:?}");
    assert_eq!(tally.blocks, 0, "blocks of ≥ 1 MiB: {tally}");
}
