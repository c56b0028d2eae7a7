//! The frame loop allocates per message and per hop, never per frame: a
//! warm message beside a pending sleep, or two warm messages queueing at a
//! shared last hop, cost the same handful of blocks at 64 KiB as at 4 MiB,
//! and none of them is a copy of its route. A message alone on the network
//! is played in one pass and allocates no queue at all.

mod alloc;

use packetnet::{PacketConfig, PacketNet};
use smpi_obs::Rec;
use smpi_platform::{HostIx, Platform, RoutedPlatform, SharingPolicy};

/// Blocks allocated (or grown) while `f` runs on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    alloc::tally(0, f).1.blocks
}

/// Two hosts four equal links apart: host link, two switch-to-switch
/// links, host link, mixing both queueing policies.
fn four_hop_line() -> RoutedPlatform {
    let mut p = Platform::new();
    let a = p.add_host("a", 1e9);
    let b = p.add_host("b", 1e9);
    let (na, nb) = (p.host_node(a), p.host_node(b));
    let s0 = p.add_switch("s0");
    let s1 = p.add_switch("s1");
    let s2 = p.add_switch("s2");
    p.link_between(na, s0, "l0", 125e6, 10e-6, SharingPolicy::Shared);
    p.link_between(s0, s1, "l1", 125e6, 10e-6, SharingPolicy::SplitDuplex);
    p.link_between(s1, s2, "l2", 125e6, 10e-6, SharingPolicy::SplitDuplex);
    p.link_between(s2, nb, "l3", 125e6, 10e-6, SharingPolicy::Shared);
    RoutedPlatform::new(p)
}

#[test]
fn a_lone_warm_message_allocates_its_queue_table_and_completion_list() {
    const HOPS: usize = 4;
    let rp = four_hop_line();
    assert_eq!(rp.route(HostIx(0), HostIx(1)).len(), HOPS);
    let mut net = PacketNet::new(&rp, PacketConfig::default());
    let mut message = |bytes: u64| {
        allocations(|| {
            net.start_message(&rp, HostIx(0), HostIx(1), bytes);
            net.run_to_completion();
        })
    };
    // Warm: the platform image's route store, the action slab and the
    // calendar.
    message(4 << 20);
    let mib = message(1 << 20);
    let small = message(64 << 10);
    let large = message(4 << 20);
    // Alone on the network, the message is played in one pass and no
    // frame waits in a later hop's queue: the per-hop queue table and the
    // completion list are all it allocates.
    assert_eq!(mib, 2, "1 MiB over {HOPS} hops: {mib} blocks");
    assert_eq!((small, large), (mib, mib), "64 KiB / 1 MiB / 4 MiB");
}

#[test]
fn a_warm_message_allocates_per_hop_not_per_frame() {
    const HOPS: usize = 4;
    let rp = four_hop_line();
    assert_eq!(rp.route(HostIx(0), HostIx(1)).len(), HOPS);
    let mut net = PacketNet::new(&rp, PacketConfig::default());
    // A pending sleep keeps the message company, so the event loop plays
    // its frames.
    net.start_sleep(1e3);
    let mut message = |bytes: u64| {
        let mut id = None;
        let blocks = allocations(|| {
            id = Some(net.start_message(&rp, HostIx(0), HostIx(1), bytes));
            net.advance_to_next();
        });
        let id = id.expect("the message started");
        assert!(net.is_done(id), "the message completes before the sleep");
        assert_eq!(net.running_actions(), 1, "the sleep is still pending");
        blocks
    };
    // Warm: the route store, the action slab, the calendar and every
    // channel's arrival stream.
    message(4 << 20);
    let mib = message(1 << 20);
    let small = message(64 << 10);
    let large = message(4 << 20);
    // The per-hop queue table, one queue per later hop, and the completion
    // list; the route is the image's shared `Arc`, not a copy. 725 frames ×
    // 4 hops is what a per-frame allocation would cost.
    assert_eq!(
        mib,
        1 + (HOPS - 1) + 1,
        "1 MiB over {HOPS} hops: {mib} blocks"
    );
    assert_eq!((small, large), (mib, mib), "64 KiB / 1 MiB / 4 MiB");
}

/// Two senders on one switch, a core link to a second switch, and the
/// sink's link there; the core and the sink's link carry both flows at
/// twice a sender's bandwidth, so frames of the two flows collide and one
/// waits, without a backlog that grows with the message.
fn incast() -> RoutedPlatform {
    let mut p = Platform::new();
    let s0 = p.add_switch("s0");
    let s1 = p.add_switch("s1");
    for (i, switch, bw) in [(0, s0, 125e6), (1, s0, 125e6), (2, s1, 250e6)] {
        let h = p.add_host(format!("h{i}"), 1e9);
        let node = p.host_node(h);
        p.link_between(
            node,
            switch,
            format!("l{i}"),
            bw,
            10e-6,
            SharingPolicy::Shared,
        );
    }
    p.link_between(s0, s1, "core", 250e6, 10e-6, SharingPolicy::SplitDuplex);
    RoutedPlatform::new(p)
}

#[test]
fn a_warm_incast_allocates_per_hop_not_per_frame() {
    const HOPS: usize = 3;
    let rp = incast();
    assert_eq!(rp.route(HostIx(0), HostIx(2)).len(), HOPS);
    let both = |net: &mut PacketNet, bytes: u64| {
        net.start_message(&rp, HostIx(0), HostIx(2), bytes);
        net.start_message(&rp, HostIx(1), HostIx(2), bytes);
        net.run_to_completion();
    };
    // The last hops do queue: frames wait behind the other flow's.
    let rec = Rec::enabled();
    let mut traced = PacketNet::new(&rp, PacketConfig::default());
    traced.set_recorder(rec.clone());
    both(&mut traced, 1 << 20);
    let queued = rec
        .snapshot()
        .unwrap()
        .counter("packetnet.frames.queued_behind");
    assert!(queued > 700, "{queued} frames queued behind another");

    let mut net = PacketNet::new(&rp, PacketConfig::default());
    let mut incast = |bytes: u64| allocations(|| both(&mut net, bytes));
    // Warm: the route store, the action slab, the calendar, the misc heap
    // and every channel's arrival stream.
    incast(4 << 20);
    let mib = incast(1 << 20);
    let small = incast(64 << 10);
    let large = incast(4 << 20);
    // Per message: the per-hop queue table and one queue per later hop;
    // then the completion lists.
    assert_eq!(
        mib,
        2 * (1 + (HOPS - 1)) + 2,
        "two 1 MiB messages over {HOPS} hops: {mib} blocks"
    );
    assert_eq!((small, large), (mib, mib), "64 KiB / 1 MiB / 4 MiB");
}
