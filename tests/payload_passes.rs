//! A message body is packed once, shared, and unpacked once: the large
//! blocks a run allocates are the application's own buffers plus one body
//! per *distinct* message — not one per destination, per start, or per hop
//! of staging. A body that forwards part of another (a scatter subtree) is
//! a view of it, and a body shared out of a rank's buffer is no block at
//! all until the rank writes the buffer while the body is in flight.
//!
//! Every run here has folding off, so each rank's buffers are its own.

mod alloc;

use std::sync::Arc;

use smpi::{Ctx, Payload, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_workloads::dt::unfolded_bytes;
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};
use surf_sim::TransferModel;

/// Runs `body` on `ranks` ranks (they are fibers on this thread) and
/// returns the (count, bytes) of the blocks of at least `threshold` bytes
/// allocated while the run was live.
fn large_blocks(
    ranks: usize,
    threshold: usize,
    body: impl Fn(&Ctx) + Send + Sync + 'static,
) -> (usize, usize) {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "t",
        ranks,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(rp, TransferModel::ideal()).ram_folding(false);
    let (_, tally) = alloc::tally(threshold, || world.run(ranks, body));
    (tally.blocks, tally.bytes)
}

const MIB: usize = 1 << 20;

#[test]
fn a_message_costs_one_body() {
    // The two caller buffers and the body between them.
    let (blocks, _) = large_blocks(2, MIB, |ctx| {
        let comm = ctx.world();
        let mut buf = vec![ctx.rank() as f64; MIB / 8];
        if ctx.rank() == 0 {
            ctx.send(&buf, 1, 0, &comm);
        } else {
            ctx.recv(&mut buf, 0, 0, &comm);
        }
    });
    assert_eq!(blocks, 3, "send + recv into a caller buffer");

    // `wait_recv` trades the caller's receive buffer for the vector it
    // returns: still one block per side and one body.
    let (blocks, _) = large_blocks(2, MIB, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&vec![1.0f64; MIB / 8], 1, 0, &comm);
        } else {
            let (data, _) = ctx.recv_vec::<f64>(0, 0, MIB / 8, &comm);
            assert_eq!(data.len(), MIB / 8);
        }
    });
    assert_eq!(blocks, 3, "send + wait_recv");
}

#[test]
fn a_broadcast_costs_one_body() {
    let (linear, _) = large_blocks(16, MIB, |ctx| {
        let mut buf = vec![ctx.rank() as f64; MIB / 8];
        ctx.bcast_linear(&mut buf, 0, &ctx.world());
        assert_eq!(buf[MIB / 8 - 1], 0.0);
    });
    assert_eq!(linear, 16 + 1, "the root packs once for its 15 peers");

    let (binomial, _) = large_blocks(16, MIB, |ctx| {
        let mut buf = vec![ctx.rank() as f64; MIB / 8];
        ctx.bcast(&mut buf, 3, &ctx.world());
        assert_eq!(buf[MIB / 8 - 1], 3.0);
    });
    assert_eq!(binomial, 16 + 1, "interior ranks forward the body they got");
}

#[test]
fn a_persistent_send_shares_its_snapshot_across_starts() {
    const LEN: usize = 256 << 10;
    let (blocks, _) = large_blocks(2, LEN, |ctx| {
        let comm = ctx.world();
        let mut buf = vec![7u8; LEN];
        if ctx.rank() == 0 {
            let send = ctx.send_init(&buf, 1, 0, &comm);
            for _ in 0..10 {
                let req = ctx.start_send(&send);
                ctx.wait_send(req);
            }
        } else {
            for _ in 0..10 {
                ctx.recv(&mut buf, 0, 0, &comm);
            }
        }
    });
    assert_eq!(blocks, 2 + 1, "two caller buffers, one body for ten starts");
}

#[test]
fn a_body_sent_to_many_is_still_one_block() {
    let (blocks, _) = large_blocks(5, MIB, |ctx| {
        let comm = ctx.world();
        let mut buf = vec![ctx.rank() as u8; MIB];
        if ctx.rank() == 0 {
            let body = Payload::pack(&buf);
            for dst in 1..5 {
                ctx.send_packed(&body, dst, 0, &comm);
            }
        } else {
            let req = ctx.irecv::<u8>(0, 0, MIB, &comm);
            let (body, _) = ctx.wait_recv_packed(req, &comm);
            body.unpack_into(&mut buf);
            assert_eq!(buf[MIB - 1], 0);
        }
    });
    assert_eq!(blocks, 5 + 1);
}

#[test]
fn dt_stages_one_body_per_forwarding_node() {
    // DT allocates its node buffers (`unfolded_bytes`) and nothing else: a
    // node sends its buffer itself (whole on BH and WH, one slice per
    // successor on SH), and nothing writes a buffer while its bodies are in
    // flight.
    let class = DtClass::W;
    for shape in [DtGraph::Bh, DtGraph::Wh, DtGraph::Sh] {
        let graph = Arc::new(build_graph(class, shape));
        let nodes = graph.num_nodes();
        let buffers = unfolded_bytes(&graph, class) as usize;
        // The smallest message: half a source array (SH), else a whole one.
        let smallest = class.num_samples() * 8 / 2;
        let g = Arc::clone(&graph);
        let (blocks, bytes) = large_blocks(nodes, smallest, move |ctx| {
            dt_rank(ctx, &g, class);
        });
        assert_eq!(blocks, nodes, "{shape:?}");
        assert_eq!(
            bytes, buffers,
            "{shape:?}: bytes staged beside the node buffers"
        );
    }
}

#[test]
fn a_scatter_costs_one_body_and_one_chunk_per_rank() {
    // The root's send buffer, the one body the root packs (every chunk but
    // its own) and the chunk each rank returns. Interior ranks forward
    // slices of the body they received and stage no subtree.
    const P: usize = 8;
    const CHUNK: usize = MIB / 8;
    for root in [0, 3] {
        let (blocks, bytes) = large_blocks(P, CHUNK * 8, move |ctx| {
            let comm = ctx.world();
            let data: Option<Vec<f64>> =
                (ctx.rank() == root).then(|| (0..P * CHUNK).map(|i| i as f64).collect());
            let mine = ctx.scatter(data.as_deref(), CHUNK, root, &comm);
            assert_eq!(mine[CHUNK - 1], ((ctx.rank() + 1) * CHUNK - 1) as f64);
        });
        assert_eq!(blocks, 1 + 1 + P, "root {root}");
        assert_eq!(bytes, (P + (P - 1) + P) * CHUNK * 8, "root {root}");
    }
}

#[test]
fn a_write_while_a_shared_body_is_in_flight_copies_the_buffer_once() {
    const LEN: usize = MIB / 8;
    for write_in_flight in [true, false] {
        let (blocks, _) = large_blocks(2, MIB, move |ctx| {
            let comm = ctx.world();
            let buf = ctx.tracked_vec::<f64>(LEN);
            if ctx.rank() == 0 {
                buf.lock().fill(1.0);
                let req = ctx.isend_packed(&buf.share(), 1, 0, &comm);
                if write_in_flight {
                    buf.lock()[0] = 2.0;
                }
                ctx.wait_send(req);
                ctx.barrier(&comm);
                if !write_in_flight {
                    buf.lock()[0] = 2.0;
                }
                assert_eq!(buf.lock()[..2], [2.0, 1.0], "the writer sees its write");
            } else {
                let req = ctx.irecv::<f64>(0, 0, LEN, &comm);
                let (body, _) = ctx.wait_recv_packed(req, &comm);
                body.unpack_into(&mut buf.lock());
                drop(body);
                assert!(
                    buf.lock().iter().all(|&x| x == 1.0),
                    "the receiver gets the snapshot taken at the send"
                );
                ctx.barrier(&comm);
            }
        });
        let copies = usize::from(write_in_flight);
        assert_eq!(blocks, 2 + copies, "write in flight: {write_in_flight}");
    }
}
