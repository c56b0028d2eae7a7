//! Tracing subsystem behaviour end-to-end.

use std::sync::Arc;

use proptest::prelude::*;
use smpi::trace::{self, TraceKind};
use smpi::{MpiProfile, RunReport, World};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::TransferModel;

fn world() -> World {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "t",
        2,
        &ClusterConfig::default(),
    )));
    World::smpi(rp, TransferModel::ideal())
}

#[test]
fn trace_is_empty_by_default() {
    let report = world().run(2, |ctx| ctx.barrier(&ctx.world()));
    assert!(report.trace.is_empty());
}

#[test]
fn trace_records_a_send_recv_lifecycle() {
    let report = world().tracing(true).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&[1.0f64; 100], 1, 9, &comm);
        } else {
            let _ = ctx.recv_vec::<f64>(0, 9, 100, &comm);
        }
    });
    let s = trace::stats(&report.trace);
    assert_eq!(s.sends, 1);
    assert_eq!(s.recvs, 1);
    assert_eq!(s.delivered, 1);
    assert_eq!(s.bytes_delivered, 800);
    // Events are time-ordered.
    for w in report.trace.windows(2) {
        assert!(w[0].time <= w[1].time);
    }
    // The lifecycle is complete: post -> wire -> delivered -> finish.
    let kinds: Vec<_> = report
        .trace
        .iter()
        .map(|e| std::mem::discriminant(&e.kind))
        .collect();
    assert!(kinds.len() >= 5); // send, recv, wire, delivered, 2x finished
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::TransferStarted { .. })));
    assert_eq!(
        report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::RankFinished { .. }))
            .count(),
        2
    );
}

#[test]
fn trace_distinguishes_eager_and_rendezvous() {
    let report = world().tracing(true).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&[0u8; 100], 1, 0, &comm); // eager
            ctx.send(&vec![0u8; 100_000], 1, 1, &comm); // rendezvous
        } else {
            let _ = ctx.recv_vec::<u8>(0, 0, 100, &comm);
            let _ = ctx.recv_vec::<u8>(0, 1, 100_000, &comm);
        }
    });
    let protos: Vec<bool> = report
        .trace
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::SendPosted { eager, .. } => Some(eager),
            _ => None,
        })
        .collect();
    assert_eq!(protos, vec![true, false]);
}

#[test]
fn trace_counts_collective_point_to_points() {
    // A binomial bcast over 8 ranks must generate exactly 7 messages —
    // the "collectives are sets of point-to-point communications" property
    // (§4.2), visible in the trace.
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "t8",
        8,
        &ClusterConfig::default(),
    )));
    let report = World::smpi(rp, TransferModel::ideal())
        .tracing(true)
        .run(8, |ctx| {
            let mut buf = [0u8; 64];
            ctx.bcast(&mut buf, 0, &ctx.world());
        });
    let s = trace::stats(&report.trace);
    assert_eq!(s.sends, 7);
    assert_eq!(s.delivered, 7);
}

#[test]
fn trace_records_exec() {
    let report = world().tracing(true).run(2, |ctx| ctx.compute(1e6));
    assert_eq!(
        report
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::ExecStarted { .. }))
            .count(),
        2
    );
}

#[test]
fn trace_renders() {
    let report = world().tracing(true).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&[1u32], 1, 0, &comm);
        } else {
            let _ = ctx.recv_vec::<u32>(0, 0, 1, &comm);
        }
    });
    let text = trace::render(&report.trace);
    assert!(text.contains("send-post"));
    assert!(text.contains("delivered"));
    assert_eq!(text.lines().count(), report.trace.len());
}

/// One rank's step of a generated point-to-point program.
#[derive(Debug, Clone, Copy)]
enum Op {
    Send { dst: usize, tag: i32, bytes: u64 },
    Recv { src: usize, tag: i32 },
    Sleep(f64),
}

/// Message sizes on both sides of the 64 KiB eager threshold.
const SIZES: [u64; 6] = [0, 1, 4096, 65_536, 65_537, 100_000];

/// Per-rank programs: each message `(src, dst, tag, size, send_sleep,
/// recv_sleep)` adds its send (after a sleep of `send_sleep` x 50 µs) to
/// `src` and its receive (likewise) to `dst`, so receives land both before
/// and after their sends.
fn programs(nranks: usize, msgs: &[(usize, usize, i32, usize, u32, u32)]) -> Vec<Vec<Op>> {
    let mut prog = vec![Vec::new(); nranks];
    for &(src, dst, tag, size, send_sleep, recv_sleep) in msgs {
        let (src, dst) = (src % nranks, dst % nranks);
        for (rank, sleep, op) in [
            (
                src,
                send_sleep,
                Op::Send {
                    dst,
                    tag,
                    bytes: SIZES[size],
                },
            ),
            (dst, recv_sleep, Op::Recv { src, tag }),
        ] {
            if sleep > 0 {
                prog[rank].push(Op::Sleep(sleep as f64 * 50e-6));
            }
            prog[rank].push(op);
        }
    }
    prog
}

/// Runs the programs: every rank posts all its operations, then waits on
/// them in post order (every send has a receive, so nothing deadlocks).
fn run_programs(world: World, prog: Vec<Vec<Op>>) -> RunReport<()> {
    enum Pending {
        Send(smpi::SendRequest),
        Recv(smpi::SizedRecvRequest),
    }
    let n = prog.len();
    world.tracing(true).run(n, move |ctx| {
        let comm = ctx.world();
        let mut pending = Vec::new();
        for &op in &prog[ctx.rank()] {
            match op {
                Op::Send { dst, tag, bytes } => {
                    pending.push(Pending::Send(ctx.isend_sized(bytes, dst, tag, &comm)))
                }
                Op::Recv { src, tag } => pending.push(Pending::Recv(ctx.irecv_sized(
                    src as i32,
                    tag,
                    SIZES[SIZES.len() - 1],
                    &comm,
                ))),
                Op::Sleep(secs) => ctx.sleep(secs),
            }
        }
        for p in pending {
            match p {
                Pending::Send(r) => ctx.wait_send(r),
                Pending::Recv(r) => {
                    ctx.wait_recv_sized(r, &comm);
                }
            }
        }
    })
}

/// The cross-rank edges the runtime recorded are the run's own: each names
/// an earlier event (or flow record) of the same message, exactly once.
fn check_edges(report: &RunReport<()>, contention: bool) -> Result<(), TestCaseError> {
    let t = &report.trace;
    let flows = report.contention.as_ref().map(|c| &c.flows[..]);
    prop_assert_eq!(flows.is_some(), contention);
    let mut wire_named = vec![0usize; t.len()];
    let mut flow_named = vec![0usize; flows.map_or(0, <[_]>::len)];
    for (i, e) in t.iter().enumerate() {
        match e.kind {
            TraceKind::TransferStarted {
                dst, recv: Some(q), ..
            } => {
                let q = q as usize;
                prop_assert!(
                    q < i && matches!(t[q].kind, TraceKind::RecvPosted { dst: d, .. } if d == dst),
                    "event {i}: recv names {:?}",
                    t.get(q)
                );
            }
            TraceKind::Delivered {
                src,
                dst,
                bytes,
                wire,
                flow,
                ..
            } => {
                if src == dst {
                    prop_assert_eq!((wire, flow), (None, None));
                    continue;
                }
                let Some(w) = wire.map(|w| w as usize) else {
                    return Err(TestCaseError::fail(format!("event {i} names no wire")));
                };
                prop_assert!(
                    w < i
                        && matches!(t[w].kind, TraceKind::TransferStarted { src: s, dst: d, .. }
                            if (s, d) == (src, dst)),
                    "event {i}: wire names {:?}",
                    t.get(w)
                );
                wire_named[w] += 1;
                match (flows, flow) {
                    (Some(fs), Some(f)) => {
                        let r = &fs[f as usize];
                        prop_assert_eq!((r.src, r.dst, r.bytes), (src, dst, bytes));
                        flow_named[f as usize] += 1;
                    }
                    (None, None) => {}
                    (fs, f) => {
                        return Err(TestCaseError::fail(format!(
                            "event {i}: flow {f:?} with contention {}",
                            fs.is_some()
                        )))
                    }
                }
            }
            _ => {}
        }
    }
    for (i, e) in t.iter().enumerate() {
        if matches!(e.kind, TraceKind::TransferStarted { .. }) {
            prop_assert!(
                wire_named[i] == 1,
                "transfer {i} named {} times",
                wire_named[i]
            );
        }
    }
    prop_assert!(flow_named.iter().all(|&c| c == 1), "{flow_named:?}");
    let cp = report.critical_path().expect("tracing was on");
    let sum: f64 = cp.segments.iter().map(|(_, s)| s).sum();
    prop_assert!((sum - cp.total).abs() < 1e-9, "{}", cp.render());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_delivery_names_its_own_transfer(
        nranks in 2usize..=4,
        msgs in proptest::collection::vec(
            (0usize..4, 0usize..4, 0i32..3, 0usize..SIZES.len(), 0u32..4, 0u32..4),
            1..10,
        ),
    ) {
        let prog = programs(nranks, &msgs);
        let rp = Arc::new(RoutedPlatform::new(flat_cluster(
            "t",
            4,
            &ClusterConfig::default(),
        )));
        for metrics in [false, true] {
            let surf = World::smpi(rp.clone(), TransferModel::ideal()).metrics(metrics);
            check_edges(&run_programs(surf, prog.clone()), metrics)?;
            let packet = World::testbed(rp.clone(), MpiProfile::openmpi_like()).metrics(metrics);
            check_edges(&run_programs(packet, prog.clone()), metrics)?;
        }
    }
}
