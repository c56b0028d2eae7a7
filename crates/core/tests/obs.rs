//! Observability layer end-to-end: metrics snapshots, rank timelines,
//! link-utilization integrals, Paje export and self-profiling.

use std::sync::Arc;

use smpi::trace;
use smpi::{MpiProfile, World};
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

/// Deterministic 4-rank pingpong: 0↔1 and 2↔3, `rounds` exchanges of
/// `elems` f64 each way.
fn pingpong4(rounds: usize, elems: usize) -> impl Fn(&smpi::Ctx) + Send + Sync {
    move |ctx: &smpi::Ctx| {
        let comm = ctx.world();
        let r = ctx.rank();
        let peer = r ^ 1; // 0<->1, 2<->3
        let buf = vec![r as f64; elems];
        for round in 0..rounds {
            let tag = round as i32;
            if r.is_multiple_of(2) {
                ctx.send(&buf, peer, tag, &comm);
                let _ = ctx.recv_vec::<f64>(peer as i32, tag, elems, &comm);
            } else {
                let _ = ctx.recv_vec::<f64>(peer as i32, tag, elems, &comm);
                ctx.send(&buf, peer, tag, &comm);
            }
        }
    }
}

#[test]
fn metrics_are_off_by_default() {
    let report = world(2).run(2, |ctx| ctx.barrier(&ctx.world()));
    assert!(report.metrics.is_none());
    // Event counters are always collected; phase timings need metrics on.
    assert!(report.profile.simcalls > 0);
    assert!(report.profile.phases.is_empty());
}

#[test]
fn link_byte_integrals_match_wire_bytes() {
    // In a flat cluster every route is exactly 2 links (host -> switch ->
    // host), so the per-link byte integrals must sum to 2x the wire volume.
    let report = world(4)
        .metrics(true)
        .tracing(true)
        .run(4, pingpong4(3, 512));
    let s = trace::stats(&report.trace);
    assert!(s.wire_bytes > 0);
    let m = report.metrics.as_ref().unwrap();
    let link_bytes: f64 = m
        .fcounters
        .iter()
        .filter(|(k, _)| k.starts_with("surf.link.") && k.ends_with(".bytes"))
        .map(|(_, v)| v)
        .sum();
    let expected = 2.0 * s.wire_bytes as f64;
    let rel = (link_bytes - expected).abs() / expected;
    assert!(
        rel < 1e-6,
        "link integrals {link_bytes} != 2 x wire bytes {expected} (rel {rel:.2e})"
    );
    // The utilization gauges cover the same links and the kernel counted
    // its rate recomputations.
    assert!(m.gauges.iter().any(|(k, _)| k.ends_with(".util")));
    assert!(m.counter("surf.reshares") > 0);
}

#[test]
fn rank_timelines_track_blocking_and_compute() {
    // Rank 0 computes, then sends; rank 1 posts its receive immediately, so
    // it must sit in blocked_in_recv for (at least) the compute time.
    let flops = 1e7; // 10 ms at the default 1 Gf/s node speed
    let report = world(2).metrics(true).run(2, move |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.compute(flops);
            ctx.send(&[1.0f64; 64], 1, 0, &comm);
        } else {
            let _ = ctx.recv_vec::<f64>(0, 0, 64, &comm);
        }
    });
    let m = report.metrics.as_ref().unwrap();
    let end = report.sim_time;
    let t0 = m.timeline("rank", 0).expect("rank 0 timeline");
    let t1 = m.timeline("rank", 1).expect("rank 1 timeline");
    let compute_secs = flops / 1e9;
    assert!((t0.time_in_state("computing", end) - compute_secs).abs() < 1e-9);
    assert!(t1.time_in_state("blocked_in_recv", end) >= compute_secs * 0.99);
    // Both timelines start running and end finished.
    for tl in [t0, t1] {
        assert_eq!(tl.events.first().map(|e| e.time), Some(0.0));
        assert!(tl.time_in_state("finished", end + 1.0) > 0.0);
    }
}

#[test]
fn protocol_counters_split_eager_and_rendezvous() {
    let report = world(2).metrics(true).tracing(true).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&[0u8; 100], 1, 0, &comm); // eager
            ctx.send(&vec![0u8; 100_000], 1, 1, &comm); // rendezvous
        } else {
            let _ = ctx.recv_vec::<u8>(0, 0, 100, &comm);
            let _ = ctx.recv_vec::<u8>(0, 1, 100_000, &comm);
        }
    });
    let m = report.metrics.as_ref().unwrap();
    assert_eq!(m.counter("core.sends.eager"), 1);
    assert_eq!(m.counter("core.sends.rendezvous"), 1);
    assert_eq!(m.fcounter("core.bytes.posted"), 100_100.0);
    let s = trace::stats(&report.trace);
    assert_eq!(
        m.counter("core.sends.eager") + m.counter("core.sends.rendezvous"),
        s.sends as u64
    );
}

#[test]
fn collective_regions_are_counted_and_timed() {
    let report = world(4).metrics(true).run(4, |ctx| {
        let comm = ctx.world();
        let mine = [ctx.rank() as f64];
        let _ = ctx.allreduce(&mine, &smpi::op::sum::<f64>(), &comm);
        ctx.barrier(&comm);
    });
    let m = report.metrics.as_ref().unwrap();
    // Every rank enters each collective region once.
    assert_eq!(m.counter("core.coll.allreduce"), 4);
    assert_eq!(m.counter("core.coll.barrier"), 4);
    // The regions show up on every rank's state timeline. Time inside a
    // region is charged to the innermost state (nested collectives and
    // blocked_* waits), so assert on the push-to-matching-pop span.
    let mut allreduce_span = 0.0;
    for tl in m.timelines_of("rank") {
        let mut depth = 0usize;
        let mut entered = None;
        for ev in &tl.events {
            match ev.op {
                smpi_obs::StateOp::Push(s) => {
                    if s == "allreduce" && entered.is_none() {
                        entered = Some((ev.time, depth));
                    }
                    depth += 1;
                }
                smpi_obs::StateOp::Pop => {
                    depth -= 1;
                    if let Some((t0, d)) = entered {
                        if depth == d {
                            allreduce_span += ev.time - t0;
                            entered = None;
                        }
                    }
                }
                smpi_obs::StateOp::Set(_) => {}
            }
        }
        assert!(entered.is_none(), "unbalanced allreduce region");
    }
    assert!(allreduce_span > 0.0);
}

#[test]
fn algorithm_variants_are_region_annotated() {
    // Dispatchers name the MPI operation; the variants underneath name the
    // actual algorithm, so captured traces and Paje regions identify both.
    let report = world(4).metrics(true).run(4, |ctx| {
        let comm = ctx.world();
        let mine = [ctx.rank() as f64];
        // allreduce on 4 ranks dispatches to recursive doubling.
        let _ = ctx.allreduce(&mine, &smpi::op::sum::<f64>(), &comm);
        let _ = ctx.reduce(&mine, &smpi::op::sum::<f64>(), 0, &comm);
        let _ = ctx.allgather_ring(&mine, &comm);
        let _ = ctx.allgather_rdb(&mine, &comm);
        let mut buf = [0.0f64];
        ctx.bcast_linear(&mut buf, 0, &comm);
        let chunk = 1;
        let root_buf = [0.0f64; 4];
        let send = (ctx.rank() == 0).then_some(&root_buf[..]);
        let _ = ctx.scatter_linear(send, chunk, 0, &comm);
        let _ = ctx.scatter_chain(send, chunk, 0, &comm);
    });
    let m = report.metrics.as_ref().unwrap();
    // Nested: the dispatcher region plus the variant it picked.
    assert_eq!(m.counter("core.coll.allreduce"), 4);
    assert_eq!(m.counter("core.coll.allreduce_rdb"), 4);
    // reduce on 4 ranks with a commutative op takes the binomial tree.
    assert_eq!(m.counter("core.coll.reduce"), 4);
    assert_eq!(m.counter("core.coll.reduce_binomial"), 4);
    for variant in [
        "allgather_ring",
        "allgather_rdb",
        "bcast_linear",
        "scatter_linear",
        "scatter_chain",
    ] {
        assert_eq!(m.counter(&format!("core.coll.{variant}")), 4, "{variant}");
    }
}

#[test]
fn packet_backend_emits_queue_and_hop_metrics() {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "p",
        2,
        &ClusterConfig::default(),
    )));
    let report = World::testbed(rp, MpiProfile::openmpi_like())
        .metrics(true)
        .run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&vec![0u8; 10_000], 1, 0, &comm);
            } else {
                let _ = ctx.recv_vec::<u8>(0, 0, 10_000, &comm);
            }
        });
    let m = report.metrics.as_ref().unwrap();
    assert!(m.counter("packetnet.messages") >= 1);
    assert!(m.counter("packetnet.frames.total") >= 1);
    assert!(m.counter("packetnet.frames.hops") >= m.counter("packetnet.frames.total"));
    let h = m
        .histogram("packetnet.hop_latency_ns")
        .expect("hop histogram");
    assert_eq!(h.count, m.counter("packetnet.frames.hops"));
    assert!(h.min > 0.0);
    assert!(m.hwms.iter().any(|(k, _)| k.starts_with("packetnet.chan.")));
}

#[test]
fn self_profile_reports_phases_and_throughput() {
    let report = world(4)
        .metrics(true)
        .tracing(true)
        .run(4, pingpong4(2, 256));
    let p = &report.profile;
    assert!(p.simcalls > 0);
    assert!(p.tokens > 0);
    assert!(p.events() == p.simcalls + p.tokens);
    assert!(p.trace_events as usize == report.trace.len());
    assert!(p.wall_seconds > 0.0);
    assert!(p.events_per_sec() > 0.0);
    let names: Vec<&str> = p.phases.iter().map(|(n, _)| *n).collect();
    for expect in [
        "actor_execution",
        "simcall_handling",
        "fabric_advance",
        "waiter_resolution",
    ] {
        assert!(names.contains(&expect), "missing phase {expect}");
    }
    assert!(p.phases.iter().all(|(_, s)| *s >= 0.0));
    let rendered = p.render();
    assert!(rendered.contains("events/s"));
    assert!(rendered.contains("fabric_advance"));
}

#[test]
fn critical_path_spans_the_run() {
    let report = world(4)
        .metrics(true)
        .tracing(true)
        .run(4, pingpong4(2, 4096));
    let cp = report.critical_path().expect("trace is non-empty");
    assert!((cp.total - report.sim_time).abs() < 1e-12);
    assert!(cp.message_hops > 0);
    let sum: f64 = cp.segments.iter().map(|(_, s)| s).sum();
    // Segments partition the chain: they sum to the makespan (the chain
    // starts at an event at t=0 because every rank starts at 0).
    assert!((sum - cp.total).abs() < 1e-9);
    // With metrics on, message edges carry contention attribution: the
    // winning chain names the specific bottleneck links, not the anonymous
    // "network" bucket.
    assert!(
        cp.segments.iter().any(|(w, _)| w.starts_with("link:")),
        "no link-attributed segment in {:?}",
        cp.segments
    );
}

#[test]
fn contention_shares_conserve_link_bytes() {
    // Tentpole invariant, flow backend: per link, the per-flow share
    // integrals sum to the link's byte integral.
    let report = world(4).metrics(true).run(4, pingpong4(3, 512));
    let c = report.contention.as_ref().expect("metrics => contention");
    assert!(!c.flows.is_empty());
    let m = report.metrics.as_ref().unwrap();
    let mut active = 0;
    for (l, r) in c.link_rollup().iter().enumerate() {
        let counter = m.fcounter(&format!("surf.link.{l}.bytes"));
        assert!(
            (r.share_bytes - counter).abs() <= 1e-9 * counter.max(1.0),
            "link {l}: flow shares sum to {} but the link moved {counter}",
            r.share_bytes
        );
        if counter > 0.0 {
            active += 1;
        }
    }
    assert!(active > 0, "no link carried traffic");
    // Every flow's transfer time is fully attributed somewhere.
    for f in &c.flows {
        assert!(f.attr.share_bytes > 0.0);
        assert!(f.attr.bottlenecked_secs() + f.attr.unattributed_secs > 0.0);
    }
}

#[test]
fn packet_contention_shares_conserve_channel_bytes() {
    // Same invariant on the packet backend: per channel, flow share
    // integrals sum to the channel's wire-byte counter.
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "p",
        4,
        &ClusterConfig::default(),
    )));
    let report = World::testbed(rp, MpiProfile::openmpi_like())
        .metrics(true)
        .run(4, pingpong4(2, 2048));
    let c = report.contention.as_ref().expect("metrics => contention");
    assert!(!c.flows.is_empty());
    let m = report.metrics.as_ref().unwrap();
    for (ch, r) in c.link_rollup().iter().enumerate() {
        let counter = m.fcounter(&format!("packetnet.chan.{ch}.bytes"));
        assert!(
            (r.share_bytes - counter).abs() <= 1e-9 * counter.max(1.0),
            "channel {ch}: flow shares sum to {} but the channel moved {counter}",
            r.share_bytes
        );
    }
    // Channel names come from the platform's link table.
    assert!(c.link_names.iter().any(|n| n.contains("p-")));
}

#[test]
fn json_export_carries_metrics_and_profile() {
    let report = world(2).metrics(true).tracing(true).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send(&[1u32; 16], 1, 0, &comm);
        } else {
            let _ = ctx.recv_vec::<u32>(0, 0, 16, &comm);
        }
    });
    let json = report.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for k in [
        "\"sim_time\":",
        "\"trace_stats\":",
        "\"metrics\":{",
        "\"core.sends.eager\":",
        "\"timelines\":",
        "\"contention\":{",
        "\"link_names\":",
        "\"rank_blocked\":",
        "\"profile\":{",
        "\"events_per_sec\":",
    ] {
        assert!(json.contains(k), "missing {k} in JSON export");
    }
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    assert_eq!(opens, closes);
}

/// The golden scenario: 2 ranks, one eager 800-byte message, fully
/// deterministic. Regenerate with `BLESS=1 cargo test -p smpi --test obs`.
fn golden_report() -> smpi::RunReport<()> {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "g",
        2,
        &ClusterConfig::default(),
    )));
    World::smpi(rp, TransferModel::ideal())
        .metrics(true)
        .tracing(true)
        .run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&[0.5f64; 100], 1, 7, &comm);
            } else {
                let _ = ctx.recv_vec::<f64>(0, 7, 100, &comm);
            }
        })
}

#[test]
fn paje_export_matches_golden_file() {
    let paje = golden_report().paje();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/pingpong.paje");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &paje).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file (run with BLESS=1)");
    assert_eq!(paje, golden, "Paje output drifted from the golden file");
}

#[test]
fn paje_export_is_structurally_valid() {
    let paje = golden_report().paje();
    // Header: the full event-definition set.
    assert_eq!(paje.matches("%EndEventDef").count(), 13);
    assert!(paje.starts_with("%EventDef"));
    // One container per rank plus the root, all destroyed at the end.
    let creates: Vec<&str> = paje.lines().filter(|l| l.starts_with("5 ")).collect();
    for c in ["sim", "rank0", "rank1"] {
        assert!(
            creates
                .iter()
                .any(|l| l.split_whitespace().nth(2) == Some(c)),
            "container {c} missing"
        );
    }
    let destroys = paje.lines().filter(|l| l.starts_with("6 ")).count();
    assert_eq!(creates.len(), destroys);
    // Arrows are paired, routed through the 2-link route's containers:
    // rank0 -> link -> link -> rank1 makes three start/end pairs for the
    // single wire transfer.
    assert_eq!(paje.lines().filter(|l| l.starts_with("11 ")).count(), 3);
    assert_eq!(paje.lines().filter(|l| l.starts_with("12 ")).count(), 3);
    // Body timestamps never decrease.
    let mut last = f64::NEG_INFINITY;
    for line in paje.lines() {
        if line.starts_with('%') || line.is_empty() {
            continue;
        }
        let t: f64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|f| f.parse().ok())
            .unwrap_or(last);
        assert!(t >= last, "time went backwards: {line}");
        last = t;
    }
}

/// Arrows that leave rank 0 and land on rank 1, in delivery order, as
/// `(start, end)` times read back from the Paje text.
fn paje_arrows(paje: &str) -> Vec<(f64, f64)> {
    // (key, time) of every line with event code `code` at `container`.
    let keyed = |code: &str, container: &str| -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = paje
            .lines()
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                (f.len() == 7 && f[0] == code && f[5] == container)
                    .then(|| (f[6].parse().unwrap(), f[1].parse().unwrap()))
            })
            .collect();
        v.sort_by_key(|&(k, _)| k);
        v
    };
    let starts = keyed("11", "rank0");
    let ends = keyed("12", "rank1");
    assert_eq!(starts.len(), ends.len());
    starts.iter().zip(&ends).map(|(s, e)| (s.1, e.1)).collect()
}

/// Seconds the critical path charges to `who` (0 when it names none).
fn segment(cp: &smpi::CriticalPath, who: &str) -> f64 {
    cp.segments
        .iter()
        .find(|(w, _)| w == who)
        .map_or(0.0, |(_, s)| *s)
}

/// Rank 0 sends 60 000 B, sleeps 100 µs, then sends 1 B to rank 1: both
/// eager, and the 1 B message is delivered first.
fn overtaking(ctx: &smpi::Ctx) {
    let comm = ctx.world();
    if ctx.rank() == 0 {
        let big = ctx.isend_sized(60_000, 1, 1, &comm);
        ctx.sleep(100e-6);
        let small = ctx.isend_sized(1, 1, 2, &comm);
        ctx.wait_send(big);
        ctx.wait_send(small);
    } else {
        let big = ctx.irecv_sized(0, 1, 60_000, &comm);
        let small = ctx.irecv_sized(0, 2, 1, &comm);
        ctx.wait_recv_sized(big, &comm);
        ctx.wait_recv_sized(small, &comm);
    }
}

#[test]
fn an_overtaking_message_keeps_its_own_transfer() {
    let report = world(2).metrics(true).tracing(true).run(2, overtaking);
    // Each arrow starts at its own message's transfer start: the 1 B
    // message (delivered first) left at 100 µs, the 60 KB one at 0.
    let arrows = paje_arrows(&report.paje());
    assert_eq!(arrows.len(), 2);
    assert!((arrows[0].0 - 100e-6).abs() < 1e-9, "{arrows:?}");
    assert!((arrows[0].1 - 0.000200016).abs() < 1e-9, "{arrows:?}");
    assert!(arrows[1].0.abs() < 1e-9, "{arrows:?}");
    assert!((arrows[1].1 - 0.000580008).abs() < 1e-9, "{arrows:?}");
    // The chain: rank 0's sleep, the 1 B message's own wire window, then
    // rank 1 waiting for the 60 KB message.
    let cp = report.critical_path().expect("tracing was on");
    let text = cp.render();
    assert!((cp.total - 0.000580008).abs() < 1e-12, "{text}");
    assert!(
        (segment(&cp, "link:t-link-0") - 0.000100016).abs() < 1e-12,
        "{text}"
    );
    assert!((segment(&cp, "rank0") - 100e-6).abs() < 1e-12, "{text}");
    assert!(
        (segment(&cp, "rank1") - 0.000379992).abs() < 1e-12,
        "{text}"
    );
    assert_eq!(cp.message_hops, 1, "{text}");
}

#[test]
fn an_overtaking_frame_keeps_its_own_transfer_on_the_packet_network() {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "p",
        2,
        &ClusterConfig::default(),
    )));
    let report = World::testbed(rp, MpiProfile::openmpi_like())
        .metrics(true)
        .tracing(true)
        .run(2, overtaking);
    // Transfers start big, small; deliveries land small, big.
    let started: Vec<f64> = report
        .trace
        .iter()
        .filter(|e| matches!(e.kind, trace::TraceKind::TransferStarted { .. }))
        .map(|e| e.time)
        .collect();
    let delivered: Vec<u64> = report
        .trace
        .iter()
        .filter_map(|e| match e.kind {
            trace::TraceKind::Delivered { bytes, .. } => Some(bytes),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, [1, 60_000], "the 1 B message overtakes");
    let arrows = paje_arrows(&report.paje());
    assert_eq!(arrows.len(), 2);
    assert!(
        (arrows[0].0 - started[1]).abs() < 1e-9,
        "{arrows:?} {started:?}"
    );
    assert!(
        (arrows[1].0 - started[0]).abs() < 1e-9,
        "{arrows:?} {started:?}"
    );
    // rank 0's sleep is on the chain, behind the 1 B message.
    let cp = report.critical_path().expect("tracing was on");
    let sum: f64 = cp.segments.iter().map(|(_, s)| s).sum();
    assert!((sum - cp.total).abs() < 1e-9, "{}", cp.render());
    assert!(segment(&cp, "rank0") >= 100e-6, "{}", cp.render());
}

#[test]
fn a_late_receive_is_charged_for_the_rendezvous_it_holds_back() {
    // Rank 0's rendezvous send waits for rank 1's receive, posted after a
    // 1 ms sleep: the sleep, not the sender, holds the transfer back.
    let report = world(2).tracing(true).run(2, |ctx| {
        let comm = ctx.world();
        if ctx.rank() == 0 {
            ctx.send_sized(100_000, 1, 0, &comm);
        } else {
            ctx.sleep(1e-3);
            ctx.recv_sized(0, 0, 100_000, &comm);
        }
    });
    let cp = report.critical_path().expect("tracing was on");
    let text = cp.render();
    assert!((segment(&cp, "rank1") - 1e-3).abs() < 1e-12, "{text}");
    assert!((segment(&cp, "network") - 0.0009).abs() < 1e-9, "{text}");
    assert_eq!(segment(&cp, "rank0"), 0.0, "{text}");
    assert_eq!(cp.message_hops, 1, "{text}");
    let sum: f64 = cp.segments.iter().map(|(_, s)| s).sum();
    assert!((sum - cp.total).abs() < 1e-12, "{text}");
}
