//! Direct probes: micro-measurements of one layer's public functions, run
//! in the traced pass of the workload whose `wall_s` the layer should
//! move. Each probe is a span; sizes are fixed, inputs come from a fixed
//! LCG stream (a probe measures the layer, not the seed).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use packetnet::{PacketConfig, PacketNet};
use simix::{ActorEvent, Simix};
use smpi::matching::{MsgFifos, ANY_SOURCE};
use smpi::{decode_v2, encode_v2, MpiProfile, RunReport, TiOp, TiTrace, TiV2Reader, World};
use smpi_calibrate::{default_sizes, fit_piecewise, pingpong};
use smpi_diff::{diff_reports, diff_traces, AlignConfig};
use smpi_platform::{from_xml, gdx, griffon, to_xml, HostIx, RoutedPlatform};
use surf_sim::MaxMinProblem;

use crate::metrics::Layers;
use crate::spans::Spans;
use crate::stats::{median, Lcg};
use crate::workloads::{calibration_route, timed};

/// Median wall-clock seconds of `reps` calls of `f`.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    median(&samples)
}

/// `simix`: spawn cost and baton round-trip cost at 256 and 1 024 actors.
pub fn simix_handoff(spans: &mut Spans, layers: &mut Layers) {
    spans.scope("probe.simix", |_| {
        for (actors, calls, metric) in [
            (256usize, 400u32, "simix.handoff_ns_256"),
            (1024, 100, "simix.handoff_ns_1024"),
        ] {
            let mut sx = Simix::<u32, u32>::new();
            let t = Instant::now();
            for _ in 0..actors {
                sx.spawn(move |h| {
                    for i in 0..calls {
                        black_box(h.simcall(i));
                    }
                });
            }
            let spawn_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut events = Vec::new();
            loop {
                sx.run_ready_into(&mut events);
                if events.is_empty() {
                    break;
                }
                for ev in &events {
                    if let ActorEvent::Request(actor, n) = ev {
                        sx.resolve(*actor, n + 1);
                    }
                }
            }
            let loop_s = t.elapsed().as_secs_f64();
            layers.set(metric, loop_s * 1e9 / (actors as f64 * calls as f64));
            if actors == 1024 {
                layers.set("simix.spawn_us", spawn_s * 1e6 / actors as f64);
            }
        }
    });
}

/// `core::matching`: one `push` + `pop_match` against a queue holding
/// envelopes from 64 sources, with a concrete and a wildcard receive.
pub fn matching(spans: &mut Spans, layers: &mut Layers) {
    const SOURCES: u32 = 64;
    const OPS: u64 = 200_000;
    spans.scope("probe.matching", |_| {
        for (want_src, metric) in [
            (None, "core.matching.match_ns"),
            (Some(ANY_SOURCE), "core.matching.wildcard_ns"),
        ] {
            let mut g = Lcg::new(0, 10);
            let mut fifos = MsgFifos::<u64>::new();
            let mut seq = 0;
            for src in 0..SOURCES {
                fifos.push(0, 0, src, 7, seq, seq);
                seq += 1;
            }
            let t = Instant::now();
            for _ in 0..OPS {
                let src = g.below(SOURCES as usize) as u32;
                fifos.push(0, 0, src, 7, seq, seq);
                seq += 1;
                black_box(fifos.pop_match(0, 0, want_src.unwrap_or(src as i32), 7));
            }
            layers.set(metric, t.elapsed().as_secs_f64() * 1e9 / OPS as f64);
        }
    });
}

/// `surf::lmm`: one `solve()` either side of the solver's 512-variable
/// dispatch, on a problem where every variable crosses four of `vars / 4`
/// constraints.
pub fn lmm_solve(spans: &mut Spans, layers: &mut Layers) {
    spans.scope("probe.lmm", |_| {
        for (vars, metric) in [
            (64usize, "surf.lmm.solve_us_64"),
            (1024, "surf.lmm.solve_us_1024"),
        ] {
            let mut g = Lcg::new(0, 11);
            let mut problem = MaxMinProblem::new();
            let cnsts: Vec<_> = (0..vars / 4)
                .map(|_| problem.add_constraint(1e8 + g.below(1_000_000_000) as f64))
                .collect();
            for _ in 0..vars {
                let crossed: Vec<_> = (0..4).map(|_| cnsts[g.below(cnsts.len())]).collect();
                problem.add_variable(1e6 + g.below(100_000_000) as f64, &crossed);
            }
            layers.set(metric, median_secs(200, || problem.solve()) * 1e6);
        }
    });
}

/// `packetnet`: 2 000 concurrent 64 KiB messages between seed-free random
/// host pairs of griffon, run to completion.
pub fn packetnet_messages(spans: &mut Spans, layers: &mut Layers) {
    const MESSAGES: usize = 2000;
    spans.scope("probe.packetnet", |_| {
        let rp = RoutedPlatform::new(griffon());
        let hosts = rp.platform().num_hosts();
        let mut g = Lcg::new(0, 12);
        let t = Instant::now();
        let mut net = PacketNet::new(&rp, PacketConfig::default());
        for _ in 0..MESSAGES {
            let src = g.below(hosts);
            let dst = (src + 1 + g.below(hosts - 1)) % hosts;
            net.start_message(&rp, HostIx(src as u32), HostIx(dst as u32), 64 * 1024);
        }
        black_box(net.run_to_completion());
        layers.set(
            "packetnet.msg_us",
            t.elapsed().as_secs_f64() * 1e6 / MESSAGES as f64,
        );
    });
}

/// `core::capture*` and `diff`: both codecs, the streaming cursors and the
/// trace aligner, on the `replay_halo` capture.
pub fn codec(capture: &Path, spans: &mut Spans, layers: &mut Layers) {
    spans.scope("probe.codec", |spans| {
        let reader = Arc::new(TiV2Reader::open(capture).expect("open the capture"));
        let trace = reader.materialize().expect("decode the capture");
        let mops = |secs: f64| reader.total_ops() as f64 / secs / 1e6;

        let v2 = encode_v2(&trace);
        let v1 = trace.encode();
        layers.set(
            "core.codec.v2_bytes_per_op",
            v2.len() as f64 / reader.total_ops() as f64,
        );
        layers.set(
            "core.codec.v2_encode_mops",
            mops(median_secs(5, || encode_v2(&trace))),
        );
        layers.set(
            "core.codec.v2_decode_mops",
            mops(median_secs(5, || decode_v2(&v2).expect("decode v2"))),
        );
        layers.set(
            "core.codec.v1_encode_mops",
            mops(median_secs(5, || trace.encode())),
        );
        layers.set(
            "core.codec.v1_decode_mops",
            mops(median_secs(5, || TiTrace::decode(&v1).expect("decode v1"))),
        );
        layers.set(
            "core.codec.stream_iter_mops",
            mops(median_secs(5, || {
                (0..reader.num_ranks())
                    .map(|rank| reader.rank_iter(rank).count())
                    .sum::<usize>()
            })),
        );

        // The aligner on the capture against a copy with one op changed.
        let mut mutated = trace.clone();
        let ops = &mut mutated.ranks[trace.num_ranks() / 2];
        let mid = ops.len() / 2;
        ops[mid] = TiOp::Compute { flops: 12345.0 };
        let cfg = AlignConfig::default();
        let (diff, secs) = spans.timed("diff.diff_traces", |_| diff_traces(&trace, &mutated, &cfg));
        assert!(!diff.is_identical(), "the mutation must be found");
        layers.set("diff.trace_mops", mops(secs));
    });
}

/// `obs` exports and `diff::diff_reports`, on a traced run's report.
pub fn exports<R>(report: &RunReport<R>, spans: &mut Spans, layers: &mut Layers) {
    spans.scope("probe.exports", |spans| {
        let mut sink = Vec::new();
        let (_, s) = spans.timed("obs.write_json", |_| {
            report.write_json(&mut sink).expect("write to memory")
        });
        layers.set("obs.export.json_ms", s * 1e3);
        let (_, s) = spans.timed("obs.paje", |_| black_box(report.paje()));
        layers.set("obs.export.paje_ms", s * 1e3);
        sink.clear();
        let (_, s) = spans.timed("obs.write_chrome_trace", |_| {
            report
                .write_chrome_trace(&mut sink)
                .expect("write to memory")
        });
        layers.set("obs.export.chrome_ms", s * 1e3);
        let (_, s) = spans.timed("obs.critical_path", |_| black_box(report.critical_path()));
        layers.set("obs.export.critical_path_ms", s * 1e3);
        let (_, s) = spans.timed("diff.diff_reports", |_| {
            black_box(diff_reports(report, report, 10))
        });
        layers.set("diff.report_ms", s * 1e3);
    });
}

/// `platform` and `calibration`: what every set-up is made of.
pub fn platform_and_calibration(spans: &mut Spans, layers: &mut Layers) {
    spans.scope("probe.platform", |spans| {
        layers.set(
            "platform.build_griffon_ms",
            median_secs(20, || RoutedPlatform::new(griffon())) * 1e3,
        );
        let xml = to_xml(&gdx());
        layers.set(
            "platform.xml_parse_ms",
            median_secs(10, || from_xml(&xml).expect("parse the generated XML")) * 1e3,
        );
        let rp = Arc::new(RoutedPlatform::new(griffon()));
        let hosts = rp.platform().num_hosts() as u32;
        let all_pairs_s = median_secs(5, || {
            for a in 0..hosts {
                for b in 0..hosts {
                    black_box(rp.route(HostIx(a), HostIx(b)));
                }
            }
        });
        layers.set(
            "platform.route_ns",
            all_pairs_s * 1e9 / (hosts as f64 * hosts as f64),
        );

        let testbed = World::testbed(Arc::clone(&rp), MpiProfile::openmpi_like());
        let (samples, s) = spans.timed("calibration.pingpong", |_| {
            pingpong(&testbed, 0, 1, &default_sizes(), 1)
        });
        layers.set("calibration.pingpong_s", s);
        let route = calibration_route(&rp);
        layers.set(
            "calibration.fit_ms",
            median_secs(20, || fit_piecewise(&samples, 3, route)) * 1e3,
        );
    });
}
