//! Capture → replay end-to-end: cross-validation against the on-line
//! simulation, model-swap replay, determinism, the golden trace file, the
//! event-driven tier against its stackful oracle, and typed replay errors.

use std::sync::Arc;

use smpi_suite::platform::{gdx, griffon, RoutedPlatform};
use smpi_suite::replay;
use smpi_suite::smpi::{AnyRequest, Ctx, TiTrace, TraceSource, World};
use smpi_suite::surf::TransferModel;
use smpi_suite::workloads::{build_graph, dt_rank, ep_rank, DtClass, DtGraph, EpConfig};

fn griffon_world() -> World {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    World::smpi(rp, TransferModel::default_affine())
}

fn gdx_world() -> World {
    let rp = Arc::new(RoutedPlatform::new(gdx()));
    World::smpi(rp, TransferModel::default_affine())
}

fn dt_online(world: &World, class: DtClass, shape: DtGraph) -> smpi_suite::smpi::RunReport<f64> {
    let graph = Arc::new(build_graph(class, shape));
    let g = Arc::clone(&graph);
    world.run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class))
}

/// NAS DT on griffon: the replayed makespan must match the on-line
/// simulated makespan within 0.1% on the same platform/model (it is in
/// fact bit-identical: same simcall stream, same kernel).
#[test]
fn dt_cross_validation_on_griffon() {
    let world = griffon_world().capture(true);
    let online = dt_online(&world, DtClass::W, DtGraph::Bh);
    let cv = replay::cross_validate(&world, &online);
    assert!(
        cv.within(0.001),
        "DT replay drifted: online {} vs replayed {} (rel {:.2e})",
        cv.online,
        cv.replayed,
        cv.rel_err
    );
    assert_eq!(cv.online, cv.replayed, "same-world replay should be exact");
}

/// NAS EP on griffon. EP's compute bursts are *measured* (wall-clock
/// sampling), so two online runs differ — but the captured trace pins the
/// measured values, and its replay must reproduce this run's makespan.
#[test]
fn ep_cross_validation_on_griffon() {
    let cfg = EpConfig {
        total_pairs: 1 << 16,
        blocks_per_rank: 8,
        sampling_ratio: 1.0,
    };
    let world = griffon_world().capture(true);
    let online = world.run(8, move |ctx| ep_rank(ctx, cfg));
    let cv = replay::cross_validate(&world, &online);
    assert!(
        cv.within(0.001),
        "EP replay drifted: online {} vs replayed {} (rel {:.2e})",
        cv.online,
        cv.replayed,
        cv.rel_err
    );
}

/// Model-swap power: a trace captured on griffon replays against gdx (a
/// different topology and link speed) without executing any application
/// code, and predicts a different — but finite, positive — makespan.
#[test]
fn griffon_trace_replays_against_gdx() {
    let world = griffon_world().capture(true);
    let online = dt_online(&world, DtClass::S, DtGraph::Bh);
    let trace = online.ti_trace.as_ref().unwrap();
    let on_gdx = replay::replay(&gdx_world(), trace);
    assert!(on_gdx.sim_time > 0.0 && on_gdx.sim_time.is_finite());
    assert_eq!(on_gdx.finish_times.len(), trace.num_ranks());
    // Different platform, different prediction (the whole point of replay).
    assert_ne!(on_gdx.sim_time, online.sim_time);
}

/// Determinism: two identical online runs produce byte-identical captured
/// traces and byte-identical `to_json()` reports. The host-dependent
/// report fields — `wall` and the wall-clock half of the self-profile
/// (`wall_seconds`, per-phase timings, kernel solve histogram) — are
/// removed in one call through the [`smpi_obs::Deterministic`] trait
/// before comparing.
#[test]
fn identical_runs_are_byte_identical() {
    use smpi_obs::Deterministic as _;
    let run = || {
        let world = griffon_world().capture(true).metrics(true).tracing(true);
        let mut report = dt_online(&world, DtClass::S, DtGraph::Bh);
        report.strip_nondeterminism();
        (
            report.ti_trace.as_ref().unwrap().encode(),
            report.to_json(),
            report.paje(),
        )
    };
    let (trace_a, json_a, paje_a) = run();
    let (trace_b, json_b, paje_b) = run();
    assert_eq!(trace_a, trace_b, "captured traces differ between runs");
    assert_eq!(json_a, json_b, "to_json() differs between runs");
    assert_eq!(paje_a, paje_b, "paje() differs between runs");
}

/// The checked-in golden trace: DT class S (BH graph, 5 ranks) captured
/// with regions on. Guards both the capture layer and the codec against
/// silent format drift. Regenerate with
/// `BLESS=1 cargo test --test replay_e2e`.
#[test]
fn captured_trace_matches_golden_file() {
    let world = griffon_world().capture(true).metrics(true);
    let online = dt_online(&world, DtClass::S, DtGraph::Bh);
    let encoded = online.ti_trace.as_ref().unwrap().encode();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dt_s_bh.tit");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &encoded).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file (run with BLESS=1)");
    assert_eq!(
        encoded, golden,
        "captured trace drifted from the golden file"
    );
    // And the golden file itself decodes and replays.
    let trace = TiTrace::decode(&golden).unwrap();
    let report = replay::replay(&griffon_world(), &trace);
    assert_eq!(report.sim_time, online.sim_time);
}

/// The checked-in `TITRACE2` golden: the same DT-S capture as the v1
/// golden, in the binary delta-encoded container. Guards the v2 wire
/// format (opcodes, deltas, dictionary, anchor compression) against
/// silent drift, and pins the v1 <-> v2 relationship: the binary golden
/// decodes to exactly the captured trace, while the v1 text golden is its
/// lossy downgrade (logical collectives re-spelled as region entries).
/// Regenerate both with `BLESS=1 cargo test --test replay_e2e`.
#[test]
fn captured_trace_matches_v2_golden_file() {
    use smpi_suite::smpi::{decode_v2, encode_v2};

    let world = griffon_world().capture(true).metrics(true);
    let online = dt_online(&world, DtClass::S, DtGraph::Bh);
    let trace = online.ti_trace.as_ref().unwrap();
    let encoded = encode_v2(trace);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dt_s_bh.tit2");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &encoded).unwrap();
    }
    let golden = std::fs::read(golden_path).expect("golden file (run with BLESS=1)");
    assert_eq!(
        encoded, golden,
        "captured v2 trace drifted from the golden file"
    );

    // Cross-format equality: v2 is lossless, v1 is the downgrade.
    let v2 = decode_v2(&golden).unwrap();
    assert_eq!(&v2, trace, "binary golden must decode to the capture");
    let v1_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dt_s_bh.tit");
    let v1 = TiTrace::decode(&std::fs::read_to_string(v1_path).unwrap()).unwrap();
    assert_eq!(
        v1,
        v2.downgraded(),
        "v1 and v2 goldens must describe the same capture"
    );

    // Replaying the binary golden reproduces the on-line makespan with
    // rel err 0 on the capture platform.
    let report = replay::replay(&griffon_world(), &v2);
    assert_eq!(report.sim_time, online.sim_time);
}

/// The hardware-independent `TITRACE2` promises, on NAS DT class S with
/// regions on: the binary codec is lossless and at least 5x smaller than
/// v1; a streamed capture with blocks small enough that every rank spans
/// several of them is the same trace; replaying it materialized or
/// streamed lands on the on-line simulation bit for bit; and the streamed
/// replay holds less than the materialized trace.
#[test]
fn titrace2_promises_hold_on_dt_s() {
    use smpi_suite::smpi::{decode_v2, encode_v2, TiOp, TiV2Reader};

    let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();

    let online = dt_online(
        &griffon_world().capture(true).metrics(true),
        DtClass::S,
        DtGraph::Bh,
    );
    let trace = online.ti_trace.as_ref().expect("capture enabled");
    let nranks = trace.num_ranks();
    let ops = trace.summary().ops;

    let v1_bytes = trace.encode().len();
    let v2 = encode_v2(trace);
    let ratio = v1_bytes as f64 / v2.len() as f64;
    assert!(
        ratio >= 5.0,
        "TITRACE2 must stay >= 5x smaller than v1 on DT (got {ratio:.2}x)"
    );
    assert_eq!(&decode_v2(&v2).expect("decode own encoding"), trace);

    let dir = std::env::temp_dir().join(format!("smpi_replay_titrace2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dt.tit2");
    // DT has ~20-35 ops per rank, hence the tiny blocks.
    let streamed = dt_online(
        &griffon_world()
            .capture_to(&path)
            .capture_tuning(8, 16 * 1024)
            .metrics(true),
        DtClass::S,
        DtGraph::Bh,
    );
    assert!(streamed.ti_trace.is_none(), "streamed ops live on disk");
    assert_eq!(streamed.sim_time.to_bits(), online.sim_time.to_bits());
    let codec = streamed.profile.codec.expect("codec stats");
    assert_eq!(codec.ops, ops as u64);
    assert!(
        codec.blocks as usize > nranks,
        "tuning must force multiple blocks per rank"
    );

    let reader = Arc::new(TiV2Reader::open(&path).expect("open streamed capture"));
    assert_eq!(&reader.materialize().expect("materialize"), trace);

    let from_mem = replay::replay(&griffon_world(), trace);
    let from_disk = replay::replay_stream(&griffon_world(), Arc::clone(&reader));
    for (label, replayed) in [("materialized", &from_mem), ("streamed", &from_disk)] {
        assert_eq!(
            replayed.sim_time.to_bits(),
            online.sim_time.to_bits(),
            "{label} replay drifted"
        );
        assert_eq!(
            bits(&replayed.finish_times),
            bits(&online.finish_times),
            "{label} replay drifted"
        );
    }

    // Conservative materialized footprint: op headers only, no payloads.
    let resident = reader.stats().resident_peak_bytes as usize;
    assert!(
        resident < ops * std::mem::size_of::<TiOp>(),
        "streamed replay held {resident} B for {ops} ops"
    );
    std::fs::remove_file(&path).ok();
}

/// The p2p + collective mix: compute, a rendezvous-sized ring exchange and
/// an allreduce.
fn mix_app(ctx: &Ctx) {
    let w = ctx.world();
    ctx.compute(5e5 * (ctx.rank() + 1) as f64);
    let right = (ctx.rank() + 1) % ctx.size();
    let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
    let mut buf = vec![0.0f64; 64 * 1024];
    let big = vec![ctx.rank() as f64; 64 * 1024];
    ctx.sendrecv(&big, right, 7, &mut buf, left as i32, 7, &w);
    let _ = ctx.allreduce(&[buf[0] + 1.0], &smpi_suite::smpi::op::sum::<f64>(), &w);
}

/// A `Test` polling loop, then wildcard receives drained by `Waitany`. How
/// many polls come back empty depends on the platform: rank 0 computes for
/// less time than the polled transfer takes on griffon, for longer on gdx
/// (slower hosts). Replayed there, the first captured poll completes the
/// request and wait filtering drops the rest.
fn wildcard_app(ctx: &Ctx) {
    let w = ctx.world();
    let n = ctx.size();
    if ctx.rank() == 0 {
        let polled = [ctx.irecv::<f64>(1, 4, 32 * 1024, &w).into_any()];
        ctx.compute(2e7);
        while ctx.test(&polled).is_empty() {
            ctx.sleep(2e-4);
        }
        let mut pending: Vec<AnyRequest> = (1..n)
            .map(|_| {
                ctx.irecv::<f64>(smpi_suite::smpi::ANY_SOURCE, 3, 4096, &w)
                    .into_any()
            })
            .collect();
        while !pending.is_empty() {
            let done = ctx.wait_any(&pending);
            pending.remove(done.index);
        }
    } else {
        if ctx.rank() == 1 {
            ctx.send(&vec![2.0f64; 32 * 1024], 0, 4, &w);
        }
        ctx.compute(1e5 * ((ctx.rank() * 7) % n) as f64);
        ctx.send(&vec![1.0f64; 512 * ctx.rank()], 0, 3, &w);
    }
}

/// Everything a replay produces, with host-dependent fields stripped.
fn artifacts(mut report: smpi_suite::smpi::RunReport<()>) -> [String; 5] {
    use smpi_obs::Deterministic as _;
    report.strip_nondeterminism();
    [
        report.to_json(),
        report.paje(),
        report
            .contention
            .as_ref()
            .map_or_else(String::new, |c| c.to_json()),
        report
            .ti_trace
            .as_ref()
            .expect("replay world captures")
            .encode(),
        format!("{:?}", report.trace),
    ]
}

/// Replays `trace` event-driven (the production path) and through the
/// stackful oracle — one fiber per rank driving the same script — and
/// demands identical artifacts. Returns the re-captured trace.
fn assert_tiers_agree(label: &str, world: &World, source: TraceSource) -> String {
    let event = artifacts(replay::replay(world, source.clone()));
    let stackful = artifacts(replay::replay_on_fibers(world, source).unwrap());
    for (what, (e, t)) in ["report JSON", "paje", "contention", "re-capture", "events"]
        .iter()
        .zip(event.iter().zip(&stackful))
    {
        assert_eq!(e, t, "{label}: {what} differs between the tiers");
    }
    let [_, _, _, recapture, _] = event;
    recapture
}

/// The event-driven tier is byte-identical to the stackful oracle: same
/// schedule, hence same reports, timelines, attribution and re-captures —
/// metrics off and on, in-memory and streamed sources, on the capture
/// platform and on a different one.
#[test]
fn event_driven_replay_matches_the_stackful_oracle() {
    let capture = griffon_world().capture(true).metrics(true);
    let mut traces: Vec<(String, TiTrace)> = [DtGraph::Bh, DtGraph::Wh, DtGraph::Sh]
        .into_iter()
        .map(|shape| {
            let online = dt_online(&capture, DtClass::S, shape);
            (format!("dt-S-{shape:?}"), online.ti_trace.unwrap())
        })
        .collect();
    traces.push(("mix".into(), capture.run(4, mix_app).ti_trace.unwrap()));
    traces.push((
        "wildcard".into(),
        capture.run(6, wildcard_app).ti_trace.unwrap(),
    ));

    let dir = std::env::temp_dir().join(format!("smpi_replay_tiers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, trace) in traces {
        let path = dir.join(format!("{name}.tit2"));
        replay::save_trace(&path, &trace).unwrap();
        let reader = Arc::new(smpi_suite::smpi::TiV2Reader::open(&path).unwrap());
        let trace = Arc::new(trace);
        for (platform, base) in [("griffon", griffon_world()), ("gdx", gdx_world())] {
            for metrics in [false, true] {
                let world = base.clone().metrics(metrics).capture(true).tracing(true);
                let label = format!("{name} on {platform}, metrics {metrics}");
                let mem = assert_tiers_agree(&label, &world, Arc::clone(&trace).into());
                let streamed = assert_tiers_agree(&label, &world, Arc::clone(&reader).into());
                assert_eq!(mem, streamed, "{label}: streamed source diverges");
                if metrics && platform == "griffon" {
                    assert_eq!(mem, trace.encode(), "{label}: re-capture drifted");
                }
                if name == "wildcard" && platform == "gdx" {
                    // Other timing, other poll outcomes: captured waits were
                    // filtered, so the replay issued fewer of them.
                    let waits = |t: &str| t.lines().filter(|l| l.contains("wait")).count();
                    assert!(
                        waits(&mem) < waits(&trace.encode()),
                        "{label}: no filtering"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// A `TITRACE2` file corrupted inside a block that `open` never reads: the
/// replay surfaces the decode failure as a typed error, mid-run, without
/// panicking.
#[test]
fn corrupt_block_mid_stream_is_a_typed_error() {
    use smpi_suite::smpi::{TiV2Writer, TraceIoError};
    use std::io::Write;

    /// A writer that exposes how many bytes went through it.
    struct Counted(Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Counted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let trace = griffon_world()
        .capture(true)
        .run(4, mix_app)
        .ti_trace
        .unwrap();
    let bytes = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut w = TiV2Writer::new(Counted(Arc::clone(&bytes)), trace.num_ranks());
    let mut second_block = 0;
    for (rank, ops) in trace.ranks.iter().enumerate() {
        if rank == 1 {
            second_block = bytes.lock().unwrap().len();
        }
        w.write_block(rank as u32, ops).unwrap();
    }
    w.finish().unwrap();
    let mut bytes = std::mem::take(&mut *bytes.lock().unwrap());
    // Block header: varint(rank) varint(nops) u8(comp) ...; flip the
    // compression tag of rank 1's block into an unknown one.
    bytes[second_block + 2] ^= 0xff;

    let dir = std::env::temp_dir().join(format!("smpi_replay_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flipped.tit2");
    std::fs::write(&path, &bytes).unwrap();
    let reader = Arc::new(smpi_suite::smpi::TiV2Reader::open(&path).expect("footer is intact"));
    let err = replay::try_replay(&griffon_world(), reader).unwrap_err();
    assert!(
        matches!(err, replay::ReplayError::Trace(TraceIoError::V2(_))),
        "got {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// A trace whose receive nobody sends to: a typed deadlock naming the
/// blocked rank, with its postmortem, not a panic.
#[test]
fn unmatched_recv_is_a_typed_deadlock() {
    use smpi_suite::smpi::{SimError, TiOp, WaitMode};
    let trace = TiTrace {
        ranks: vec![
            vec![TiOp::Compute { flops: 1e6 }],
            vec![
                TiOp::Recv {
                    src: 0,
                    cid: 0,
                    tag: 9,
                    max_bytes: 64,
                },
                TiOp::Wait {
                    reqs: vec![0],
                    mode: WaitMode::All,
                },
            ],
        ],
    };
    let err = replay::try_replay(&griffon_world(), Arc::new(trace)).unwrap_err();
    match err {
        replay::ReplayError::Sim(SimError::Deadlock {
            blocked,
            postmortem,
        }) => {
            assert_eq!(blocked, vec![1]);
            assert_eq!(postmortem.ranks[0].rank, 1);
            assert!(postmortem.render().contains("tag 9"));
        }
        other => panic!("expected a deadlock, got {other}"),
    }
}

/// Replays the trace file at `path`, opened through the one door, and
/// demands the typed "no ranks" error.
fn assert_rankless_trace_is_refused(path: &std::path::Path) {
    use smpi_suite::smpi::TraceIoError;
    let source = TraceSource::open(path).expect("a rankless trace opens");
    assert_eq!(source.num_ranks(), 0);
    match replay::try_replay(&griffon_world(), source) {
        Err(replay::ReplayError::Trace(TraceIoError::Format(e))) => {
            assert!(e.message.contains("no ranks"), "got {e}");
        }
        Err(other) => panic!("expected a format error, got {other}"),
        Ok(_) => panic!("a trace without ranks replayed"),
    }
    std::fs::remove_file(path).ok();
}

/// A `TITRACE v1` text trace that declares no ranks: a typed format
/// error, not a panic.
#[test]
fn a_v1_trace_without_ranks_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("smpi_replay_rankless_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.tit");
    std::fs::write(&path, "TITRACE v1\nranks 0\n").unwrap();
    assert_rankless_trace_is_refused(&path);
}

/// A `TITRACE2` file written for zero ranks: the same typed format error.
#[test]
fn a_tit2_file_without_ranks_is_a_typed_error() {
    use smpi_suite::smpi::TiV2Writer;
    let dir = std::env::temp_dir().join(format!("smpi_replay_rankless_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.tit2");
    let file = std::fs::File::create(&path).unwrap();
    TiV2Writer::new(std::io::BufWriter::new(file), 0)
        .finish()
        .unwrap();
    assert_rankless_trace_is_refused(&path);
}
