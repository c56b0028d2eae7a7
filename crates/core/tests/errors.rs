//! No-progress conditions surface as typed [`SimError`]s through
//! `World::try_run` instead of panics from deep inside the kernel, and
//! carry a flight-recorder [`smpi::Postmortem`] naming each blocked rank's
//! pending requests and recent ops.

use std::sync::Arc;

use smpi::{Backend, SimError, World, FLIGHT_DEPTH};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use surf_sim::{EngineConfig, TransferModel};

fn platform(n: usize) -> Arc<RoutedPlatform> {
    Arc::new(RoutedPlatform::new(flat_cluster(
        "t",
        n,
        &ClusterConfig::default(),
    )))
}

#[test]
fn kernel_stall_propagates_as_typed_error() {
    // A zero TCP window with non-zero route latency bounds every bandwidth
    // flow at 0 bytes/s: the transfer enters the bandwidth phase and then
    // can never finish.
    let world = World::new(
        platform(2),
        Backend::Surf {
            model: TransferModel::ideal(),
            engine: EngineConfig {
                contention: true,
                tcp_window: Some(0.0),
            },
        },
        smpi::MpiProfile::smpi(),
    );
    let err = world
        .try_run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&[0u8; 4096], 1, 0, &comm);
            } else {
                let _ = ctx.recv_vec::<u8>(0, 0, 4096, &comm);
            }
        })
        .expect_err("a rate-0 flow must stall the kernel");
    match &err {
        SimError::Stall { error, postmortem } => {
            assert!(!error.stuck.is_empty());
            assert_eq!(error.stuck[0].kind, "transfer");
            assert_eq!(error.stuck[0].rate, 0.0);
            // The maestro attaches MPI-level context: the eager send
            // detached at injection, so rank 1 alone is blocked, on a
            // matched receive whose message is stuck on the wire.
            assert_eq!(postmortem.ranks.len(), 1, "got:\n{}", postmortem.render());
            assert_eq!(postmortem.ranks[0].rank, 1);
            let spec = &postmortem.ranks[0].pending[0].spec;
            assert!(spec.contains("on the wire"), "spec: {spec}");
        }
        other => panic!("expected a stall, got: {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("stalled"), "unhelpful message: {msg}");
}

#[test]
fn unmatched_receive_is_a_deadlock_error() {
    let world = World::smpi(platform(2), TransferModel::ideal());
    let err = world
        .try_run(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 1 {
                // Nobody ever sends: this blocks forever.
                let _ = ctx.recv_vec::<u8>(0, 0, 16, &comm);
            }
        })
        .expect_err("an unmatched recv must deadlock");
    match &err {
        SimError::Deadlock {
            blocked,
            postmortem,
        } => {
            assert_eq!(blocked, &[1]);
            assert_eq!(postmortem.ranks.len(), 1);
            assert_eq!(postmortem.ranks[0].rank, 1);
            let spec = &postmortem.ranks[0].pending[0].spec;
            assert!(spec.contains("recv src 0"), "spec: {spec}");
            assert!(spec.contains("unmatched"), "spec: {spec}");
            // Rank 0 never sent anything, so there is no counterpart.
            assert!(postmortem.ranks[0].pending[0].counterpart.is_none());
        }
        other => panic!("expected a deadlock, got: {other}"),
    }
}

#[test]
fn deadlock_inside_a_collective_region_is_torn_down() {
    // With metrics on, a collective is bracketed by region simcalls, the
    // closing one issued by a drop guard. Ranks 1..3 deadlock inside the
    // barrier; tearing them down must not run that guard's simcall.
    let world = World::smpi(platform(4), TransferModel::ideal()).metrics(true);
    let err = world
        .try_run(4, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let _ = ctx.recv_vec::<u8>(1, 99, 1, &comm);
            } else {
                ctx.barrier(&comm);
            }
        })
        .expect_err("a barrier one rank never enters must deadlock");
    match &err {
        SimError::Deadlock { blocked, .. } => assert_eq!(blocked, &[0, 1, 2, 3]),
        other => panic!("expected a deadlock, got: {other}"),
    }
}

/// Rank 0 sends rank 1 a few bytes.
fn exchange(ctx: &smpi::Ctx) {
    let comm = ctx.world();
    if ctx.rank() == 0 {
        ctx.send(&[7u8; 64], 1, 0, &comm);
    } else {
        let _ = ctx.recv_vec::<u8>(0, 0, 64, &comm);
    }
}

/// `world`'s `run` panics, with `err`'s text.
fn run_panics_with(world: &World, err: &SimError) {
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| world.run(2, exchange)))
        .expect_err("run panics where try_run errs");
    let text = panic.downcast_ref::<String>().expect("a formatted panic");
    assert_eq!(text, &err.to_string());
}

#[test]
fn capture_file_that_cannot_be_created_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("smpi-no-such-dir-{}", std::process::id()));
    let world = World::smpi(platform(2), TransferModel::ideal()).capture_to(dir.join("run.tit2"));
    let err = world
        .try_run(2, exchange)
        .expect_err("a capture path under a missing directory");
    match &err {
        SimError::Capture { context, error } => {
            assert!(
                context.starts_with("cannot create capture file "),
                "{context}"
            );
            assert!(context.ends_with("run.tit2"), "{context}");
            assert_eq!(error.kind(), std::io::ErrorKind::NotFound);
        }
        other => panic!("expected a capture error, got: {other}"),
    }
    assert!(err.postmortem().ranks.is_empty());
    assert!(std::error::Error::source(&err).is_some());
    run_panics_with(&world, &err);
}

#[test]
fn capture_write_failure_is_a_typed_error() {
    // Opening /dev/full succeeds; the write fails when the run's capture is
    // flushed at the end.
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let world = World::smpi(platform(2), TransferModel::ideal()).capture_to(full);
    let err = world
        .try_run(2, exchange)
        .expect_err("a capture to a full device");
    match &err {
        SimError::Capture { context, error } => {
            assert_eq!(context, "streaming capture write failed");
            assert_eq!(error.kind(), std::io::ErrorKind::StorageFull);
        }
        other => panic!("expected a capture error, got: {other}"),
    }
    assert!(err
        .to_string()
        .starts_with("streaming capture write failed: "));
    run_panics_with(&world, &err);
}

/// The crafted tag-mismatch scenario: after four warm-up exchange rounds
/// (so both flight rings hold at least [`FLIGHT_DEPTH`]/2 real entries),
/// rank 0 sends 128 KiB with tag 7 while rank 1 receives tag 9. The send
/// is rendezvous so both sides block, and the postmortem must name both
/// pending specs, point each at its nearest counterpart, and replay each
/// rank's recent ops.
fn tag_mismatch_error() -> SimError {
    let world = World::smpi(platform(2), TransferModel::ideal());
    world
        .try_run(2, |ctx| {
            let comm = ctx.world();
            let peer = 1 - ctx.rank();
            // Warm-up: four eager ping-pong rounds in each direction.
            for round in 0..4 {
                let payload = [round as u8; 64];
                if ctx.rank() == 0 {
                    ctx.send(&payload, peer, 1, &comm);
                    let _ = ctx.recv_vec::<u8>(peer as i32, 2, 64, &comm);
                } else {
                    let _ = ctx.recv_vec::<u8>(peer as i32, 1, 64, &comm);
                    ctx.send(&payload, peer, 2, &comm);
                }
            }
            // The bug under test: tags disagree, both ranks block forever.
            if ctx.rank() == 0 {
                ctx.send(&vec![0u8; 128 * 1024], 1, 7, &comm);
            } else {
                let _ = ctx.recv_vec::<u8>(0, 9, 128 * 1024, &comm);
            }
        })
        .expect_err("mismatched tags must deadlock")
}

#[test]
fn tag_mismatch_postmortem_names_both_sides() {
    let err = tag_mismatch_error();
    let SimError::Deadlock {
        blocked,
        postmortem,
    } = &err
    else {
        panic!("expected a deadlock, got: {err}");
    };
    assert_eq!(blocked, &[0, 1]);
    assert_eq!(postmortem.ranks.len(), 2);

    let r0 = &postmortem.ranks[0];
    assert_eq!(r0.rank, 0);
    assert_eq!(r0.wait_mode, Some("all"));
    assert_eq!(r0.pending.len(), 1);
    let spec = &r0.pending[0].spec;
    assert!(spec.contains("send dst 1"), "spec: {spec}");
    assert!(spec.contains("tag 7"), "spec: {spec}");
    assert!(spec.contains("131072 B"), "spec: {spec}");
    assert!(spec.contains("unmatched"), "spec: {spec}");
    let cp = r0.pending[0].counterpart.as_deref().unwrap();
    assert!(cp.contains("tag mismatch"), "counterpart: {cp}");
    assert!(cp.contains("tag 9"), "counterpart: {cp}");

    let r1 = &postmortem.ranks[1];
    assert_eq!(r1.rank, 1);
    let spec = &r1.pending[0].spec;
    assert!(spec.contains("recv src 0"), "spec: {spec}");
    assert!(spec.contains("tag 9"), "spec: {spec}");
    let cp = r1.pending[0].counterpart.as_deref().unwrap();
    assert!(cp.contains("tag mismatch"), "counterpart: {cp}");
    assert!(cp.contains("tag 7"), "counterpart: {cp}");

    // The flight recorder kept a meaningful history for every blocked
    // rank: at least 8 recent ops, ending in the fatal post + wait.
    for r in &postmortem.ranks {
        assert!(
            r.last_ops.len() >= 8,
            "rank {} history too short: {:?}",
            r.rank,
            r.last_ops
        );
        assert!(r.last_ops.len() <= FLIGHT_DEPTH);
        let tail = r.last_ops.last().unwrap();
        assert!(tail.starts_with("wait "), "tail: {tail}");
    }

    // The rendered error is self-diagnosing.
    let msg = err.to_string();
    assert!(msg.contains("postmortem: 2 blocked rank(s)"), "{msg}");
    assert!(msg.contains("nearest match:"), "{msg}");
}

/// Protocol violations (a completion naming a request or message the
/// runtime no longer knows — the signature of a malformed or truncated
/// `.tit` replay trace) are typed, self-describing errors rather than
/// panics that poison the maestro thread.
#[test]
fn protocol_error_is_typed_and_diagnosable() {
    let err = SimError::Protocol {
        detail: "fabric completion for unknown token 42".into(),
        postmortem: Box::default(),
    };
    let msg = err.to_string();
    assert!(msg.contains("protocol error"), "{msg}");
    assert!(msg.contains("unknown token 42"), "{msg}");
    assert!(msg.contains("truncated trace"), "{msg}");
    // The shared postmortem accessor covers the new variant.
    assert!(err.postmortem().ranks.is_empty());
    assert!(std::error::Error::source(&err).is_none());
}

/// The postmortem JSON is deterministic; gate it against a committed
/// golden. Regenerate with `BLESS=1 cargo test -p smpi --test errors`.
#[test]
fn tag_mismatch_postmortem_matches_golden_json() {
    let err = tag_mismatch_error();
    let json = err.postmortem().to_json();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/postmortem.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &json).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file (run with BLESS=1)");
    assert_eq!(json, golden, "postmortem JSON drifted from the golden file");
}

/// Both network substrates: request bookkeeping lives above the fabric, so
/// misuse must be diagnosed identically on each.
fn both_backends() -> [World; 2] {
    [
        World::smpi(platform(2), TransferModel::ideal()),
        World::testbed(platform(2), smpi::MpiProfile::smpi()),
    ]
}

/// Asserts a typed protocol error whose detail names `rank`, `[post N]` and
/// `why`, and that it renders (postmortem included) without panicking.
fn assert_stale_wait(err: &SimError, rank: u32, post: u32, why: &str) {
    let SimError::Protocol { detail, .. } = err else {
        panic!("expected a protocol error, got: {err}");
    };
    assert!(detail.contains(&format!("rank {rank} waits")), "{detail}");
    assert!(detail.contains(&format!("[post {post}]")), "{detail}");
    assert!(detail.contains(why), "{detail}");
    assert!(err.to_string().contains(detail.as_str()));
    let _ = err.postmortem().to_json();
}

/// A request is consumed by the wait that reports its completion
/// (`MPI_REQUEST_NULL` afterwards). Naming it again — in any wait mode — is
/// an application bug the maestro reports, not a map-index panic.
#[test]
fn waiting_twice_on_a_request_is_a_typed_error() {
    type Misuse = fn(&smpi::Ctx, &[smpi::AnyRequest]);
    let misuses: [(&str, Misuse); 3] = [
        ("wait_all twice", |ctx, set| {
            ctx.wait_all(set);
            ctx.wait_all(set);
        }),
        ("wait_any then wait_all", |ctx, set| {
            let first = ctx.wait_any(set);
            // The eager send detaches at injection; the echo is a round
            // trip away.
            assert_eq!(first.index, 0);
            ctx.wait_all(set);
        }),
        ("wait_all then test", |ctx, set| {
            ctx.wait_all(set);
            ctx.test(set);
        }),
    ];
    for world in both_backends() {
        for (what, misuse) in misuses {
            let err = world
                .try_run(2, move |ctx| {
                    let comm = ctx.world();
                    if ctx.rank() == 0 {
                        // Post 0 is consumed properly, so the misused set is
                        // posts 1 and 2: the error must print the post
                        // index, not the position in the set.
                        ctx.send(&[0u8; 8], 1, 0, &comm);
                        let set = [
                            ctx.isend(&[1u8; 8], 1, 1, &comm).into_any(),
                            ctx.irecv::<u8>(1, 2, 8, &comm).into_any(),
                        ];
                        misuse(ctx, &set);
                    } else {
                        let _ = ctx.recv_vec::<u8>(0, 0, 8, &comm);
                        let (echo, _) = ctx.recv_vec::<u8>(0, 1, 8, &comm);
                        ctx.send(&echo, 0, 2, &comm);
                    }
                })
                .expect_err(what);
            assert_stale_wait(&err, 0, 1, "already reported");
        }
    }
}

/// A request belongs to the rank that posted it; another rank naming it is
/// refused at the wait instead of stealing (or corrupting) its completion.
#[test]
fn waiting_on_another_ranks_request_is_a_typed_error() {
    use std::sync::Mutex;
    for world in both_backends() {
        let slot: Arc<Mutex<Option<smpi::AnyRequest>>> = Arc::default();
        let err = world
            .try_run(2, move |ctx| {
                let comm = ctx.world();
                if ctx.rank() == 0 {
                    let mine = ctx.irecv::<u8>(1, 5, 8, &comm).into_any();
                    *slot.lock().unwrap() = Some(mine);
                    // Orders rank 1's read of the slot after the store.
                    ctx.send(&[0u8; 1], 1, 0, &comm);
                    ctx.wait_all(&[mine]);
                    ctx.send(&[0u8; 1], 1, 6, &comm);
                } else {
                    let _ = ctx.recv_vec::<u8>(0, 0, 1, &comm);
                    let theirs = slot.lock().unwrap().expect("rank 0 stored it");
                    // Completes rank 0's receive; tag 6 says rank 0 has
                    // collected it...
                    ctx.send(&[7u8; 8], 0, 5, &comm);
                    let _ = ctx.recv_vec::<u8>(0, 6, 1, &comm);
                    // ...and rank 1 then claims it as its own.
                    ctx.wait_all(&[theirs]);
                }
            })
            .expect_err("rank 1 waited on rank 0's request");
        assert_stale_wait(&err, 1, 0, "belongs to rank 0");
    }
}

/// The same refusal on the event-driven scheduler (what replay runs on):
/// a script that waits twice on a request it posted.
#[test]
fn stale_wait_from_a_script_is_a_typed_error() {
    use smpi::{SimResp, Simcall, WaitMode};
    type Script = Box<dyn FnMut(Option<SimResp>) -> Option<Simcall>>;
    let wait = |id| Simcall::Wait {
        reqs: vec![id],
        mode: WaitMode::All,
    };
    // Rank 0 sends itself 8 data-less bytes and waits on the send twice.
    let mut step = 0;
    let mut sent = None;
    let script: Script = Box::new(move |resp| {
        step += 1;
        match (step, resp) {
            (1, None) => Some(Simcall::Isend {
                dst: 0,
                cid: 0,
                tag: 0,
                bytes: 8,
                payload: None,
            }),
            (2, Some(SimResp::Req(id))) => {
                sent = Some(id);
                Some(wait(id))
            }
            (3, Some(SimResp::Done(done))) => {
                assert_eq!(done.len(), 1);
                Some(wait(sent.expect("posted in step 1")))
            }
            other => panic!("unexpected step {other:?}"),
        }
    });
    let err = World::smpi(platform(1), TransferModel::ideal())
        .try_run_scripts(vec![script])
        .expect_err("second wait on a reported request");
    assert_stale_wait(&err, 0, 0, "already reported");
}
