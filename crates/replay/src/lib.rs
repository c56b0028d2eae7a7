//! # smpi-replay — off-line replay of time-independent traces
//!
//! The complement of the paper's on-line simulator: capture a run once
//! (with [`World::capture`] or, for bounded-memory streaming capture,
//! `World::capture_to`), then re-simulate its time-independent trace
//! against *any* platform spec and network model — no rank bodies, no
//! application compute, no payload allocation, and no threads: a replayed
//! rank is a trace cursor stepped by the simulation kernel's own loop, on
//! the calling thread. That is what makes thousands-of-run sensitivity
//! sweeps (swap the transfer model, the topology, the MPI profile)
//! tractable, and rank counts are bounded by memory alone.
//!
//! ```
//! use smpi::World;
//! use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
//! use surf_sim::TransferModel;
//! use std::sync::Arc;
//!
//! let rp = Arc::new(RoutedPlatform::new(flat_cluster("c", 4, &ClusterConfig::default())));
//! let world = World::smpi(rp, TransferModel::default_affine()).capture(true);
//! let online = world.run(4, |ctx| {
//!     ctx.compute(1e6);
//!     let x = [ctx.rank() as f64];
//!     ctx.allreduce(&x, &smpi::op::sum::<f64>(), &ctx.world())[0]
//! });
//! let trace = online.ti_trace.as_ref().unwrap();
//!
//! // Same platform: the replayed makespan is the online makespan.
//! let replayed = smpi_replay::replay(&world, trace);
//! assert_eq!(replayed.sim_time, online.sim_time);
//! ```
//!
//! ## Trace sources
//!
//! Every entry point takes `impl Into<`[`TraceSource`]`>`: a `&TiTrace`
//! or `Arc<TiTrace>` (a decoded trace: the `ti_trace` of a captured run
//! report, or a v1 text file), an `Arc<`[`TiV2Reader`]`>` (a `TITRACE2`
//! file behind its block-streaming reader: ops are decoded block by block
//! as each rank's cursor advances, so replay memory is bounded by block
//! size rather than trace length, and concurrent replays of the same file
//! share decoded blocks — stream once, replay many), or whatever
//! [`TraceSource::open`] found on disk. Replication sweeps share one
//! source across workers: each call builds a private runtime and fabric.
//!
//! [`replay`] panics where [`try_replay`] returns a typed [`ReplayError`]
//! — a deadlock or stall with its postmortem, a block found corrupt
//! mid-stream, or a trace with no ranks. To keep a trace on disk, write
//! the bytes of [`smpi::encode_v2`] (`TITRACE2`) or the string of
//! [`TiTrace::encode`](smpi::TiTrace::encode) (v1 text).
//!
//! ## Semantics under model swap
//!
//! The trace fixes each rank's *order* of simcalls; the target world fixes
//! their *timing*. Eager/rendezvous is re-decided under the target world's
//! [`smpi::MpiProfile`], transfers are re-timed by its fabric, and waits
//! re-block until the re-timed requests complete. One divergence class
//! needs care: on a different platform, a captured `Poll`/`Waitany` may
//! complete a *different subset* of requests than it did on-line, so later
//! captured waits can name requests the replay has already consumed (or
//! miss ones it has not). The replayer tracks consumption per rank and
//! filters every captured wait down to the requests still live in *this*
//! replay, skipping waits that become empty. On the capture platform
//! nothing is ever filtered and the replay is bit-identical.
//!
//! Captures record each collective as a logical [`TiOp::Coll`] annotated
//! with the algorithm variant the on-line run chose, followed by the
//! point-to-point traffic that variant produced. The replayer plays that
//! traffic faithfully; the annotation becomes a region when the target
//! world records metrics.
//!
//! Replay is faithful only for applications whose communication structure
//! does not depend on message *values* or wall-clock races (the standard
//! time-independent-trace caveat); wildcard receives replay correctly as
//! long as their matching order stays deterministic.
//!
//! ## Test seams
//!
//! Two `pub` functions have no caller outside tests and the benchmark
//! suite. [`replay_stream`] is [`replay`] under the name the frozen
//! benchmark's replay workload calls. The doc-hidden `replay_on_fibers`
//! runs the same rank scripts as one fiber each through `World::try_run`:
//! it is the stackful oracle `tests/replay_e2e.rs` diffs [`try_replay`]
//! against, not a production path.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use smpi::capture::intern_region;
use smpi::capture_v2::TiV2Reader;
use smpi::{
    PostWindow, ReqId, RunReport, SimError, SimResp, Simcall, TiDecodeError, TiOp, TraceCursor,
    TraceIoError, TraceSource, World,
};

/// Why a replay did not produce a report.
#[derive(Debug)]
pub enum ReplayError {
    /// The replayed ranks stopped making progress (deadlock, kernel stall,
    /// protocol violation); carries the flight-recorder postmortem.
    Sim(SimError),
    /// The op source failed mid-stream (i/o error, corrupt `TITRACE2` block).
    Trace(TraceIoError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Sim(e) => e.fmt(f),
            ReplayError::Trace(e) => write!(f, "trace source failed mid-replay: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Re-simulates a captured trace on `world` and returns the ordinary run
/// report (same observability artifacts as an on-line run: metrics, Paje
/// timelines, self-profile — per the world's configuration).
///
/// No application code executes: each rank is a trace cursor issuing the
/// captured simcalls with data-less messages. Panics where [`try_replay`]
/// returns an error.
pub fn replay(world: &World, source: impl Into<TraceSource>) -> RunReport<()> {
    try_replay(world, source).unwrap_or_else(|e| panic!("{e}"))
}

/// [`replay`] of a streaming `TITRACE2` reader, under the name the
/// benchmark suite calls.
pub fn replay_stream(world: &World, reader: Arc<TiV2Reader>) -> RunReport<()> {
    replay(world, reader)
}

/// Replays a trace, returning a typed [`ReplayError`] when the replayed
/// ranks deadlock or stall, when the source fails mid-stream, or when the
/// trace has no ranks.
///
/// Ranks are `RankScript`s stepped on the calling thread
/// ([`World::try_run_scripts`]).
pub fn try_replay(
    world: &World,
    source: impl Into<TraceSource>,
) -> Result<RunReport<()>, ReplayError> {
    let replay = Replay::new(world, source.into())?;
    let scripts = (0..replay.nranks).map(|rank| replay.script(rank));
    let run = world.try_run_scripts(scripts.collect());
    replay.finish(run)
}

/// The stackful replay: the same `RankScript`s, each driven by one fiber
/// per rank through [`World::try_run`], as an on-line run drives its
/// bodies. The oracle [`try_replay`] is tested against, not a production
/// path.
#[doc(hidden)]
pub fn replay_on_fibers(
    world: &World,
    source: impl Into<TraceSource>,
) -> Result<RunReport<()>, ReplayError> {
    let replay = Replay::new(world, source.into())?;
    let fibers = replay.clone();
    let run = world.try_run(replay.nranks, move |ctx| {
        let mut step = fibers.script(ctx.rank());
        let mut resp = None;
        while let Some(call) = step(resp) {
            resp = Some(ctx.simcall(call));
        }
    });
    replay.finish(run)
}

/// What both replay tiers share: one source's rank scripts, and the first
/// failure any of them met.
#[derive(Clone)]
struct Replay {
    source: TraceSource,
    nranks: usize,
    /// Regions are only issued when the world records metrics.
    obs: bool,
    failure: Rc<RefCell<Option<TraceIoError>>>,
}

impl Replay {
    /// Refuses a trace with no ranks: there is nothing to replay.
    fn new(world: &World, source: TraceSource) -> Result<Replay, ReplayError> {
        let nranks = source.num_ranks();
        if nranks == 0 {
            return Err(ReplayError::Trace(TraceIoError::Format(TiDecodeError {
                line: 0,
                message: "the trace has no ranks: nothing to replay".into(),
            })));
        }
        Ok(Replay {
            source,
            nranks,
            obs: world.metrics_enabled(),
            failure: Rc::default(),
        })
    }

    /// Rank `rank`'s script. A rank whose source fails ends there; the
    /// first failure is kept for [`Replay::finish`].
    fn script(&self, rank: usize) -> impl FnMut(Option<SimResp>) -> Option<Simcall> {
        let mut script = RankScript {
            ops: self.source.rank_ops(rank),
            obs: self.obs,
            n_posted: 0,
            live: PostWindow::new(),
            waited: Vec::new(),
        };
        let failure = Rc::clone(&self.failure);
        move |resp| {
            script.step(resp).unwrap_or_else(|e| {
                failure.borrow_mut().get_or_insert(e);
                None
            })
        }
    }

    /// The peers of a rank that ended early usually deadlock: the source
    /// failure is the cause and takes precedence.
    fn finish(&self, run: Result<RunReport<()>, SimError>) -> Result<RunReport<()>, ReplayError> {
        match self.failure.take() {
            Some(e) => Err(ReplayError::Trace(e)),
            None => run.map_err(ReplayError::Sim),
        }
    }
}

fn region(name: &str, enter: bool) -> Simcall {
    let name = intern_region(name);
    Simcall::Region { name, enter }
}

/// One replayed rank as a resumable state machine: the single translation
/// of captured [`TiOp`]s into [`Simcall`]s.
struct RankScript {
    ops: TraceCursor,
    /// Regions are only issued when the world records metrics.
    obs: bool,
    /// Requests are named by post index in the trace; `live` maps the index
    /// of each not-yet-consumed request to its id in this replay (a dense
    /// window: indices only grow).
    n_posted: u32,
    live: PostWindow<ReqId>,
    /// Trace indices of the requests in the wait being answered, by position.
    waited: Vec<u32>,
}

impl RankScript {
    /// Absorbs the answer to the previous simcall (`None` to start) and
    /// returns the next one, or `None` when the rank is done; fails when the
    /// op source does.
    fn step(&mut self, resp: Option<SimResp>) -> Result<Option<Simcall>, TraceIoError> {
        match resp {
            Some(SimResp::Req(id)) => {
                self.live.insert(self.n_posted, id);
                self.n_posted += 1;
            }
            Some(SimResp::Done(done)) => {
                for c in done {
                    self.live.remove(self.waited[c.index]);
                }
            }
            _ => {}
        }
        while let Some(op) = self.ops.try_next()? {
            let call = match op {
                TiOp::Compute { flops } => Simcall::Exec { flops },
                TiOp::Sleep { secs } => Simcall::Sleep { secs },
                TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                } => Simcall::Isend {
                    dst,
                    cid,
                    tag,
                    bytes,
                    payload: None,
                },
                TiOp::Recv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                } => Simcall::Irecv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                },
                TiOp::Wait { reqs, mode } => {
                    // Filter to requests still live in this replay (see the
                    // crate docs on divergence under model swap).
                    self.waited.clear();
                    let mut live = Vec::with_capacity(reqs.len());
                    for ix in reqs {
                        if let Some(&req) = self.live.get(ix) {
                            self.waited.push(ix);
                            live.push(req);
                        }
                    }
                    if live.is_empty() {
                        continue; // captured wait already satisfied here
                    }
                    Simcall::Wait { reqs: live, mode }
                }
                TiOp::Region { name, enter } if self.obs => region(&name, enter),
                TiOp::Coll { name, .. } if self.obs => region(&name, true),
                TiOp::Region { .. } | TiOp::Coll { .. } => continue,
            };
            return Ok(Some(call));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi::{Ctx, TiTrace, WaitMode};
    use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
    use surf_sim::TransferModel;

    fn small_world() -> World {
        let rp = Arc::new(RoutedPlatform::new(flat_cluster(
            "n",
            4,
            &ClusterConfig::default(),
        )));
        World::smpi(rp, TransferModel::default_affine())
    }

    /// A little app exercising p2p (eager + rendezvous), wildcard waits,
    /// collectives and compute.
    fn app(ctx: &Ctx) -> f64 {
        let w = ctx.world();
        ctx.compute(5e5 * (ctx.rank() + 1) as f64);
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let mut buf = vec![0.0f64; 64 * 1024];
        let big = vec![ctx.rank() as f64; 64 * 1024];
        ctx.sendrecv(&big, right, 7, &mut buf, left as i32, 7, &w);
        let x = [buf[0] + 1.0];
        ctx.allreduce(&x, &smpi::op::sum::<f64>(), &w)[0]
    }

    #[test]
    fn same_world_replay_is_exact() {
        let world = small_world().capture(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.as_ref().unwrap();
        assert!(trace.summary().sends > 0);
        let replayed = replay(&world, trace);
        assert_eq!(replayed.sim_time, online.sim_time);
        assert_eq!(replayed.finish_times, online.finish_times);
    }

    #[test]
    fn a_zero_makespan_replayed_exactly_has_no_error() {
        let world = small_world().capture(true);
        let online = world.run(2, |_| ());
        assert_eq!(online.sim_time, 0.0);
        let trace = online.ti_trace.as_ref().unwrap();
        assert_eq!(replay(&world, trace).sim_time, 0.0);
    }

    #[test]
    fn recapturing_a_replay_reproduces_the_trace() {
        // Capturing a replay must yield the original trace: the replayer
        // issues exactly the captured simcall stream.
        let world = small_world().capture(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.unwrap();
        let replayed = replay(&world, &trace);
        assert_eq!(replayed.ti_trace.unwrap(), trace);
    }

    #[test]
    fn recapturing_a_metrics_replay_reproduces_colls() {
        // With metrics on, captures carry logical collectives. Replaying
        // them faithfully re-issues the same region simcalls, so a capture
        // of the replay re-synthesizes identical Coll ops.
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.unwrap();
        let has_coll = trace
            .ranks
            .iter()
            .flatten()
            .any(|op| matches!(op, TiOp::Coll { name, algo, .. } if name == "allreduce" && !algo.is_empty()));
        assert!(has_coll, "metrics capture synthesizes annotated colls");
        let replayed = replay(&world, &trace);
        assert_eq!(replayed.sim_time, online.sim_time);
        assert_eq!(replayed.ti_trace.unwrap(), trace);
    }

    #[test]
    fn replay_carries_observability() {
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.as_ref().unwrap();
        let replayed = replay(&world.clone().metrics(true), trace);
        // Paje export works on the replayed report too.
        assert!(replayed.paje().contains("PajeSetState"));
        let metrics = replayed.metrics.expect("replay run produces metrics");
        let online_metrics = online.metrics.unwrap();
        // Same protocol traffic either way, including region counters.
        let counter = |m: &smpi_obs::MetricsReport, key: &str| {
            m.counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(
            counter(&online_metrics, "core.coll.allreduce"),
            counter(&metrics, "core.coll.allreduce"),
        );
        assert_eq!(
            counter(&online_metrics, "core.sends.eager"),
            counter(&metrics, "core.sends.eager"),
        );
        assert!(counter(&metrics, "core.coll.allreduce") > 0);
    }

    #[test]
    fn replay_reproduces_attribution_byte_identically() {
        // The contention attribution section is a pure function of the
        // simcall stream and the platform, so replaying a captured trace on
        // the same world must reproduce it exactly — same flows in the same
        // order, same share integrals, same bottleneck residencies.
        let world = small_world().capture(true).metrics(true);
        let online = world.run(4, app);
        let trace = online.ti_trace.as_ref().unwrap();
        let replayed = replay(&world.clone().metrics(true), trace);
        let c_online = online.contention.as_ref().expect("online attribution");
        let c_replay = replayed.contention.as_ref().expect("replayed attribution");
        assert!(!c_online.flows.is_empty(), "the app sends messages");
        assert_eq!(c_online.to_json(), c_replay.to_json());
    }

    #[test]
    fn waits_on_consumed_requests_are_skipped() {
        // A hand-written trace whose second wait re-lists an index that the
        // first wait consumed and adds nothing live: replay must skip it
        // rather than panic, and still finish.
        let trace = TiTrace {
            ranks: vec![
                vec![
                    TiOp::Send {
                        dst: 1,
                        cid: 0,
                        tag: 1,
                        bytes: 100,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::All,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::All,
                    },
                ],
                vec![
                    TiOp::Recv {
                        src: 0,
                        cid: 0,
                        tag: 1,
                        max_bytes: 100,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::Any,
                    },
                    TiOp::Wait {
                        reqs: vec![0, 0],
                        mode: WaitMode::Poll,
                    },
                ],
            ],
        };
        let world = small_world();
        let report = replay(&world, &trace);
        assert!(report.sim_time > 0.0);
    }

    #[test]
    fn streamed_replay_matches_in_memory_replay() {
        let dir = std::env::temp_dir().join("smpi_replay_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamed.tit2");
        // Capture straight to disk with a tiny budget to force many blocks.
        let world = small_world()
            .capture_to(&path)
            .capture_tuning(16, 1024)
            .metrics(true);
        let online = world.run(4, app);
        assert!(online.ti_trace.is_none(), "streamed capture stays on disk");
        let codec = online.profile.codec.as_ref().expect("codec stats");
        assert!(codec.ops > 0 && codec.blocks > 1);

        let reader = Arc::new(TiV2Reader::open(&path).unwrap());
        let replay_world = small_world().metrics(true);
        let streamed = replay_stream(&replay_world, Arc::clone(&reader));
        assert_eq!(streamed.sim_time, online.sim_time);
        assert_eq!(streamed.finish_times, online.finish_times);

        // The streamed ops equal an in-memory capture of the same run.
        let mem = small_world().capture(true).metrics(true).run(4, app);
        assert_eq!(reader.materialize().unwrap(), mem.ti_trace.unwrap());
        std::fs::remove_file(&path).ok();
    }
}
