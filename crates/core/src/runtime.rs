//! The SMPI runtime: simcall protocol and the maestro progress engine.
//!
//! MPI ranks (simix actors) issue [`Simcall`]s; the maestro matches sends to
//! receives, drives message state machines over the [`Fabric`], and resolves
//! blocked ranks when their wait conditions hold. This is where the paper's
//! protocol semantics live:
//!
//! * **matching** — per (context id, destination), receives match the
//!   earliest compatible unmatched message in send-post order (MPI's
//!   non-overtaking rule); `ANY_SOURCE`/`ANY_TAG` wildcards supported;
//!   implemented with the per-(src, tag) FIFOs of [`crate::matching`] so
//!   the common concrete match costs O(1), not a queue scan;
//! * **eager** (≤ threshold) — the wire transfer starts at send post; the
//!   sender's request completes after its injection delay, independent of
//!   the receiver; an unexpected message waits, arrived, for its receive;
//! * **rendezvous** (> threshold) — the transfer starts only once *both*
//!   sides have posted (plus an RTS/CTS round-trip on profiles that model
//!   it); sender and receiver complete together;
//! * per-message software overheads and the receive-side copy penalty of the
//!   active [`MpiProfile`].
//!
//! Progress is **O(completions)**: each request record carries a flag saying
//! its owner is blocked on it, so a fabric event re-examines only the
//! waiters whose requests actually completed, never the whole blocked
//! population. At 10k+ ranks this is the difference between a linear and a
//! quadratic drive loop.
//!
//! A request has one name, [`ReqId`] = (posting rank, per-rank post index),
//! allocated here and nowhere else. It is the index captured traces
//! ([`TiOp::Wait`]), flight-recorder lines and postmortems print, so nothing
//! downstream keeps a table to translate it.
//!
//! Every table the maestro keeps is keyed by an id the loop issues itself,
//! so every table is dense and nothing on the per-event path hashes: live
//! requests sit in a per-rank [`PostWindow`] indexed by post, messages in a
//! slab whose slot is the message id, fabric tokens in a table indexed by
//! the token's slot (the [`Fabric`] token contract), and blocked ranks in a
//! vector indexed by rank.

use std::rc::Rc;
use std::time::Instant;

use simix::{ActorEvent, ActorId, Scheduler, Simix};
use smpi_obs::{ContentionReport, FlowAttribution, FlowRecord, Rec, SelfProfile};
use smpi_platform::HostIx;

use crate::capture::{mode_name, Capture, TiOp, TiTrace};
use crate::datatype::Payload;
use crate::error::SimError;
use crate::fabric::{Fabric, FabricToken, MpiProfile};
use crate::flight::{FlightRecorder, PendingReq, Postmortem, RankPostmortem};
use crate::matching::{MsgFifos, RecvFifos};
use crate::state::SimClock;
use crate::trace::{TraceEvent, TraceKind};
use crate::window::PostWindow;

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = crate::matching::ANY_SOURCE;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = crate::matching::ANY_TAG;

/// Identifier of a pending communication request (`MPI_Request`): the rank
/// that posted it and its 0-based index among that rank's posts — the index
/// a captured [`TiOp::Wait`], a flight-recorder line and a
/// [`PendingReq::post`] all print.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId {
    rank: u32,
    post: u32,
}

impl ReqId {
    /// World rank that posted the request (and the only one that may wait
    /// on it).
    pub fn rank(self) -> u32 {
        self.rank
    }

    /// 0-based index of the request among its rank's posts.
    pub fn post(self) -> u32 {
        self.post
    }
}

/// How a wait-class simcall completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitMode {
    /// Block until every request is complete (`MPI_Waitall`).
    All,
    /// Block until at least one completes; report exactly one (`MPI_Waitany`).
    Any,
    /// Block until at least one completes; report all complete (`MPI_Waitsome`).
    Some,
    /// Never block; report whatever is complete now (`MPI_Test*`).
    Poll,
}

/// Completion record delivered back to the application.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The completed request.
    pub req: ReqId,
    /// Index of the request in the waited slice.
    pub index: usize,
    /// World rank of the message source (receives; senders echo self).
    pub source: u32,
    /// Message tag.
    pub tag: i32,
    /// Message size in bytes.
    pub bytes: u64,
    /// Received payload (receives only).
    pub data: Option<Payload>,
}

/// A request from a rank to the maestro.
#[derive(Debug)]
pub enum Simcall {
    /// Post a send.
    Isend {
        /// Destination world rank.
        dst: u32,
        /// Context id of the communicator.
        cid: u32,
        /// Message tag (>= 0).
        tag: i32,
        /// Simulated message size in bytes.
        bytes: u64,
        /// The `bytes` of message data, or `None` for a data-less send
        /// (§3.2 technique #2: when CPU bursts are bypassed, their arrays
        /// are unreferenced and need not move; only the message *size*
        /// matters for timing).
        payload: Option<Payload>,
    },
    /// Post a receive.
    Irecv {
        /// Source world rank or [`ANY_SOURCE`].
        src: i32,
        /// Context id.
        cid: u32,
        /// Tag or [`ANY_TAG`].
        tag: i32,
        /// Capacity of the receive buffer in bytes.
        max_bytes: u64,
    },
    /// Wait for / test some requests.
    Wait {
        /// The requests, in application order.
        reqs: Vec<ReqId>,
        /// Blocking behaviour.
        mode: WaitMode,
    },
    /// Burn `flops` on the rank's host.
    Exec {
        /// Amount of computation.
        flops: f64,
    },
    /// Advance simulated time without consuming resources.
    Sleep {
        /// Seconds of simulated delay.
        secs: f64,
    },
    /// Read the simulated clock (`MPI_Wtime`).
    Now,
    /// Annotate entry/exit of a named region (collectives) on the caller's
    /// observability timeline. Zero simulated cost; only issued when
    /// metrics are enabled.
    Region {
        /// Region name (e.g. the collective's name).
        name: &'static str,
        /// `true` on entry, `false` on exit.
        enter: bool,
    },
}

/// The maestro's answer to a simcall.
#[derive(Debug)]
pub enum SimResp {
    /// Handle for a freshly posted Isend/Irecv.
    Req(ReqId),
    /// Completions for a Wait/Poll.
    Done(Vec<Completion>),
    /// The simulated time.
    Now(f64),
    /// Exec/Sleep finished.
    Unit,
}

/// The simix runtime specialized to the SMPI protocol.
pub type Sx = Simix<Simcall, SimResp>;
/// Actor-side handle specialized to the SMPI protocol.
pub type SxHandle = simix::ActorHandle<Simcall, SimResp>;

/// A live message: its slab slot, and its sequence number (the send-post
/// order the matching store keeps), which the slot must still hold for the
/// id to be live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgId {
    slot: u32,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgState {
    /// Created; rendezvous messages sit here until matched.
    Posted,
    /// Pre-transfer delay (send overhead / handshake) in progress.
    PreDelay,
    /// Wire transfer in progress.
    InFlight,
    /// Post-transfer delay (copy + recv overhead) in progress.
    PostDelay,
    /// Fully arrived at the receiver.
    Arrived,
}

#[derive(Debug)]
struct Message {
    /// The [`MsgId::seq`] of this message.
    seq: u64,
    tag: i32,
    src: u32,
    dst: u32,
    bytes: u64,
    payload: Option<Payload>,
    state: MsgState,
    eager: bool,
    send_req: ReqId,
    recv_req: Option<ReqId>,
    /// Contention attribution of the wire transfer, fetched from the fabric
    /// when the wire completes and turned into a [`FlowRecord`] at arrival.
    attr: Option<FlowAttribution>,
    /// Trace indices (tracing on) of the `RecvPosted` that released this
    /// rendezvous late and of its `TransferStarted`, for the next event.
    released_by: Option<u32>,
    wire_event: Option<u32>,
}

#[derive(Debug)]
enum ReqKind {
    Send,
    // The receive's (src, tag) specification lives in the matching store
    // (`RecvFifos`) until matched; the request only keeps what completion
    // needs.
    Recv { max_bytes: u64, msg: Option<MsgId> },
}

/// What a completed request reports back: (source, tag, bytes, payload).
type CompletionRecord = (u32, i32, u64, Option<Payload>);

#[derive(Debug)]
struct Request {
    kind: ReqKind,
    complete: bool,
    /// Filled when complete; taken when reported to the application.
    record: Option<CompletionRecord>,
    /// The owner (actor `id.rank()`) is blocked in a wait that counts this
    /// request: its completion must update that waiter. At most one waiter
    /// per request — an actor waits on one set at a time.
    waited: bool,
}

#[derive(Debug)]
enum TokenUse {
    /// Message advanced to the next stage when this token completes.
    MsgPre(MsgId),
    MsgWire(MsgId),
    MsgPost(MsgId),
    /// Eager sender-side injection finished.
    SenderDone(MsgId),
    /// An Exec/Sleep simcall of this actor finished.
    ActorDelay(ActorId),
}

#[derive(Debug)]
struct Waiting {
    reqs: Vec<ReqId>,
    mode: WaitMode,
    /// Distinct incomplete requests of the set still flagged `waited`.
    remaining: usize,
    /// Already pushed on `ready_waiters` (guards double-queueing when a
    /// second request of an Any/Some waiter completes in the same pass).
    queued: bool,
}

/// The progress engine. Owns the fabric and all protocol state; the
/// [`crate::world::World`] runner wires it to a `Simix` instance.
pub struct Runtime {
    fabric: Box<dyn Fabric>,
    profile: MpiProfile,
    /// World rank -> host placement.
    placement: Vec<HostIx>,
    /// Posts issued so far per rank: the next request's [`ReqId::post`].
    next_post: Vec<u32>,
    /// The next message's [`MsgId::seq`].
    next_msg: u64,
    /// Live requests (posted, completion not yet reported) per rank, by
    /// post index.
    requests: Vec<PostWindow<Request>>,
    /// Live messages by [`MsgId::slot`], and the vacant slots.
    messages: Vec<Option<Message>>,
    free_msgs: Vec<u32>,
    /// Pending fabric tokens by slot (the token's low 32 bits), each with
    /// its full token so a stale generation is refused.
    tokens: Vec<Option<(FabricToken, TokenUse)>>,
    /// The tokens of the fabric event being dispatched, claimed; reused.
    token_batch: Vec<(FabricToken, TokenUse)>,
    /// Unmatched messages per (cid, dst), FIFO per concrete (src, tag);
    /// send-post order carried by the message id.
    pending_msgs: MsgFifos<MsgId>,
    /// Unmatched posted receives per (cid, dst), FIFO per (src, tag) spec;
    /// post order carried by `id.post()` (every receive of a bucket is
    /// posted by rank `dst`).
    posted_recvs: RecvFifos<ReqId>,
    /// Ranks blocked in a Wait, by rank (actor id = world rank).
    waiting: Vec<Option<Waiting>>,
    /// Waiters whose condition now holds, queued by [`Self::complete`];
    /// drained (in actor-id order) by the next resolution pass.
    ready_waiters: Vec<ActorId>,
    /// Actors whose Exec/Sleep finished, to be resolved on the next pass.
    delayed_actors: Vec<ActorId>,
    /// Simulated completion time of each rank (actor id = world rank).
    finish_times: Vec<f64>,
    /// Event trace, when enabled.
    trace: Option<Vec<TraceEvent>>,
    /// Time-independent capture, when enabled (see [`crate::capture`]).
    capture: Option<Capture>,
    /// Per-delivered-message contention attribution, in delivery order
    /// (only fed while a recorder is enabled — the fabric returns no
    /// attribution otherwise).
    flow_records: Vec<FlowRecord>,
    /// Published simulated clock, read locally by ranks (`MPI_Wtime`).
    clock: Rc<SimClock>,
    /// Metrics recorder (disabled by default: every emit is one branch).
    rec: Rec,
    /// Whether the drive loop takes wall-clock phase timings.
    profiling: bool,
    /// Simcalls handled (plain increment, always collected).
    n_simcalls: u64,
    /// Fabric completion tokens dispatched.
    n_tokens: u64,
    /// Wall-clock seconds per drive-loop phase (only filled when profiling).
    phase_actors: f64,
    phase_maestro: f64,
    phase_fabric: f64,
    phase_resolve: f64,
    /// Always-on per-rank ring of recent ops (see [`crate::flight`]); the
    /// source of the [`Postmortem`] attached to progress failures.
    flight: FlightRecorder,
}

impl Runtime {
    /// Creates a runtime over a fabric for `nranks` ranks placed on hosts
    /// round-robin (`placement[r]` is rank r's host).
    pub fn new(fabric: Box<dyn Fabric>, profile: MpiProfile, placement: Vec<HostIx>) -> Self {
        let n = placement.len();
        Runtime {
            fabric,
            profile,
            placement,
            next_post: vec![0; n],
            next_msg: 0,
            requests: (0..n).map(|_| PostWindow::new()).collect(),
            messages: Vec::new(),
            free_msgs: Vec::new(),
            tokens: Vec::new(),
            token_batch: Vec::new(),
            pending_msgs: MsgFifos::new(),
            posted_recvs: RecvFifos::new(),
            waiting: (0..n).map(|_| None).collect(),
            ready_waiters: Vec::new(),
            delayed_actors: Vec::new(),
            finish_times: vec![0.0; n],
            trace: None,
            capture: None,
            flow_records: Vec::new(),
            clock: Rc::new(SimClock::new()),
            rec: Rec::disabled(),
            profiling: false,
            n_simcalls: 0,
            n_tokens: 0,
            phase_actors: 0.0,
            phase_maestro: 0.0,
            phase_fabric: 0.0,
            phase_resolve: 0.0,
            flight: FlightRecorder::new(n),
        }
    }

    /// Installs a metrics recorder on the maestro and (a clone of it) on the
    /// fabric. Protocol counters, per-rank state timelines and the fabric's
    /// own metrics all land in the same [`smpi_obs::MemoryRecorder`].
    pub fn set_recorder(&mut self, rec: Rec) {
        self.fabric.set_recorder(rec.clone());
        self.rec = rec;
    }

    /// Enables wall-clock phase timing in [`drive`](Self::drive).
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Installs the clock the maestro publishes simulated time to. Ranks
    /// holding a clone answer `MPI_Wtime` locally, without switching to the
    /// maestro (the local simcall tier; see [`crate::state::SimClock`]).
    pub fn set_clock(&mut self, clock: Rc<SimClock>) {
        clock.publish(self.now());
        self.clock = clock;
    }

    /// Snapshots the accumulated metrics, or `None` when no recorder is set.
    pub fn take_metrics(&self) -> Option<smpi_obs::MetricsReport> {
        self.rec.snapshot()
    }

    /// Takes the run's contention attribution: every delivered message with
    /// its per-link share integrals and bottleneck residency, plus the
    /// fabric's link-name table. `None` unless a recorder was enabled (the
    /// fabric records no attribution without one).
    pub fn take_contention(&mut self) -> Option<ContentionReport> {
        if !self.rec.is_enabled() {
            return None;
        }
        Some(ContentionReport {
            link_names: self.fabric.link_names(),
            flows: std::mem::take(&mut self.flow_records),
        })
    }

    /// The simulator's self-profile (valid after [`drive`](Self::drive)).
    /// `wall_seconds` is left for the caller, which owns the outer clock.
    pub fn self_profile(&self) -> SelfProfile {
        SelfProfile {
            phases: if self.profiling {
                vec![
                    ("actor_execution", self.phase_actors),
                    ("simcall_handling", self.phase_maestro),
                    ("fabric_advance", self.phase_fabric),
                    ("waiter_resolution", self.phase_resolve),
                ]
            } else {
                Vec::new()
            },
            simcalls: self.n_simcalls,
            local_simcalls: 0, // filled by the World runner from shared state
            tokens: self.n_tokens,
            trace_events: self.trace.as_ref().map_or(0, |t| t.len() as u64),
            sim_time: self.now(),
            wall_seconds: 0.0,
            kernel: self.fabric.kernel_profile(),
            codec: None, // filled by the World runner after the stream is finished
        }
    }

    /// Enables event tracing (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace (empty if tracing was off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Enables time-independent trace capture (see [`crate::capture`]).
    pub fn enable_capture(&mut self) {
        self.capture = Some(Capture::new(self.finish_times.len()));
    }

    /// Enables *streaming* capture: ops are encoded to `out` in the
    /// `TITRACE2` format as the run progresses, holding at most
    /// `budget_bytes` of staged ops (see [`crate::capture_v2`]). The sink
    /// is finalized by [`take_capture_stats`](Self::take_capture_stats).
    pub fn enable_capture_stream(
        &mut self,
        out: Box<dyn std::io::Write + Send>,
        block_ops: usize,
        budget_bytes: usize,
    ) {
        self.capture = Some(Capture::new_streaming(
            self.finish_times.len(),
            out,
            block_ops,
            budget_bytes,
        ));
    }

    /// Takes the captured time-independent trace, if in-memory capture was
    /// enabled (`None` for streaming capture — the ops are on disk).
    pub fn take_capture(&mut self) -> Option<TiTrace> {
        match &self.capture {
            Some(cap) if !cap.is_streaming() => self.capture.take().map(Capture::into_trace),
            _ => None,
        }
    }

    /// Finalizes a streaming capture (flush + footer), returning the codec
    /// counters. `None` unless [`enable_capture_stream`](Self::enable_capture_stream)
    /// was used.
    pub fn take_capture_stats(&mut self) -> Option<std::io::Result<smpi_obs::CodecStats>> {
        match &self.capture {
            Some(cap) if cap.is_streaming() => {
                Some(self.capture.take().expect("just matched").finish_stream())
            }
            _ => None,
        }
    }

    /// Appends a trace event (when tracing is on) and returns its index.
    fn record(&mut self, kind: TraceKind) -> Option<u32> {
        let trace = self.trace.as_mut()?;
        let time = self.fabric.now().as_secs();
        trace.push(TraceEvent { time, kind });
        Some(u32::try_from(trace.len() - 1).expect("trace index overflow"))
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.fabric.now().as_secs()
    }

    /// Per-rank completion times (valid after [`drive`](Self::drive)).
    pub fn finish_times(&self) -> &[f64] {
        &self.finish_times
    }

    /// Runs the simulation to completion: alternates between running ready
    /// ranks and advancing the fabric until every rank has finished.
    ///
    /// Fails with [`SimError::Stall`] when the fabric has in-flight work
    /// that can never complete, and [`SimError::Deadlock`] when ranks are
    /// blocked with nothing in flight.
    pub fn drive<S: Scheduler<Simcall, SimResp>>(&mut self, sx: &mut S) -> Result<(), SimError> {
        let mut alive = sx.num_actors();
        if self.rec.is_enabled() {
            let t = self.now();
            let n = self.finish_times.len();
            self.rec.with(|r| {
                for rank in 0..n {
                    r.state_set("rank", rank as u32, t, "running");
                }
            });
        }
        // Reused across iterations: run_ready_into clears and refills it,
        // so the steady-state hot loop allocates nothing.
        let mut events: Vec<ActorEvent<Simcall>> = Vec::new();
        loop {
            let t0 = self.profiling.then(Instant::now);
            sx.run_ready_into(&mut events);
            if let Some(t0) = t0 {
                self.phase_actors += t0.elapsed().as_secs_f64();
            }
            let t1 = self.profiling.then(Instant::now);
            for ev in events.drain(..) {
                match ev {
                    ActorEvent::Finished(id) => {
                        let now = self.now();
                        self.finish_times[id.0 as usize] = now;
                        self.record(TraceKind::RankFinished { rank: id.0 });
                        self.rec.state_set("rank", id.0, now, "finished");
                        alive -= 1;
                    }
                    ActorEvent::Request(id, call) => {
                        self.handle_simcall(sx, id, call)?;
                    }
                }
            }
            if let Some(t1) = t1 {
                self.phase_maestro += t1.elapsed().as_secs_f64();
            }
            if alive == 0 {
                break;
            }
            // A simcall in this batch may have completed requests of a
            // waiter from an earlier batch.
            self.resolve_waiters(sx);
            if sx.has_runnable() {
                continue;
            }
            // No runnable rank: advance simulated time until one wakes.
            let t2 = self.profiling.then(Instant::now);
            let advanced = self.fabric.advance();
            if let Some(t2) = t2 {
                self.phase_fabric += t2.elapsed().as_secs_f64();
            }
            match advanced {
                Ok(Some((t, tokens))) => {
                    self.clock.publish(t.as_secs());
                    // Claim the whole batch before dispatching any of it:
                    // an action the dispatch starts may reuse the slot of a
                    // token later in the batch.
                    let mut batch = std::mem::take(&mut self.token_batch);
                    for tok in tokens {
                        batch.push((tok, self.claim_token(tok)?));
                    }
                    for (tok, usage) in batch.drain(..) {
                        self.on_token(tok, usage)?;
                    }
                    self.token_batch = batch;
                    self.resolve_waiters(sx);
                }
                Ok(None) => {
                    let postmortem = Box::new(self.build_postmortem());
                    let blocked = self.blocked().map(|a| a.0).collect();
                    return Err(SimError::Deadlock {
                        blocked,
                        postmortem,
                    });
                }
                Err(SimError::Stall { error, .. }) => {
                    // The kernel attached an empty postmortem (it knows
                    // nothing about ranks); swap in the real one.
                    return Err(SimError::Stall {
                        error,
                        postmortem: Box::new(self.build_postmortem()),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Snapshots the flight recorder and the matching stores for every
    /// blocked rank (see [`crate::flight`]).
    pub(crate) fn build_postmortem(&self) -> Postmortem {
        let ranks = self
            .blocked()
            .map(|actor| {
                let w = self.waiting[actor.0 as usize]
                    .as_ref()
                    .expect("blocked ranks wait");
                let pending = w
                    .reqs
                    .iter()
                    .filter(|&&r| self.request(r).is_some_and(|q| !q.complete))
                    .map(|&r| self.describe_pending(r))
                    .collect();
                RankPostmortem {
                    rank: actor.0,
                    wait_mode: Some(mode_name(w.mode)),
                    pending,
                    last_ops: self.flight.last_ops(actor.0),
                }
            })
            .collect();
        Postmortem { ranks }
    }

    /// The ranks blocked in a Wait, in rank order.
    fn blocked(&self) -> impl Iterator<Item = ActorId> + '_ {
        let waiting = self.waiting.iter().enumerate();
        waiting.filter_map(|(rank, w)| w.as_ref().map(|_| ActorId(rank as u32)))
    }

    /// The live request `r`, if any.
    fn request(&self, r: ReqId) -> Option<&Request> {
        self.requests.get(r.rank as usize)?.get(r.post)
    }

    /// The live message `mid`, if any.
    fn message(&self, mid: MsgId) -> Option<&Message> {
        let m = self.messages.get(mid.slot as usize)?.as_ref()?;
        (m.seq == mid.seq).then_some(m)
    }

    /// Describes one incomplete request: its spec, and — for unmatched
    /// sends/receives — the nearest matching counterpart on the peer side.
    fn describe_pending(&self, r: ReqId) -> PendingReq {
        let post = Some(r.post());
        let req = self.request(r).expect("pending requests are live");
        match &req.kind {
            ReqKind::Send => {
                let found = self.messages.iter().enumerate().find_map(|(slot, m)| {
                    let m = m.as_ref().filter(|m| m.send_req == r)?;
                    let mid = MsgId {
                        slot: slot as u32,
                        seq: m.seq,
                    };
                    Some((mid, m))
                });
                let Some((mid, m)) = found else {
                    return PendingReq {
                        post,
                        spec: "send (message already collected)".into(),
                        counterpart: None,
                    };
                };
                let proto = if m.eager { "eager" } else { "rendezvous" };
                if let Some((cid, dst, src, tag)) = self.pending_msgs.find(mid) {
                    PendingReq {
                        post,
                        spec: format!(
                            "send dst {dst} cid {cid} tag {tag} ({} B, {proto}, unmatched)",
                            m.bytes
                        ),
                        counterpart: self.nearest_recv(cid, dst, src, tag),
                    }
                } else {
                    let state = match m.state {
                        MsgState::Posted => "matched, not started",
                        MsgState::PreDelay => "in pre-transfer delay",
                        MsgState::InFlight => "on the wire",
                        MsgState::PostDelay => "in post-transfer delay",
                        MsgState::Arrived => "arrived",
                    };
                    PendingReq {
                        post,
                        spec: format!(
                            "send dst {} tag {} ({} B, {proto}, {state})",
                            m.dst, m.tag, m.bytes
                        ),
                        counterpart: None,
                    }
                }
            }
            ReqKind::Recv { max_bytes, msg } => match msg {
                Some(mid) => {
                    let m = self
                        .message(*mid)
                        .expect("a bound receive's message is live");
                    let state = match m.state {
                        MsgState::Posted => "matched, not started",
                        MsgState::PreDelay => "in pre-transfer delay",
                        MsgState::InFlight => "on the wire",
                        MsgState::PostDelay => "in post-transfer delay",
                        MsgState::Arrived => "arrived",
                    };
                    PendingReq {
                        post,
                        spec: format!("recv src {} tag {} ({} B, {state})", m.src, m.tag, m.bytes),
                        counterpart: None,
                    }
                }
                None => {
                    let Some((cid, dst, src, tag)) = self.posted_recvs.find(r) else {
                        return PendingReq {
                            post,
                            spec: format!("recv (max {max_bytes} B, spec already consumed)"),
                            counterpart: None,
                        };
                    };
                    PendingReq {
                        post,
                        spec: format!(
                            "recv src {src} cid {cid} tag {tag} (max {max_bytes} B, unmatched)"
                        ),
                        counterpart: self.nearest_send(cid, dst, src, tag),
                    }
                }
            },
        }
    }

    /// Why rank `dst` is not receiving an unmatched send from `src` with
    /// `tag`: the closest posted receive and which field mismatches
    /// (`None` when the peer has nothing posted at all).
    fn nearest_recv(&self, cid: u32, dst: u32, src: u32, tag: i32) -> Option<String> {
        let specs = self.posted_recvs.specs(cid, dst);
        if specs.is_empty() {
            return None;
        }
        // Every posted spec mismatches (it would have matched otherwise):
        // prefer the same-source one (a tag bug), then the same-tag one (a
        // source bug), then the earliest posted.
        if let Some((_, rtag, _, _)) = specs
            .iter()
            .find(|&&(rsrc, _, _, _)| rsrc == ANY_SOURCE || rsrc == src as i32)
        {
            return Some(format!(
                "rank {dst} is waiting on a receive with tag {rtag} \
                 (the send carries tag {tag}) — tag mismatch"
            ));
        }
        if let Some((rsrc, _, _, _)) = specs
            .iter()
            .find(|&&(_, rtag, _, _)| rtag == ANY_TAG || rtag == tag)
        {
            return Some(format!(
                "rank {dst} is waiting on a receive from source {rsrc} \
                 (the send comes from rank {src}) — source mismatch"
            ));
        }
        let (rsrc, rtag, _, _) = specs[0];
        Some(format!(
            "rank {dst}'s earliest posted receive wants src {rsrc} tag {rtag}"
        ))
    }

    /// Why a receive posted on rank `dst` with spec `(src, tag)` is
    /// starving: the closest unmatched send and which field mismatches
    /// (`None` when no unmatched send targets the rank at all).
    fn nearest_send(&self, cid: u32, dst: u32, src: i32, tag: i32) -> Option<String> {
        let envs = self.pending_msgs.envelopes(cid, dst);
        if envs.is_empty() {
            return None;
        }
        if let Some((esrc, etag, _, _)) = envs
            .iter()
            .find(|&&(esrc, _, _, _)| src == ANY_SOURCE || src == esrc as i32)
        {
            return Some(format!(
                "rank {esrc} has an unmatched send with tag {etag} \
                 (the receive wants tag {tag}) — tag mismatch"
            ));
        }
        if let Some((esrc, etag, _, _)) = envs
            .iter()
            .find(|&&(_, etag, _, _)| tag == ANY_TAG || tag == etag)
        {
            return Some(format!(
                "rank {esrc} has an unmatched send with tag {etag} \
                 (the receive wants source {src}) — source mismatch"
            ));
        }
        let (esrc, etag, _, _) = envs[0];
        Some(format!(
            "earliest unmatched send is from rank {esrc} with tag {etag}"
        ))
    }

    fn handle_simcall<S: Scheduler<Simcall, SimResp>>(
        &mut self,
        sx: &mut S,
        actor: ActorId,
        call: Simcall,
    ) -> Result<(), SimError> {
        self.n_simcalls += 1;
        match call {
            Simcall::Isend {
                dst,
                cid,
                tag,
                bytes,
                payload,
            } => {
                assert!(tag >= 0, "send tags must be non-negative");
                debug_assert!(payload.as_ref().is_none_or(|p| p.len() as u64 == bytes));
                let op = TiOp::Send {
                    dst,
                    cid,
                    tag,
                    bytes,
                };
                self.log(actor.0, op);
                let req = self.post_send(actor.0, dst, cid, tag, payload, bytes)?;
                sx.resolve(actor, SimResp::Req(req));
            }
            Simcall::Irecv {
                src,
                cid,
                tag,
                max_bytes,
            } => {
                let op = TiOp::Recv {
                    src,
                    cid,
                    tag,
                    max_bytes,
                };
                self.log(actor.0, op);
                let req = self.post_recv(actor.0, src, cid, tag, max_bytes)?;
                sx.resolve(actor, SimResp::Req(req));
            }
            Simcall::Wait { reqs, mode } => {
                // Flag the incomplete requests as waited on; an
                // already-satisfied waiter queues for the next resolution
                // pass (Poll always does, and must not flag: the flags
                // would outlive the resolution).
                let mut remaining = 0;
                let mut any_complete = false;
                let mut on_recv = false;
                for &r in &reqs {
                    let owned = r.rank == actor.0;
                    let live = self.requests[actor.0 as usize].get_mut(r.post);
                    let Some(q) = live.filter(|_| owned) else {
                        return Err(self.stale_wait(actor.0, r));
                    };
                    on_recv |= matches!(q.kind, ReqKind::Recv { .. });
                    if q.complete {
                        any_complete = true;
                    } else if mode != WaitMode::Poll && !q.waited {
                        // A request listed twice flags (and counts) once.
                        q.waited = true;
                        remaining += 1;
                    }
                }
                let posts = reqs.iter().map(|r| r.post).collect();
                self.log(actor.0, TiOp::Wait { reqs: posts, mode });
                if mode != WaitMode::Poll {
                    // Blocked state: receives dominate the wait semantics,
                    // so any receive in the set labels it.
                    let state = if on_recv {
                        "blocked_in_recv"
                    } else {
                        "blocked_in_send"
                    };
                    self.rec.state_push("rank", actor.0, self.now(), state);
                }
                let satisfied = match mode {
                    WaitMode::All => remaining == 0,
                    WaitMode::Any | WaitMode::Some => any_complete,
                    WaitMode::Poll => true,
                };
                self.waiting[actor.0 as usize] = Some(Waiting {
                    reqs,
                    mode,
                    remaining,
                    queued: satisfied,
                });
                if satisfied {
                    self.ready_waiters.push(actor);
                }
            }
            Simcall::Exec { flops } => {
                self.log(actor.0, TiOp::Compute { flops });
                self.record(TraceKind::ExecStarted {
                    rank: actor.0,
                    flops,
                });
                self.rec
                    .state_push("rank", actor.0, self.now(), "computing");
                let host = self.placement[actor.0 as usize];
                let tok = self.fabric.start_exec(host, flops);
                self.await_token(tok, TokenUse::ActorDelay(actor));
            }
            Simcall::Sleep { secs } => {
                self.log(actor.0, TiOp::Sleep { secs });
                self.rec.state_push("rank", actor.0, self.now(), "sleeping");
                let tok = self.fabric.start_sleep(secs);
                self.await_token(tok, TokenUse::ActorDelay(actor));
            }
            Simcall::Now => {
                sx.resolve(actor, SimResp::Now(self.now()));
            }
            Simcall::Region { name, enter } => {
                let op = TiOp::Region {
                    name: name.to_string(),
                    enter,
                };
                self.log(actor.0, op);
                if self.rec.is_enabled() {
                    let t = self.now();
                    self.rec.with(|r| {
                        if enter {
                            r.counter_add(&format!("core.coll.{name}"), 1);
                            r.state_push("rank", actor.0, t, name);
                        } else {
                            r.state_pop("rank", actor.0, t);
                        }
                    });
                }
                sx.resolve(actor, SimResp::Unit);
            }
        }
        Ok(())
    }

    /// Feeds one simcall, in trace vocabulary, to the always-on flight ring
    /// and — when enabled — the capture. Called before the op takes effect,
    /// so a completion it triggers (an eager send finishing inside
    /// `post_send`) logs its `done` line after it.
    fn log(&mut self, rank: u32, op: TiOp) {
        if let Some(cap) = &mut self.capture {
            cap.on_op(rank, op.clone());
        }
        self.flight.on_op(rank, op);
    }

    /// The error for a wait naming a request with no live record owned by
    /// the waiting rank.
    fn stale_wait(&self, rank: u32, r: ReqId) -> SimError {
        let why = if r.rank != rank {
            format!("belongs to rank {}", r.rank)
        } else if r.post >= self.next_post[rank as usize] {
            "was never posted".into()
        } else {
            "was already reported complete".into()
        };
        self.protocol(format!(
            "rank {rank} waits on request [post {}], which {why}",
            r.post
        ))
    }

    fn alloc_req(&mut self, rank: u32, kind: ReqKind) -> ReqId {
        let next = &mut self.next_post[rank as usize];
        let id = ReqId { rank, post: *next };
        *next += 1;
        self.requests[rank as usize].insert(
            id.post,
            Request {
                kind,
                complete: false,
                record: None,
                waited: false,
            },
        );
        id
    }

    /// Stores a new message in a vacant slab slot.
    fn alloc_msg(&mut self, m: Message) -> MsgId {
        let seq = m.seq;
        let slot = match self.free_msgs.pop() {
            Some(slot) => {
                self.messages[slot as usize] = Some(m);
                slot
            }
            None => {
                self.messages.push(Some(m));
                u32::try_from(self.messages.len() - 1).expect("message slab overflow")
            }
        };
        MsgId { slot, seq }
    }

    /// Records what a pending fabric token completes. Tokens pack
    /// `generation << 32 | slot` (the [`Fabric`] contract), so the table is
    /// indexed by slot and sized by the fabric's live actions.
    fn await_token(&mut self, tok: FabricToken, usage: TokenUse) {
        let slot = tok.slot() as usize;
        if slot >= self.tokens.len() {
            self.tokens.resize_with(slot + 1, || None);
        }
        debug_assert!(self.tokens[slot].is_none(), "fabric reused a live slot");
        self.tokens[slot] = Some((tok, usage));
    }

    fn post_send(
        &mut self,
        src: u32,
        dst: u32,
        cid: u32,
        tag: i32,
        payload: Option<Payload>,
        bytes: u64,
    ) -> Result<ReqId, SimError> {
        let send_req = self.alloc_req(src, ReqKind::Send);
        let eager = self.profile.is_eager(bytes);
        self.record(TraceKind::SendPosted {
            src,
            dst,
            tag,
            bytes,
            eager,
        });
        self.rec.with(|r| {
            r.counter_add(
                if eager {
                    "core.sends.eager"
                } else {
                    "core.sends.rendezvous"
                },
                1,
            );
            r.fcounter_add("core.bytes.posted", bytes as f64);
        });
        let seq = self.next_msg;
        self.next_msg += 1;
        let mid = self.alloc_msg(Message {
            seq,
            tag,
            src,
            dst,
            bytes,
            payload,
            state: MsgState::Posted,
            eager,
            send_req,
            recv_req: None,
            attr: None,
            released_by: None,
            wire_event: None,
        });

        // Try to match the earliest compatible already-posted receive.
        if let Some(req) = self.posted_recvs.pop_match(cid, dst, src, tag) {
            self.bind(mid, req)?;
        } else {
            self.pending_msgs.push(cid, dst, src, tag, mid.seq, mid);
        }

        if eager {
            // Eager: the wire starts regardless of matching.
            self.begin_wire(mid)?;
            // Sender-side completion: injection delay, or immediate.
            let pre = self.profile.send_overhead;
            let inj = if self.profile.injection_rate.is_finite() {
                bytes as f64 / self.profile.injection_rate
            } else {
                0.0
            };
            if pre + inj > 0.0 {
                let tok = self.fabric.start_sleep(pre + inj);
                self.await_token(tok, TokenUse::SenderDone(mid));
            } else {
                self.complete_send(mid)?;
            }
        } else if self.msg_mut(mid, "matching a")?.recv_req.is_some() {
            // Rendezvous already matched: begin the handshake.
            self.begin_rendezvous(mid)?;
        }
        Ok(send_req)
    }

    fn post_recv(
        &mut self,
        dst: u32,
        src: i32,
        cid: u32,
        tag: i32,
        max_bytes: u64,
    ) -> Result<ReqId, SimError> {
        let posted = self.record(TraceKind::RecvPosted { dst, src, tag });
        let req = self.alloc_req(
            dst,
            ReqKind::Recv {
                max_bytes,
                msg: None,
            },
        );
        // Match the earliest compatible pending message (send-post order;
        // everything in the pending store is unbound by construction).
        if let Some(mid) = self.pending_msgs.pop_match(cid, dst, src, tag) {
            self.bind(mid, req)?;
            let m = self.msg_mut(mid, "receiving a")?;
            if m.eager {
                if m.state == MsgState::Arrived {
                    self.complete_recv(mid)?;
                }
                // else: completes when the arrival chain finishes.
            } else {
                // This receive, posted after the send, releases the transfer.
                m.released_by = posted;
                self.begin_rendezvous(mid)?;
            }
        } else {
            self.posted_recvs
                .push(cid, dst, src, tag, req.post as u64, req);
        }
        Ok(req)
    }

    /// Builds a [`SimError::Protocol`] with the current flight-recorder
    /// snapshot attached, so a malformed or truncated trace reports which
    /// id was missing *and* what every blocked rank was doing.
    fn protocol(&self, detail: String) -> SimError {
        SimError::Protocol {
            detail,
            postmortem: Box::new(self.build_postmortem()),
        }
    }

    /// Completion-path message lookup: a missing id means the event stream
    /// violated the protocol state machine (e.g. a truncated `.tit` trace),
    /// which is a diagnosable [`SimError::Protocol`], not a panic.
    fn msg_mut(&mut self, mid: MsgId, ctx: &str) -> Result<&mut Message, SimError> {
        if self.message(mid).is_none() {
            return Err(self.protocol(format!("{ctx} message {} that is not live", mid.seq)));
        }
        let slot = self.messages[mid.slot as usize].as_mut();
        Ok(slot.expect("presence just checked"))
    }

    /// Completion-path request lookup; same contract as [`Self::msg_mut`].
    fn req_mut(&mut self, req: ReqId, ctx: &str) -> Result<&mut Request, SimError> {
        if self.request(req).is_none() {
            return Err(self.protocol(format!(
                "{ctx} request [post {}] of rank {} that is not live",
                req.post, req.rank
            )));
        }
        let window = &mut self.requests[req.rank as usize];
        Ok(window.get_mut(req.post).expect("presence just checked"))
    }

    /// Binds a message to a receive request (both directions).
    fn bind(&mut self, mid: MsgId, req: ReqId) -> Result<(), SimError> {
        let m = self.msg_mut(mid, "binding a receive to a")?;
        debug_assert!(m.recv_req.is_none());
        m.recv_req = Some(req);
        let bytes = m.bytes;
        let mut bound = None;
        if let ReqKind::Recv { msg, max_bytes } = &mut self.req_mut(req, "binding a")?.kind {
            debug_assert!(msg.is_none());
            *msg = Some(mid);
            bound = Some(*max_bytes);
        }
        let Some(max) = bound else {
            return Err(self.protocol(format!("message {} matched a send request", mid.seq)));
        };
        assert!(
            bytes <= max,
            "MPI_ERR_TRUNCATE: message of {bytes} bytes into a {max}-byte buffer"
        );
        Ok(())
    }

    /// Starts the wire transfer (or local copy) for a message.
    fn begin_wire(&mut self, mid: MsgId) -> Result<(), SimError> {
        let pre = self.profile.send_overhead;
        let self_rate = self.profile.self_rate;
        let recv_overhead = self.profile.recv_overhead;
        let m = self.msg_mut(mid, "starting the wire for a")?;
        if m.src == m.dst {
            // Self-message: a memcpy-rate delay covers the whole path.
            let d = pre + m.bytes as f64 / self_rate + recv_overhead;
            m.state = MsgState::PostDelay;
            let tok = self.fabric.start_sleep(d);
            self.await_token(tok, TokenUse::MsgPost(mid));
            return Ok(());
        }
        if pre > 0.0 {
            m.state = MsgState::PreDelay;
            let tok = self.fabric.start_sleep(pre);
            self.await_token(tok, TokenUse::MsgPre(mid));
            Ok(())
        } else {
            self.start_transfer_now(mid)
        }
    }

    /// Starts the rendezvous chain once both sides are posted.
    fn begin_rendezvous(&mut self, mid: MsgId) -> Result<(), SimError> {
        let (src, dst) = {
            let m = self.msg_mut(mid, "starting a rendezvous for a")?;
            debug_assert!(!m.eager && m.recv_req.is_some());
            debug_assert_eq!(m.state, MsgState::Posted);
            (m.src, m.dst)
        };
        if src == dst {
            return self.begin_wire(mid);
        }
        let mut delay = self.profile.send_overhead;
        if self.profile.rendezvous_handshake {
            // RTS + CTS round trip before data flows.
            delay += 2.0
                * self
                    .fabric
                    .control_latency(self.placement[src as usize], self.placement[dst as usize]);
        }
        if delay > 0.0 {
            self.msg_mut(mid, "starting a rendezvous for a")?.state = MsgState::PreDelay;
            let tok = self.fabric.start_sleep(delay);
            self.await_token(tok, TokenUse::MsgPre(mid));
            Ok(())
        } else {
            self.start_transfer_now(mid)
        }
    }

    fn start_transfer_now(&mut self, mid: MsgId) -> Result<(), SimError> {
        let (msrc, mdst, mbytes, recv) = {
            let m = self.msg_mut(mid, "starting the transfer of a")?;
            m.state = MsgState::InFlight;
            (m.src, m.dst, m.bytes, m.released_by)
        };
        let src = self.placement[msrc as usize];
        let dst = self.placement[mdst as usize];
        // Implementation pipelining efficiency: the wire carries
        // bytes / efficiency effective volume (MpiProfile docs).
        let bytes = (mbytes as f64 / self.profile.wire_efficiency).ceil() as u64;
        let tok = self.fabric.start_transfer(src, dst, bytes);
        self.await_token(tok, TokenUse::MsgWire(mid));
        let started = self.record(TraceKind::TransferStarted {
            src: msrc,
            dst: mdst,
            bytes,
            recv,
        });
        if started.is_some() {
            self.msg_mut(mid, "starting the transfer of a")?.wire_event = started;
        }
        Ok(())
    }

    /// Takes what a completed token was awaited for out of the table; a
    /// token the table does not hold — a slot never used, or a stale
    /// generation — is a protocol error, not a panic.
    fn claim_token(&mut self, tok: FabricToken) -> Result<TokenUse, SimError> {
        let entry = self.tokens.get_mut(tok.slot() as usize);
        let Some((_, usage)) = entry.and_then(|e| e.take_if(|(t, _)| *t == tok)) else {
            return Err(self.protocol(format!("fabric completion for unknown token {}", tok.0)));
        };
        self.n_tokens += 1;
        Ok(usage)
    }

    fn on_token(&mut self, tok: FabricToken, usage: TokenUse) -> Result<(), SimError> {
        match usage {
            TokenUse::MsgPre(mid) => self.start_transfer_now(mid),
            TokenUse::MsgWire(mid) => {
                if let Some(attr) = self.fabric.take_flow_attribution(tok) {
                    self.msg_mut(mid, "attributing a delivered")?.attr = Some(attr);
                }
                let (eager, bytes) = {
                    let m = self.msg_mut(mid, "delivering a")?;
                    (m.eager, m.bytes)
                };
                let mut post = self.profile.recv_overhead;
                if eager {
                    if let Some(rate) = self.profile.copy_rate {
                        post += bytes as f64 / rate;
                    }
                }
                if post > 0.0 {
                    self.msg_mut(mid, "delivering a")?.state = MsgState::PostDelay;
                    let t = self.fabric.start_sleep(post);
                    self.await_token(t, TokenUse::MsgPost(mid));
                    Ok(())
                } else {
                    self.arrive(mid)
                }
            }
            TokenUse::MsgPost(mid) => self.arrive(mid),
            TokenUse::SenderDone(mid) => self.complete_send(mid),
            TokenUse::ActorDelay(actor) => {
                // Resolution is deferred to the waiter pass; Exec/Sleep use a
                // dedicated path because there is no ReqId involved.
                self.delayed_actors.push(actor);
                Ok(())
            }
        }
    }

    fn arrive(&mut self, mid: MsgId) -> Result<(), SimError> {
        let (matched, eager, src, dst, tag, bytes, attr, wire) = {
            let m = self.msg_mut(mid, "recording the arrival of a")?;
            m.state = MsgState::Arrived;
            (
                m.recv_req.is_some(),
                m.eager,
                m.src,
                m.dst,
                m.tag,
                m.bytes,
                m.attr.take(),
                m.wire_event,
            )
        };
        let flow = attr.map(|attr| {
            self.flow_records.push(FlowRecord {
                src,
                dst,
                bytes,
                attr,
            });
            u32::try_from(self.flow_records.len() - 1).expect("flow index overflow")
        });
        self.record(TraceKind::Delivered {
            src,
            dst,
            tag,
            bytes,
            wire,
            flow,
        });
        if !matched {
            // Eager message that beat its receive: it sits in an unexpected-
            // message buffer until a matching receive is posted.
            self.rec.counter_add("core.msgs.unexpected", 1);
        }
        if matched {
            self.complete_recv(mid)?;
            if !eager {
                // Rendezvous: synchronous sender completes with arrival.
                self.complete_send(mid)?;
            }
        }
        // Unmatched eager message: stays Arrived in pending_msgs until a
        // receive claims it.
        Ok(())
    }

    /// Marks a request complete, logs its `done` line on the owner's ring
    /// and, if the owner is blocked on it, updates that waiter's count —
    /// queueing the actor once its condition holds. This is the
    /// O(completions) hook: nothing else ever re-examines waiters.
    fn complete(
        &mut self,
        req: ReqId,
        kind: &'static str,
        peer: u32,
        record: CompletionRecord,
    ) -> Result<(), SimError> {
        let (tag, bytes) = (record.1, record.2);
        let r = self.req_mut(req, "completing a")?;
        debug_assert!(!r.complete, "{kind} completed twice");
        r.complete = true;
        r.record = Some(record);
        let waited = std::mem::take(&mut r.waited);
        self.flight
            .on_done(req.rank, req.post, kind, peer, tag, bytes);
        if waited {
            let actor = ActorId(req.rank);
            let w = self.waiting[actor.0 as usize]
                .as_mut()
                .expect("flagged waiter exists");
            w.remaining -= 1;
            let satisfied = match w.mode {
                WaitMode::All => w.remaining == 0,
                // Any completion satisfies; Poll never flags.
                WaitMode::Any | WaitMode::Some => true,
                WaitMode::Poll => unreachable!("poll waiters queue immediately"),
            };
            if satisfied && !w.queued {
                w.queued = true;
                self.ready_waiters.push(actor);
            }
        }
        Ok(())
    }

    fn complete_send(&mut self, mid: MsgId) -> Result<(), SimError> {
        let m = self.message(mid).ok_or_else(|| {
            self.protocol(format!("send completion for dead message {}", mid.seq))
        })?;
        let (req, dst, record) = (m.send_req, m.dst, (m.src, m.tag, m.bytes, None));
        self.complete(req, "send", dst, record)?;
        self.gc_message(mid);
        Ok(())
    }

    fn complete_recv(&mut self, mid: MsgId) -> Result<(), SimError> {
        let (recv_req, record) = {
            let m = self.msg_mut(mid, "completing a receive on a")?;
            debug_assert_eq!(m.state, MsgState::Arrived);
            (m.recv_req, (m.src, m.tag, m.bytes, m.payload.take()))
        };
        let Some(req) = recv_req else {
            return Err(self.protocol(format!(
                "receive completion for unbound message {}",
                mid.seq
            )));
        };
        self.complete(req, "recv", record.0, record)?;
        self.gc_message(mid);
        Ok(())
    }

    /// Drops a message once both sides have completed. Requests vanish from
    /// the table once their completion has been reported, so a missing
    /// request counts as complete (and a dead message is already gone).
    fn gc_message(&mut self, mid: MsgId) {
        let Some(m) = self.message(mid) else {
            return;
        };
        let done = |req: ReqId| -> bool { self.request(req).map(|r| r.complete).unwrap_or(true) };
        let send_done = done(m.send_req);
        let recv_done = m.recv_req.map(done).unwrap_or(false);
        if send_done && recv_done {
            self.messages[mid.slot as usize] = None;
            self.free_msgs.push(mid.slot);
        }
    }

    /// Resolves every waiting actor whose condition now holds.
    fn resolve_waiters<S: Scheduler<Simcall, SimResp>>(&mut self, sx: &mut S) {
        let t0 = self.profiling.then(Instant::now);
        // Exec/Sleep completions first.
        let delayed = std::mem::take(&mut self.delayed_actors);
        if !delayed.is_empty() && self.rec.is_enabled() {
            // Pops the "computing"/"sleeping" state pushed at the simcall.
            let t = self.now();
            self.rec.with(|r| {
                for actor in &delayed {
                    r.state_pop("rank", actor.0, t);
                }
            });
        }
        for actor in delayed {
            sx.resolve(actor, SimResp::Unit);
        }
        // Only waiters queued by `complete` (or satisfied at Wait
        // post) are examined — never the whole blocked population. Sorting
        // by actor id reproduces the resolution order of a full sweep:
        // satisfaction is monotone within a pass, so the queued set equals
        // the satisfied set.
        let mut ready = std::mem::take(&mut self.ready_waiters);
        ready.sort_unstable();
        for actor in ready.drain(..) {
            let w = self.waiting[actor.0 as usize]
                .take()
                .expect("a queued waiter waits");
            // An Any/Some waiter satisfied by its first completion leaves
            // its other requests flagged; clear them so a later Wait on the
            // same requests counts them afresh (every one is the waiter's
            // own: the Wait refused any other).
            if w.remaining > 0 {
                let window = &mut self.requests[actor.0 as usize];
                for r in &w.reqs {
                    if let Some(q) = window.get_mut(r.post) {
                        q.waited = false;
                    }
                }
            }
            if w.mode != WaitMode::Poll {
                // Pops the blocked_in_* state pushed at the Wait simcall.
                self.rec.state_pop("rank", actor.0, self.now());
            }
            let completions = self.collect_completions(actor, &w);
            sx.resolve(actor, SimResp::Done(completions));
        }
        // Hand the (empty) buffer back to keep its capacity.
        self.ready_waiters = ready;
        if let Some(t0) = t0 {
            self.phase_resolve += t0.elapsed().as_secs_f64();
        }
    }

    fn collect_completions(&mut self, actor: ActorId, w: &Waiting) -> Vec<Completion> {
        let mut out = Vec::new();
        let window = &mut self.requests[actor.0 as usize];
        for (index, &rid) in w.reqs.iter().enumerate() {
            // Vacant only for a request listed twice: the first mention
            // already retired it.
            if !window.get(rid.post).is_some_and(|q| q.complete) {
                continue;
            }
            let record = window.remove(rid.post).expect("just found").record;
            let (source, tag, bytes, data) = record.expect("completed request has record");
            out.push(Completion {
                req: rid,
                index,
                source,
                tag,
                bytes,
                data,
            });
            if w.mode == WaitMode::Any {
                break; // exactly one for Waitany
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use simix::Scripts;
    use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};
    use surf_sim::{EngineConfig, TransferModel};

    use crate::fabric::SurfFabric;
    use crate::matching::env_matches;

    use super::*;

    fn runtime(nranks: u32) -> Runtime {
        let rp = Arc::new(RoutedPlatform::new(flat_cluster(
            "t",
            nranks as usize,
            &ClusterConfig::default(),
        )));
        let fabric = SurfFabric::new(rp, TransferModel::ideal(), EngineConfig::default(), None);
        let placement = (0..nranks).map(HostIx).collect();
        Runtime::new(Box::new(fabric), MpiProfile::smpi(), placement)
    }

    /// One step of a test script: post, or wait on the first or the latest
    /// request posted so far.
    enum Step {
        Send { dst: u32, tag: i32 },
        Recv { src: i32, tag: i32 },
        WaitLatest,
        WaitFirst,
    }

    type Script = Box<dyn FnMut(Option<SimResp>) -> Option<Simcall>>;

    /// Rendezvous-sized, data-less: a send completes with its transfer.
    const BYTES: u64 = 1 << 20;

    fn script(mut steps: impl Iterator<Item = Step> + 'static) -> Script {
        let (mut first, mut latest) = (None, None);
        let wait = |req: Option<ReqId>| Simcall::Wait {
            reqs: vec![req.expect("posted before waited")],
            mode: WaitMode::All,
        };
        Box::new(move |resp| {
            if let Some(SimResp::Req(id)) = resp {
                first.get_or_insert(id);
                latest = Some(id);
            }
            Some(match steps.next()? {
                Step::Send { dst, tag } => Simcall::Isend {
                    dst,
                    cid: 0,
                    tag,
                    bytes: BYTES,
                    payload: None,
                },
                Step::Recv { src, tag } => Simcall::Irecv {
                    src,
                    cid: 0,
                    tag,
                    max_bytes: BYTES,
                },
                Step::WaitLatest => wait(latest),
                Step::WaitFirst => wait(first),
            })
        })
    }

    /// The tables are dense but sized by what is live: 100 000 posts
    /// while rank 0's first receive stays pending leave every table a few
    /// dozen slots long, not one slot per post.
    #[test]
    fn tables_hold_live_entries_not_posts() {
        const ROUNDS: u32 = 50_000;
        let early = [Step::Recv { src: 1, tag: 99 }];
        let sends = (0..ROUNDS).flat_map(|_| [Step::Send { dst: 1, tag: 1 }, Step::WaitLatest]);
        let rank0 = early.into_iter().chain(sends).chain([Step::WaitFirst]);
        let recvs = (0..ROUNDS).flat_map(|_| [Step::Recv { src: 0, tag: 1 }, Step::WaitLatest]);
        let rank1 = recvs.chain([Step::Send { dst: 0, tag: 99 }, Step::WaitLatest]);
        let mut rt = runtime(2);
        let mut sx = Scripts::new([script(rank0), script(rank1)]);
        rt.drive(&mut sx).expect("the exchange completes");
        assert_eq!(rt.next_post, [ROUNDS + 1; 2], "every post was issued");
        let posts = 2 * (ROUNDS as usize + 1);
        let request_slots: usize = rt.requests.iter().map(PostWindow::slots).sum();
        for (table, slots) in [
            ("request", request_slots),
            ("message", rt.messages.len()),
            ("token", rt.tokens.len()),
            ("waiting", rt.waiting.len()),
        ] {
            assert!(
                slots <= 256,
                "{table} table: {slots} slots for {posts} posts"
            );
        }
    }

    /// A completion the token table does not hold — a slot never used, or
    /// a live slot under a stale generation — is a protocol error.
    #[test]
    fn unknown_tokens_are_protocol_errors() {
        let mut rt = runtime(2);
        let tok = rt.fabric.start_sleep(1.0);
        rt.await_token(tok, TokenUse::ActorDelay(ActorId(0)));
        let stale = FabricToken(tok.0 + (1 << 32));
        for bad in [FabricToken(42), stale] {
            let Err(SimError::Protocol { detail, .. }) = rt.claim_token(bad) else {
                panic!("token {} was accepted", bad.0);
            };
            assert!(detail.contains("unknown token"), "{detail}");
        }
        assert!(matches!(rt.claim_token(tok), Ok(TokenUse::ActorDelay(_))));
        assert!(rt.claim_token(tok).is_err(), "a token completes once");
    }

    #[test]
    fn env_matching_rules() {
        assert!(env_matches(ANY_SOURCE, ANY_TAG, 3, 7));
        assert!(env_matches(3, 7, 3, 7));
        assert!(!env_matches(2, 7, 3, 7));
        assert!(!env_matches(3, 8, 3, 7));
        assert!(env_matches(3, ANY_TAG, 3, 7));
        assert!(env_matches(ANY_SOURCE, 7, 3, 7));
    }
}
