//! The rank-side MPI API.
//!
//! A [`Ctx`] is handed to every rank's body closure; all MPI operations go
//! through it. The supported subset follows §5.1 of the paper: Send, Recv,
//! Isend, Irecv, Sendrecv, Send_init/Recv_init/Start/Startall, Test(any),
//! Wait(any/all/some), plus the collectives of [`crate::coll`].
//!
//! Message *data is real*: this is on-line simulation, so reductions, scans
//! and application logic all compute true values. Buffers are typed slices
//! and a message body is a [`Payload`]: every send packs its buffer once
//! ([`Payload::pack`], one `memcpy` into a shared immutable block), the
//! maestro hands the block to the matching receive, and every receive
//! unpacks it once — [`recv`](Ctx::recv) / [`wait_recv_into`](Ctx::wait_recv_into)
//! into the caller's buffer, [`wait_recv`](Ctx::wait_recv) into a fresh
//! `Vec<T>`. The typed calls are pack / unpack around three calls that take
//! and return the body itself — [`isend_packed`](Ctx::isend_packed),
//! [`send_packed`](Ctx::send_packed), [`wait_recv_packed`](Ctx::wait_recv_packed) —
//! which an application uses directly to send one body to many peers, to
//! forward parts of a body it received ([`Payload::slice`]), or to send a
//! [`crate::SharedSlice`] without copying it
//! ([`share`](crate::SharedSlice::share), copy-on-write). No guard of the
//! buffer is alive across the call: ranks share one thread, so a guard held
//! across an MPI call stays held while every other rank runs.
//!
//! Calls split into two tiers. **Maestro simcalls** (sends, receives,
//! waits, compute, sleep) describe simulated work, so they switch to the
//! maestro and back (two user-level context switches). **Local simcalls** —
//! pure bookkeeping with no simulated cost — are answered inside the rank
//! from [`crate::state::SharedState`] without switching: `wtime` reads the
//! published clock, sampling decisions consult the shared sample tables,
//! `shared_malloc` hits the folded heap, and communicator/rank metadata
//! (`rank`, `size`, `comm_create`) never leaves the rank. Ranks and maestro
//! run one at a time on one thread, so local reads race with nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::rc::Rc;

use crate::comm::Comm;
use crate::datatype::{Datatype, Payload};
use crate::group::Group;
use crate::runtime::{Completion, ReqId, SimResp, Simcall, SxHandle, WaitMode, ANY_SOURCE};
use crate::state::SharedState;

/// Delivery status of a completed receive (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Source rank, local to the communicator of the receive.
    pub source: usize,
    /// Message tag.
    pub tag: i32,
    /// Message size in bytes.
    pub bytes: u64,
}

impl Status {
    /// Number of `T` elements received (`MPI_Get_count`).
    pub fn count<T: Datatype>(&self) -> usize {
        assert_eq!(self.bytes as usize % T::SIZE, 0, "partial element received");
        self.bytes as usize / T::SIZE
    }
}

/// Handle to a pending send.
#[derive(Debug)]
#[must_use = "pending sends must be waited on"]
pub struct SendRequest(pub(crate) ReqId);

/// Handle to a pending typed receive.
#[derive(Debug)]
#[must_use = "pending receives must be waited on"]
pub struct RecvRequest<T: Datatype> {
    pub(crate) id: ReqId,
    _t: PhantomData<T>,
}

impl SendRequest {
    /// Type-erases the request for the heterogeneous wait family.
    pub fn into_any(self) -> AnyRequest {
        AnyRequest::Send(self.0)
    }
}

impl<T: Datatype> RecvRequest<T> {
    /// Type-erases the request for the heterogeneous wait family (bodies
    /// are then returned packed; decode with [`Payload::unpack_into`]).
    pub fn into_any(self) -> AnyRequest {
        AnyRequest::Recv(self.id)
    }
}

/// Handle to a pending data-less receive (sized-message API).
#[derive(Debug)]
#[must_use = "pending receives must be waited on"]
pub struct SizedRecvRequest(pub(crate) ReqId);

/// A type-erased request, for heterogeneous `wait_any`/`wait_some` sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyRequest {
    /// A send in the set.
    Send(ReqId),
    /// A receive in the set (data is returned raw).
    Recv(ReqId),
}

/// Raw completion from the heterogeneous wait family.
#[derive(Debug)]
pub struct RawCompletion {
    /// Index of the request in the waited slice.
    pub index: usize,
    /// Source world rank (translate with the communicator if needed).
    pub source_world: u32,
    /// Message tag.
    pub tag: i32,
    /// Message size in bytes.
    pub bytes: u64,
    /// Body for receives; `None` for sends.
    pub data: Option<Payload>,
}

/// A persistent send (`MPI_Send_init`): the envelope and a snapshot of the
/// body, restartable with [`Ctx::start_send`] (every start shares it).
#[derive(Debug)]
pub struct PersistentSend {
    dst: usize,
    tag: i32,
    comm: Comm,
    payload: Payload,
}

/// A persistent receive (`MPI_Recv_init`), restartable with
/// [`Ctx::start_recv`].
#[derive(Debug)]
pub struct PersistentRecv<T: Datatype> {
    src: i32,
    tag: i32,
    comm: Comm,
    max_len: usize,
    _t: PhantomData<T>,
}

/// The per-rank MPI context.
pub struct Ctx<'h> {
    handle: &'h SxHandle,
    world: Comm,
    pub(crate) shared: Rc<SharedState>,
    /// Per-(group) counters for deterministic context-id agreement.
    comm_seq: RefCell<HashMap<Vec<u32>, u64>>,
}

impl<'h> Ctx<'h> {
    /// `world` is built once per run and shared: every rank's clone points
    /// at the same member list.
    pub(crate) fn new(handle: &'h SxHandle, world: Comm, shared: Rc<SharedState>) -> Self {
        Ctx {
            handle,
            world,
            shared,
            comm_seq: RefCell::new(HashMap::new()),
        }
    }

    pub(crate) fn call(&self, req: Simcall) -> SimResp {
        self.handle.simcall(req)
    }

    /// Marks the enclosing scope as a named collective on this rank's
    /// observability timeline. Free when metrics are off: no simcall is
    /// issued at all (the flag is read from shared state, not the maestro).
    pub(crate) fn coll_region(&self, name: &'static str) -> CollRegion<'_, 'h> {
        let on = self.shared.config.obs;
        if on {
            match self.call(Simcall::Region { name, enter: true }) {
                SimResp::Unit => {}
                other => unreachable!("bad response {other:?}"),
            }
        }
        CollRegion {
            ctx: self,
            name,
            on,
        }
    }

    /// This rank within `MPI_COMM_WORLD`.
    pub fn rank(&self) -> usize {
        self.handle.id().0 as usize
    }

    /// World size (`MPI_Comm_size` on the world).
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// Simulated time in seconds (`MPI_Wtime`).
    ///
    /// Local simcall tier: answered from the maestro-published
    /// [`crate::state::SimClock`] without switching to the maestro.
    /// Simulated time only advances while every rank is blocked, so the
    /// value is identical to what a maestro round-trip ([`Simcall::Now`])
    /// returns — minus the two context switches.
    pub fn wtime(&self) -> f64 {
        self.shared.count_local_call();
        self.shared.clock.now()
    }

    /// Burns `flops` of computation on this rank's host.
    pub fn compute(&self, flops: f64) {
        match self.call(Simcall::Exec { flops }) {
            SimResp::Unit => {}
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Advances simulated time without consuming resources.
    pub fn sleep(&self, secs: f64) {
        match self.call(Simcall::Sleep { secs }) {
            SimResp::Unit => {}
            other => unreachable!("bad response {other:?}"),
        }
    }

    // ----- point-to-point ------------------------------------------------

    /// Nonblocking send of a typed buffer (`MPI_Isend`): packs `buf`.
    pub fn isend<T: Datatype>(&self, buf: &[T], dst: usize, tag: i32, comm: &Comm) -> SendRequest {
        self.post_send(Payload::pack(buf), dst, tag, comm)
    }

    /// Nonblocking send of an already packed body; the message shares it.
    pub fn isend_packed(&self, body: &Payload, dst: usize, tag: i32, comm: &Comm) -> SendRequest {
        self.post_send(body.clone(), dst, tag, comm)
    }

    fn post_send(&self, body: Payload, dst: usize, tag: i32, comm: &Comm) -> SendRequest {
        match self.call(Simcall::Isend {
            dst: comm.world_rank(dst),
            cid: comm.cid(),
            tag,
            bytes: body.len() as u64,
            payload: Some(body),
        }) {
            SimResp::Req(id) => SendRequest(id),
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Nonblocking receive of up to `max_len` elements (`MPI_Irecv`).
    /// `src` is a communicator rank, or [`ANY_SOURCE`]; `tag` may be
    /// [`crate::runtime::ANY_TAG`].
    pub fn irecv<T: Datatype>(
        &self,
        src: i32,
        tag: i32,
        max_len: usize,
        comm: &Comm,
    ) -> RecvRequest<T> {
        let src_world = if src == ANY_SOURCE {
            ANY_SOURCE
        } else {
            comm.world_rank(src as usize) as i32
        };
        match self.call(Simcall::Irecv {
            src: src_world,
            cid: comm.cid(),
            tag,
            max_bytes: (max_len * T::SIZE) as u64,
        }) {
            SimResp::Req(id) => RecvRequest {
                id,
                _t: PhantomData,
            },
            other => unreachable!("bad response {other:?}"),
        }
    }

    fn wait_ids(&self, ids: Vec<ReqId>, mode: WaitMode) -> Vec<Completion> {
        match self.call(Simcall::Wait { reqs: ids, mode }) {
            SimResp::Done(c) => c,
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Waits for a send to complete (`MPI_Wait`).
    pub fn wait_send(&self, req: SendRequest) {
        let done = self.wait_ids(vec![req.0], WaitMode::All);
        debug_assert_eq!(done.len(), 1);
    }

    /// Waits for a receive and returns its body as the sender packed it
    /// (`MPI_Wait` without the unpack).
    pub fn wait_recv_packed<T: Datatype>(
        &self,
        req: RecvRequest<T>,
        comm: &Comm,
    ) -> (Payload, Status) {
        let mut done = self.wait_ids(vec![req.id], WaitMode::All);
        debug_assert_eq!(done.len(), 1);
        received(done.pop().unwrap(), comm)
    }

    /// Waits for a receive and returns its data in a fresh vector
    /// (`MPI_Wait`).
    pub fn wait_recv<T: Datatype>(&self, req: RecvRequest<T>, comm: &Comm) -> (Vec<T>, Status) {
        let (body, status) = self.wait_recv_packed(req, comm);
        (body.to_vec(), status)
    }

    /// Waits for all listed sends (`MPI_Waitall` on sends).
    pub fn wait_all_sends(&self, reqs: Vec<SendRequest>) {
        if reqs.is_empty() {
            return;
        }
        let ids: Vec<ReqId> = reqs.into_iter().map(|r| r.0).collect();
        let n = ids.len();
        let done = self.wait_ids(ids, WaitMode::All);
        debug_assert_eq!(done.len(), n);
    }

    /// Waits for all listed receives, returning data in request order
    /// (`MPI_Waitall` on receives).
    pub fn wait_all_recvs<T: Datatype>(
        &self,
        reqs: Vec<RecvRequest<T>>,
        comm: &Comm,
    ) -> Vec<(Vec<T>, Status)> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let ids: Vec<ReqId> = reqs.into_iter().map(|r| r.id).collect();
        let n = ids.len();
        let mut done = self.wait_ids(ids, WaitMode::All);
        debug_assert_eq!(done.len(), n);
        done.sort_by_key(|c| c.index);
        done.into_iter()
            .map(|c| {
                let (body, status) = received(c, comm);
                (body.to_vec(), status)
            })
            .collect()
    }

    /// Waits for all requests in a heterogeneous set (`MPI_Waitall`).
    pub fn wait_all(&self, reqs: &[AnyRequest]) -> Vec<RawCompletion> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let ids: Vec<ReqId> = reqs.iter().map(any_id).collect();
        let mut done = self.wait_ids(ids, WaitMode::All);
        done.sort_by_key(|c| c.index);
        done.into_iter().map(raw).collect()
    }

    /// Blocks until at least one request completes; returns exactly one
    /// completion (`MPI_Waitany`).
    pub fn wait_any(&self, reqs: &[AnyRequest]) -> RawCompletion {
        let ids: Vec<ReqId> = reqs.iter().map(any_id).collect();
        let mut done = self.wait_ids(ids, WaitMode::Any);
        debug_assert_eq!(done.len(), 1);
        raw(done.pop().unwrap())
    }

    /// Blocks until at least one request completes; returns all that did
    /// (`MPI_Waitsome`).
    pub fn wait_some(&self, reqs: &[AnyRequest]) -> Vec<RawCompletion> {
        let ids: Vec<ReqId> = reqs.iter().map(any_id).collect();
        let mut done = self.wait_ids(ids, WaitMode::Some);
        done.sort_by_key(|c| c.index);
        done.into_iter().map(raw).collect()
    }

    /// Non-blocking poll of a request set (`MPI_Test`/`MPI_Testany`):
    /// returns whatever is complete right now, possibly nothing.
    pub fn test(&self, reqs: &[AnyRequest]) -> Vec<RawCompletion> {
        let ids: Vec<ReqId> = reqs.iter().map(any_id).collect();
        let mut done = self.wait_ids(ids, WaitMode::Poll);
        done.sort_by_key(|c| c.index);
        done.into_iter().map(raw).collect()
    }

    /// Blocking standard-mode send (`MPI_Send`).
    pub fn send<T: Datatype>(&self, buf: &[T], dst: usize, tag: i32, comm: &Comm) {
        let r = self.isend(buf, dst, tag, comm);
        self.wait_send(r);
    }

    /// Blocking standard-mode send of an already packed body.
    pub fn send_packed(&self, body: &Payload, dst: usize, tag: i32, comm: &Comm) {
        let r = self.isend_packed(body, dst, tag, comm);
        self.wait_send(r);
    }

    /// Blocking receive into a caller buffer (`MPI_Recv`); returns the
    /// status. Elements beyond the message length are left untouched.
    /// Unpacks the body directly into `buf` (no intermediate vector) —
    /// this is the hot path of every collective.
    pub fn recv<T: Datatype>(&self, buf: &mut [T], src: i32, tag: i32, comm: &Comm) -> Status {
        let r = self.irecv::<T>(src, tag, buf.len(), comm);
        self.wait_recv_into(r, buf, comm)
    }

    /// Waits for a receive, unpacking the body directly into `buf`
    /// (`MPI_Wait` + unpack, allocation-free on the receive side).
    pub fn wait_recv_into<T: Datatype>(
        &self,
        req: RecvRequest<T>,
        buf: &mut [T],
        comm: &Comm,
    ) -> Status {
        let (body, status) = self.wait_recv_packed(req, comm);
        body.unpack_into(buf);
        status
    }

    /// Blocking receive returning an owned vector.
    pub fn recv_vec<T: Datatype>(
        &self,
        src: i32,
        tag: i32,
        max_len: usize,
        comm: &Comm,
    ) -> (Vec<T>, Status) {
        let r = self.irecv::<T>(src, tag, max_len, comm);
        self.wait_recv(r, comm)
    }

    /// Combined send+receive (`MPI_Sendrecv`): both progress concurrently,
    /// which is what makes exchange patterns deadlock-free.
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Sendrecv
    pub fn sendrecv<T: Datatype>(
        &self,
        send_buf: &[T],
        dst: usize,
        send_tag: i32,
        recv_buf: &mut [T],
        src: i32,
        recv_tag: i32,
        comm: &Comm,
    ) -> Status {
        let rr = self.irecv::<T>(src, recv_tag, recv_buf.len(), comm);
        let sr = self.isend(send_buf, dst, send_tag, comm);
        let status = self.wait_recv_into(rr, recv_buf, comm);
        self.wait_send(sr);
        status
    }

    // ----- sized (data-less) messages --------------------------------------

    /// Nonblocking *data-less* send of `bytes` (§3.2 technique #2): when a
    /// computation was bypassed, the arrays it would have produced are never
    /// referenced, so only the message size needs to travel. The receiver
    /// must use [`recv_sized`](Self::recv_sized)/[`irecv_sized`](Self::irecv_sized).
    pub fn isend_sized(&self, bytes: u64, dst: usize, tag: i32, comm: &Comm) -> SendRequest {
        let dst_world = comm.world_rank(dst);
        match self.call(Simcall::Isend {
            dst: dst_world,
            cid: comm.cid(),
            tag,
            bytes,
            payload: None,
        }) {
            SimResp::Req(id) => SendRequest(id),
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Blocking data-less send.
    pub fn send_sized(&self, bytes: u64, dst: usize, tag: i32, comm: &Comm) {
        let r = self.isend_sized(bytes, dst, tag, comm);
        self.wait_send(r);
    }

    /// Nonblocking receive matching a data-less send of up to `max_bytes`.
    pub fn irecv_sized(&self, src: i32, tag: i32, max_bytes: u64, comm: &Comm) -> SizedRecvRequest {
        let src_world = if src == ANY_SOURCE {
            ANY_SOURCE
        } else {
            comm.world_rank(src as usize) as i32
        };
        match self.call(Simcall::Irecv {
            src: src_world,
            cid: comm.cid(),
            tag,
            max_bytes,
        }) {
            SimResp::Req(id) => SizedRecvRequest(id),
            other => unreachable!("bad response {other:?}"),
        }
    }

    /// Waits for a data-less receive; only the status is produced.
    pub fn wait_recv_sized(&self, req: SizedRecvRequest, comm: &Comm) -> Status {
        let mut done = self.wait_ids(vec![req.0], WaitMode::All);
        debug_assert_eq!(done.len(), 1);
        status_of(&done.pop().unwrap(), comm)
    }

    /// Blocking data-less receive.
    pub fn recv_sized(&self, src: i32, tag: i32, max_bytes: u64, comm: &Comm) -> Status {
        let r = self.irecv_sized(src, tag, max_bytes, comm);
        self.wait_recv_sized(r, comm)
    }

    /// Combined data-less exchange (the sized `MPI_Sendrecv`).
    #[allow(clippy::too_many_arguments)] // mirrors MPI_Sendrecv
    pub fn sendrecv_sized(
        &self,
        send_bytes: u64,
        dst: usize,
        send_tag: i32,
        recv_max: u64,
        src: i32,
        recv_tag: i32,
        comm: &Comm,
    ) -> Status {
        let rr = self.irecv_sized(src, recv_tag, recv_max, comm);
        let sr = self.isend_sized(send_bytes, dst, send_tag, comm);
        let status = self.wait_recv_sized(rr, comm);
        self.wait_send(sr);
        status
    }

    // ----- raw replay interface --------------------------------------------

    /// Issues one raw simcall and blocks for its answer. This is how
    /// `smpi-replay`'s stackful oracle drives a replayed rank as a fiber:
    /// captured ops become simcalls with no application
    /// data or communicator bookkeeping — context ids and *world* ranks come
    /// straight from the trace, messages are data-less, and the caller
    /// tracks requests positionally. Deliberately bypasses the typed API.
    pub fn simcall(&self, call: Simcall) -> SimResp {
        self.call(call)
    }

    // ----- persistent requests -------------------------------------------

    /// `MPI_Send_init`: captures the envelope and packs a snapshot of `buf`.
    pub fn send_init<T: Datatype>(
        &self,
        buf: &[T],
        dst: usize,
        tag: i32,
        comm: &Comm,
    ) -> PersistentSend {
        PersistentSend {
            dst,
            tag,
            comm: comm.clone(),
            payload: Payload::pack(buf),
        }
    }

    /// `MPI_Recv_init`.
    pub fn recv_init<T: Datatype>(
        &self,
        src: i32,
        tag: i32,
        max_len: usize,
        comm: &Comm,
    ) -> PersistentRecv<T> {
        PersistentRecv {
            src,
            tag,
            comm: comm.clone(),
            max_len,
            _t: PhantomData,
        }
    }

    /// `MPI_Start` on a persistent send.
    pub fn start_send(&self, p: &PersistentSend) -> SendRequest {
        self.isend_packed(&p.payload, p.dst, p.tag, &p.comm)
    }

    /// `MPI_Start` on a persistent receive.
    pub fn start_recv<T: Datatype>(&self, p: &PersistentRecv<T>) -> RecvRequest<T> {
        self.irecv::<T>(p.src, p.tag, p.max_len, &p.comm)
    }

    // ----- communicator management ----------------------------------------

    /// Creates a communicator over a sub-group (`MPI_Comm_create`). Must be
    /// called by every member of `group` (callers outside the group get a
    /// communicator they must not use, mirroring `MPI_COMM_NULL`).
    pub fn comm_create(&self, parent: &Comm, group: &Group) -> Comm {
        let _ = parent;
        let key = group.members().to_vec();
        let seq = {
            let mut seqs = self.comm_seq.borrow_mut();
            let c = seqs.entry(key).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        let cid = self.shared.registry.cid_for(group, seq);
        Comm::from_parts(cid, group.clone())
    }

    /// Duplicates a communicator with a fresh context (`MPI_Comm_dup`).
    pub fn comm_dup(&self, comm: &Comm) -> Comm {
        self.comm_create(comm, comm.group())
    }
}

/// Scope guard for a collective's observability region; exits the region
/// on drop (including early returns inside the collective).
pub(crate) struct CollRegion<'a, 'h> {
    ctx: &'a Ctx<'h>,
    name: &'static str,
    on: bool,
}

impl Drop for CollRegion<'_, '_> {
    fn drop(&mut self) {
        // Not while unwinding: a rank killed inside a collective (deadlock
        // teardown) must not issue a simcall nobody will answer.
        if self.on && !std::thread::panicking() {
            let _ = self.ctx.call(Simcall::Region {
                name: self.name,
                enter: false,
            });
        }
    }
}

fn any_id(r: &AnyRequest) -> ReqId {
    match r {
        AnyRequest::Send(id) | AnyRequest::Recv(id) => *id,
    }
}

fn raw(c: Completion) -> RawCompletion {
    RawCompletion {
        index: c.index,
        source_world: c.source,
        tag: c.tag,
        bytes: c.bytes,
        data: c.data,
    }
}

fn status_of(c: &Completion, comm: &Comm) -> Status {
    Status {
        source: comm
            .local_rank(c.source)
            .expect("message source is in the communicator"),
        tag: c.tag,
        bytes: c.bytes,
    }
}

/// Body and status of a completed data-carrying receive.
fn received(c: Completion, comm: &Comm) -> (Payload, Status) {
    let status = status_of(&c, comm);
    (c.data.expect("receive completion carries data"), status)
}
