//! The packet-level discrete-event network simulator.
//!
//! This engine plays the role of the *physical clusters* in the reproduction:
//! the paper validates SMPI against real Grid'5000 runs, and the SimGrid flow
//! model itself was validated against the packet-level GTNetS simulator. Here
//! messages are cut into MTU-sized frames that traverse the platform
//! **store-and-forward**: a frame is fully serialized onto a channel
//! (`wire_bytes / bandwidth`), propagates (`latency`), must completely arrive
//! at the next node, and only then competes for the next channel.
//!
//! There is one **channel** per resource of the platform's
//! [`PlatformImage`](smpi_platform::PlatformImage), with round-robin fair
//! queuing across flows — the packet-granularity analogue of TCP bandwidth
//! sharing, and the mechanism that produces real contention behaviour at
//! switch ports. A `Shared` link is one channel both directions contend on,
//! a `SplitDuplex` link one channel per direction, and a `FatPipe` link one
//! channel that never queues. Channel `k` is the flow kernel's link `k`: the
//! two backends share resource ids, names, routes and perturbed parameters.
//!
//! The engine also offers `exec`/`sleep` actions so entire MPI applications
//! can be timed against it; on the simulated "real" cluster every rank has a
//! node of its own, so compute actions don't share.
//!
//! # The calendar
//!
//! Events run in `(time, seq)` order, `seq` counting every schedule — the
//! order of one global heap of events (`net/oracle_tests.rs` keeps that
//! heap as the reference). They are not stored one heap entry each:
//!
//! * a contended channel is one **stream**: its one pending `ChannelIdle`
//!   (it serializes one frame at a time) and a FIFO of its frames' arrivals
//!   at the next node. The FIFO is sorted by construction: the next frame
//!   starts no earlier than the channel's idle instant `fl(s + ser)`, so
//!   (rounding being monotone) it arrives no earlier than
//!   `fl(fl(s + ser) + lat)`, and with a larger `seq`;
//! * FatPipe arrivals (a short last frame overtakes a full one) and delays
//!   wait in one small binary heap, `misc`;
//! * the shared [`surf_sim::calendar::Calendar`] holds one entry per stream
//!   — its earliest event — plus one for the top of `misc`. Popping its
//!   minimum is the one way an event is taken, and the pop order is the
//!   global `(time, seq)` order;
//! * **a lone transfer** skips the calendar. It applies when the network's
//!   one live action is a transfer, no hop of its route is a FatPipe,
//!   `misc` is empty and no recorder is attached. Callers start actions
//!   only between [`advance_to_next`](PacketNet::advance_to_next) calls,
//!   so nothing can interleave with its frames until it completes. Its
//!   remaining frames are played in one pass, front frame first, each
//!   carried through its remaining hops. One flow is served FIFO, so a
//!   frame starts on a hop at `max(ready, free)`: when it reached the node,
//!   or when the channel let go of the frame before it. On a tie the event
//!   loop starts it at that same instant, whichever of the two events it
//!   pops first. The pass uses the loop's float operations,
//!   `idle = start + wire / bw` and `arrive = idle + lat`. It takes the
//!   in-flight state as it stands: pending idle keys, arrival streams,
//!   later-hop queues and the hop-0 counter. It adds to `seq` the two
//!   schedules per frame-hop the loop would have made, and it leaves the
//!   route's channels and calendar entries empty, as the loop would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use smpi_obs::{FlowAttribution, Rec};
use smpi_platform::{HostIx, PlatformPerturbation, RoutedPlatform};
use surf_sim::calendar::{Calendar, Key};
use surf_sim::{LinkId, SimTime, Slab};

use crate::config::PacketConfig;

/// Handle to an ongoing packet-net action (message, exec or sleep).
///
/// Action slots are recycled once the action completes (same slab idiom as
/// the flow-level kernel), so the handle carries the slot's generation: a
/// stale handle can never alias a newer action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketActionId {
    slot: u32,
    gen: u32,
}

impl PacketActionId {
    /// Packs the handle into a single `u64` (`generation << 32 | slot`),
    /// unique for the lifetime of the simulator; used by callers to key
    /// their own tables.
    pub fn raw(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.slot)
    }

    /// Rebuilds a handle from its [`raw`](Self::raw) packing.
    pub fn from_raw(raw: u64) -> Self {
        PacketActionId {
            slot: raw as u32,
            gen: (raw >> 32) as u32,
        }
    }
}

/// One transmission channel (one resource of the platform image).
#[derive(Debug, Default)]
struct Channel {
    /// Round-robin service order of the flows with queued frames. A flow is
    /// a (transfer slot, hop) pair: a route crosses a channel at most once,
    /// so a transfer is at most one flow here, and its frames wait in the
    /// transfer's own queue for that hop.
    rr: VecDeque<(u32, u16)>,
    /// The pending `ChannelIdle` while a frame is being serialized.
    idle: Option<Key>,
    /// Frames currently queued (excluding the one being serialized).
    depth: u32,
    /// The frames serialized onto this channel and not yet arrived at the
    /// next node, in arrival order (see the module docs). Keeps its
    /// capacity for the life of the simulator.
    arrivals: VecDeque<(Key, Frame)>,
}

impl Channel {
    /// The earliest pending event of this channel's stream.
    fn next_key(&self) -> Option<Key> {
        let arrival = self.arrivals.front().map(|&(key, _)| key);
        match (self.idle, arrival) {
            (Some(idle), Some(arrival)) => Some(idle.min(arrival)),
            (idle, arrival) => idle.or(arrival),
        }
    }
}

/// A frame in flight.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The transfer this frame belongs to.
    transfer: u32,
    /// Application payload bytes.
    payload: u32,
    /// Index of the hop this frame is about to cross (into the route).
    hop: u16,
    /// When the frame entered the current hop's channel (store-and-forward
    /// hop latency = arrival time minus this).
    queued_at: SimTime,
}

impl Frame {
    fn new(transfer: u32, payload: u32, hop: u16, queued_at: SimTime) -> Self {
        Frame {
            transfer,
            payload,
            hop,
            queued_at,
        }
    }
}

/// A message in flight.
#[derive(Debug)]
struct Transfer {
    /// The channels crossed, shared with the platform image's route store.
    route: Arc<[LinkId]>,
    /// Hop 0's queue is a counter: the frames not yet serialized onto the
    /// first channel, their payload bytes, and the instant they were all
    /// queued there (the start). Frames leave it in order, full ones first;
    /// on a FatPipe first channel, all of them at the start.
    unsent: u64,
    unsent_bytes: u64,
    started: SimTime,
    /// `(payload, queued_at)` of the frames waiting at each later hop; slot
    /// 0 stays empty. A queue keeps its capacity while the message lives.
    queues: Vec<VecDeque<(u32, SimTime)>>,
    frames_remaining: u64,
    /// Contention attribution (per-channel queue waits + the share
    /// integral); allocated only for messages started while recording.
    attr: Option<Box<FlowAttribution>>,
}

impl Transfer {
    /// Takes the next frame off hop 0's counter; returns its payload.
    fn take_unsent(&mut self, mtu_payload: u32) -> u32 {
        let payload = self.unsent_bytes.min(u64::from(mtu_payload)) as u32;
        self.unsent_bytes -= u64::from(payload);
        self.unsent -= 1;
        payload
    }
}

#[derive(Debug)]
enum Pending {
    Transfer(Transfer),
    Delay,
}

/// The live transfer in `slot` (frames only ever name one).
fn transfer_mut(actions: &mut Slab<Pending>, slot: u32) -> &mut Transfer {
    match actions.get_mut(slot) {
        Some(Pending::Transfer(t)) => t,
        _ => unreachable!("frame belongs to a live transfer"),
    }
}

/// The recorder keys of one channel, formatted once.
#[derive(Debug)]
struct ChanKeys {
    queue_depth: String,
    bytes: String,
}

impl ChanKeys {
    fn new(chan: usize) -> Self {
        ChanKeys {
            queue_depth: format!("packetnet.chan.{chan}.queue_depth"),
            bytes: format!("packetnet.chan.{chan}.bytes"),
        }
    }
}

/// An event, as taken off the calendar.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A channel finished serializing a frame and may start the next one.
    ChannelIdle(u32),
    /// A frame fully arrived at the node after `hop`.
    Arrive(Frame),
    /// A delay action (exec or sleep) finished.
    DelayDone(PacketActionId),
}

/// An entry of the `misc` heap, ordered by its key alone and reversed, so
/// that `BinaryHeap` pops the earliest.
#[derive(Debug)]
struct Timed(Key, Event);

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Timed {}

impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timed {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// The packet-level simulator over a routed platform.
#[derive(Debug)]
pub struct PacketNet {
    config: PacketConfig,
    now: SimTime,
    /// Channel state, indexed by resource id of the platform image.
    channels: Vec<Channel>,
    /// Per-channel (bandwidth, latency).
    chan_bw: Vec<f64>,
    chan_lat: Vec<f64>,
    /// `true` when the channel never queues (FatPipe).
    chan_fat: Vec<bool>,
    /// Live actions; slots are recycled on completion, so memory stays
    /// proportional to the number of *concurrent* actions, not the total
    /// ever started.
    actions: Slab<Pending>,
    /// One entry per contended channel with pending events (id = channel
    /// index), plus the top of `misc` (id = `channels.len()`).
    calendar: Calendar,
    /// FatPipe arrivals and delay completions.
    misc: BinaryHeap<Timed>,
    /// Events scheduled so far: the tie-breaker of equal times.
    seq: u64,
    /// Host compute speeds, for exec durations.
    host_speeds: Vec<f64>,
    /// Observability sink; disabled by default (every emit is one branch).
    rec: Rec,
    /// Per-channel recorder keys; only built while `rec` is enabled.
    chan_keys: Vec<ChanKeys>,
    /// Attribution of completed transfers keyed by `PacketActionId::raw()`,
    /// awaiting pickup via [`take_attribution`](Self::take_attribution).
    done_attr: HashMap<u64, FlowAttribution>,
    /// Per hop of a lone transfer's route, the instant its channel is free
    /// (module docs); keeps its capacity between passes.
    lone_free: Vec<SimTime>,
}

impl PacketNet {
    /// Builds the packet simulator for a platform.
    pub fn new(rp: &RoutedPlatform, config: PacketConfig) -> Self {
        PacketNet::new_perturbed(rp, config, None)
    }

    /// Like [`new`](Self::new), but with the channel bandwidths/latencies
    /// and host speeds the platform image gives under a
    /// [`PlatformPerturbation`] overlay. `None` — or the identity overlay —
    /// is bit-exact with the unperturbed constructor.
    pub fn new_perturbed(
        rp: &RoutedPlatform,
        config: PacketConfig,
        perturb: Option<&PlatformPerturbation>,
    ) -> Self {
        let image = rp.image();
        let resources = 0..image.num_resources();
        let (chan_bw, chan_lat) = resources
            .clone()
            .map(|k| image.resource(k, perturb))
            .unzip();
        let host_speeds = (0..image.num_hosts())
            .map(|h| image.host_speed(HostIx(h as u32), perturb))
            .collect();
        PacketNet {
            config,
            now: SimTime::ZERO,
            channels: resources.clone().map(|_| Channel::default()).collect(),
            chan_bw,
            chan_lat,
            chan_fat: resources.map(|k| !image.is_contended(k)).collect(),
            actions: Slab::new(),
            calendar: Calendar::default(),
            misc: BinaryHeap::new(),
            seq: 0,
            host_speeds,
            rec: Rec::disabled(),
            chan_keys: Vec::new(),
            done_attr: HashMap::new(),
            lone_free: Vec::new(),
        }
    }

    /// Attaches an observability recorder. While enabled, the simulator
    /// emits frame counters (`packetnet.frames.*`), per-channel queue-depth
    /// high-water marks (`packetnet.chan.<i>.queue_depth`), per-channel
    /// wire-byte integrals (`packetnet.chan.<i>.bytes`), and a log2
    /// histogram of per-hop store-and-forward latencies in nanoseconds
    /// (`packetnet.hop_latency_ns`); messages started from now on also
    /// carry a contention attribution accumulator (see
    /// [`take_attribution`](Self::take_attribution)).
    pub fn set_recorder(&mut self, rec: Rec) {
        self.rec = rec;
        self.chan_keys.clear();
        if self.rec.is_enabled() {
            self.chan_keys
                .extend((0..self.channels.len()).map(ChanKeys::new));
        }
    }

    /// Takes the contention attribution of a *completed* message: its wire
    /// byte integral plus per-channel queue waits, with the queue waits
    /// doubling as the packet backend's bottleneck-residency measure (a
    /// frame waits exactly when its port is busy with other traffic).
    /// Returns `None` when the message recorded nothing.
    pub fn take_attribution(&mut self, id: PacketActionId) -> Option<FlowAttribution> {
        self.done_attr.remove(&id.raw())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The framing configuration.
    pub fn config(&self) -> &PacketConfig {
        &self.config
    }

    /// Schedules a FatPipe arrival or a delay completion.
    fn schedule_misc(&mut self, at: SimTime, event: Event) {
        let key = Key::new(at, self.seq);
        self.seq += 1;
        self.misc.push(Timed(key, event));
        self.rekey(self.channels.len() as u32);
    }

    /// Publishes the earliest pending event of calendar id `id`: channel
    /// `id`'s stream, or the top of `misc` for `id == channels.len()`.
    fn rekey(&mut self, id: u32) {
        let next = match self.channels.get(id as usize) {
            Some(c) => c.next_key(),
            None => self.misc.peek().map(|top| top.0),
        };
        match next {
            Some(key) => self.calendar.set(id, key),
            None => self.calendar.remove(id),
        }
    }

    /// Takes event `key`, the earliest of calendar id `id`, out of its
    /// stream. The caller re-keys `id` once the event is handled.
    fn take(&mut self, key: Key, id: u32) -> Event {
        match self.channels.get_mut(id as usize) {
            Some(c) if c.idle == Some(key) => {
                c.idle = None;
                Event::ChannelIdle(id)
            }
            Some(c) => {
                let (at, frame) = c.arrivals.pop_front().expect("a keyed stream has events");
                debug_assert_eq!(at, key);
                Event::Arrive(frame)
            }
            None => {
                let Timed(at, event) = self.misc.pop().expect("a keyed heap has events");
                debug_assert_eq!(at, key);
                event
            }
        }
    }

    /// Starts a message of `bytes` from `src` to `dst`. Frames are enqueued
    /// at the source channel immediately.
    pub fn start_message(
        &mut self,
        rp: &RoutedPlatform,
        src: HostIx,
        dst: HostIx,
        bytes: u64,
    ) -> PacketActionId {
        let route = Arc::clone(rp.image().route(rp, src, dst));
        assert!(
            !route.is_empty(),
            "packet-net transfers require distinct hosts"
        );
        // A channel keys a transfer's frames by hop: a route crossing one
        // twice would mix two hops' frames in one round-robin turn.
        debug_assert!(
            route
                .iter()
                .enumerate()
                .all(|(i, c)| !route[..i].contains(c)),
            "route {src:?} -> {dst:?} crosses a channel twice: {route:?}"
        );
        let nframes = self.config.frame_count(bytes);
        let attr = self.rec.is_enabled().then(|| {
            Box::new(FlowAttribution::new(
                route.iter().map(|l| l.index() as u32).collect(),
            ))
        });
        let first = route[0].index() as u32;
        let queues = vec![VecDeque::new(); route.len()];
        let (slot, gen) = self.actions.insert(Pending::Transfer(Transfer {
            route,
            unsent: nframes,
            unsent_bytes: bytes,
            started: self.now,
            queues,
            frames_remaining: nframes,
            attr,
        }));
        let id = PacketActionId { slot, gen };

        self.rec.with(|r| {
            r.counter_add("packetnet.messages", 1);
            r.counter_add("packetnet.frames.total", nframes);
        });

        if self.chan_fat[first as usize] {
            // No queue to hold them: every frame leaves now.
            for _ in 0..nframes {
                let payload =
                    transfer_mut(&mut self.actions, slot).take_unsent(self.config.mtu_payload);
                self.send_fat(first, Frame::new(slot, payload, 0, self.now));
            }
            return id;
        }
        let c = &mut self.channels[first as usize];
        let was_busy = c.idle.is_some();
        c.rr.push_back((slot, 0));
        c.depth += u32::try_from(nframes).expect("a message fits in 2^32 frames");
        if !was_busy {
            self.transmit_next(first);
            self.rekey(first);
        }
        if self.rec.is_enabled() {
            // As if queued one by one: on an idle channel the first frame
            // was queued alone (depth 1), went straight onto the wire, and
            // the others queued behind it.
            let behind = nframes - u64::from(!was_busy);
            let depth = self.channels[first as usize].depth.max(1);
            let key = &self.chan_keys[first as usize].queue_depth;
            self.rec.with(|r| {
                if behind > 0 {
                    r.counter_add("packetnet.frames.queued_behind", behind);
                }
                r.hwm(key, f64::from(depth));
            });
        }
        id
    }

    /// Starts a computation of `flops` on `host` (no sharing: one rank per
    /// physical node on the emulated testbed).
    pub fn start_exec(&mut self, host: HostIx, flops: f64) -> PacketActionId {
        let speed = self.host_speeds[host.0 as usize];
        self.start_sleep(flops / speed)
    }

    /// Starts a pure delay.
    pub fn start_sleep(&mut self, seconds: f64) -> PacketActionId {
        assert!(seconds >= 0.0 && seconds.is_finite());
        let (slot, gen) = self.actions.insert(Pending::Delay);
        let id = PacketActionId { slot, gen };
        self.schedule_misc(self.now + seconds, Event::DelayDone(id));
        id
    }

    /// `true` once the action completed (its slot has been recycled or its
    /// generation superseded).
    pub fn is_done(&self, id: PacketActionId) -> bool {
        !self.actions.contains(id.slot, id.gen)
    }

    /// Number of actions currently in flight.
    pub fn running_actions(&self) -> usize {
        self.actions.len()
    }

    /// High-water mark of concurrently live actions.
    #[cfg(test)]
    pub(crate) fn peak_actions(&self) -> usize {
        self.actions.peak()
    }

    /// FatPipe: serialize without queuing (infinite parallel lanes).
    fn send_fat(&mut self, chan: u32, frame: Frame) {
        let ser = self.config.wire_bytes(frame.payload) as f64 / self.chan_bw[chan as usize];
        let at = self.now + ser + self.chan_lat[chan as usize];
        self.schedule_misc(at, Event::Arrive(frame));
    }

    /// Queues a frame that just arrived at the node before `frame.hop`.
    fn enqueue_frame(&mut self, chan: u32, frame: Frame) {
        debug_assert!(frame.hop > 0, "hop 0 is queued as a counter");
        if self.chan_fat[chan as usize] {
            self.send_fat(chan, frame);
            return;
        }
        let c = &mut self.channels[chan as usize];
        let was_busy = c.idle.is_some();
        let q = &mut transfer_mut(&mut self.actions, frame.transfer).queues[frame.hop as usize];
        if q.is_empty() {
            c.rr.push_back((frame.transfer, frame.hop));
        }
        q.push_back((frame.payload, frame.queued_at));
        c.depth += 1;
        let depth = c.depth;
        if self.rec.is_enabled() {
            let key = &self.chan_keys[chan as usize].queue_depth;
            self.rec.with(|r| {
                if was_busy {
                    r.counter_add("packetnet.frames.queued_behind", 1);
                }
                r.hwm(key, f64::from(depth));
            });
        }
        if !was_busy {
            self.transmit_next(chan);
            self.rekey(chan);
        }
    }

    /// Pops the next frame (round-robin across flows) and serializes it:
    /// schedules the channel's idle instant and the frame's arrival. The
    /// caller re-keys the channel.
    fn transmit_next(&mut self, chan: u32) {
        let cix = chan as usize;
        let c = &mut self.channels[cix];
        debug_assert!(c.idle.is_none());
        let Some((slot, hop)) = c.rr.pop_front() else {
            return;
        };
        let t = transfer_mut(&mut self.actions, slot);
        let (payload, queued_at, more) = if hop == 0 {
            let payload = t.take_unsent(self.config.mtu_payload);
            (payload, t.started, t.unsent > 0)
        } else {
            let q = &mut t.queues[hop as usize];
            let (payload, queued_at) = q.pop_front().expect("queued flow has frames");
            (payload, queued_at, !q.is_empty())
        };
        if more {
            c.rr.push_back((slot, hop));
        }
        c.depth -= 1;
        let ser = self.config.wire_bytes(payload) as f64 / self.chan_bw[cix];
        let idle_at = self.now + ser;
        let idle = Key::new(idle_at, self.seq);
        let arrive = Key::new(idle_at + self.chan_lat[cix], self.seq + 1);
        self.seq += 2;
        c.idle = Some(idle);
        // Arrivals come in FIFO order (module docs), so the stream stays
        // sorted by appending.
        debug_assert!(c.arrivals.back().is_none_or(|&(last, _)| last < arrive));
        c.arrivals
            .push_back((arrive, Frame::new(slot, payload, hop, queued_at)));
    }

    fn on_arrive(&mut self, frame: Frame) -> Option<PacketActionId> {
        let now = self.now;
        let (chan, next_chan, finished) = {
            let Transfer {
                route,
                frames_remaining,
                attr,
                ..
            } = transfer_mut(&mut self.actions, frame.transfer);
            let chan = route[frame.hop as usize].index() as u32;
            if let Some(a) = attr.as_deref_mut() {
                let wire = self.config.wire_bytes(frame.payload) as f64;
                if frame.hop == 0 {
                    // Each frame crosses every channel of the route, so its
                    // wire bytes enter the share integral exactly once.
                    a.share_bytes += wire;
                }
                // Store-and-forward hop time minus this frame's own
                // serialization and propagation: pure queueing behind other
                // traffic — the port-contention residency of this flow.
                let ser = wire / self.chan_bw[chan as usize];
                let wait =
                    (now.duration_since(frame.queued_at) - ser - self.chan_lat[chan as usize])
                        .max(0.0);
                if wait > 0.0 {
                    a.add_queue(chan, wait);
                    a.add_bottleneck(chan, wait);
                }
            }
            let next_hop = frame.hop as usize + 1;
            if next_hop < route.len() {
                (chan, Some(route[next_hop].index() as u32), false)
            } else {
                *frames_remaining -= 1;
                (chan, None, *frames_remaining == 0)
            }
        };
        if self.rec.is_enabled() {
            // Per-channel wire-byte integral, the packet analogue of the
            // flow kernel's `surf.link.<i>.bytes`; per channel, the
            // per-flow share integrals sum to exactly this counter.
            let wire = self.config.wire_bytes(frame.payload) as f64;
            let key = &self.chan_keys[chan as usize].bytes;
            self.rec.with(|r| r.fcounter_add(key, wire));
        }
        if let Some(chan) = next_chan {
            let next = Frame::new(frame.transfer, frame.payload, frame.hop + 1, now);
            self.enqueue_frame(chan, next);
            None
        } else if finished {
            // Every frame has fully arrived, so no pending event can
            // reference this slot any more: safe to recycle.
            let gen = self.actions.generation(frame.transfer);
            let done = self.actions.remove(frame.transfer);
            let id = PacketActionId {
                slot: frame.transfer,
                gen,
            };
            if let Pending::Transfer(Transfer {
                attr: Some(attr), ..
            }) = done
            {
                self.done_attr.insert(id.raw(), *attr);
            }
            Some(id)
        } else {
            None
        }
    }

    /// The slot of the network's one live action, when it is a transfer the
    /// lone pass may play (module docs).
    fn lone_transfer(&self) -> Option<u32> {
        if self.actions.len() != 1 || !self.misc.is_empty() || self.rec.is_enabled() {
            return None;
        }
        // A keyed channel's stream holds an arrival: a frame's arrival
        // stays queued until after its channel's idle event.
        let (_, id) = self.calendar.peek()?;
        let &(_, frame) = self.channels.get(id as usize)?.arrivals.front()?;
        match self.actions.get(frame.transfer) {
            Some(Pending::Transfer(t))
                if t.attr.is_none() && t.route.iter().all(|l| !self.chan_fat[l.index()]) =>
            {
                Some(frame.transfer)
            }
            _ => None,
        }
    }

    /// Carries a frame of `payload` bytes, ready at `ready` before hop
    /// `from`, through the rest of `route` with the event loop's float
    /// operations, and counts the loop's two schedules per hop into `seq`.
    /// `free[h]` is when hop `h`'s channel is free; the frame holds it until
    /// its own idle instant. Returns the frame's arrival at the destination.
    fn carry(
        &mut self,
        route: &[LinkId],
        free: &mut [SimTime],
        from: usize,
        payload: u32,
        mut ready: SimTime,
    ) -> SimTime {
        let wire = self.config.wire_bytes(payload) as f64;
        for (link, free) in route[from..].iter().zip(&mut free[from..]) {
            let c = link.index();
            let idle = ready.max(*free) + wire / self.chan_bw[c];
            *free = idle;
            ready = idle + self.chan_lat[c];
        }
        self.seq += 2 * (route.len() - from) as u64;
        ready
    }

    /// Plays the lone transfer in `slot` to completion in one pass (module
    /// docs), leaves its channels and calendar entries empty, and returns
    /// its handle; `now` becomes its completion instant.
    fn play_lone(&mut self, slot: u32) -> PacketActionId {
        let id = PacketActionId {
            slot,
            gen: self.actions.generation(slot),
        };
        let Pending::Transfer(mut t) = self.actions.remove(slot) else {
            unreachable!("the lone action is a transfer");
        };
        let mut free = std::mem::take(&mut self.lone_free);
        free.clear();
        free.extend(t.route.iter().map(|l| {
            let idle = self.channels[l.index()].idle;
            idle.map_or(self.now, Key::time)
        }));
        let mut done = self.now;
        let mut frames = 0;
        // Front frame first: those in flight on the last hop, those queued
        // for it, those in flight on the hop before, and so on down to hop
        // 0's counter.
        for hop in (0..t.route.len()).rev() {
            let chan = t.route[hop].index();
            while let Some((key, frame)) = self.channels[chan].arrivals.pop_front() {
                done = self.carry(&t.route, &mut free, hop + 1, frame.payload, key.time());
                frames += 1;
            }
            if hop > 0 {
                while let Some((payload, queued_at)) = t.queues[hop].pop_front() {
                    done = self.carry(&t.route, &mut free, hop, payload, queued_at);
                    frames += 1;
                }
            }
        }
        while t.unsent > 0 {
            let payload = t.take_unsent(self.config.mtu_payload);
            done = self.carry(&t.route, &mut free, 0, payload, t.started);
            frames += 1;
        }
        debug_assert_eq!(frames, t.frames_remaining);
        for link in t.route.iter() {
            let c = &mut self.channels[link.index()];
            debug_assert!(c.rr.iter().all(|&(s, _)| s == slot));
            c.idle = None;
            c.rr.clear();
            c.depth = 0;
            self.calendar.remove(link.index() as u32);
        }
        self.lone_free = free;
        self.now = done;
        id
    }

    /// Advances to the next instant at which at least one action completes,
    /// returning the completed actions. Returns `None` when fully drained.
    pub fn advance_to_next(&mut self) -> Option<(SimTime, Vec<PacketActionId>)> {
        if let Some(slot) = self.lone_transfer() {
            let id = self.play_lone(slot);
            return Some((self.now, vec![id]));
        }
        let mut completed = Vec::new();
        while let Some((key, _)) = self.calendar.peek() {
            // Drain every event at instant `t`.
            let t = key.time();
            self.now = t;
            while let Some((key, id)) = self.calendar.peek() {
                if key.time() != t {
                    break;
                }
                match self.take(key, id) {
                    Event::ChannelIdle(chan) => self.transmit_next(chan),
                    Event::Arrive(frame) => {
                        if self.rec.is_enabled() {
                            let hop_ns = (self.now.as_secs() - frame.queued_at.as_secs()) * 1e9;
                            self.rec.with(|r| {
                                r.observe("packetnet.hop_latency_ns", hop_ns);
                                r.counter_add("packetnet.frames.hops", 1);
                            });
                        }
                        if let Some(done) = self.on_arrive(frame) {
                            completed.push(done);
                        }
                    }
                    Event::DelayDone(done) => {
                        self.actions.remove(done.slot);
                        completed.push(done);
                    }
                }
                self.rekey(id);
            }
            if !completed.is_empty() {
                return Some((self.now, completed));
            }
        }
        None
    }

    /// Runs until quiescent, returning the final time.
    pub fn run_to_completion(&mut self) -> SimTime {
        while self.advance_to_next().is_some() {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};

    fn cluster(n: usize, bw: f64, lat: f64) -> RoutedPlatform {
        RoutedPlatform::new(flat_cluster(
            "t",
            n,
            &ClusterConfig {
                link_bandwidth: bw,
                link_latency: lat,
                ..ClusterConfig::default()
            },
        ))
    }

    /// Closed form for a single pipelined message over equal-bandwidth hops:
    /// the first channel serializes every frame back-to-back; on each further
    /// hop the tail of the message is delayed by one more frame time. A short
    /// trailing frame rides right behind the last full frame, so the per-hop
    /// increment is a *full* frame serialization whenever full frames exist.
    fn pipelined(cfg: &PacketConfig, bytes: u64, hops: usize, bw: f64, lat_total: f64) -> f64 {
        let full_frames = bytes / cfg.mtu_payload as u64;
        let rem = (bytes % cfg.mtu_payload as u64) as u32;
        let full_ser = cfg.wire_bytes(cfg.mtu_payload) as f64 / bw;
        let rem_ser = cfg.wire_bytes(rem) as f64 / bw;
        let first_chan =
            full_frames as f64 * full_ser + if rem > 0 || bytes == 0 { rem_ser } else { 0.0 };
        let per_hop = if full_frames > 0 { full_ser } else { rem_ser };
        first_chan + (hops - 1) as f64 * per_hop + lat_total
    }

    #[test]
    fn single_frame_message_time() {
        let rp = cluster(2, 125e6, 50e-6);
        let cfg = PacketConfig::default();
        let mut net = PacketNet::new(&rp, cfg);
        let id = net.start_message(&rp, HostIx(0), HostIx(1), 1000);
        let (t, done) = net.advance_to_next().unwrap();
        assert_eq!(done, vec![id]);
        let ser = cfg.wire_bytes(1000) as f64 / 125e6;
        // Store-and-forward across 2 links: serialize twice, 2 latencies.
        let expect = 2.0 * ser + 100e-6;
        assert!((t.as_secs() - expect).abs() < 1e-12, "{t} vs {expect}");
    }

    #[test]
    fn multi_frame_message_pipelines() {
        let rp = cluster(2, 125e6, 50e-6);
        let cfg = PacketConfig::default();
        let mut net = PacketNet::new(&rp, cfg);
        let bytes = 10 * 1448 + 7;
        net.start_message(&rp, HostIx(0), HostIx(1), bytes);
        let (t, _) = net.advance_to_next().unwrap();
        let expect = pipelined(&cfg, bytes, 2, 125e6, 100e-6);
        assert!(
            (t.as_secs() - expect).abs() < 1e-12,
            "{} vs {}",
            t.as_secs(),
            expect
        );
    }

    #[test]
    fn zero_byte_message_still_sends_a_header_frame() {
        let rp = cluster(2, 125e6, 10e-6);
        let cfg = PacketConfig::default();
        let mut net = PacketNet::new(&rp, cfg);
        net.start_message(&rp, HostIx(0), HostIx(1), 0);
        let (t, _) = net.advance_to_next().unwrap();
        let expect = 2.0 * (90.0 / 125e6) + 20e-6;
        assert!((t.as_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn two_flows_into_same_destination_share_fairly() {
        // Flows 1->0 and 2->0 share host 0's incoming channel: each message
        // takes about twice as long as it would alone.
        let rp = cluster(3, 125e6, 0.0);
        let cfg = PacketConfig::default();
        let bytes = 200 * 1448;
        let mut alone = PacketNet::new(&rp, cfg);
        alone.start_message(&rp, HostIx(1), HostIx(0), bytes);
        let t_alone = alone.run_to_completion().as_secs();

        let mut both = PacketNet::new(&rp, cfg);
        both.start_message(&rp, HostIx(1), HostIx(0), bytes);
        both.start_message(&rp, HostIx(2), HostIx(0), bytes);
        let t_both = both.run_to_completion().as_secs();
        let ratio = t_both / t_alone;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "sharing ratio {ratio}, expected ~2"
        );
    }

    #[test]
    fn attribution_conserves_bytes_and_charges_queue_waits() {
        let rec = Rec::enabled();
        let rp = cluster(3, 125e6, 10e-6);
        let cfg = PacketConfig::default();
        let mut net = PacketNet::new(&rp, cfg);
        net.set_recorder(rec.clone());
        let bytes = 50 * 1448;
        let a = net.start_message(&rp, HostIx(1), HostIx(0), bytes);
        let b = net.start_message(&rp, HostIx(2), HostIx(0), bytes);
        net.run_to_completion();
        let aa = net.take_attribution(a).expect("attribution for a");
        let ab = net.take_attribution(b).expect("attribution for b");
        // Conservation: per channel, the per-flow share integrals sum to
        // the channel's wire-byte counter.
        let report = rec.snapshot().unwrap();
        let mut per_chan: HashMap<u32, f64> = HashMap::new();
        for attr in [&aa, &ab] {
            assert!(attr.share_bytes >= bytes as f64, "wire bytes ≥ payload");
            for &c in &attr.route {
                *per_chan.entry(c).or_insert(0.0) += attr.share_bytes;
            }
        }
        assert!(!per_chan.is_empty());
        for (c, total) in per_chan {
            let counter = report.fcounter(&format!("packetnet.chan.{c}.bytes"));
            assert!(
                (counter - total).abs() <= 1e-9 * counter.max(1.0),
                "channel {c}: flows sum to {total}, counter says {counter}"
            );
        }
        // Both flows funnel into host 0's port: each spends time queued
        // behind the other, and the packet backend reports that queueing
        // as its bottleneck residency.
        assert!(aa.bottlenecked_secs() > 0.0, "a never queued: {aa:?}");
        assert!(ab.bottlenecked_secs() > 0.0, "b never queued: {ab:?}");
        assert_eq!(aa.queue_secs, aa.bottleneck_secs);
        assert!(
            net.take_attribution(a).is_none(),
            "attribution is taken exactly once"
        );
    }

    #[test]
    fn no_recorder_means_no_attribution() {
        let rp = cluster(2, 125e6, 0.0);
        let mut net = PacketNet::new(&rp, PacketConfig::default());
        let id = net.start_message(&rp, HostIx(0), HostIx(1), 5000);
        net.run_to_completion();
        assert!(net.take_attribution(id).is_none());
    }

    #[test]
    fn shared_cluster_links_contend_bidirectionally() {
        // Cluster builders use Shared links: simultaneous opposite-direction
        // messages share the capacity and take ~2x as long (the effect that
        // drives Fig. 11).
        let rp = cluster(2, 125e6, 0.0);
        let cfg = PacketConfig::default();
        let bytes = 100 * 1448;
        let mut one = PacketNet::new(&rp, cfg);
        one.start_message(&rp, HostIx(0), HostIx(1), bytes);
        let t_one = one.run_to_completion().as_secs();

        let mut both = PacketNet::new(&rp, cfg);
        both.start_message(&rp, HostIx(0), HostIx(1), bytes);
        both.start_message(&rp, HostIx(1), HostIx(0), bytes);
        let t_both = both.run_to_completion().as_secs();
        let ratio = t_both / t_one;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn split_duplex_directions_are_independent() {
        use smpi_platform::{Platform, SharingPolicy};
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let n0 = p.host_node(h0);
        let n1 = p.host_node(h1);
        p.link_between(n0, n1, "wire", 125e6, 0.0, SharingPolicy::SplitDuplex);
        let rp = RoutedPlatform::new(p);
        let cfg = PacketConfig::default();
        let bytes = 100 * 1448;
        let mut one = PacketNet::new(&rp, cfg);
        one.start_message(&rp, HostIx(0), HostIx(1), bytes);
        let t_one = one.run_to_completion().as_secs();

        let mut duplex = PacketNet::new(&rp, cfg);
        duplex.start_message(&rp, HostIx(0), HostIx(1), bytes);
        duplex.start_message(&rp, HostIx(1), HostIx(0), bytes);
        let t_duplex = duplex.run_to_completion().as_secs();
        assert!(
            (t_duplex - t_one).abs() < 1e-9,
            "split duplex should not slow down: {t_duplex} vs {t_one}"
        );
    }

    #[test]
    fn exec_and_sleep_complete() {
        let rp = cluster(2, 125e6, 0.0);
        let mut net = PacketNet::new(&rp, PacketConfig::default());
        let e = net.start_exec(HostIx(0), 2e9); // node speed 1e9 => 2 s
        let s = net.start_sleep(0.5);
        let (t1, d1) = net.advance_to_next().unwrap();
        assert_eq!(d1, vec![s]);
        assert!((t1.as_secs() - 0.5).abs() < 1e-12);
        let (t2, d2) = net.advance_to_next().unwrap();
        assert_eq!(d2, vec![e]);
        assert!((t2.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slots_recycle_and_stale_handles_stay_done() {
        let rp = cluster(2, 125e6, 0.0);
        let mut net = PacketNet::new(&rp, PacketConfig::default());
        let a = net.start_sleep(0.1);
        assert_eq!(net.running_actions(), 1);
        net.advance_to_next();
        assert!(net.is_done(a));
        assert_eq!(net.running_actions(), 0);
        // The slot is reused, but the generation bump keeps raw tokens
        // distinct and the stale handle permanently done.
        let b = net.start_sleep(0.2);
        assert_ne!(a.raw(), b.raw());
        assert!(net.is_done(a));
        assert!(!net.is_done(b));
        net.advance_to_next();
        assert!(net.is_done(b));
        assert_eq!(net.peak_actions(), 1);
    }

    #[test]
    fn byte_conservation_over_random_messages() {
        // All messages complete; completion count equals message count.
        let rp = cluster(4, 125e6, 1e-6);
        let mut net = PacketNet::new(&rp, PacketConfig::default());
        let mut started = 0;
        for (s, d, b) in [
            (0u32, 1u32, 5000u64),
            (1, 2, 123),
            (2, 3, 1_000_000),
            (3, 0, 0),
            (0, 2, 777_777),
            (1, 3, 1448),
        ] {
            net.start_message(&rp, HostIx(s), HostIx(d), b);
            started += 1;
        }
        let mut completed = 0;
        while let Some((_, done)) = net.advance_to_next() {
            completed += done.len();
        }
        assert_eq!(completed, started);
    }

    #[test]
    fn determinism() {
        let run = || {
            let rp = cluster(4, 125e6, 1e-6);
            let mut net = PacketNet::new(&rp, PacketConfig::default());
            for (s, d, b) in [(0u32, 1u32, 50_000u64), (2, 1, 50_000), (3, 1, 80_000)] {
                net.start_message(&rp, HostIx(s), HostIx(d), b);
            }
            let mut trace = Vec::new();
            while let Some((t, done)) = net.advance_to_next() {
                trace.push((t, done));
            }
            trace
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod oracle_tests;
