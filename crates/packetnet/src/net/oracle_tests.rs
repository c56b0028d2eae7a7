//! The per-channel reference engine (`Oracle`) and the differential tests
//! of the shipped frame loop against it: the same script is driven once on
//! each and the observations compared bit for bit.
//!
//! The oracle is the frame loop as first written: every channel keeps a
//! `HashMap` of per-flow frame queues, a message queues all its frames at
//! the first channel the moment it starts, and every event is one entry of
//! one global `(time, seq)` heap. The shipped loop keeps a channel's flows
//! as (transfer, hop) pairs, the frames in the transfer, hop 0 as a
//! counter, and a channel's events as one stream on the shared calendar; it
//! must not move an event, a float, or a recorder entry.

use super::*;
use proptest::prelude::*;
use smpi_platform::{Platform, SharingPolicy};
use std::cmp::Reverse;

/// A frame in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Frame {
    transfer: u32,
    payload: u32,
    hop: u16,
    queued_at: SimTime,
}

/// Heap events carry their payload inline (ordered by `(time, seq)` in the
/// heap entry; the derived `Ord` on the payload is never reached because
/// `seq` is unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    ChannelIdle(u32),
    Arrive(Frame),
    DelayDone(PacketActionId),
}

#[derive(Debug, Default)]
struct OracleChannel {
    /// Per-flow frame queues (flow = transfer action index).
    queues: HashMap<u32, VecDeque<Frame>>,
    /// Round-robin service order of flows with queued frames.
    rr: VecDeque<u32>,
    busy: bool,
    depth: u32,
}

#[derive(Debug)]
enum OraclePending {
    Transfer {
        route_channels: Vec<u32>,
        frames_remaining: u64,
        attr: Option<Box<FlowAttribution>>,
    },
    Delay,
}

/// The reference engine. Static tables (framing, channel bandwidths and
/// latencies, host speeds) come from an idle [`PacketNet`], routes from the
/// platform image; everything that moves is the oracle's own.
struct Oracle {
    tables: PacketNet,
    now: SimTime,
    channels: Vec<OracleChannel>,
    actions: Slab<OraclePending>,
    heap: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
    rec: Rec,
    done_attr: HashMap<u64, FlowAttribution>,
}

impl Oracle {
    fn new(rp: &RoutedPlatform, config: PacketConfig) -> Self {
        let tables = PacketNet::new(rp, config);
        let channels = (0..tables.channels.len())
            .map(|_| OracleChannel::default())
            .collect();
        Oracle {
            tables,
            now: SimTime::ZERO,
            channels,
            actions: Slab::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            rec: Rec::disabled(),
            done_attr: HashMap::new(),
        }
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn start_message(
        &mut self,
        rp: &RoutedPlatform,
        src: HostIx,
        dst: HostIx,
        bytes: u64,
    ) -> PacketActionId {
        let route = rp.image().route(rp, src, dst);
        let route_channels: Vec<u32> = route.iter().map(|l| l.index() as u32).collect();
        let nframes = self.tables.config.frame_count(bytes);
        let attr = if self.rec.is_enabled() {
            Some(Box::new(FlowAttribution::new(route_channels.clone())))
        } else {
            None
        };
        let (slot, gen) = self.actions.insert(OraclePending::Transfer {
            route_channels: route_channels.clone(),
            frames_remaining: nframes,
            attr,
        });
        let id = PacketActionId { slot, gen };
        self.rec.with(|r| {
            r.counter_add("packetnet.messages", 1);
            r.counter_add("packetnet.frames.total", nframes);
        });
        // Enqueue all frames at the first channel.
        let full = self.tables.config.mtu_payload as u64;
        let first = route_channels[0];
        let mut left = bytes;
        for _ in 0..nframes {
            let payload = left.min(full) as u32;
            left = left.saturating_sub(full);
            let frame = Frame {
                transfer: id.slot,
                payload,
                hop: 0,
                queued_at: SimTime::ZERO,
            };
            self.enqueue_frame(first, frame);
        }
        id
    }

    fn start_exec(&mut self, host: HostIx, flops: f64) -> PacketActionId {
        let speed = self.tables.host_speeds[host.0 as usize];
        self.start_sleep(flops / speed)
    }

    fn start_sleep(&mut self, seconds: f64) -> PacketActionId {
        let (slot, gen) = self.actions.insert(OraclePending::Delay);
        let id = PacketActionId { slot, gen };
        self.schedule(self.now + seconds, Event::DelayDone(id));
        id
    }

    fn enqueue_frame(&mut self, chan: u32, mut frame: Frame) {
        frame.queued_at = self.now;
        let cix = chan as usize;
        if self.tables.chan_fat[cix] {
            let ser =
                self.tables.config.wire_bytes(frame.payload) as f64 / self.tables.chan_bw[cix];
            let at = self.now + ser + self.tables.chan_lat[cix];
            self.schedule(at, Event::Arrive(frame));
            return;
        }
        let c = &mut self.channels[cix];
        let was_busy = c.busy;
        let q = c.queues.entry(frame.transfer).or_default();
        if q.is_empty() {
            c.rr.push_back(frame.transfer);
        }
        q.push_back(frame);
        c.depth += 1;
        let depth = c.depth;
        self.rec.with(|r| {
            if was_busy {
                r.counter_add("packetnet.frames.queued_behind", 1);
            }
            r.hwm(&format!("packetnet.chan.{chan}.queue_depth"), depth as f64);
        });
        if !was_busy {
            self.transmit_next(chan);
        }
    }

    fn transmit_next(&mut self, chan: u32) {
        let cix = chan as usize;
        let c = &mut self.channels[cix];
        let Some(flow) = c.rr.pop_front() else {
            return;
        };
        let q = c.queues.get_mut(&flow).expect("flow queue exists");
        let frame = q.pop_front().expect("queued flow has frames");
        if q.is_empty() {
            c.queues.remove(&flow);
        } else {
            c.rr.push_back(flow);
        }
        c.busy = true;
        c.depth -= 1;
        let ser = self.tables.config.wire_bytes(frame.payload) as f64 / self.tables.chan_bw[cix];
        self.schedule(self.now + ser, Event::ChannelIdle(chan));
        let at = self.now + ser + self.tables.chan_lat[cix];
        self.schedule(at, Event::Arrive(frame));
    }

    fn on_arrive(&mut self, frame: Frame) -> Option<PacketActionId> {
        let now = self.now;
        let Some(OraclePending::Transfer {
            route_channels,
            frames_remaining,
            attr,
        }) = self.actions.get_mut(frame.transfer)
        else {
            unreachable!("frame belongs to a live transfer");
        };
        let chan = route_channels[frame.hop as usize];
        let cix = chan as usize;
        let wire = self.tables.config.wire_bytes(frame.payload) as f64;
        if let Some(a) = attr.as_deref_mut() {
            if frame.hop == 0 {
                a.share_bytes += wire;
            }
            let ser = wire / self.tables.chan_bw[cix];
            let wait =
                (now.duration_since(frame.queued_at) - ser - self.tables.chan_lat[cix]).max(0.0);
            if wait > 0.0 {
                a.add_queue(chan, wait);
                a.add_bottleneck(chan, wait);
            }
        }
        let next_hop = frame.hop as usize + 1;
        let (next_chan, finished) = if next_hop < route_channels.len() {
            (Some(route_channels[next_hop]), false)
        } else {
            *frames_remaining -= 1;
            (None, *frames_remaining == 0)
        };
        self.rec.with(|r| {
            r.fcounter_add(&format!("packetnet.chan.{chan}.bytes"), wire);
        });
        if let Some(chan) = next_chan {
            let next = Frame {
                hop: frame.hop + 1,
                ..frame
            };
            self.enqueue_frame(chan, next);
            None
        } else if finished {
            let gen = self.actions.generation(frame.transfer);
            let done = self.actions.remove(frame.transfer);
            let id = PacketActionId {
                slot: frame.transfer,
                gen,
            };
            if let OraclePending::Transfer {
                attr: Some(attr), ..
            } = done
            {
                self.done_attr.insert(id.raw(), *attr);
            }
            Some(id)
        } else {
            None
        }
    }

    fn advance_to_next(&mut self) -> Option<(SimTime, Vec<PacketActionId>)> {
        let mut completed = Vec::new();
        while let Some(&Reverse((t, _, _))) = self.heap.peek() {
            self.now = t;
            while let Some(&Reverse((t2, _, ev))) = self.heap.peek() {
                if t2 != t {
                    break;
                }
                self.heap.pop();
                match ev {
                    Event::ChannelIdle(chan) => {
                        self.channels[chan as usize].busy = false;
                        self.transmit_next(chan);
                    }
                    Event::Arrive(frame) => {
                        let hop_ns = (self.now.as_secs() - frame.queued_at.as_secs()) * 1e9;
                        self.rec.with(|r| {
                            r.observe("packetnet.hop_latency_ns", hop_ns);
                            r.counter_add("packetnet.frames.hops", 1);
                        });
                        if let Some(done) = self.on_arrive(frame) {
                            completed.push(done);
                        }
                    }
                    Event::DelayDone(id) => {
                        self.actions.remove(id.slot);
                        completed.push(id);
                    }
                }
            }
            if !completed.is_empty() {
                return Some((self.now, completed));
            }
        }
        None
    }
}

/// What the differential tests drive: the public surface both engines share.
trait Engine {
    fn set_recorder(&mut self, rec: Rec);
    fn message(&mut self, rp: &RoutedPlatform, src: u32, dst: u32, bytes: u64) -> PacketActionId;
    fn exec(&mut self, host: u32, flops: f64) -> PacketActionId;
    fn sleep(&mut self, secs: f64) -> PacketActionId;
    fn advance(&mut self) -> Option<(SimTime, Vec<PacketActionId>)>;
    fn attribution(&mut self, id: PacketActionId) -> Option<FlowAttribution>;
    /// Events scheduled so far.
    fn seq(&self) -> u64;
}

impl Engine for PacketNet {
    fn set_recorder(&mut self, rec: Rec) {
        PacketNet::set_recorder(self, rec);
    }
    fn message(&mut self, rp: &RoutedPlatform, src: u32, dst: u32, bytes: u64) -> PacketActionId {
        self.start_message(rp, HostIx(src), HostIx(dst), bytes)
    }
    fn exec(&mut self, host: u32, flops: f64) -> PacketActionId {
        self.start_exec(HostIx(host), flops)
    }
    fn sleep(&mut self, secs: f64) -> PacketActionId {
        self.start_sleep(secs)
    }
    fn advance(&mut self) -> Option<(SimTime, Vec<PacketActionId>)> {
        self.advance_to_next()
    }
    fn attribution(&mut self, id: PacketActionId) -> Option<FlowAttribution> {
        self.take_attribution(id)
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

impl Engine for Oracle {
    fn set_recorder(&mut self, rec: Rec) {
        self.rec = rec;
    }
    fn message(&mut self, rp: &RoutedPlatform, src: u32, dst: u32, bytes: u64) -> PacketActionId {
        self.start_message(rp, HostIx(src), HostIx(dst), bytes)
    }
    fn exec(&mut self, host: u32, flops: f64) -> PacketActionId {
        self.start_exec(HostIx(host), flops)
    }
    fn sleep(&mut self, secs: f64) -> PacketActionId {
        self.start_sleep(secs)
    }
    fn advance(&mut self) -> Option<(SimTime, Vec<PacketActionId>)> {
        self.advance_to_next()
    }
    fn attribution(&mut self, id: PacketActionId) -> Option<FlowAttribution> {
        self.done_attr.remove(&id.raw())
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `(src, dst, bytes)`.
    Message(u32, u32, u64),
    Exec(u32, f64),
    Sleep(f64),
}

/// Batches of starts issued at one instant, each followed by that many
/// `advance_to_next` steps (zero: the next batch starts at the same
/// instant).
type Script = Vec<(Vec<Op>, usize)>;

/// Everything a run can be observed by: each completion instant's time
/// bits, completed ids and events scheduled so far, each started action's
/// attribution, and the recorder snapshot.
#[derive(Debug, PartialEq)]
struct Observed {
    completions: Vec<(u64, Vec<u64>, u64)>,
    attributions: Vec<Option<FlowAttribution>>,
    snapshot: Option<String>,
}

const HOSTS: u32 = 7;

/// Seven hosts on two switches: Shared host links (0, 1, 6 — 6 slower, so
/// queues build at the last hop), a FatPipe host link (2: its messages
/// start on a channel with no queue), SplitDuplex host links (3, 4, 5),
/// and a core link between the switches with the given policy and speed.
/// With `zero_latency`, no host or core link has latency: a frame's
/// `ChannelIdle` and `Arrive` fall on one instant, and `seq` alone orders
/// them.
fn platform(core: SharingPolicy, core_bw: f64, zero_latency: bool) -> RoutedPlatform {
    let lat = |secs: f64| if zero_latency { 0.0 } else { secs };
    let mut p = Platform::new();
    let s0 = p.add_switch("s0");
    let s1 = p.add_switch("s1");
    let hosts = [
        (s0, 125e6, 10e-6, SharingPolicy::Shared),
        (s0, 125e6, 10e-6, SharingPolicy::Shared),
        (s0, 1e9, 5e-6, SharingPolicy::FatPipe),
        (s1, 125e6, 10e-6, SharingPolicy::SplitDuplex),
        (s1, 125e6, 7e-6, SharingPolicy::SplitDuplex),
        (s1, 250e6, 10e-6, SharingPolicy::SplitDuplex),
        (s1, 40e6, 3e-6, SharingPolicy::Shared),
    ];
    for (i, (switch, bw, latency, policy)) in hosts.into_iter().enumerate() {
        let h = p.add_host(format!("h{i}"), 1e9 * (i + 1) as f64);
        let node = p.host_node(h);
        p.link_between(node, switch, format!("l{i}"), bw, lat(latency), policy);
    }
    p.link_between(s0, s1, "core", core_bw, lat(20e-6), core);
    RoutedPlatform::new(p)
}

fn start<E: Engine>(e: &mut E, rp: &RoutedPlatform, op: Op) -> PacketActionId {
    match op {
        Op::Message(src, dst, bytes) => e.message(rp, src, dst, bytes),
        Op::Exec(host, flops) => e.exec(host, flops),
        Op::Sleep(secs) => e.sleep(secs),
    }
}

fn run<E: Engine>(e: &mut E, rp: &RoutedPlatform, script: &Script, record: bool) -> Observed {
    let rec = if record {
        Rec::enabled()
    } else {
        Rec::disabled()
    };
    e.set_recorder(rec.clone());
    let mut started = Vec::new();
    let mut completions = Vec::new();
    let mut advance = |e: &mut E| match e.advance() {
        Some((t, done)) => {
            let ids = done.iter().map(|id| id.raw()).collect();
            completions.push((t.as_secs().to_bits(), ids, e.seq()));
            true
        }
        None => false,
    };
    for (starts, advances) in script {
        for &op in starts {
            started.push(start(e, rp, op));
        }
        for _ in 0..*advances {
            advance(e);
        }
    }
    while advance(e) {}
    Observed {
        completions,
        attributions: started.into_iter().map(|id| e.attribution(id)).collect(),
        snapshot: rec.snapshot().map(|s| format!("{s:?}")),
    }
}

/// Runs `script` on both engines, recorder off and on, and asserts equal
/// observations.
fn assert_matches_oracle(rp: &RoutedPlatform, script: &Script, what: &str) {
    for record in [false, true] {
        let config = PacketConfig::default();
        let shipped = run(&mut PacketNet::new(rp, config), rp, script, record);
        let oracle = run(&mut Oracle::new(rp, config), rp, script, record);
        assert_eq!(shipped, oracle, "{what}, recorder {record}");
    }
}

fn op() -> impl Strategy<Value = Op> {
    let bytes = prop_oneof![
        Just(0u64),
        1u64..=1448,
        Just(1448u64),
        1449u64..40_000,
        Just(3 * 1448u64),
    ];
    prop_oneof![
        (0..HOSTS, 1..HOSTS, bytes).prop_map(|(s, k, b)| Op::Message(s, (s + k) % HOSTS, b)),
        (0..HOSTS, 1e3f64..1e6).prop_map(|(h, f)| Op::Exec(h, f)),
        prop_oneof![Just(0.0f64), 0.0f64..1e-3].prop_map(Op::Sleep),
    ]
}

fn script() -> impl Strategy<Value = Script> {
    proptest::collection::vec((proptest::collection::vec(op(), 0..5), 0usize..3), 1..8)
}

fn core() -> impl Strategy<Value = (SharingPolicy, f64)> {
    let policy = prop_oneof![
        Just(SharingPolicy::Shared),
        Just(SharingPolicy::SplitDuplex),
        Just(SharingPolicy::FatPipe),
    ];
    (policy, prop_oneof![Just(125e6), Just(60e6), Just(1e9)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Same completions at the same time bits, same ids, with and without
    /// a recorder; with one, the same counters, high-water marks,
    /// histograms, byte integrals and attributions. Each script runs with
    /// latency and without, where every frame's `ChannelIdle` and `Arrive`
    /// tie and FatPipe arrivals tie with channel events.
    #[test]
    fn the_frame_loop_matches_the_per_channel_oracle(script in script(), core in core()) {
        let config = PacketConfig::default();
        for zero_latency in [false, true] {
            let rp = platform(core.0, core.1, zero_latency);
            for record in [false, true] {
                let shipped = run(&mut PacketNet::new(&rp, config), &rp, &script, record);
                let oracle = run(&mut Oracle::new(&rp, config), &rp, &script, record);
                prop_assert_eq!(&shipped, &oracle);
            }
        }
    }
}

#[test]
fn a_symmetric_incast_at_one_instant_matches_the_oracle() {
    // Equal messages from identical hosts, started at one instant: their
    // frames reach the shared port at the same instants, frame after
    // frame, so only `seq` orders them.
    let bytes = 20 * 1448 + 100;
    for zero_latency in [false, true] {
        let star = RoutedPlatform::new(smpi_platform::flat_cluster(
            "star",
            5,
            &smpi_platform::ClusterConfig {
                link_latency: if zero_latency { 0.0 } else { 10e-6 },
                ..smpi_platform::ClusterConfig::default()
            },
        ));
        let into_star: Script = vec![((1..5).map(|src| Op::Message(src, 0, bytes)).collect(), 0)];
        // Hosts 0 and 1 are identical: into the slow host 6, and across the
        // core into host 3.
        let mixed = platform(SharingPolicy::Shared, 125e6, zero_latency);
        let into_mixed: Script = vec![(
            vec![
                Op::Message(0, 6, bytes),
                Op::Message(1, 6, bytes),
                Op::Message(0, 3, bytes),
                Op::Message(1, 3, bytes),
            ],
            0,
        )];
        for (rp, script) in [(&star, &into_star), (&mixed, &into_mixed)] {
            assert_matches_oracle(rp, script, &format!("zero latency: {zero_latency}"));
        }
    }
}

#[test]
fn griffon_cross_cabinet_traffic_matches_the_oracle() {
    // Routes through the cabinet switches: a 3-way incast, a long message
    // crossing it, and empty and one-byte messages at the same instants.
    let rp = RoutedPlatform::new(smpi_platform::griffon());
    let script: Script = vec![
        (
            vec![
                Op::Message(0, 91, 200_000),
                Op::Message(1, 91, 200_000),
                Op::Message(45, 91, 65_536),
                Op::Message(91, 0, 1),
            ],
            2,
        ),
        (vec![Op::Message(0, 90, 0), Op::Sleep(1e-4)], 0),
        (vec![Op::Message(30, 90, 1 << 20), Op::Exec(30, 1e6)], 1),
    ];
    assert_matches_oracle(&rp, &script, "griffon");
}

/// A long message from host 0 into the slow host 6.
const LONG: Op = Op::Message(0, 6, 300 * 1448 + 17);
/// A short message from host 0 to host 1: it shares host 0's link with
/// [`LONG`] and completes first.
const SHORT: Op = Op::Message(0, 1, 10 * 1448);

#[test]
fn a_transfer_left_alone_mid_flight_matches_the_oracle() {
    for zero_latency in [false, true] {
        let rp = platform(SharingPolicy::Shared, 125e6, zero_latency);
        // The state the lone pass takes over once the short message is
        // done: frames on hop 0's counter, in arrival streams, and queued
        // at the slow last hop.
        let mut net = PacketNet::new(&rp, PacketConfig::default());
        start(&mut net, &rp, LONG);
        let short = start(&mut net, &rp, SHORT);
        assert_eq!(
            net.advance_to_next().map(|(_, done)| done),
            Some(vec![short])
        );
        let slot = net.lone_transfer().expect("the long message is alone");
        let Some(Pending::Transfer(t)) = net.actions.get(slot) else {
            unreachable!("the lone action is a transfer");
        };
        assert!(t.unsent > 0, "frames left on hop 0's counter");
        assert!(t.queues.iter().any(|q| !q.is_empty()), "frames queued");
        assert!(
            t.route
                .iter()
                .any(|l| !net.channels[l.index()].arrivals.is_empty()),
            "frames in flight"
        );

        let script: Script = vec![(vec![LONG, SHORT], 0)];
        assert_matches_oracle(&rp, &script, &format!("zero latency: {zero_latency}"));
    }
}

#[test]
fn a_message_started_as_a_lone_transfer_completes_matches_the_oracle() {
    // The second advance completes the long message in the lone pass;
    // two messages and an empty sleep start at that instant. Without
    // latency, every frame's idle and arrival tie and `seq` alone orders
    // them.
    let script: Script = vec![
        (vec![LONG, SHORT], 2),
        (
            vec![
                Op::Message(1, 6, 20 * 1448),
                Op::Message(0, 3, 5000),
                Op::Sleep(0.0),
            ],
            0,
        ),
    ];
    for zero_latency in [true, false] {
        let rp = platform(SharingPolicy::Shared, 125e6, zero_latency);
        assert_matches_oracle(&rp, &script, &format!("zero latency: {zero_latency}"));
    }
}

#[test]
fn a_lone_message_over_a_fat_pipe_stays_in_the_event_loop() {
    let bytes = 40 * 1448 + 3;
    for zero_latency in [false, true] {
        let fat_core = platform(SharingPolicy::FatPipe, 125e6, zero_latency);
        // Across the FatPipe core (a middle hop), and into host 2's
        // FatPipe link (the last hop).
        for (src, dst) in [(0, 3), (0, 2)] {
            let mut net = PacketNet::new(&fat_core, PacketConfig::default());
            net.start_message(&fat_core, HostIx(src), HostIx(dst), bytes);
            assert_eq!(net.lone_transfer(), None, "{src} -> {dst}");
            let script: Script = vec![(vec![Op::Message(src, dst, bytes)], 0)];
            assert_matches_oracle(&fat_core, &script, &format!("{src} -> {dst}"));
        }
    }
}
