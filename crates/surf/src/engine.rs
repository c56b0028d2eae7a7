//! The SURF simulation engine: resources, actions, and the sequential clock.
//!
//! This is the "simulation kernel" of Fig. 1 in the paper. It owns
//!
//! * **links** (bandwidth + latency) and **hosts** (compute speed),
//! * **actions**: ongoing network transfers, CPU executions, and sleeps,
//! * the simulated **clock**.
//!
//! The kernel is strictly sequential (§5.1): callers start actions, then
//! repeatedly call [`Simulation::advance_to_next`] to jump the clock to the
//! next completion. Network rates are recomputed with the max-min solver
//! ([`crate::lmm`]) whenever the set of active flows changes; CPU actions on
//! the same host share its compute power the same way.
//!
//! Transfers are two-phase, matching the flow model validated in the SimGrid
//! papers: a pure-latency phase (the flow does not consume bandwidth) then a
//! transfer phase at rate `min(segment bound, max-min share)`.
//!
//! # Per-event cost
//!
//! The kernel is engineered so that the cost of one simulated event depends
//! only on the *currently live* actions (and usually only on the affected
//! ones), never on the total number of actions ever started:
//!
//! * actions live in a generation-tagged [`Slab`] whose
//!   slots are recycled on completion, so iteration and memory stay
//!   proportional to the peak concurrency;
//! * the next completion is found through a lazily-invalidated binary heap
//!   of predicted completion times instead of a linear scan — a heap entry
//!   is trusted only if its generation matches the slot and its time matches
//!   the slot's cached prediction, so rate changes simply publish a new
//!   entry and orphan the old one;
//! * the max-min problem is re-solved *incrementally*: each link and host
//!   keeps a persistent, birth-ordered set of the actions it constrains, a
//!   change marks its constraints dirty, and only the connected component of
//!   the constraint↔action graph reachable from dirty constraints is
//!   re-shared. Remaining work is folded in lazily, at an action's own rate
//!   changes, rather than on every global step. Each dirty component is
//!   built and solved inline, on the calling thread, in component-birth
//!   order; a component whose members share one rate bound is folded to
//!   one solver variable per route class. This is the only shipped
//!   reshare path: the from-scratch rebuild it must match exists solely as
//!   a `#[cfg(test)]` oracle for the differential tests in
//!   `engine/oracle_tests.rs`.

use crate::ids::{ActionId, HostId, LinkId};
use crate::lmm::{CnstId, MaxMinProblem};
use crate::model::TransferModel;
use crate::slab::Slab;
use crate::time::SimTime;
use smpi_obs::{FlowAttribution, KernelProfile, Rec};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::time::Instant;

/// Relative tolerance when deciding that an action's remaining work is done.
const COMPLETION_EPS: f64 = 1e-9;

/// One dirty component's max-min problem plus the bookkeeping needed to
/// apply its solution back to engine actions.
struct BuiltComponent {
    problem: MaxMinProblem,
    /// Constraint index → kernel link (None for host constraints).
    cnst_link: Vec<Option<u32>>,
    /// Member index → solver variable index (identity when unfolded; the
    /// route-class representative when folded).
    var_of: Vec<u32>,
}

/// Birth-ordered key of an action inside constraint user sets: the start
/// sequence number first, so iteration replays creation order.
type UserKey = (u64, u32);

/// A network link: one direction of a cable, or a switch backplane.
#[derive(Debug, Clone)]
struct Link {
    /// Nominal bandwidth in bytes/s (the max-min capacity).
    bandwidth: f64,
    /// Nominal one-way latency contribution in seconds.
    latency: f64,
    /// When `false`, flows crossing this link are not subject to its
    /// capacity constraint (the "no contention" scenario of Figs. 7 and 11).
    contended: bool,
    /// Transfer-phase flows currently constrained by this link, in birth
    /// order. Only maintained while the link participates in contention.
    users: BTreeSet<UserKey>,
}

/// A compute host with a speed in flop/s.
#[derive(Debug, Clone)]
struct Host {
    speed: f64,
    /// Executions currently sharing this host, in birth order.
    users: BTreeSet<UserKey>,
}

#[derive(Debug, Clone)]
enum ActionKind {
    /// Network transfer across `route`.
    Transfer {
        /// The route with duplicate links removed (first occurrence kept):
        /// a link crossed twice still constrains — and accounts — the flow
        /// once, mirroring the solver's own membership deduplication.
        route: Vec<LinkId>,
        /// Remaining seconds of the latency phase.
        latency_left: f64,
        /// Remaining bytes once in the transfer phase.
        bytes_left: f64,
        /// Individual rate bound from the transfer model segment.
        bound: f64,
    },
    /// CPU execution on a host.
    Exec { host: HostId, flops_left: f64 },
    /// Pure delay (used by `sample_*` replay and `MPI_Wtime`-style waits).
    Sleep { ends_at: SimTime },
}

/// Per-flow contention-attribution accumulator. Exists only while a
/// recorder is attached (`None` on the disabled path, so the hot loop pays
/// one pointer check) and only on transfers.
#[derive(Debug, Clone)]
struct AttrAcc {
    /// Kernel link currently bottlenecking this flow — the saturated
    /// constraint that froze its rate at the latest reshare — or `None`
    /// when the flow is limited by its own model bound (or crosses no
    /// contended link).
    bottleneck: Option<u32>,
    /// Integrals accumulated so far.
    acc: FlowAttribution,
}

#[derive(Debug, Clone)]
struct Action {
    kind: ActionKind,
    /// Current allocated rate (bytes/s or flop/s); 0 during latency phase.
    rate: f64,
    /// Birth sequence number; total order over all actions ever started.
    seq: u64,
    /// Cached predicted completion instant; `INFINITY` when the action can
    /// make no progress (then it has no heap entry).
    pred: SimTime,
    /// Instant up to which `*_left` has been charged. Work is folded in
    /// lazily, when the rate changes, not on every global step.
    last_update: SimTime,
    /// Contention attribution; only allocated for transfers started while
    /// recording.
    attr: Option<Box<AttrAcc>>,
}

/// Engine configuration knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Globally disable link capacity constraints. Equivalent to marking
    /// every link un-contended; used to mimic the contention-blind
    /// simulators the paper compares against.
    pub contention: bool,
    /// Optional TCP-window rate cap: a flow's rate is additionally bounded by
    /// `tcp_window / (2 * route_latency)` (CM02-style). `None` disables it.
    pub tcp_window: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            contention: true,
            tcp_window: None,
        }
    }
}

/// One action that can make no progress, inside a [`StallError`].
#[derive(Debug, Clone)]
pub struct StuckAction {
    /// Handle of the stuck action.
    pub id: ActionId,
    /// `"transfer"`, `"exec"` or `"sleep"`.
    pub kind: &'static str,
    /// Remaining work: bytes (or latency seconds) for transfers, flops for
    /// executions.
    pub remaining: f64,
    /// The allocated rate when the simulation stalled (typically 0).
    pub rate: f64,
    /// The (deduplicated) route for transfers; empty otherwise.
    pub route: Vec<LinkId>,
}

/// Running actions exist but none of them can ever complete (for example a
/// flow whose model bound is 0 bytes/s). Returned by
/// [`Simulation::try_advance_to_next`] instead of silently spinning.
#[derive(Debug, Clone)]
pub struct StallError {
    /// Simulated time at which the stall was detected.
    pub at: SimTime,
    /// Every action that is stuck, in birth order.
    pub stuck: Vec<StuckAction>,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation stalled at {}: {} action(s) cannot progress",
            self.at,
            self.stuck.len()
        )?;
        for s in self.stuck.iter().take(8) {
            write!(
                f,
                "; {} {} ({} left at rate {}",
                s.kind, s.id, s.remaining, s.rate
            )?;
            if s.route.is_empty() {
                write!(f, ")")?;
            } else {
                write!(f, " via ")?;
                for (i, l) in s.route.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{l}")?;
                }
                write!(f, ")")?;
            }
        }
        if self.stuck.len() > 8 {
            write!(f, "; … and {} more", self.stuck.len() - 8)?;
        }
        Ok(())
    }
}

impl std::error::Error for StallError {}

/// Heap entry: `(predicted completion, birth seq, slot, generation)`. The
/// entry is trusted only if the generation still matches the slot *and* the
/// time still matches the slot's cached prediction; anything else is an
/// orphan from an earlier rate and is dropped when popped.
type HeapEntry = Reverse<(SimTime, u64, u32, u32)>;

/// What happened to a completion candidate at the event instant.
enum Verdict {
    Done,
    EnterBandwidth,
    Repush,
}

/// The sequential simulation kernel.
#[derive(Debug)]
pub struct Simulation {
    now: SimTime,
    links: Vec<Link>,
    hosts: Vec<Host>,
    actions: Slab<Action>,
    heap: BinaryHeap<HeapEntry>,
    /// Next birth sequence number.
    next_seq: u64,
    /// Links / hosts whose user set changed since the last re-share.
    dirty_links: BTreeSet<u32>,
    dirty_hosts: BTreeSet<u32>,
    /// Differential-test oracle: re-share through
    /// [`reshare_full`](Self::reshare_full) instead of the shipped path.
    #[cfg(test)]
    full_rebuild_oracle: bool,
    config: EngineConfig,
    /// Observability sink; disabled by default (every emit is one branch).
    rec: Rec,
    /// Last emitted utilization per link, to suppress duplicate gauge
    /// samples across reshares. Only maintained while `rec` is enabled.
    last_util: Vec<f64>,
    /// Attribution of completed transfers, keyed by `ActionId::raw()`,
    /// awaiting pickup via [`take_attribution`](Self::take_attribution).
    /// Only populated for transfers that carried an accumulator.
    done_attr: HashMap<u64, FlowAttribution>,
    /// Always-on solver introspection (plain counters + inline histograms;
    /// see `KernelProfile` for why this is not gated on `rec`).
    kstats: KernelProfile,
    /// Epoch-stamped visit marks for [`collect_dirty_components`]
    /// (Self::collect_dirty_components), indexed by action slot / link /
    /// host. A mark is set iff its entry equals `comp_epoch`, so clearing
    /// between reshares is a single counter bump instead of a memset.
    comp_stamp: Vec<u64>,
    link_stamp: Vec<u64>,
    host_stamp: Vec<u64>,
    comp_epoch: u64,
    /// Epoch-stamped scratch for [`build_component`](Self::build_component):
    /// maps a link / host to its constraint's insertion index in the
    /// component currently being built. Same stamping scheme as
    /// `comp_stamp`, sharing `comp_epoch` (each user bumps the epoch before
    /// use, so the phases can never read each other's marks).
    cnst_scratch_links: Vec<(u64, u32)>,
    cnst_scratch_hosts: Vec<(u64, u32)>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation with default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Creates an empty simulation with the given configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        Simulation {
            now: SimTime::ZERO,
            links: Vec::new(),
            hosts: Vec::new(),
            actions: Slab::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            dirty_links: BTreeSet::new(),
            dirty_hosts: BTreeSet::new(),
            #[cfg(test)]
            full_rebuild_oracle: false,
            config,
            rec: Rec::disabled(),
            last_util: Vec::new(),
            done_attr: HashMap::new(),
            kstats: KernelProfile::default(),
            comp_stamp: Vec::new(),
            link_stamp: Vec::new(),
            host_stamp: Vec::new(),
            comp_epoch: 0,
            cnst_scratch_links: Vec::new(),
            cnst_scratch_hosts: Vec::new(),
        }
    }

    /// Attaches an observability recorder. While enabled, the engine emits
    /// `surf.reshares`, per-link `surf.link.<i>.util` gauge timelines, and
    /// per-link `surf.link.<i>.bytes` counters integrating delivered work,
    /// and every transfer started from now on carries a contention
    /// attribution accumulator (see
    /// [`take_attribution`](Self::take_attribution)).
    pub fn set_recorder(&mut self, rec: Rec) {
        self.rec = rec;
        self.last_util = vec![0.0; self.links.len()];
    }

    /// Takes the contention attribution of a *completed* transfer: its
    /// time-integrated bandwidth share and per-link bottleneck residency.
    /// Returns `None` when the action recorded nothing (recorder disabled
    /// at start time, non-transfer action, or already taken).
    pub fn take_attribution(&mut self, action: ActionId) -> Option<FlowAttribution> {
        self.done_attr.remove(&action.raw())
    }

    /// Snapshot of the always-on solver introspection counters.
    pub fn kernel_profile(&self) -> KernelProfile {
        self.kstats.clone()
    }

    /// Cumulative wall-clock nanoseconds spent in max-min solves
    /// (host-dependent: telemetry consumers strip it before byte-identity
    /// comparisons).
    pub fn solver_wall_ns(&self) -> f64 {
        self.kstats.solve_ns.sum
    }

    /// Fills `out[i]` with link `i`'s instantaneous utilization in
    /// `[0, 1]`: allocated transfer rate over nominal bandwidth, counting
    /// only flows past their latency phase (same accounting as the
    /// recorder's `surf.link.<i>.util` gauges, but allocation-free into a
    /// caller-owned buffer so the maestro can poll it every event).
    pub fn link_utilizations(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.links.len(), 0.0);
        for (_slot, _gen, a) in self.actions.iter() {
            if let ActionKind::Transfer {
                route,
                latency_left,
                ..
            } = &a.kind
            {
                if *latency_left <= 0.0 {
                    for l in route {
                        out[l.index()] += a.rate;
                    }
                }
            }
        }
        for (li, u) in out.iter_mut().enumerate() {
            *u /= self.links[li].bandwidth;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Adds a link with `bandwidth` bytes/s and `latency` seconds.
    pub fn add_link(&mut self, bandwidth: f64, latency: f64) -> LinkId {
        assert!(bandwidth > 0.0 && bandwidth.is_finite());
        assert!(latency >= 0.0 && latency.is_finite());
        self.links.push(Link {
            bandwidth,
            latency,
            contended: true,
            users: BTreeSet::new(),
        });
        LinkId::from_index(self.links.len() - 1)
    }

    /// Marks a link as contention-free (infinite multiplexing capacity) or
    /// contended again. Transfer-phase flows already crossing the link gain
    /// or lose its constraint from this instant: they leave the user sets
    /// they are in and re-enter the transfer phase under the new flag, so
    /// the next event query re-shares exactly the components they touch.
    pub fn set_link_contended(&mut self, link: LinkId, contended: bool) {
        let was = std::mem::replace(&mut self.links[link.index()].contended, contended);
        if was == contended || !self.config.contention {
            return;
        }
        let crossing: Vec<UserKey> = self
            .actions
            .iter()
            .filter(|(_, _, a)| {
                matches!(&a.kind, ActionKind::Transfer { route, latency_left, .. }
                    if *latency_left <= 0.0 && route.contains(&link))
            })
            .map(|(slot, _, a)| (a.seq, slot))
            .collect();
        for key in &crossing {
            if let ActionKind::Transfer { route, .. } = &self.actions.get(key.1).expect("live").kind
            {
                for l in route {
                    if self.links[l.index()].users.remove(key) {
                        self.dirty_links.insert(l.index() as u32);
                    }
                }
            }
        }
        for &(_seq, slot) in &crossing {
            self.enter_bandwidth(slot);
        }
    }

    /// Nominal bandwidth of a link in bytes/s.
    pub fn link_bandwidth(&self, link: LinkId) -> f64 {
        self.links[link.index()].bandwidth
    }

    /// Nominal latency of a link in seconds.
    pub fn link_latency(&self, link: LinkId) -> f64 {
        self.links[link.index()].latency
    }

    /// Adds a host computing at `speed` flop/s.
    pub fn add_host(&mut self, speed: f64) -> HostId {
        assert!(speed > 0.0 && speed.is_finite());
        self.hosts.push(Host {
            speed,
            users: BTreeSet::new(),
        });
        HostId::from_index(self.hosts.len() - 1)
    }

    /// Compute speed of a host in flop/s.
    pub fn host_speed(&self, host: HostId) -> f64 {
        self.hosts[host.index()].speed
    }

    /// Sum of nominal latencies along a route.
    pub fn route_latency(&self, route: &[LinkId]) -> f64 {
        route.iter().map(|l| self.links[l.index()].latency).sum()
    }

    /// Minimum nominal bandwidth along a route.
    pub fn route_bandwidth(&self, route: &[LinkId]) -> f64 {
        route
            .iter()
            .map(|l| self.links[l.index()].bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// Starts a network transfer of `bytes` along `route`, using `model` to
    /// derive the latency and the individual rate bound from the message
    /// size. Returns immediately; completion is reported by
    /// [`advance_to_next`](Self::advance_to_next).
    pub fn start_transfer(
        &mut self,
        route: &[LinkId],
        bytes: f64,
        model: &TransferModel,
    ) -> ActionId {
        assert!(bytes >= 0.0 && bytes.is_finite());
        assert!(!route.is_empty(), "transfer route cannot be empty");
        let seg = model.segment_for(bytes);
        let raw_latency = self.route_latency(route);
        let raw_bandwidth = self.route_bandwidth(route);
        let latency = seg.lat_factor * raw_latency;
        let mut bound = seg.bw_factor * raw_bandwidth;
        if let Some(window) = self.config.tcp_window {
            if latency > 0.0 {
                bound = bound.min(window / (2.0 * latency));
            }
        }
        // Keep the first occurrence of each link: crossing a link twice does
        // not double its constraint (the solver deduplicates memberships),
        // and must not double its utilization/byte accounting either.
        let mut dedup: Vec<LinkId> = Vec::with_capacity(route.len());
        for &l in route {
            if !dedup.contains(&l) {
                dedup.push(l);
            }
        }
        self.push_action(ActionKind::Transfer {
            route: dedup,
            latency_left: latency,
            bytes_left: bytes,
            bound,
        })
    }

    /// Starts a CPU execution of `flops` on `host`. Concurrent executions on
    /// the same host share its speed max-min fairly.
    pub fn start_exec(&mut self, host: HostId, flops: f64) -> ActionId {
        assert!(flops >= 0.0 && flops.is_finite());
        self.push_action(ActionKind::Exec {
            host,
            flops_left: flops,
        })
    }

    /// Starts a pure delay of `duration` simulated seconds.
    pub fn start_sleep(&mut self, duration: f64) -> ActionId {
        assert!(duration >= 0.0 && duration.is_finite());
        self.push_action(ActionKind::Sleep {
            ends_at: self.now + duration,
        })
    }

    fn push_action(&mut self, kind: ActionKind) -> ActionId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let attr = match &kind {
            ActionKind::Transfer { route, .. } if self.rec.is_enabled() => {
                Some(Box::new(AttrAcc {
                    bottleneck: None,
                    acc: FlowAttribution::new(route.iter().map(|l| l.index() as u32).collect()),
                }))
            }
            _ => None,
        };
        let action = Action {
            kind,
            rate: 0.0,
            seq,
            pred: SimTime::INFINITY,
            last_update: self.now,
            attr,
        };
        let (slot, gen) = self.actions.insert(action);
        let id = ActionId::new(slot, gen);
        enum Disp {
            At(SimTime),
            Bandwidth,
            ExecOn(usize),
        }
        let disp = match &self.actions.get(slot).expect("just inserted").kind {
            ActionKind::Transfer { latency_left, .. } if *latency_left > 0.0 => {
                Disp::At(self.now + *latency_left)
            }
            ActionKind::Transfer { .. } => Disp::Bandwidth,
            ActionKind::Exec { host, .. } => Disp::ExecOn(host.index()),
            ActionKind::Sleep { ends_at } => Disp::At(*ends_at),
        };
        match disp {
            Disp::At(pred) => self.set_pred(slot, pred),
            Disp::Bandwidth => self.enter_bandwidth(slot),
            Disp::ExecOn(hi) => {
                self.hosts[hi].users.insert((seq, slot));
                self.dirty_hosts.insert(hi as u32);
            }
        }
        id
    }

    /// A transfer's latency phase ended (or was absent): register it on its
    /// contended links, or — if no capacity constraint applies — freeze it
    /// at its model bound directly, exactly as the solver would.
    fn enter_bandwidth(&mut self, slot: u32) {
        let (seq, route) = {
            let a = self.actions.get(slot).expect("live transfer");
            match &a.kind {
                ActionKind::Transfer { route, .. } => (a.seq, route.clone()),
                _ => unreachable!("enter_bandwidth on a non-transfer"),
            }
        };
        let mut constrained = false;
        if self.config.contention {
            for l in &route {
                let li = l.index();
                if self.links[li].contended {
                    self.links[li].users.insert((seq, slot));
                    self.dirty_links.insert(li as u32);
                    constrained = true;
                }
            }
        }
        if !constrained {
            self.run_at_bound(slot);
        }
    }

    /// No capacity constraint applies to the transfer in `slot`: the solver
    /// would freeze it at its own model bound, so do that directly.
    fn run_at_bound(&mut self, slot: u32) {
        let now = self.now;
        let a = self.actions.get_mut(slot).expect("live transfer");
        Self::fold(a, now);
        let ActionKind::Transfer { bound, .. } = a.kind else {
            unreachable!("run_at_bound on a non-transfer")
        };
        if let Some(attr) = a.attr.as_deref_mut() {
            attr.bottleneck = None;
        }
        self.apply_rate(slot, bound);
    }

    /// Publishes a new predicted completion for `slot` (and a heap entry,
    /// unless the action can make no progress).
    fn set_pred(&mut self, slot: u32, pred: SimTime) {
        let gen = self.actions.generation(slot);
        let a = self.actions.get_mut(slot).expect("live action");
        a.pred = pred;
        if !pred.is_infinite() {
            self.heap.push(Reverse((pred, a.seq, slot, gen)));
        }
    }

    /// The completion instant implied by the action's current rate and
    /// remaining work, measured from `now`. Mirrors the event arithmetic of
    /// the pre-slab kernel exactly.
    fn predict(a: &Action, now: SimTime) -> SimTime {
        match &a.kind {
            ActionKind::Transfer {
                latency_left,
                bytes_left,
                ..
            } => {
                if *latency_left > 0.0 {
                    now + *latency_left
                } else if a.rate > 0.0 {
                    now + *bytes_left / a.rate
                } else if *bytes_left <= 0.0 {
                    now
                } else {
                    SimTime::INFINITY
                }
            }
            ActionKind::Exec { flops_left, .. } => {
                if a.rate > 0.0 {
                    now + *flops_left / a.rate
                } else if *flops_left <= 0.0 {
                    now
                } else {
                    SimTime::INFINITY
                }
            }
            ActionKind::Sleep { ends_at } => *ends_at,
        }
    }

    /// Charges the work done at the current rate since `last_update`.
    fn fold(a: &mut Action, t: SimTime) {
        let dt = t.duration_since(a.last_update);
        let rate = a.rate;
        if dt > 0.0 {
            match &mut a.kind {
                ActionKind::Transfer {
                    latency_left,
                    bytes_left,
                    ..
                } => {
                    if *latency_left > 0.0 {
                        *latency_left -= dt;
                        if *latency_left <= COMPLETION_EPS * dt.max(1.0) {
                            *latency_left = 0.0;
                        }
                    } else {
                        *bytes_left -= rate * dt;
                    }
                }
                ActionKind::Exec { flops_left, .. } => {
                    *flops_left -= rate * dt;
                }
                ActionKind::Sleep { .. } => {}
            }
        }
        a.last_update = t;
    }

    /// `true` once the action has completed. A recycled slot bumps its
    /// generation, so handles of completed actions stay "done" forever.
    pub fn is_done(&self, action: ActionId) -> bool {
        !self.actions.contains(action.slot, action.gen)
    }

    /// Number of actions still running.
    pub fn running_actions(&self) -> usize {
        self.actions.len()
    }

    /// High-water mark of concurrently running actions (the slab's peak).
    pub fn peak_actions(&self) -> usize {
        self.actions.peak()
    }

    /// Current allocated rate of a running action (bytes/s or flop/s), or
    /// `None` once it completed. Rates are up to date only after the next
    /// event query (they are recomputed lazily).
    pub fn action_rate(&self, action: ActionId) -> Option<f64> {
        self.actions
            .get_tagged(action.slot, action.gen)
            .map(|a| a.rate)
    }

    /// Re-solves whatever part of the max-min problem is out of date.
    fn flush_reshare(&mut self) {
        if self.dirty_links.is_empty() && self.dirty_hosts.is_empty() {
            return;
        }
        #[cfg(test)]
        if self.full_rebuild_oracle {
            self.reshare_full();
            self.compact_heap();
            return;
        }
        self.reshare_incremental();
        self.compact_heap();
    }

    /// Lazy-heap hygiene: orphaned entries accumulate with every re-share;
    /// once they dominate, rebuild the heap from the live predictions so
    /// memory stays proportional to the active set.
    fn compact_heap(&mut self) {
        if self.heap.len() <= 64 || self.heap.len() <= 2 * self.actions.len() {
            return;
        }
        self.kstats.heap_rebuilds += 1;
        self.heap.clear();
        for (slot, gen, a) in self.actions.iter() {
            if !a.pred.is_infinite() {
                self.heap.push(Reverse((a.pred, a.seq, slot, gen)));
            }
        }
    }

    /// Rebuilds constraint user sets and re-solves the whole problem in one
    /// global, never-folded solve. The executable specification of a
    /// reshare: the shipped path must match it (`engine/oracle_tests.rs`).
    #[cfg(test)]
    fn reshare_full(&mut self) {
        self.kstats.reshares += 1;
        let now = self.now;
        for l in &mut self.links {
            l.users.clear();
        }
        for h in &mut self.hosts {
            h.users.clear();
        }
        let mut order: Vec<UserKey> = self.actions.iter().map(|(s, _g, a)| (a.seq, s)).collect();
        order.sort_unstable();

        let mut problem = MaxMinProblem::new();
        let mut link_cnst: Vec<Option<CnstId>> = vec![None; self.links.len()];
        let mut host_cnst: Vec<Option<CnstId>> = vec![None; self.hosts.len()];
        // Reverse map: constraint insertion index → kernel link (`None`
        // for host constraints), to translate solver bottlenecks.
        let mut cnst_link: Vec<Option<u32>> = Vec::new();
        let mut sharing: Vec<u32> = Vec::new();
        let mut unconstrained: Vec<u32> = Vec::new();
        {
            let actions = &mut self.actions;
            let links = &mut self.links;
            let hosts = &mut self.hosts;
            let contention = self.config.contention;
            for &(seq, slot) in &order {
                let a = actions.get_mut(slot).expect("live action");
                Self::fold(a, now);
                match &a.kind {
                    ActionKind::Transfer {
                        route,
                        latency_left,
                        bound,
                        ..
                    } => {
                        if *latency_left > 0.0 {
                            continue; // not consuming bandwidth yet
                        }
                        let mut cnsts = Vec::with_capacity(route.len());
                        if contention {
                            for l in route {
                                let li = l.index();
                                if !links[li].contended {
                                    continue;
                                }
                                links[li].users.insert((seq, slot));
                                let c = match link_cnst[li] {
                                    Some(c) => c,
                                    None => {
                                        let c = problem.add_constraint(links[li].bandwidth);
                                        debug_assert_eq!(c.index(), cnst_link.len());
                                        cnst_link.push(Some(li as u32));
                                        link_cnst[li] = Some(c);
                                        c
                                    }
                                };
                                cnsts.push(c);
                            }
                        }
                        if cnsts.is_empty() {
                            // No capacity constraint: the solver would freeze
                            // the flow at its own bound; do it directly.
                            unconstrained.push(slot);
                        } else {
                            problem.add_variable(*bound, &cnsts);
                            sharing.push(slot);
                        }
                    }
                    ActionKind::Exec { host, .. } => {
                        let hi = host.index();
                        hosts[hi].users.insert((seq, slot));
                        let c = match host_cnst[hi] {
                            Some(c) => c,
                            None => {
                                let c = problem.add_constraint(hosts[hi].speed);
                                debug_assert_eq!(c.index(), cnst_link.len());
                                cnst_link.push(None);
                                host_cnst[hi] = Some(c);
                                c
                            }
                        };
                        problem.add_variable(f64::INFINITY, &[c]);
                        sharing.push(slot);
                    }
                    ActionKind::Sleep { .. } => {}
                }
            }
        }
        let (rates, bottlenecks) = self.solve_timed(&problem);
        for (k, &slot) in sharing.iter().enumerate() {
            self.set_bottleneck(slot, k, &bottlenecks, &cnst_link);
            self.apply_rate(slot, rates[k]);
        }
        for &slot in &unconstrained {
            let a = self.actions.get_mut(slot).expect("live");
            let bound = match &a.kind {
                ActionKind::Transfer { bound, .. } => *bound,
                _ => unreachable!(),
            };
            if let Some(attr) = a.attr.as_deref_mut() {
                attr.bottleneck = None;
            }
            self.apply_rate(slot, bound);
        }
        self.dirty_links.clear();
        self.dirty_hosts.clear();
        self.record_reshare();
    }

    /// Solves `problem`, always timing the solve and recording the coupled
    /// component size; per-variable bottlenecks are computed only while
    /// recording (attribution is meaningless — and not free — otherwise).
    fn solve_timed(&mut self, problem: &MaxMinProblem) -> (Vec<f64>, Option<Vec<Option<CnstId>>>) {
        let t0 = Instant::now();
        let out = if self.rec.is_enabled() {
            let (rates, bottlenecks) = problem.solve_with_bottlenecks();
            (rates, Some(bottlenecks))
        } else {
            (problem.solve(), None)
        };
        self.kstats.solve_ns.observe(t0.elapsed().as_nanos() as f64);
        self.kstats
            .component_vars
            .observe(problem.num_variables() as f64);
        out
    }

    /// Publishes variable `k`'s solved bottleneck into the attribution
    /// accumulator of the action in `slot`, translated to a kernel link.
    fn set_bottleneck(
        &mut self,
        slot: u32,
        k: usize,
        bottlenecks: &Option<Vec<Option<CnstId>>>,
        cnst_link: &[Option<u32>],
    ) {
        let Some(b) = bottlenecks else { return };
        if let Some(attr) = self
            .actions
            .get_mut(slot)
            .expect("live action")
            .attr
            .as_deref_mut()
        {
            attr.bottleneck = b[k].and_then(|c| cnst_link[c.index()]);
        }
    }

    /// Collects the connected components of the constraint↔action graph
    /// reachable from the dirty constraints, one BFS per unvisited seed.
    /// Visited marks are epoch stamps in per-slot/link/host scratch vectors
    /// (O(1) membership, reset by bumping `comp_epoch`), members are
    /// deduplicated by action slot and sorted into birth order per
    /// component, and the component list is sorted by its oldest member
    /// (*component-birth order*).
    fn collect_dirty_components(&mut self) -> Vec<Vec<UserKey>> {
        self.comp_epoch += 1;
        let epoch = self.comp_epoch;
        if self.comp_stamp.len() < self.actions.capacity_slots() {
            self.comp_stamp.resize(self.actions.capacity_slots(), 0);
        }
        if self.link_stamp.len() < self.links.len() {
            self.link_stamp.resize(self.links.len(), 0);
        }
        if self.host_stamp.len() < self.hosts.len() {
            self.host_stamp.resize(self.hosts.len(), 0);
        }
        let seeds: Vec<(bool, u32)> = self
            .dirty_links
            .iter()
            .map(|&l| (true, l))
            .chain(self.dirty_hosts.iter().map(|&h| (false, h)))
            .collect();
        let mut comps: Vec<Vec<UserKey>> = Vec::new();
        let mut stack: Vec<(bool, u32)> = Vec::new();
        for (seed_is_link, seed) in seeds {
            let mark = if seed_is_link {
                &mut self.link_stamp[seed as usize]
            } else {
                &mut self.host_stamp[seed as usize]
            };
            if *mark == epoch {
                continue; // already swallowed by an earlier component
            }
            *mark = epoch;
            stack.push((seed_is_link, seed));
            let mut affected: Vec<UserKey> = Vec::new();
            while let Some((is_link, ix)) = stack.pop() {
                let users = if is_link {
                    &self.links[ix as usize].users
                } else {
                    &self.hosts[ix as usize].users
                };
                for &key in users {
                    let (_seq, slot) = key;
                    if self.comp_stamp[slot as usize] == epoch {
                        continue;
                    }
                    self.comp_stamp[slot as usize] = epoch;
                    affected.push(key);
                    match &self.actions.get(slot).expect("user of a constraint").kind {
                        ActionKind::Transfer { route, .. } => {
                            for l in route {
                                let li = l.index();
                                if self.links[li].contended && self.link_stamp[li] != epoch {
                                    self.link_stamp[li] = epoch;
                                    stack.push((true, li as u32));
                                }
                            }
                        }
                        ActionKind::Exec { host, .. } => {
                            let hi = host.index();
                            if self.host_stamp[hi] != epoch {
                                self.host_stamp[hi] = epoch;
                                stack.push((false, hi as u32));
                            }
                        }
                        ActionKind::Sleep { .. } => unreachable!("sleeps have no constraints"),
                    }
                }
            }
            if !affected.is_empty() {
                affected.sort_unstable();
                comps.push(affected);
            }
        }
        comps.sort_by_key(|m| m[0]);
        comps
    }

    /// Builds one component's max-min problem. Constraints are added in
    /// first-use order and variables in birth order — the same relative
    /// order a full rebuild would use, so per-component arithmetic is
    /// identical. When the component is *uniform* (every member shares one
    /// bound bit pattern; engine variables all have weight 1), members with
    /// identical constraint sets are folded into a single class variable
    /// with their multiplicity; the uniformity precondition makes the
    /// folded solve bitwise-equal to the expanded one (see `lmm.rs` module
    /// docs and DESIGN §5.3).
    fn build_component(&mut self, members: &[UserKey]) -> BuiltComponent {
        self.comp_epoch += 1;
        let epoch = self.comp_epoch;
        if self.cnst_scratch_links.len() < self.links.len() {
            self.cnst_scratch_links.resize(self.links.len(), (0, 0));
        }
        if self.cnst_scratch_hosts.len() < self.hosts.len() {
            self.cnst_scratch_hosts.resize(self.hosts.len(), (0, 0));
        }
        let mut problem = MaxMinProblem::new();
        // Component constraints in insertion order; entry `k` is the id with
        // `index() == k`, so the epoch scratch can store bare indices.
        let mut cnst_ids: Vec<CnstId> = Vec::new();
        let mut cnst_link: Vec<Option<u32>> = Vec::new();
        let mut member_cnsts: Vec<Vec<CnstId>> = Vec::with_capacity(members.len());
        let mut member_bound: Vec<f64> = Vec::with_capacity(members.len());
        let mut uniform_bits: Option<u64> = None;
        let mut uniform = true;
        for &(_seq, slot) in members {
            let (cnsts, bound) = match &self.actions.get(slot).expect("live action").kind {
                ActionKind::Transfer { route, bound, .. } => {
                    let mut cnsts = Vec::with_capacity(route.len());
                    for l in route {
                        let li = l.index();
                        if !self.links[li].contended {
                            continue;
                        }
                        let (stamp, k) = self.cnst_scratch_links[li];
                        let c = if stamp == epoch {
                            cnst_ids[k as usize]
                        } else {
                            let c = problem.add_constraint(self.links[li].bandwidth);
                            debug_assert_eq!(c.index(), cnst_link.len());
                            self.cnst_scratch_links[li] = (epoch, cnst_ids.len() as u32);
                            cnst_ids.push(c);
                            cnst_link.push(Some(li as u32));
                            c
                        };
                        cnsts.push(c);
                    }
                    (cnsts, *bound)
                }
                ActionKind::Exec { host, .. } => {
                    let hi = host.index();
                    let (stamp, k) = self.cnst_scratch_hosts[hi];
                    let c = if stamp == epoch {
                        cnst_ids[k as usize]
                    } else {
                        let c = problem.add_constraint(self.hosts[hi].speed);
                        debug_assert_eq!(c.index(), cnst_link.len());
                        self.cnst_scratch_hosts[hi] = (epoch, cnst_ids.len() as u32);
                        cnst_ids.push(c);
                        cnst_link.push(None);
                        c
                    };
                    (vec![c], f64::INFINITY)
                }
                ActionKind::Sleep { .. } => unreachable!(),
            };
            uniform &= *uniform_bits.get_or_insert(bound.to_bits()) == bound.to_bits();
            member_cnsts.push(cnsts);
            member_bound.push(bound);
        }

        let mut var_of: Vec<u32> = Vec::with_capacity(members.len());
        if uniform && members.len() >= 2 {
            // One solver variable per route-equivalence class, in order of
            // each class's oldest member. Keys borrow the members' constraint
            // lists as-is (no per-member allocation or sort): constraints are
            // numbered in first-use order over deduplicated stored routes, so
            // equal routes produce equal lists. Two orderings of the same
            // constraint set would land in separate classes, which costs a
            // fold but never exactness — folding is exact for *any* partition
            // of same-bound unit-weight members into identical-set classes.
            let mut class_of: HashMap<&[CnstId], u32> = HashMap::new();
            let mut class_rep: Vec<u32> = Vec::new();
            let mut class_count: Vec<u32> = Vec::new();
            for (i, cnsts) in member_cnsts.iter().enumerate() {
                match class_of.entry(cnsts.as_slice()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let k = *e.get();
                        class_count[k as usize] += 1;
                        var_of.push(k);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let k = class_rep.len() as u32;
                        e.insert(k);
                        class_rep.push(i as u32);
                        class_count.push(1);
                        var_of.push(k);
                    }
                }
            }
            let bound = member_bound[0];
            for (&rep, &count) in class_rep.iter().zip(&class_count) {
                problem.add_variable_class(bound, count, &member_cnsts[rep as usize]);
            }
            self.kstats.classes_folded += (member_cnsts.len() - class_rep.len()) as u64;
        } else {
            for (i, cnsts) in member_cnsts.iter().enumerate() {
                problem.add_variable(member_bound[i], cnsts);
                var_of.push(i as u32);
            }
        }
        BuiltComponent {
            problem,
            cnst_link,
            var_of,
        }
    }

    /// Re-solves only the connected components of the constraint↔action
    /// graph reachable from dirty constraints. Components are independent
    /// sub-problems (their constraint λ arithmetic never interacts), so each
    /// is built, solved and applied on its own, in component-birth order.
    fn reshare_incremental(&mut self) {
        let now = self.now;
        let comps = self.collect_dirty_components();
        self.kstats.reshares += 1;
        self.kstats
            .cascade
            .observe(comps.iter().map(|m| m.len()).sum::<usize>() as f64);
        for members in &comps {
            let b = self.build_component(members);
            let (rates, bottlenecks) = self.solve_timed(&b.problem);
            for (&(_seq, slot), &k) in members.iter().zip(&b.var_of) {
                let k = k as usize;
                let a = self.actions.get_mut(slot).expect("live action");
                Self::fold(a, now);
                self.set_bottleneck(slot, k, &bottlenecks, &b.cnst_link);
                self.apply_rate(slot, rates[k]);
            }
        }
        self.dirty_links.clear();
        self.dirty_hosts.clear();
        self.record_reshare();
    }

    /// Installs a freshly solved rate and publishes the new prediction.
    /// Expects remaining work to already be folded up to `self.now`.
    fn apply_rate(&mut self, slot: u32, rate: f64) {
        let now = self.now;
        let pred = {
            let a = self.actions.get_mut(slot).expect("live action");
            a.rate = rate;
            Self::predict(a, now)
        };
        self.set_pred(slot, pred);
    }

    /// Emits the reshare counters and per-link utilization gauges. Called
    /// only when recording, right after rates were recomputed. Utilization
    /// sums each flow **once per distinct link** of its route (routes are
    /// stored deduplicated), so a loopback route can never report > 100%.
    fn record_reshare(&mut self) {
        if !self.rec.is_enabled() {
            return;
        }
        if self.last_util.len() < self.links.len() {
            self.last_util.resize(self.links.len(), 0.0);
        }
        let mut utils = Vec::new();
        self.link_utilizations(&mut utils);
        let now = self.now.as_secs();
        let last_util = &mut self.last_util;
        self.rec.with(|r| {
            r.counter_add("surf.reshares", 1);
            for (li, &util) in utils.iter().enumerate() {
                if (util - last_util[li]).abs() > 1e-12 {
                    r.gauge_set(&format!("surf.link.{li}.util"), now, util);
                    last_util[li] = util;
                }
            }
        });
    }

    /// Integrates delivered bytes per link over the step `[now, now + dt]`,
    /// for the observability byte counters, and accumulates the per-flow
    /// attribution: the same byte delta into the flow's share integral
    /// (identical arithmetic, so per-link conservation is exact) and `dt`
    /// of residency against the flow's current bottleneck link (or the
    /// unattributed bucket when its own bound is the limit). Each flow is
    /// charged once per distinct route link.
    fn integrate_bytes(&mut self, dt: f64) {
        let now = self.now;
        let actions = &mut self.actions;
        self.rec.with(|r| {
            for (_slot, _gen, a) in actions.iter_mut() {
                let rate = a.rate;
                let last_update = a.last_update;
                if let ActionKind::Transfer {
                    route,
                    latency_left,
                    bytes_left,
                    ..
                } = &a.kind
                {
                    if *latency_left > 0.0 {
                        continue; // latency phase: no bandwidth, no residency
                    }
                    let delta = if rate > 0.0 {
                        // Remaining bytes as of `now` (work since the last
                        // fold has not been charged to `bytes_left` yet).
                        let eff = (*bytes_left - rate * now.duration_since(last_update)).max(0.0);
                        let delta = (rate * dt).min(eff);
                        for l in route {
                            r.fcounter_add(&format!("surf.link.{}.bytes", l.index()), delta);
                        }
                        delta
                    } else {
                        0.0
                    };
                    if let Some(attr) = a.attr.as_deref_mut() {
                        attr.acc.share_bytes += delta;
                        match attr.bottleneck {
                            Some(li) => attr.acc.add_bottleneck(li, dt),
                            None => attr.acc.unattributed_secs += dt,
                        }
                    }
                }
            }
        });
    }

    /// `true` when the heap entry still describes the live action in `slot`.
    fn entry_valid(&self, t: SimTime, slot: u32, gen: u32) -> bool {
        self.actions
            .get_tagged(slot, gen)
            .is_some_and(|a| a.pred == t)
    }

    /// Latest prediction that should be examined together with an event at
    /// `target`: the completion-tolerance rule expressed in time units.
    fn candidate_horizon(&self, slot: u32, target: SimTime) -> SimTime {
        let a = self.actions.get(slot).expect("live action");
        let slack = match &a.kind {
            ActionKind::Sleep { .. } => 0.0,
            ActionKind::Transfer { latency_left, .. } if *latency_left > 0.0 => {
                COMPLETION_EPS * target.as_secs().max(1.0)
            }
            _ => {
                if a.rate > 0.0 {
                    COMPLETION_EPS + 1e-12 / a.rate
                } else {
                    COMPLETION_EPS
                }
            }
        };
        target + slack
    }

    /// The simulated time of the next action completion, or `None` if no
    /// action is running. Returns `SimTime::INFINITY` when actions are
    /// running but none can progress (the stall condition).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.flush_reshare();
        loop {
            match self.heap.peek() {
                None => {
                    return if self.actions.is_empty() {
                        None
                    } else {
                        Some(SimTime::INFINITY)
                    };
                }
                Some(&Reverse((t, _seq, slot, gen))) => {
                    if self.entry_valid(t, slot, gen) {
                        return Some(t);
                    }
                    self.kstats.heap_orphans += 1;
                    self.heap.pop();
                }
            }
        }
    }

    /// Removes a completed action from the slab and from every constraint
    /// user set it occupied, marking those constraints dirty.
    fn complete(&mut self, slot: u32) {
        // Generation *before* removal: it identifies the handle callers
        // hold (removal bumps it for the next tenant).
        let gen = self.actions.generation(slot);
        let a = self.actions.remove(slot);
        if let Some(attr) = a.attr {
            self.done_attr
                .insert(ActionId::new(slot, gen).raw(), attr.acc);
        }
        let key = (a.seq, slot);
        match &a.kind {
            ActionKind::Transfer {
                route,
                latency_left,
                ..
            } => {
                if *latency_left <= 0.0 {
                    for l in route {
                        let li = l.index();
                        if self.links[li].users.remove(&key) {
                            self.dirty_links.insert(li as u32);
                        }
                    }
                }
            }
            ActionKind::Exec { host, .. } => {
                let hi = host.index();
                if self.hosts[hi].users.remove(&key) {
                    self.dirty_hosts.insert(hi as u32);
                }
            }
            ActionKind::Sleep { .. } => {}
        }
    }

    fn stall_error(&self) -> StallError {
        let mut stuck: Vec<(u64, StuckAction)> = self
            .actions
            .iter()
            .map(|(slot, gen, a)| {
                let (kind, remaining, route) = match &a.kind {
                    ActionKind::Transfer {
                        route,
                        latency_left,
                        bytes_left,
                        ..
                    } => {
                        let rem = if *latency_left > 0.0 {
                            *latency_left
                        } else {
                            *bytes_left
                        };
                        ("transfer", rem, route.clone())
                    }
                    ActionKind::Exec { flops_left, .. } => ("exec", *flops_left, Vec::new()),
                    ActionKind::Sleep { .. } => ("sleep", 0.0, Vec::new()),
                };
                (
                    a.seq,
                    StuckAction {
                        id: ActionId::new(slot, gen),
                        kind,
                        remaining,
                        rate: a.rate,
                        route,
                    },
                )
            })
            .collect();
        stuck.sort_by_key(|(seq, _)| *seq);
        StallError {
            at: self.now,
            stuck: stuck.into_iter().map(|(_, s)| s).collect(),
        }
    }

    /// Advances the clock to the next completion instant and returns the
    /// actions that completed there (possibly several). Returns `Ok(None)`
    /// when no action is running (the simulation is quiescent), and
    /// `Err(StallError)` when actions are running but none of them can ever
    /// finish (e.g. a zero-rate flow).
    ///
    /// Latency-phase expirations are handled internally: if the next event is
    /// a transfer entering its transfer phase, rates are recomputed and the
    /// search continues, so callers only ever observe *completions*.
    pub fn try_advance_to_next(&mut self) -> Result<Option<(SimTime, Vec<ActionId>)>, StallError> {
        loop {
            self.flush_reshare();
            // Next valid event (drop orphaned heap entries on the way).
            let target = loop {
                let Some(&Reverse((t, _seq, slot, gen))) = self.heap.peek() else {
                    if self.actions.is_empty() {
                        return Ok(None);
                    }
                    return Err(self.stall_error());
                };
                if self.entry_valid(t, slot, gen) {
                    break t;
                }
                self.kstats.heap_orphans += 1;
                self.heap.pop();
            };

            let dt = target.duration_since(self.now);
            if dt > 0.0 && self.rec.is_enabled() {
                self.integrate_bytes(dt);
            }
            self.now = target;

            // Drain every event whose prediction falls within the completion
            // tolerance of `target`, so simultaneous completions are
            // observed in one batch as the pre-slab kernel did.
            let mut candidates: Vec<(u64, u32, u32)> = Vec::new();
            while let Some(&Reverse((t, seq, slot, gen))) = self.heap.peek() {
                if !self.entry_valid(t, slot, gen) {
                    self.kstats.heap_orphans += 1;
                    self.heap.pop();
                    continue;
                }
                if t > self.candidate_horizon(slot, target) {
                    break;
                }
                self.heap.pop();
                candidates.push((seq, slot, gen));
            }
            candidates.sort_unstable(); // completions in birth order
            candidates.dedup();

            let mut done: Vec<ActionId> = Vec::new();
            for &(_seq, slot, gen) in &candidates {
                // Identical predictions can be published more than once
                // (e.g. a re-share that did not change the rate); a later
                // duplicate of an action completed this batch is stale.
                if !self.actions.contains(slot, gen) {
                    continue;
                }
                let verdict = {
                    let a = self.actions.get_mut(slot).expect("live candidate");
                    let was_latency = matches!(
                        &a.kind,
                        ActionKind::Transfer { latency_left, .. } if *latency_left > 0.0
                    );
                    Self::fold(a, target);
                    // One nanosecond of work at the current rate absorbs the
                    // floating-point residue of the lazy folding.
                    let tol = a.rate * COMPLETION_EPS + 1e-12;
                    match &a.kind {
                        ActionKind::Transfer {
                            latency_left,
                            bytes_left,
                            ..
                        } => {
                            if *latency_left > 0.0 {
                                Verdict::Repush
                            } else if *bytes_left <= tol {
                                Verdict::Done
                            } else if was_latency {
                                Verdict::EnterBandwidth
                            } else {
                                Verdict::Repush
                            }
                        }
                        ActionKind::Exec { flops_left, .. } => {
                            if *flops_left <= tol {
                                Verdict::Done
                            } else {
                                Verdict::Repush
                            }
                        }
                        ActionKind::Sleep { ends_at } => {
                            if *ends_at <= target {
                                Verdict::Done
                            } else {
                                Verdict::Repush
                            }
                        }
                    }
                };
                match verdict {
                    Verdict::Done => {
                        self.complete(slot);
                        done.push(ActionId::new(slot, gen));
                    }
                    Verdict::EnterBandwidth => self.enter_bandwidth(slot),
                    Verdict::Repush => {
                        let pred = {
                            let a = self.actions.get(slot).expect("live candidate");
                            Self::predict(a, target)
                        };
                        self.set_pred(slot, pred);
                    }
                }
            }
            if !done.is_empty() {
                // Every completion past the first in this batch would have
                // cost its own reshare/solve in a one-event-per-step kernel.
                self.kstats.batched_completions += (done.len() - 1) as u64;
                return Ok(Some((self.now, done)));
            }
            // Otherwise only latency phases ended (or predictions were a
            // hair early): rates are refreshed at the top of the loop.
        }
    }

    /// Panicking convenience wrapper around
    /// [`try_advance_to_next`](Self::try_advance_to_next); most callers
    /// treat a stall as a fatal modelling error.
    pub fn advance_to_next(&mut self) -> Option<(SimTime, Vec<ActionId>)> {
        match self.try_advance_to_next() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransferModel;

    fn approx(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
            "expected ~{b}, got {a}"
        );
    }

    #[test]
    fn single_transfer_latency_plus_size_over_bw() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.5);
        let a = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert_eq!(done, vec![a]);
        approx(t.as_secs(), 0.5 + 10.0);
        assert!(sim.is_done(a));
        assert!(sim.advance_to_next().is_none());
    }

    #[test]
    fn zero_byte_transfer_takes_latency_only() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.25);
        sim.start_transfer(&[l], 0.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert_eq!(done.len(), 1);
        approx(t.as_secs(), 0.25);
    }

    #[test]
    fn two_concurrent_transfers_share_the_link() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        let a = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let b = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        // Both share 50 B/s, both finish at t=20 simultaneously.
        approx(t.as_secs(), 20.0);
        assert!(done.contains(&a) && done.contains(&b));
    }

    #[test]
    fn short_flow_finishes_then_long_flow_speeds_up() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        let short = sim.start_transfer(&[l], 500.0, &TransferModel::ideal());
        let long = sim.start_transfer(&[l], 1500.0, &TransferModel::ideal());
        let (t1, d1) = sim.advance_to_next().unwrap();
        assert_eq!(d1, vec![short]);
        approx(t1.as_secs(), 10.0); // 500 B at 50 B/s
        let (t2, d2) = sim.advance_to_next().unwrap();
        assert_eq!(d2, vec![long]);
        // Long had 1000 B left, now alone at 100 B/s: +10 s.
        approx(t2.as_secs(), 20.0);
    }

    #[test]
    fn no_contention_config_ignores_sharing() {
        let mut sim = Simulation::with_config(EngineConfig {
            contention: false,
            tcp_window: None,
        });
        let l = sim.add_link(100.0, 0.0);
        sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        // Both get the full bandwidth, finishing together at t=10.
        approx(t.as_secs(), 10.0);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn per_link_contention_flag() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        sim.set_link_contended(l, false);
        sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 10.0);
    }

    #[test]
    fn piecewise_model_selects_segment_by_size() {
        let model = TransferModel::new(vec![
            crate::model::Segment {
                upper: 100.0,
                lat_factor: 0.0,
                bw_factor: 2.0,
            },
            crate::model::Segment {
                upper: f64::INFINITY,
                lat_factor: 0.0,
                bw_factor: 1.0,
            },
        ]);
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        // 50 bytes in the fast segment: bound 200 B/s but link caps at 100.
        sim.start_transfer(&[l], 50.0, &model);
        let (t, _) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 0.5);
    }

    #[test]
    fn bound_caps_rate_below_link_capacity() {
        let model = TransferModel::affine(1.0, 0.5);
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        sim.start_transfer(&[l], 100.0, &model);
        let (t, _) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 2.0); // rate bound = 50 B/s
    }

    #[test]
    fn exec_on_host_takes_flops_over_speed() {
        let mut sim = Simulation::new();
        let h = sim.add_host(1e9);
        let a = sim.start_exec(h, 2e9);
        let (t, done) = sim.advance_to_next().unwrap();
        assert_eq!(done, vec![a]);
        approx(t.as_secs(), 2.0);
    }

    #[test]
    fn concurrent_execs_share_host_speed() {
        let mut sim = Simulation::new();
        let h = sim.add_host(100.0);
        sim.start_exec(h, 100.0);
        sim.start_exec(h, 100.0);
        let (t, done) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 2.0);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn sleep_completes_at_deadline() {
        let mut sim = Simulation::new();
        let a = sim.start_sleep(1.5);
        let b = sim.start_sleep(0.5);
        let (t1, d1) = sim.advance_to_next().unwrap();
        approx(t1.as_secs(), 0.5);
        assert_eq!(d1, vec![b]);
        let (t2, d2) = sim.advance_to_next().unwrap();
        approx(t2.as_secs(), 1.5);
        assert_eq!(d2, vec![a]);
    }

    #[test]
    fn multi_hop_route_sums_latencies_and_takes_min_bandwidth() {
        let mut sim = Simulation::new();
        let l1 = sim.add_link(100.0, 0.1);
        let l2 = sim.add_link(50.0, 0.2);
        let l3 = sim.add_link(200.0, 0.3);
        sim.start_transfer(&[l1, l2, l3], 100.0, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 0.6 + 2.0);
    }

    #[test]
    fn tcp_window_caps_rate_on_high_latency_routes() {
        let mut sim = Simulation::with_config(EngineConfig {
            contention: true,
            tcp_window: Some(10.0),
        });
        let l = sim.add_link(1000.0, 0.5);
        // cap = 10 / (2*0.5) = 10 B/s, well below the 1000 B/s link.
        sim.start_transfer(&[l], 100.0, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 0.5 + 10.0);
    }

    #[test]
    fn transfers_in_latency_phase_do_not_consume_bandwidth() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        let lat = sim.add_link(100.0, 10.0);
        // One flow on l, another crossing both but stuck in a 10 s latency.
        let fast = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let slow = sim.start_transfer(&[lat, l], 1.0, &TransferModel::ideal());
        let (t1, d1) = sim.advance_to_next().unwrap();
        // `fast` gets the full 100 B/s while `slow` sits in latency.
        assert_eq!(d1, vec![fast]);
        approx(t1.as_secs(), 10.0);
        let (t2, d2) = sim.advance_to_next().unwrap();
        assert_eq!(d2, vec![slow]);
        approx(t2.as_secs(), 10.0 + 0.01);
    }

    #[test]
    fn running_actions_counter() {
        let mut sim = Simulation::new();
        let h = sim.add_host(1.0);
        sim.start_exec(h, 1.0);
        sim.start_exec(h, 2.0);
        assert_eq!(sim.running_actions(), 2);
        sim.advance_to_next().unwrap();
        assert_eq!(sim.running_actions(), 1);
    }

    #[test]
    fn slots_are_recycled_but_handles_stay_done() {
        let mut sim = Simulation::new();
        let h = sim.add_host(100.0);
        let a = sim.start_exec(h, 100.0);
        sim.advance_to_next().unwrap();
        assert!(sim.is_done(a));
        // The next action reuses the slot with a new generation: the old
        // handle must stay "done" and never alias the new action.
        let b = sim.start_exec(h, 100.0);
        assert_eq!(b.slot(), a.slot(), "slot should be recycled");
        assert_ne!(b.raw(), a.raw());
        assert!(sim.is_done(a));
        assert!(!sim.is_done(b));
        assert_eq!(sim.peak_actions(), 1, "never more than one live action");
        sim.advance_to_next().unwrap();
        assert!(sim.is_done(b));
    }

    #[test]
    fn loopback_route_is_not_double_counted() {
        // A route that traverses the same link twice (loopback / hairpin
        // routing) must count the flow once per distinct link, both in the
        // fair-sharing weights and in the observability accounting: the
        // utilization gauge can never exceed 1 and delivered bytes are
        // integrated once.
        let rec = Rec::enabled();
        let mut sim = Simulation::new();
        sim.set_recorder(rec.clone());
        let l = sim.add_link(100.0, 0.0);
        sim.start_transfer(&[l, l], 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert_eq!(done.len(), 1);
        approx(t.as_secs(), 10.0);
        let report = rec.snapshot().expect("recorder enabled");
        let util = report.gauge("surf.link.0.util").expect("util gauge");
        assert!(
            util.iter().all(|&(_, u)| u <= 1.0 + 1e-12),
            "link util exceeded 1: {util:?}"
        );
        assert!(
            util.iter().any(|&(_, u)| (u - 1.0).abs() <= 1e-12),
            "saturating flow should reach util 1: {util:?}"
        );
        approx(report.fcounter("surf.link.0.bytes"), 1000.0);
    }

    #[test]
    fn attribution_tracks_bottleneck_residency_and_share_integrals() {
        let rec = Rec::enabled();
        let mut sim = Simulation::new();
        sim.set_recorder(rec.clone());
        let wide = sim.add_link(100.0, 0.0);
        let narrow = sim.add_link(40.0, 0.0);
        // `long` saturates the narrow link (its bottleneck); `short` then
        // gets the wide link's residual 60 B/s, bottlenecked by wide.
        let long = sim.start_transfer(&[wide, narrow], 400.0, &TransferModel::ideal());
        let short = sim.start_transfer(&[wide], 500.0, &TransferModel::ideal());
        let (t1, d1) = sim.advance_to_next().unwrap();
        assert_eq!(d1, vec![short]);
        approx(t1.as_secs(), 500.0 / 60.0);
        let a_short = sim.take_attribution(short).expect("short attribution");
        approx(a_short.share_bytes, 500.0);
        assert_eq!(a_short.route, vec![wide.index() as u32]);
        assert_eq!(a_short.dominant_bottleneck(), Some(wide.index() as u32));
        approx(a_short.bottlenecked_secs(), t1.as_secs());
        approx(a_short.unattributed_secs, 0.0);
        let (t2, d2) = sim.advance_to_next().unwrap();
        assert_eq!(d2, vec![long]);
        approx(t2.as_secs(), 10.0);
        let a_long = sim.take_attribution(long).expect("long attribution");
        approx(a_long.share_bytes, 400.0);
        assert_eq!(a_long.dominant_bottleneck(), Some(narrow.index() as u32));
        approx(a_long.bottlenecked_secs(), 10.0);
        // Conservation: per link, the flow share integrals sum to the
        // link's own byte integral.
        let report = rec.snapshot().unwrap();
        approx(report.fcounter("surf.link.0.bytes"), 900.0);
        approx(report.fcounter("surf.link.1.bytes"), 400.0);
        assert!(
            sim.take_attribution(short).is_none(),
            "attribution is taken exactly once"
        );
    }

    #[test]
    fn bound_limited_flow_time_is_unattributed() {
        let rec = Rec::enabled();
        let mut sim = Simulation::new();
        sim.set_recorder(rec);
        let l = sim.add_link(100.0, 0.0);
        // Model bound 50 B/s < link capacity: no link saturates, the
        // flow's own bound is the limit.
        let a = sim.start_transfer(&[l], 100.0, &TransferModel::affine(1.0, 0.5));
        let (t, _) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 2.0);
        let attr = sim.take_attribution(a).expect("attribution");
        approx(attr.share_bytes, 100.0);
        assert_eq!(attr.dominant_bottleneck(), None);
        approx(attr.unattributed_secs, 2.0);
        approx(attr.bottlenecked_secs(), 0.0);
    }

    #[test]
    fn kernel_profile_is_collected_even_without_a_recorder() {
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.0);
        let a = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        sim.start_transfer(&[l], 500.0, &TransferModel::ideal());
        while sim.advance_to_next().is_some() {}
        let k = sim.kernel_profile();
        assert!(k.reshares >= 2, "reshares: {}", k.reshares);
        // One timed solve per dirty *component*; a reshare whose dirty
        // constraints have no remaining users solves nothing.
        assert_eq!(
            k.solve_ns.count, k.component_vars.count,
            "one timed solve per component"
        );
        assert!(k.solve_ns.count >= 1, "solves: {}", k.solve_ns.count);
        // The two flows couple into one component, but they share a bound
        // and a route so class folding solves a single representative.
        assert_eq!(k.component_vars.max, 1.0, "folded to one class variable");
        assert!(k.classes_folded >= 1, "folds: {}", k.classes_folded);
        assert!(
            sim.take_attribution(a).is_none(),
            "no recorder, no attribution"
        );
    }

    #[test]
    fn stall_is_reported_as_a_structured_error() {
        // A zero TCP window caps the flow at 0 bytes/s: it can never
        // progress once its latency elapsed.
        let mut sim = Simulation::with_config(EngineConfig {
            contention: true,
            tcp_window: Some(0.0),
        });
        let l = sim.add_link(100.0, 0.5);
        let a = sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let err = sim.try_advance_to_next().unwrap_err();
        assert_eq!(err.stuck.len(), 1);
        let s = &err.stuck[0];
        assert_eq!(s.id, a);
        assert_eq!(s.kind, "transfer");
        approx(s.remaining, 1000.0);
        assert_eq!(s.rate, 0.0);
        assert_eq!(s.route, vec![l]);
        let msg = err.to_string();
        assert!(msg.contains("stalled"), "got: {msg}");
        assert!(msg.contains("transfer"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn advance_to_next_panics_on_stall() {
        let mut sim = Simulation::with_config(EngineConfig {
            contention: true,
            tcp_window: Some(0.0),
        });
        let l = sim.add_link(100.0, 0.5);
        sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        let _ = sim.advance_to_next();
    }

    #[test]
    fn disjoint_components_keep_rates_across_unrelated_events() {
        let mut sim = Simulation::new();
        let l1 = sim.add_link(100.0, 0.0);
        let l2 = sim.add_link(100.0, 0.0);
        let a = sim.start_transfer(&[l1], 400.0, &TransferModel::ideal());
        let b = sim.start_transfer(&[l1], 400.0, &TransferModel::ideal());
        let c = sim.start_transfer(&[l2], 1000.0, &TransferModel::ideal());
        // a and b share l1 at 50 each; c is alone on l2 at 100.
        let (t1, d1) = sim.advance_to_next().unwrap();
        approx(t1.as_secs(), 8.0);
        assert!(d1.contains(&a) && d1.contains(&b));
        assert_eq!(sim.action_rate(c), Some(100.0));
        let (t2, d2) = sim.advance_to_next().unwrap();
        assert_eq!(d2, vec![c]);
        approx(t2.as_secs(), 10.0);
    }
}

#[cfg(test)]
mod oracle_tests;
