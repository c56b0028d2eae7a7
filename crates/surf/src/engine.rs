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
//! ones), never on the total number of actions ever started — and so that a
//! steady-state event allocates nothing but the `Vec` of completions it
//! returns (the suite's `tests/reshare_allocs.rs`):
//!
//! * actions live in a generation-tagged [`Slab`] whose
//!   slots are recycled on completion, so iteration and memory stay
//!   proportional to the peak concurrency;
//! * the next completion is the top of the addressable calendar
//!   ([`crate::calendar`], shared with the packet network) keyed
//!   `(prediction, birth seq)` as one integer: a rate change re-keys the
//!   action's entry in place, a completion removes it, nothing stale is
//!   ever stored;
//! * the max-min system is *live*. A sharing action belongs to a route
//!   class (`classes.rs`: same deduplicated route — or host — and same
//!   rate-bound bit pattern), a class keeps its members in birth order, and
//!   a link or host lists the classes constraining on it. A change marks
//!   the constraints it touched dirty; the reshare walks link → class →
//!   link from them, so finding a dirty component and writing its problem
//!   cost O(classes), and only installing the new rates visits members.
//!   The problem goes into the one `lmm::Workspace` the simulation owns and is
//!   solved in place. A component whose classes share one bound is written
//!   one variable per class with its member count; a mixed-bound component
//!   one variable per member. A component of one class (every host, every
//!   route class alone on its links) is not written at all: `lmm::rate_alone`
//!   rates its one variable as the solver would. Remaining work is folded
//!   in lazily, at an action's own rate changes, rather than on every
//!   global step.
//!
//! This is the only shipped reshare path: the from-scratch rebuild it must
//! match exists solely as a `#[cfg(test)]` oracle for the differential
//! tests in `engine/oracle_tests.rs`.

mod classes;

use crate::calendar::{Calendar, Key};
use crate::hash::FastMap;
use crate::ids::{ActionId, HostId, LinkId};
use crate::lmm::{self, Workspace};
use crate::model::TransferModel;
use crate::slab::Slab;
use crate::time::SimTime;
use classes::{ClassTable, UserKey, DETACHED};
use smpi_obs::{FlowAttribution, KernelProfile, Rec};
use std::ops::Range;
use std::time::Instant;

/// Relative tolerance when deciding that an action's remaining work is done.
const COMPLETION_EPS: f64 = 1e-9;

/// A constraint-bearing resource.
#[derive(Debug, Clone, Copy)]
enum Res {
    Link(u32),
    Host(u32),
}

/// A network link: one direction of a cable, or a switch backplane.
#[derive(Debug)]
struct Link {
    /// Nominal bandwidth in bytes/s (the max-min capacity).
    bandwidth: f64,
    /// Nominal one-way latency contribution in seconds.
    latency: f64,
    /// When `false`, flows crossing this link are not subject to its
    /// capacity constraint (the "no contention" scenario of Figs. 7 and 11).
    contended: bool,
    /// Route classes with sharing members that this link constrains, in no
    /// particular order (each class knows its position).
    classes: Vec<u32>,
}

/// A compute host with a speed in flop/s.
#[derive(Debug)]
struct Host {
    speed: f64,
    /// The host's execution class while it has running executions.
    classes: Vec<u32>,
}

#[derive(Debug, Clone)]
enum ActionKind {
    /// Network transfer along the route of `class`.
    Transfer {
        class: u32,
        /// The route as the caller gave it, for the oracle alone: it
        /// rebuilds the problem from the action table without trusting the
        /// class table.
        #[cfg(test)]
        oracle_route: Vec<LinkId>,
        /// Remaining seconds of the latency phase.
        latency_left: f64,
        /// Remaining bytes once in the transfer phase.
        bytes_left: f64,
        /// Individual rate bound from the transfer model segment.
        bound: f64,
    },
    /// CPU execution on a host, a member of the host's `class`.
    Exec {
        class: u32,
        /// The host, for the oracle alone.
        #[cfg(test)]
        oracle_host: HostId,
        flops_left: f64,
    },
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
    /// Instant up to which `*_left` has been charged. Work is folded in
    /// lazily, when the rate changes, not on every global step.
    last_update: SimTime,
    /// Contention attribution; only allocated for transfers started while
    /// recording.
    attr: Option<Box<AttrAcc>>,
}

impl Action {
    /// The class this action names, if it is a transfer or an execution.
    fn class(&self) -> Option<u32> {
        match self.kind {
            ActionKind::Transfer { class, .. } | ActionKind::Exec { class, .. } => Some(class),
            ActionKind::Sleep { .. } => None,
        }
    }
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

/// What happened to a completion candidate at the event instant.
enum Verdict {
    Done,
    EnterBandwidth,
    Repush,
}

/// The recorder keys of one link, formatted once.
#[derive(Debug)]
struct LinkKeys {
    bytes: String,
    util: String,
}

impl LinkKeys {
    fn new(link: usize) -> Self {
        LinkKeys {
            bytes: format!("surf.link.{link}.bytes"),
            util: format!("surf.link.{link}.util"),
        }
    }
}

/// Buffers a reshare works in. Cleared, never freed; taken out of the
/// simulation for the duration of a reshare so the phases can read them
/// beside `&mut self`.
#[derive(Debug, Default)]
struct ReshareScratch {
    /// Epoch-stamped visit marks, indexed by class slot / link / host. A
    /// mark is set iff its entry equals `epoch`, so clearing between uses
    /// is a counter bump instead of a memset.
    epoch: u64,
    class_stamp: Vec<u64>,
    link_stamp: Vec<u64>,
    host_stamp: Vec<u64>,
    /// Link / host → `(epoch, constraint index)` in the component being
    /// written. Same stamping scheme and the same `epoch` counter (each use
    /// bumps it first, so the phases can never read each other's marks).
    cnst_of_link: Vec<(u64, u32)>,
    cnst_of_host: Vec<(u64, u32)>,
    /// Constraint index → kernel link (`NOT_A_LINK` for host constraints)
    /// of the component being written.
    cnst_link: Vec<u32>,
    stack: Vec<Res>,
    /// The classes of every dirty component as `(oldest member's seq,
    /// class)`: one contiguous, sorted run per component.
    comp_classes: Vec<(u64, u32)>,
    /// The runs, in component-birth order.
    comps: Vec<(u32, u32)>,
    /// A mixed-bound component's members, `(seq, slot, class)` in birth
    /// order.
    members: Vec<(u64, u32, u32)>,
}

/// `cnst_link` entry of a host constraint.
const NOT_A_LINK: u32 = u32::MAX;

impl ReshareScratch {
    /// Marks `r` visited; `false` when it already was.
    fn visit(&mut self, r: Res) -> bool {
        let mark = match r {
            Res::Link(i) => &mut self.link_stamp[i as usize],
            Res::Host(i) => &mut self.host_stamp[i as usize],
        };
        let fresh = *mark != self.epoch;
        *mark = self.epoch;
        fresh
    }
}

/// The sequential simulation kernel.
#[derive(Debug)]
pub struct Simulation {
    now: SimTime,
    links: Vec<Link>,
    hosts: Vec<Host>,
    actions: Slab<Action>,
    /// Route classes of the live actions.
    classes: ClassTable,
    /// Predicted completions.
    events: Calendar,
    /// Next birth sequence number.
    next_seq: u64,
    /// Links / hosts whose sharing changed since the last re-share
    /// (duplicates allowed; the component walk visits each once).
    dirty: Vec<Res>,
    /// Differential-test oracle: re-share through `reshare_full`
    /// (`engine/oracle_tests.rs`) instead of the shipped path.
    #[cfg(test)]
    full_rebuild_oracle: bool,
    config: EngineConfig,
    /// Observability sink; disabled by default (every emit is one branch).
    rec: Rec,
    /// Per-link recorder keys and the last emitted utilization (to suppress
    /// duplicate gauge samples across reshares). Only maintained while
    /// `rec` is enabled.
    link_keys: Vec<LinkKeys>,
    last_util: Vec<f64>,
    /// Reused per-link utilization buffer of `record_reshare`.
    util_buf: Vec<f64>,
    /// Attribution of completed transfers, keyed by `ActionId::raw()`,
    /// awaiting pickup via [`take_attribution`](Self::take_attribution).
    /// Only populated for transfers that carried an accumulator.
    done_attr: FastMap<u64, FlowAttribution>,
    /// Always-on solver introspection (plain counters + inline histograms;
    /// see `KernelProfile` for why this is not gated on `rec`).
    kstats: KernelProfile,
    /// The max-min problem of the component being re-shared, and the
    /// solver's state.
    ws: Workspace,
    scratch: ReshareScratch,
    /// `(seq, slot)` of the completion candidates of the event being
    /// processed; reused across events.
    candidates: Vec<UserKey>,
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
        // `solve_ns` observes wall-clock time, so a solve slowed by the host
        // can open a new log2 bucket at any event: reserve all 65 up front,
        // or that event allocates.
        let mut kstats = KernelProfile::default();
        kstats.solve_ns.buckets.reserve(65);
        Simulation {
            now: SimTime::ZERO,
            links: Vec::new(),
            hosts: Vec::new(),
            actions: Slab::new(),
            classes: ClassTable::default(),
            events: Calendar::default(),
            next_seq: 0,
            dirty: Vec::new(),
            #[cfg(test)]
            full_rebuild_oracle: false,
            config,
            rec: Rec::disabled(),
            link_keys: Vec::new(),
            last_util: Vec::new(),
            util_buf: Vec::new(),
            done_attr: FastMap::default(),
            kstats,
            ws: Workspace::default(),
            scratch: ReshareScratch::default(),
            candidates: Vec::new(),
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
        self.link_keys.clear();
        if self.rec.is_enabled() {
            self.link_keys
                .extend((0..self.links.len()).map(LinkKeys::new));
        }
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

    /// Fills `out[i]` with link `i`'s instantaneous utilization in
    /// `[0, 1]`: allocated transfer rate over nominal bandwidth, counting
    /// only flows past their latency phase.
    fn link_utilizations(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.links.len(), 0.0);
        for (_slot, _gen, a) in self.actions.iter() {
            if let ActionKind::Transfer {
                class,
                latency_left,
                ..
            } = a.kind
            {
                if latency_left <= 0.0 {
                    for l in self.classes[class].links() {
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

    /// Adds a link with `bandwidth` bytes/s and `latency` seconds.
    pub fn add_link(&mut self, bandwidth: f64, latency: f64) -> LinkId {
        assert!(bandwidth > 0.0 && bandwidth.is_finite());
        assert!(latency >= 0.0 && latency.is_finite());
        if self.rec.is_enabled() {
            self.link_keys.push(LinkKeys::new(self.links.len()));
        }
        self.links.push(Link {
            bandwidth,
            latency,
            contended: true,
            classes: Vec::new(),
        });
        LinkId::from_index(self.links.len() - 1)
    }

    /// Marks a link as contention-free (infinite multiplexing capacity) or
    /// contended again. Transfer-phase flows already crossing the link gain
    /// or lose its constraint from this instant: their classes leave the
    /// links they are listed on and re-attach under the new flag, so the
    /// next event query re-shares exactly the components they touch.
    pub fn set_link_contended(&mut self, link: LinkId, contended: bool) {
        let was = std::mem::replace(&mut self.links[link.index()].contended, contended);
        if was == contended || !self.config.contention {
            return;
        }
        for k in 0..self.classes.capacity_slots() as u32 {
            let class = &self.classes[k];
            if class.members.is_empty() || !class.links().any(|l| l == link) {
                continue;
            }
            self.detach(k);
            if self.attach(k) {
                self.mark_dirty(k);
            } else {
                for i in 0..self.classes[k].members.len() {
                    self.run_at_bound(self.classes[k].members[i].1);
                }
            }
        }
    }

    /// Adds a host computing at `speed` flop/s.
    pub fn add_host(&mut self, speed: f64) -> HostId {
        assert!(speed > 0.0 && speed.is_finite());
        self.hosts.push(Host {
            speed,
            classes: Vec::new(),
        });
        HostId::from_index(self.hosts.len() - 1)
    }

    /// Sum of nominal latencies along a route.
    pub(crate) fn route_latency(&self, route: &[LinkId]) -> f64 {
        route.iter().map(|l| self.links[l.index()].latency).sum()
    }

    /// Minimum nominal bandwidth along a route.
    pub(crate) fn route_bandwidth(&self, route: &[LinkId]) -> f64 {
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
        let class = self.classes.intern_route(route, bound);
        self.push_action(ActionKind::Transfer {
            class,
            #[cfg(test)]
            oracle_route: route.to_vec(),
            latency_left: latency,
            bytes_left: bytes,
            bound,
        })
    }

    /// Starts a CPU execution of `flops` on `host`. Concurrent executions on
    /// the same host share its speed max-min fairly.
    pub fn start_exec(&mut self, host: HostId, flops: f64) -> ActionId {
        assert!(flops >= 0.0 && flops.is_finite());
        let class = self.classes.intern_host(host);
        self.push_action(ActionKind::Exec {
            class,
            #[cfg(test)]
            oracle_host: host,
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
            ActionKind::Transfer { class, .. } if self.rec.is_enabled() => {
                let route = self.classes[*class].links();
                Some(Box::new(AttrAcc {
                    bottleneck: None,
                    acc: FlowAttribution::new(route.map(|l| l.index() as u32).collect()),
                }))
            }
            _ => None,
        };
        // When the first event of the new action is due without a reshare.
        let timer = match &kind {
            ActionKind::Transfer { latency_left, .. } if *latency_left > 0.0 => {
                Some(self.now + *latency_left)
            }
            ActionKind::Sleep { ends_at } => Some(*ends_at),
            ActionKind::Transfer { .. } | ActionKind::Exec { .. } => None,
        };
        let (slot, gen) = self.actions.insert(Action {
            kind,
            rate: 0.0,
            seq,
            last_update: self.now,
            attr,
        });
        match timer {
            Some(at) => self.events.set(slot, Key::new(at, seq)),
            None => self.start_sharing(slot),
        }
        ActionId::new(slot, gen)
    }

    /// Lists class `k` on every link of its route that constrains it now
    /// (or on its host). `false` when nothing does: no capacity constraint
    /// applies to the class's members.
    fn attach(&mut self, k: u32) -> bool {
        let class = &mut self.classes[k];
        debug_assert!(!class.attached && !class.members.is_empty());
        if let Some(h) = class.host {
            self.hosts[h.index()].classes.push(k);
            class.attached = true;
        }
        for hop in &mut class.route {
            let link = &mut self.links[hop.link.index()];
            if self.config.contention && link.contended {
                hop.at = link.classes.len() as u32;
                link.classes.push(k);
                class.attached = true;
            }
        }
        class.attached
    }

    /// Unlists class `k` from wherever it is listed, marking those
    /// constraints dirty: what it coupled may now fall apart.
    fn detach(&mut self, k: u32) {
        if !std::mem::take(&mut self.classes[k].attached) {
            return;
        }
        if let Some(h) = self.classes[k].host {
            self.hosts[h.index()].classes.clear();
            self.dirty.push(Res::Host(h.0));
            return;
        }
        for j in 0..self.classes[k].route.len() {
            let hop = &mut self.classes[k].route[j];
            let (l, at) = (hop.link, std::mem::replace(&mut hop.at, DETACHED));
            if at == DETACHED {
                continue;
            }
            let listed = &mut self.links[l.index()].classes;
            listed.swap_remove(at as usize);
            if let Some(&moved) = listed.get(at as usize) {
                let mut hops = self.classes[moved].route.iter_mut();
                let hop = hops.find(|hop| hop.link == l);
                hop.expect("a listed class crosses the link").at = at;
            }
            self.dirty.push(Res::Link(l.0));
        }
    }

    /// Marks dirty every constraint class `k` is listed on: its member
    /// count changed.
    fn mark_dirty(&mut self, k: u32) {
        let class = &self.classes[k];
        if let Some(h) = class.host {
            self.dirty.push(Res::Host(h.0));
        }
        self.dirty.extend(class.listed_on().map(|l| Res::Link(l.0)));
    }

    /// The action in `slot` starts consuming its resources — a transfer's
    /// latency phase ended (or was absent), an execution started: it joins
    /// its class, which attaches if this is its first sharing member. A
    /// transfer no capacity constraint applies to is frozen at its model
    /// bound directly, exactly as the solver would.
    fn start_sharing(&mut self, slot: u32) {
        let a = self.actions.get(slot).expect("live action");
        let k = a.class().expect("sleeps share nothing");
        let class = &mut self.classes[k];
        class.join((a.seq, slot));
        if class.attached || (class.members.len() == 1 && self.attach(k)) {
            self.mark_dirty(k);
        } else {
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
    #[cfg(test)]
    pub(crate) fn is_done(&self, action: ActionId) -> bool {
        !self.actions.contains(action.slot, action.gen)
    }

    /// Number of actions still running.
    #[cfg(test)]
    pub(crate) fn running_actions(&self) -> usize {
        self.actions.len()
    }

    /// High-water mark of concurrently running actions (the slab's peak).
    #[cfg(test)]
    pub(crate) fn peak_actions(&self) -> usize {
        self.actions.peak()
    }

    /// Current allocated rate of a running action (bytes/s or flop/s), or
    /// `None` once it completed. Rates are up to date only after the next
    /// event query (they are recomputed lazily).
    #[cfg(test)]
    pub(crate) fn action_rate(&self, action: ActionId) -> Option<f64> {
        self.actions
            .get_tagged(action.slot, action.gen)
            .map(|a| a.rate)
    }

    /// Re-solves whatever part of the max-min problem is out of date.
    fn flush_reshare(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        #[cfg(test)]
        if self.full_rebuild_oracle {
            return self.reshare_full();
        }
        self.reshare();
    }

    /// Walks link → class → link from the dirty constraints and leaves, in
    /// `sc.comps` / `sc.comp_classes`, the classes of every connected
    /// component of the constraint↔class graph reachable from them. Within
    /// a component classes are ordered by their oldest member, and the
    /// components by theirs (*component-birth order*) — the orders a birth-
    /// ordered walk over the members themselves would produce.
    fn collect_dirty_components(&self, sc: &mut ReshareScratch) {
        sc.epoch += 1;
        let epoch = sc.epoch;
        if sc.class_stamp.len() < self.classes.capacity_slots() {
            sc.class_stamp.resize(self.classes.capacity_slots(), 0);
        }
        if sc.link_stamp.len() < self.links.len() {
            sc.link_stamp.resize(self.links.len(), 0);
        }
        if sc.host_stamp.len() < self.hosts.len() {
            sc.host_stamp.resize(self.hosts.len(), 0);
        }
        sc.comp_classes.clear();
        sc.comps.clear();
        for &seed in &self.dirty {
            if !sc.visit(seed) {
                continue; // a duplicate, or swallowed by an earlier component
            }
            sc.stack.push(seed);
            let start = sc.comp_classes.len();
            while let Some(r) = sc.stack.pop() {
                let listed = match r {
                    Res::Link(i) => &self.links[i as usize].classes,
                    Res::Host(i) => &self.hosts[i as usize].classes,
                };
                for &k in listed {
                    if sc.class_stamp[k as usize] == epoch {
                        continue;
                    }
                    sc.class_stamp[k as usize] = epoch;
                    let class = &self.classes[k];
                    sc.comp_classes.push((class.members[0].0, k));
                    for l in class.listed_on() {
                        if sc.visit(Res::Link(l.0)) {
                            sc.stack.push(Res::Link(l.0));
                        }
                    }
                    // A host lists only its own class: nothing to follow.
                }
            }
            let end = sc.comp_classes.len();
            if end > start {
                sc.comp_classes[start..].sort_unstable();
                sc.comps.push((start as u32, end as u32));
            }
        }
        let comp_classes = &sc.comp_classes;
        sc.comps
            .sort_unstable_by_key(|&(start, _)| comp_classes[start as usize].0);
    }

    /// Writes one component's max-min problem into the workspace and
    /// returns whether it is *uniform* (every class shares one bound bit
    /// pattern).
    ///
    /// A uniform component is written one variable per class, with its live
    /// member count as multiplicity, in order of each class's oldest
    /// member; a mixed one expands to one variable per member in birth
    /// order. Constraints are numbered by first use. Both numberings equal
    /// what a birth-ordered walk over every member would assign — a class's
    /// oldest member is the first user of every constraint the class is
    /// first to touch — and under the uniformity precondition the folded
    /// solve is bitwise-equal to the expanded one (see `lmm.rs` module docs
    /// and DESIGN §5.3), so per-component arithmetic is that of a full
    /// rebuild.
    fn build_component(&mut self, sc: &mut ReshareScratch, span: Range<usize>) -> bool {
        sc.epoch += 1;
        if sc.cnst_of_link.len() < self.links.len() {
            sc.cnst_of_link.resize(self.links.len(), (0, 0));
        }
        if sc.cnst_of_host.len() < self.hosts.len() {
            sc.cnst_of_host.resize(self.hosts.len(), (0, 0));
        }
        self.ws.clear();
        sc.cnst_link.clear();
        let bits = self.classes[sc.comp_classes[span.start].1].bound.to_bits();
        let uniform = sc.comp_classes[span.clone()]
            .iter()
            .all(|&(_, k)| self.classes[k].bound.to_bits() == bits);
        if uniform {
            let mut members = 0;
            for i in span.clone() {
                let k = sc.comp_classes[i].1;
                let count = self.classes[k].members.len();
                members += count;
                self.write_variable(sc, k, count as u32);
            }
            self.kstats.classes_folded += (members - span.len()) as u64;
        } else {
            sc.members.clear();
            for &(_, k) in &sc.comp_classes[span] {
                let members = &self.classes[k].members;
                sc.members
                    .extend(members.iter().map(|&(seq, slot)| (seq, slot, k)));
            }
            sc.members.sort_unstable();
            for i in 0..sc.members.len() {
                let k = sc.members[i].2;
                self.write_variable(sc, k, 1);
            }
        }
        uniform
    }

    /// Appends a variable standing for `count` members of class `k` to the
    /// workspace, numbering the constraints it is first to cross.
    fn write_variable(&mut self, sc: &mut ReshareScratch, k: u32, count: u32) {
        let class = &self.classes[k];
        self.ws.add_class(class.bound, count);
        if let Some(h) = class.host {
            let (stamp, c) = &mut sc.cnst_of_host[h.index()];
            if *stamp != sc.epoch {
                *stamp = sc.epoch;
                *c = self.ws.add_constraint(self.hosts[h.index()].speed);
                sc.cnst_link.push(NOT_A_LINK);
            }
            self.ws.cross(*c);
        }
        for l in class.listed_on() {
            let (stamp, c) = &mut sc.cnst_of_link[l.index()];
            if *stamp != sc.epoch {
                *stamp = sc.epoch;
                *c = self.ws.add_constraint(self.links[l.index()].bandwidth);
                sc.cnst_link.push(l.0);
            }
            self.ws.cross(*c);
        }
    }

    /// Re-solves only the connected components of the constraint↔class
    /// graph reachable from dirty constraints. Components are independent
    /// sub-problems (their constraint λ arithmetic never interacts), so each
    /// is written, solved and applied on its own, in component-birth order.
    fn reshare(&mut self) {
        let mut sc = std::mem::take(&mut self.scratch);
        self.collect_dirty_components(&mut sc);
        self.kstats.reshares += 1;
        let cascade: usize = sc
            .comp_classes
            .iter()
            .map(|&(_, k)| self.classes[k].members.len())
            .sum();
        self.kstats.cascade.observe(cascade as f64);
        // Per-variable bottlenecks are computed only while recording
        // (attribution is meaningless — and not free — otherwise).
        let attribute = self.rec.is_enabled();
        for c in 0..sc.comps.len() {
            let span = sc.comps[c].0 as usize..sc.comps[c].1 as usize;
            if span.len() == 1 {
                self.reshare_alone(sc.comp_classes[span.start].1, attribute);
                continue;
            }
            let uniform = self.build_component(&mut sc, span.clone());
            let t0 = Instant::now();
            let rounds = self.ws.solve(attribute);
            self.kstats.solve_ns.observe(t0.elapsed().as_nanos() as f64);
            if rounds > 0 {
                self.kstats.fillings += 1;
                self.kstats.filling_rounds += u64::from(rounds);
            }
            self.kstats
                .component_vars
                .observe(self.ws.num_variables() as f64);
            // The solved bottleneck of variable `v` as a kernel link.
            let bottleneck = |ws: &Workspace, v: usize| {
                attribute.then(|| {
                    ws.bottleneck(v)
                        .map(|c| sc.cnst_link[c as usize])
                        .filter(|&l| l != NOT_A_LINK)
                })
            };
            if uniform {
                for (v, &(_, k)) in sc.comp_classes[span].iter().enumerate() {
                    let (rate, link) = (self.ws.rate(v), bottleneck(&self.ws, v));
                    for i in 0..self.classes[k].members.len() {
                        self.rerate(self.classes[k].members[i].1, rate, link);
                    }
                }
            } else {
                for (v, &(_, slot, _)) in sc.members.iter().enumerate() {
                    self.rerate(slot, self.ws.rate(v), bottleneck(&self.ws, v));
                }
            }
        }
        self.dirty.clear();
        self.scratch = sc;
        self.record_reshare();
    }

    /// Re-rates a component of the one class `k`: a single variable, which
    /// `lmm::rate_alone` rates as the solver would, without writing the
    /// problem or timing a solve. Its constraints are numbered as
    /// `write_variable` numbers them: the host, or the listing links in
    /// route order. Counted as the written component would be.
    fn reshare_alone(&mut self, k: u32, attribute: bool) {
        let class = &self.classes[k];
        let members = class.members.len();
        self.kstats.classes_folded += (members - 1) as u64;
        self.kstats.component_vars.observe(1.0);
        let host = class.host.map(|h| self.hosts[h.index()].speed);
        let links = class.listed_on().map(|l| self.links[l.index()].bandwidth);
        let count = u32::try_from(members).expect("members are u32 slots");
        let (rate, by) = lmm::rate_alone(class.bound, count, host.into_iter().chain(links));
        // A host is never a bottleneck link; an execution class has no route.
        let link = attribute.then(|| match class.host {
            Some(_) => None,
            None => by.and_then(|i| class.listed_on().nth(i)).map(|l| l.0),
        });
        for i in 0..members {
            self.rerate(self.classes[k].members[i].1, rate, link);
        }
    }

    /// Charges the action in `slot` for the work done at its old rate,
    /// installs the freshly solved one and, while recording, the link that
    /// bottlenecks it now.
    fn rerate(&mut self, slot: u32, rate: f64, bottleneck: Option<Option<u32>>) {
        let now = self.now;
        let a = self.actions.get_mut(slot).expect("live action");
        Self::fold(a, now);
        if let (Some(link), Some(attr)) = (bottleneck, a.attr.as_deref_mut()) {
            attr.bottleneck = link;
        }
        self.apply_rate(slot, rate);
    }

    /// Installs a rate and re-keys the action's predicted completion (an
    /// action that can make no progress has none). Expects remaining work
    /// to already be folded up to `self.now`.
    fn apply_rate(&mut self, slot: u32, rate: f64) {
        let a = self.actions.get_mut(slot).expect("live action");
        a.rate = rate;
        let (pred, seq) = (Self::predict(a, self.now), a.seq);
        self.events.set(slot, Key::new(pred, seq));
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
        let mut utils = std::mem::take(&mut self.util_buf);
        self.link_utilizations(&mut utils);
        let now = self.now.as_secs();
        let last_util = &mut self.last_util;
        let keys = &self.link_keys;
        self.rec.with(|r| {
            r.counter_add("surf.reshares", 1);
            for (li, &util) in utils.iter().enumerate() {
                if (util - last_util[li]).abs() > 1e-12 {
                    r.gauge_set(&keys[li].util, now, util);
                    last_util[li] = util;
                }
            }
        });
        self.util_buf = utils;
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
        let classes = &self.classes;
        let keys = &self.link_keys;
        self.rec.with(|r| {
            for (_slot, _gen, a) in actions.iter_mut() {
                let rate = a.rate;
                let last_update = a.last_update;
                if let ActionKind::Transfer {
                    class,
                    latency_left,
                    bytes_left,
                    ..
                } = a.kind
                {
                    if latency_left > 0.0 {
                        continue; // latency phase: no bandwidth, no residency
                    }
                    let delta = if rate > 0.0 {
                        // Remaining bytes as of `now` (work since the last
                        // fold has not been charged to `bytes_left` yet).
                        let eff = (bytes_left - rate * now.duration_since(last_update)).max(0.0);
                        let delta = (rate * dt).min(eff);
                        for l in classes[class].links() {
                            r.fcounter_add(&keys[l.index()].bytes, delta);
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
    #[cfg(test)]
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.flush_reshare();
        match self.events.peek() {
            Some((key, _slot)) => Some(key.time()),
            None if self.actions.is_empty() => None,
            None => Some(SimTime::INFINITY),
        }
    }

    /// Removes a completed action (its calendar entry is already popped)
    /// from the slab and from its class, which leaves the constraints it
    /// was listed on dirty — and unlisted, if this was its last sharing
    /// member.
    fn complete(&mut self, slot: u32) {
        // Generation *before* removal: it identifies the handle callers
        // hold (removal bumps it for the next tenant).
        let gen = self.actions.generation(slot);
        let a = self.actions.remove(slot);
        let class = a.class();
        if let Some(attr) = a.attr {
            self.done_attr
                .insert(ActionId::new(slot, gen).raw(), attr.acc);
        }
        let Some(k) = class else { return };
        if self.classes[k].leave((a.seq, slot)) {
            if self.classes[k].members.is_empty() {
                self.detach(k);
            } else {
                self.mark_dirty(k);
            }
        }
        self.classes.release(k);
    }

    fn stall_error(&self) -> StallError {
        let mut stuck: Vec<(u64, StuckAction)> = self
            .actions
            .iter()
            .map(|(slot, gen, a)| {
                let (kind, remaining, route) = match &a.kind {
                    ActionKind::Transfer {
                        class,
                        latency_left,
                        bytes_left,
                        ..
                    } => {
                        let rem = if *latency_left > 0.0 {
                            *latency_left
                        } else {
                            *bytes_left
                        };
                        ("transfer", rem, self.classes[*class].links().collect())
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
            let Some(target) = self.events.peek().map(|(key, _slot)| key.time()) else {
                if self.actions.is_empty() {
                    return Ok(None);
                }
                return Err(self.stall_error());
            };

            let dt = target.duration_since(self.now);
            if dt > 0.0 && self.rec.is_enabled() {
                self.integrate_bytes(dt);
            }
            self.now = target;

            // Drain every event whose prediction falls within the completion
            // tolerance of `target`, so simultaneous completions are
            // observed in one batch as the pre-slab kernel did.
            let mut candidates = std::mem::take(&mut self.candidates);
            candidates.clear();
            while let Some((key, slot)) = self.events.peek() {
                if key.time() > self.candidate_horizon(slot, target) {
                    break;
                }
                self.events.pop();
                candidates.push((key.seq(), slot));
            }
            candidates.sort_unstable(); // completions in birth order

            let mut done: Vec<ActionId> = Vec::new();
            for &(_seq, slot) in &candidates {
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
                        done.push(ActionId::new(slot, self.actions.generation(slot)));
                        self.complete(slot);
                    }
                    Verdict::EnterBandwidth => self.start_sharing(slot),
                    Verdict::Repush => {
                        let a = self.actions.get(slot).expect("live candidate");
                        let (pred, seq) = (Self::predict(a, target), a.seq);
                        self.events.set(slot, Key::new(pred, seq));
                    }
                }
            }
            self.candidates = candidates;
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
impl Simulation {
    /// Nothing is running, so nothing may be left behind: no class, no
    /// link or host listing one, no calendar entry.
    fn assert_drained(&self) {
        assert_eq!(self.running_actions(), 0);
        assert_eq!(self.classes.len(), 0, "leaked classes");
        assert!(self.links.iter().all(|l| l.classes.is_empty()));
        assert!(self.hosts.iter().all(|h| h.classes.is_empty()));
        assert_eq!(self.events.peek(), None, "leaked calendar entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(b.slot, a.slot, "slot should be recycled");
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
        // fair-sharing member counts and in the observability accounting: the
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
    fn a_lone_class_names_its_first_narrowest_link() {
        // A class alone on its route is rated without the solver, and is
        // attributed as a solve would: of two equally narrow links the
        // first in route order, which beats the bound it ties with.
        let mut sim = Simulation::new();
        sim.set_recorder(Rec::enabled());
        let [a, b, c, d] = [100.0, 40.0, 40.0, 100.0].map(|bw| sim.add_link(bw, 0.0));
        let f = sim.start_transfer(&[a, b, c, d], 400.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert_eq!(done, vec![f]);
        approx(t.as_secs(), 10.0);
        let attr = sim.take_attribution(f).expect("attribution");
        assert_eq!(attr.dominant_bottleneck(), Some(b.index() as u32));
        approx(attr.bottlenecked_secs(), 10.0);
        let k = sim.kernel_profile();
        assert_eq!((k.component_vars.count, k.solve_ns.count), (1, 0));
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
        // The two flows couple into one component, but they share a bound
        // and a route, so class folding makes it one variable: a one-class
        // component, counted but rated in closed form, neither timed nor
        // filled. A reshare whose dirty constraints have no remaining
        // users counts nothing.
        assert_eq!(k.component_vars.count, 2, "the pair, then the survivor");
        assert_eq!(k.component_vars.max, 1.0, "folded to one class variable");
        assert_eq!(k.classes_folded, 1, "the pair folds once");
        assert_eq!(k.solve_ns.count, 0, "a one-class component is not timed");
        assert_eq!((k.fillings, k.filling_rounds), (0, 0));
        assert!(
            sim.take_attribution(a).is_none(),
            "no recorder, no attribution"
        );

        // Two classes that contend for one link: one timed solve per
        // multi-class component, and this one fills.
        let mut sim = Simulation::new();
        let (l, m) = (sim.add_link(100.0, 0.0), sim.add_link(100.0, 0.0));
        sim.start_transfer(&[l], 1000.0, &TransferModel::ideal());
        sim.start_transfer(&[l, m], 500.0, &TransferModel::ideal());
        while sim.advance_to_next().is_some() {}
        let k = sim.kernel_profile();
        assert_eq!(k.component_vars.count, 2, "the pair, then the survivor");
        assert_eq!(k.solve_ns.count, 1, "one timed solve, for the pair");
        assert_eq!((k.fillings, k.filling_rounds), (1, 1));
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
    fn a_full_drain_leaves_no_class_route_or_heap_entry() {
        let stepped = TransferModel::new(vec![
            crate::model::Segment {
                upper: 1e3,
                lat_factor: 1.0,
                bw_factor: 0.5,
            },
            crate::model::Segment {
                upper: f64::INFINITY,
                lat_factor: 1.0,
                bw_factor: 1.0,
            },
        ]);
        let mut sim = Simulation::new();
        let l = sim.add_link(100.0, 0.01);
        let m = sim.add_link(50.0, 0.0);
        let free = sim.add_link(10.0, 0.0);
        sim.set_link_contended(free, false);
        let h = sim.add_host(10.0);
        for round in 0..3 {
            // Shared and distinct routes, both segments, a loopback route,
            // a flow no link constrains, one that completes straight out of
            // its latency phase, executions and sleeps.
            for size in [200.0, 500.0, 2e3, 4e3] {
                sim.start_transfer(&[l], size, &stepped);
                sim.start_transfer(&[l, m], size, &stepped);
                sim.start_transfer(&[m, l, m], size, &TransferModel::ideal());
            }
            sim.start_transfer(&[free], 100.0, &TransferModel::ideal());
            sim.start_transfer(&[l], 0.0, &TransferModel::ideal());
            sim.start_exec(h, 50.0);
            sim.start_exec(h, 20.0);
            sim.start_sleep(1.0);
            assert!(sim.classes.len() >= 7, "classes: {}", sim.classes.len());
            if round == 1 {
                // Toggle mid-flight, and leave it for the next round.
                sim.advance_to_next().unwrap();
                sim.set_link_contended(m, false);
            }
            while sim.advance_to_next().is_some() {}
            sim.assert_drained();
        }
        // Freed classes are recycled: three rounds of one shape never need
        // more slots than one round's worth.
        assert!(sim.classes.capacity_slots() <= 10);
    }

    #[test]
    fn equal_predictions_complete_in_birth_order() {
        let mut sim = Simulation::new();
        let a = sim.start_sleep(1.0);
        let b = sim.start_sleep(3.0);
        assert_eq!(sim.advance_to_next().unwrap().1, vec![a]);
        // `c` takes `a`'s recycled slot, below `b`'s, but is younger.
        let c = sim.start_sleep(2.0);
        assert!(c.slot < b.slot);
        let d = sim.start_sleep(2.0);
        let (t, done) = sim.advance_to_next().unwrap();
        approx(t.as_secs(), 3.0);
        assert_eq!(done, vec![b, c, d]);
        sim.assert_drained();
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
