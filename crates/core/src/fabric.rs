//! Transport backends: the same MPI runtime drives two very different
//! "wires".
//!
//! * [`SurfFabric`] — SMPI proper: the flow-level kernel with the calibrated
//!   piece-wise linear model (fast, analytic contention);
//! * [`PacketFabric`] — the ground-truth stand-in for the paper's physical
//!   clusters: packet-level store-and-forward simulation.
//!
//! Everything above this trait (matching, collectives, sampling, folding) is
//! identical for both, which is what makes accuracy experiments meaningful:
//! the *only* difference between "SMPI" and "real world" numbers is the
//! network model, exactly as in the paper. Below it too, both read one
//! translation of the platform into network resources
//! ([`PlatformImage`](smpi_platform::PlatformImage)): the same resource ids,
//! names, routes, perturbed parameters and nominal control latency.

use std::sync::Arc;

use packetnet::{PacketConfig, PacketNet};
use smpi_obs::{FlowAttribution, KernelProfile, Rec};
use smpi_platform::{HostIx, PlatformPerturbation, RoutedPlatform};
use surf_sim::hash::FastMap;
use surf_sim::{EngineConfig, LinkId, SimTime, Simulation, TransferModel};

use crate::error::SimError;

/// Completion token handed back by a fabric: `generation << 32 | slot` (see
/// the [`Fabric`] token contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FabricToken(pub u64);

impl FabricToken {
    /// The token's slot: its low 32 bits.
    pub(crate) fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// A network + compute substrate that the MPI runtime schedules work onto.
///
/// # Token contract
///
/// Every `start_*` returns a `FabricToken` packing `generation << 32 |
/// slot`: `slot` indexes the fabric's table of live actions and may be
/// reused as soon as [`advance`](Fabric::advance) has returned the action's
/// token, `generation` changes on each reuse. So no two tokens in flight
/// share a slot, the slots in use stay as few as the fabric's concurrent
/// actions, and a token of a completed action never equals a newer one.
/// The runtime relies on all three: it indexes its pending-token table by
/// `FabricToken::slot`, compares the whole token on lookup, and claims
/// every token of an `advance` batch before dispatching any (dispatch
/// starts actions, which may reuse a slot the batch just freed). Both
/// backends hand out their slab handles' raw packing
/// (`surf_sim::ActionId::raw`, `packetnet::PacketActionId::raw`).
pub trait Fabric {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Starts moving `bytes` from `src` to `dst` (distinct hosts).
    fn start_transfer(&mut self, src: HostIx, dst: HostIx, bytes: u64) -> FabricToken;

    /// Starts a computation of `flops` on `host`.
    fn start_exec(&mut self, host: HostIx, flops: f64) -> FabricToken;

    /// Starts a pure delay.
    fn start_sleep(&mut self, seconds: f64) -> FabricToken;

    /// Advances to the next completion; `Ok(None)` when nothing is in
    /// flight, `Err` when in-flight work can never complete (a kernel
    /// stall).
    fn advance(&mut self) -> Result<Option<(SimTime, Vec<FabricToken>)>, SimError>;

    /// One-way control-message latency between two hosts (used for the
    /// rendezvous handshake cost on backends that model it).
    fn control_latency(&self, src: HostIx, dst: HostIx) -> f64;

    /// Installs a metrics recorder on the substrate. Backends without
    /// instrumentation may ignore it.
    fn set_recorder(&mut self, rec: Rec) {
        let _ = rec;
    }

    /// Takes the contention attribution of a *completed* transfer token:
    /// per-link bandwidth-share integrals and bottleneck residency. Each
    /// token yields its attribution at most once. Backends without
    /// attribution — or with recording disabled — return `None`.
    fn take_flow_attribution(&mut self, token: FabricToken) -> Option<FlowAttribution> {
        let _ = token;
        None
    }

    /// Human names for the link/channel indices that appear in flow
    /// attributions: the platform image's resource names, one table for
    /// both backends. Empty when the backend has no named links.
    fn link_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// Snapshot of the backend's always-on solver introspection counters,
    /// when it has a solver to introspect.
    fn kernel_profile(&self) -> Option<KernelProfile> {
        None
    }
}

/// The flow-level backend (SMPI's own model).
pub(crate) struct SurfFabric {
    rp: Arc<RoutedPlatform>,
    sim: Simulation,
    model: TransferModel,
    /// The image's routes this run has used, by `src << 32 | dst`: filled
    /// on first use, so a run pays for the pairs it talks over (never
    /// hosts²) and each route stays the image's shared `Arc`.
    routes: FastMap<u64, Arc<[LinkId]>>,
}

impl SurfFabric {
    /// Builds the backend over a routed platform with the given transfer
    /// model (typically produced by calibration) and engine configuration,
    /// instantiating the platform's image with an optional
    /// [`PlatformPerturbation`] overlay. `None` — or the identity overlay —
    /// is bit-exact with the nominal platform.
    pub(crate) fn new(
        rp: Arc<RoutedPlatform>,
        model: TransferModel,
        engine: EngineConfig,
        perturb: Option<&PlatformPerturbation>,
    ) -> Self {
        let mut sim = Simulation::with_config(engine);
        rp.image().instantiate(&mut sim, perturb);
        SurfFabric {
            rp,
            sim,
            model,
            routes: FastMap::default(),
        }
    }
}

impl Fabric for SurfFabric {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn start_transfer(&mut self, src: HostIx, dst: HostIx, bytes: u64) -> FabricToken {
        assert_ne!(src, dst, "self-transfers are handled by the runtime");
        let rp = &self.rp;
        let key = u64::from(src.0) << 32 | u64::from(dst.0);
        let route = self
            .routes
            .entry(key)
            .or_insert_with(|| rp.image().route(rp, src, dst));
        let action = self.sim.start_transfer(route, bytes as f64, &self.model);
        FabricToken(action.raw())
    }

    fn start_exec(&mut self, host: HostIx, flops: f64) -> FabricToken {
        let h = self.rp.image().host(host);
        FabricToken(self.sim.start_exec(h, flops).raw())
    }

    fn start_sleep(&mut self, seconds: f64) -> FabricToken {
        FabricToken(self.sim.start_sleep(seconds).raw())
    }

    fn advance(&mut self) -> Result<Option<(SimTime, Vec<FabricToken>)>, SimError> {
        let next = self.sim.try_advance_to_next().map_err(SimError::from)?;
        Ok(next.map(|(t, done)| (t, done.into_iter().map(|a| FabricToken(a.raw())).collect())))
    }

    fn control_latency(&self, src: HostIx, dst: HostIx) -> f64 {
        self.rp.image().control_latency(&self.rp, src, dst, 0.0)
    }

    fn set_recorder(&mut self, rec: Rec) {
        self.sim.set_recorder(rec);
    }

    fn take_flow_attribution(&mut self, token: FabricToken) -> Option<FlowAttribution> {
        self.sim
            .take_attribution(surf_sim::ActionId::from_raw(token.0))
    }

    fn link_names(&self) -> Vec<String> {
        self.rp.image().resource_names().to_vec()
    }

    fn kernel_profile(&self) -> Option<KernelProfile> {
        Some(self.sim.kernel_profile())
    }
}

/// The packet-level backend (ground truth).
pub(crate) struct PacketFabric {
    rp: Arc<RoutedPlatform>,
    net: PacketNet,
}

impl PacketFabric {
    /// Builds the backend over a routed platform, with an optional
    /// [`PlatformPerturbation`] overlay scaling channel bandwidth/latency
    /// and host speeds.
    pub(crate) fn new(
        rp: Arc<RoutedPlatform>,
        config: PacketConfig,
        perturb: Option<&PlatformPerturbation>,
    ) -> Self {
        let net = PacketNet::new_perturbed(&rp, config, perturb);
        PacketFabric { rp, net }
    }
}

impl Fabric for PacketFabric {
    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn start_transfer(&mut self, src: HostIx, dst: HostIx, bytes: u64) -> FabricToken {
        assert_ne!(src, dst, "self-transfers are handled by the runtime");
        let id = self.net.start_message(&self.rp, src, dst, bytes);
        FabricToken(id.raw())
    }

    fn start_exec(&mut self, host: HostIx, flops: f64) -> FabricToken {
        FabricToken(self.net.start_exec(host, flops).raw())
    }

    fn start_sleep(&mut self, seconds: f64) -> FabricToken {
        FabricToken(self.net.start_sleep(seconds).raw())
    }

    fn advance(&mut self) -> Result<Option<(SimTime, Vec<FabricToken>)>, SimError> {
        Ok(self
            .net
            .advance_to_next()
            .map(|(t, done)| (t, done.into_iter().map(|a| FabricToken(a.raw())).collect())))
    }

    fn control_latency(&self, src: HostIx, dst: HostIx) -> f64 {
        // One header-only frame, serialized on every hop.
        let header = self.net.config().wire_bytes(0) as f64;
        self.rp.image().control_latency(&self.rp, src, dst, header)
    }

    fn set_recorder(&mut self, rec: Rec) {
        self.net.set_recorder(rec);
    }

    fn take_flow_attribution(&mut self, token: FabricToken) -> Option<FlowAttribution> {
        self.net
            .take_attribution(packetnet::PacketActionId::from_raw(token.0))
    }

    fn link_names(&self) -> Vec<String> {
        self.rp.image().resource_names().to_vec()
    }
}

/// MPI implementation personality: the protocol constants layered on top of
/// a fabric. The two "real" personalities correspond to the OpenMPI and
/// MPICH2 curves of Figs. 7 and 9; [`MpiProfile::smpi`] is the pure-model
/// behaviour of SMPI itself (all protocol effects are absorbed into the
/// calibrated piece-wise segments).
#[derive(Debug, Clone)]
pub struct MpiProfile {
    /// Display name.
    pub name: &'static str,
    /// Messages up to this many bytes use the eager protocol; larger ones
    /// use rendezvous (§4.1: implementations "switch from buffered to
    /// synchronous mode above a certain message size").
    pub eager_threshold: u64,
    /// Software overhead charged on the sender per message, seconds.
    pub send_overhead: f64,
    /// Software overhead charged on the receiver per message, seconds.
    pub recv_overhead: f64,
    /// Receive-side buffer copy rate for eager messages (bytes/s); `None`
    /// disables the copy cost (rendezvous transfers are zero-copy).
    pub copy_rate: Option<f64>,
    /// Rate at which an eager sender's buffer is considered injected
    /// (bytes/s); the sender's request completes after `bytes/injection_rate`
    /// even though the wire transfer continues. `f64::INFINITY` completes
    /// the sender immediately.
    pub injection_rate: f64,
    /// Whether rendezvous messages pay an RTS/CTS handshake round-trip.
    pub rendezvous_handshake: bool,
    /// Rate for rank-to-self messages (a memcpy), bytes/s.
    pub self_rate: f64,
    /// Fraction of the wire's payload bandwidth the implementation actually
    /// achieves on large transfers (pipelining/segmentation efficiency); the
    /// few-percent spread between real MPI implementations (Figs. 7 and 9)
    /// comes from this. The effective wire volume is `bytes / efficiency`.
    pub wire_efficiency: f64,
}

impl MpiProfile {
    /// SMPI's own personality: protocol costs live in the calibrated model,
    /// not in explicit constants.
    pub fn smpi() -> Self {
        MpiProfile {
            name: "SMPI",
            eager_threshold: 64 * 1024,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            copy_rate: None,
            injection_rate: f64::INFINITY,
            rendezvous_handshake: false,
            self_rate: 5e9,
            wire_efficiency: 1.0,
        }
    }

    /// An OpenMPI-like personality for the ground-truth backend.
    pub fn openmpi_like() -> Self {
        MpiProfile {
            name: "OpenMPI",
            eager_threshold: 64 * 1024,
            send_overhead: 1.0e-6,
            recv_overhead: 1.0e-6,
            copy_rate: Some(2.2e9),
            injection_rate: 120e6,
            rendezvous_handshake: true,
            self_rate: 5e9,
            wire_efficiency: 0.97,
        }
    }

    /// An MPICH2-like personality: same protocol structure, slightly
    /// different constants (smaller overheads, slower unexpected-buffer
    /// copy, lower pipelining efficiency), producing the few-percent
    /// differences seen in Figs. 7 and 9.
    pub fn mpich2_like() -> Self {
        MpiProfile {
            name: "MPICH2",
            eager_threshold: 64 * 1024,
            send_overhead: 0.8e-6,
            recv_overhead: 1.4e-6,
            copy_rate: Some(1.8e9),
            injection_rate: 118e6,
            rendezvous_handshake: true,
            self_rate: 5e9,
            wire_efficiency: 0.92,
        }
    }

    /// `true` when a message of `bytes` uses the eager protocol.
    pub(crate) fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi_platform::{flat_cluster, ClusterConfig};
    use std::sync::Arc;

    fn rp() -> Arc<RoutedPlatform> {
        Arc::new(RoutedPlatform::new(flat_cluster(
            "t",
            4,
            &ClusterConfig::default(),
        )))
    }

    #[test]
    fn surf_fabric_transfer_completes() {
        let mut f = SurfFabric::new(rp(), TransferModel::ideal(), EngineConfig::default(), None);
        let tok = f.start_transfer(HostIx(0), HostIx(1), 125_000_000);
        let (t, done) = f.advance().unwrap().unwrap();
        assert_eq!(done, vec![tok]);
        assert!((t.as_secs() - (100e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn packet_fabric_transfer_completes() {
        let mut f = PacketFabric::new(rp(), PacketConfig::default(), None);
        let tok = f.start_transfer(HostIx(0), HostIx(1), 1448);
        let (_, done) = f.advance().unwrap().unwrap();
        assert_eq!(done, vec![tok]);
    }

    #[test]
    fn fabrics_agree_on_idle_state() {
        let mut s = SurfFabric::new(rp(), TransferModel::ideal(), EngineConfig::default(), None);
        let mut p = PacketFabric::new(rp(), PacketConfig::default(), None);
        assert!(s.advance().unwrap().is_none());
        assert!(p.advance().unwrap().is_none());
    }

    #[test]
    fn control_latency_positive_and_ordered() {
        let s = SurfFabric::new(rp(), TransferModel::ideal(), EngineConfig::default(), None);
        let p = PacketFabric::new(rp(), PacketConfig::default(), None);
        let cs = s.control_latency(HostIx(0), HostIx(1));
        let cp = p.control_latency(HostIx(0), HostIx(1));
        assert!(cs > 0.0);
        // Packet control latency includes header serialization, so it is
        // strictly larger than the raw route latency.
        assert!(cp > cs);
    }

    #[test]
    fn both_backends_read_one_shared_route() {
        let rp = rp();
        let (a, b) = (HostIx(0), HostIx(2));
        let model = TransferModel::ideal();
        let mut s = SurfFabric::new(Arc::clone(&rp), model, EngineConfig::default(), None);
        let mut p = PacketFabric::new(Arc::clone(&rp), PacketConfig::default(), None);
        s.start_transfer(a, b, 1000);
        p.start_transfer(a, b, 100_000);
        let route = rp.image().route(&rp, a, b);
        assert!(Arc::ptr_eq(&route, &rp.image().route(&rp, a, b)));
        // The image's cache, the surf fabric's per-run table, this handle,
        // and the packet message in flight: the table and the message hold
        // the shared route, not a copy.
        assert_eq!(Arc::strong_count(&route), 4);
        while p.advance().unwrap().is_some() {}
        assert_eq!(Arc::strong_count(&route), 3);
        drop(s);
        assert_eq!(Arc::strong_count(&route), 2);
    }

    #[test]
    fn profiles_select_protocols() {
        let p = MpiProfile::openmpi_like();
        assert!(p.is_eager(64 * 1024));
        assert!(!p.is_eager(64 * 1024 + 1));
    }

    #[test]
    fn sleep_tokens_complete_in_order() {
        let mut f = SurfFabric::new(rp(), TransferModel::ideal(), EngineConfig::default(), None);
        let a = f.start_sleep(2.0);
        let b = f.start_sleep(1.0);
        let (t1, d1) = f.advance().unwrap().unwrap();
        assert_eq!((t1.as_secs(), d1), (1.0, vec![b]));
        let (t2, d2) = f.advance().unwrap().unwrap();
        assert_eq!((t2.as_secs(), d2), (2.0, vec![a]));
    }
}
