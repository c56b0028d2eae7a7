//! Target-platform description (paper §6).
//!
//! A [`Platform`] is a pure description: hosts and switches (nodes), links
//! with nominal bandwidth/latency, and the topology connecting them. It is
//! consumed by two very different engines, both through one translation
//! into network resources ([`crate::PlatformImage`]):
//!
//! * the flow-level SURF kernel for SMPI simulations, and
//! * the packet-level `packetnet` simulator that plays the role of the
//!   real-world clusters in the reproduction.
//!
//! Keeping the description engine-agnostic guarantees both simulators see
//! *exactly* the same hardware, which is what makes accuracy comparisons
//! meaningful.

use std::collections::{HashMap, HashSet};

/// Index of a node (host or switch) in a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIx(pub u32);

/// Index of a host among the platform's hosts (dense, 0-based; this is what
/// MPI ranks map onto).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostIx(pub u32);

/// Index of a link in a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkIx(pub u32);

/// How a link's capacity is shared among flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingPolicy {
    /// Both directions share one capacity pool (SimGrid default for plain
    /// `<link>` elements).
    #[default]
    Shared,
    /// Each direction has its own full capacity (full-duplex Ethernet; what
    /// SimGrid's `<cluster>` tag generates for node access links).
    SplitDuplex,
    /// The link never contends (models an over-provisioned backplane).
    FatPipe,
}

/// Traversal direction of a link along a route. `Forward` means from the
/// edge's `a` endpoint towards `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// a → b.
    Forward,
    /// b → a.
    Reverse,
}

impl Dir {
    /// The opposite direction.
    pub(crate) fn flip(self) -> Dir {
        match self {
            Dir::Forward => Dir::Reverse,
            Dir::Reverse => Dir::Forward,
        }
    }
}

/// One hop of a route: a link and the direction it is traversed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hop {
    /// The link crossed.
    pub link: LinkIx,
    /// Traversal direction (only meaningful for `SplitDuplex` links).
    pub dir: Dir,
}

impl Hop {
    /// Forward-direction hop over `link`.
    pub(crate) fn fwd(link: LinkIx) -> Hop {
        Hop {
            link,
            dir: Dir::Forward,
        }
    }

    /// The same hop walked the other way.
    pub(crate) fn flip(self) -> Hop {
        Hop {
            link: self.link,
            dir: self.dir.flip(),
        }
    }
}

/// What a node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A compute node with a speed in flop/s.
    Host { speed: f64 },
    /// A switch: pure forwarding, no compute.
    Switch,
}

/// A node of the platform graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique name (e.g. `griffon-12`, `cabinet1-switch`).
    pub name: String,
    /// Host or switch.
    pub kind: NodeKind,
}

/// A link of the platform graph.
#[derive(Debug, Clone)]
pub struct Link {
    /// Unique name.
    pub name: String,
    /// Nominal bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Nominal one-way latency in seconds.
    pub latency: f64,
    /// Contention behaviour.
    pub policy: SharingPolicy,
}

/// An edge of the topology: `link` connects nodes `a` and `b` (full duplex).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    /// One endpoint.
    pub a: NodeIx,
    /// The other endpoint.
    pub b: NodeIx,
    /// The link realizing this edge.
    pub link: LinkIx,
}

/// A complete platform description.
#[derive(Debug, Clone, Default)]
pub struct Platform {
    nodes: Vec<Node>,
    links: Vec<Link>,
    edges: Vec<Edge>,
    /// Hosts in declaration order; `hosts[i]` is the node index of host `i`.
    hosts: Vec<NodeIx>,
    names: HashMap<String, NodeIx>,
    link_names: HashMap<String, LinkIx>,
    /// Links that realize an edge (a link belongs to at most one edge).
    edge_links: HashSet<LinkIx>,
    /// Routes declared explicitly (e.g. from an XML file); they override the
    /// shortest-path routing for the given (src, dst) host pair.
    explicit_routes: HashMap<(HostIx, HostIx), Vec<Hop>>,
}

impl Platform {
    /// Creates an empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a compute host. Names must be unique across hosts and switches.
    pub fn add_host(&mut self, name: impl Into<String>, speed: f64) -> HostIx {
        assert!(speed > 0.0 && speed.is_finite(), "invalid host speed");
        let node = self.add_node(name.into(), NodeKind::Host { speed });
        self.hosts.push(node);
        HostIx(u32::try_from(self.hosts.len() - 1).unwrap())
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeIx {
        self.add_node(name.into(), NodeKind::Switch)
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> NodeIx {
        assert!(
            !self.names.contains_key(&name),
            "duplicate node name {name:?}"
        );
        let ix = NodeIx(u32::try_from(self.nodes.len()).unwrap());
        self.names.insert(name.clone(), ix);
        self.nodes.push(Node { name, kind });
        ix
    }

    /// Adds a link (not yet attached to the topology).
    pub(crate) fn add_link(
        &mut self,
        name: impl Into<String>,
        bandwidth: f64,
        latency: f64,
        policy: SharingPolicy,
    ) -> LinkIx {
        let name = name.into();
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "invalid bandwidth"
        );
        assert!(latency >= 0.0 && latency.is_finite(), "invalid latency");
        assert!(
            !self.link_names.contains_key(&name),
            "duplicate link name {name:?}"
        );
        let ix = LinkIx(u32::try_from(self.links.len()).unwrap());
        self.link_names.insert(name.clone(), ix);
        self.links.push(Link {
            name,
            bandwidth,
            latency,
            policy,
        });
        ix
    }

    /// Connects two nodes with an existing link (full duplex edge). A link
    /// may realize at most one edge: directionality would be ambiguous
    /// otherwise.
    pub(crate) fn connect(&mut self, a: NodeIx, b: NodeIx, link: LinkIx) {
        assert!(a != b, "self-loop edges are not allowed");
        assert!((a.0 as usize) < self.nodes.len());
        assert!((b.0 as usize) < self.nodes.len());
        assert!((link.0 as usize) < self.links.len());
        assert!(
            self.edge_links.insert(link),
            "link {:?} already realizes an edge",
            self.link(link).name
        );
        self.edges.push(Edge { a, b, link });
    }

    /// Convenience: create a link and connect it in one call.
    pub fn link_between(
        &mut self,
        a: NodeIx,
        b: NodeIx,
        name: impl Into<String>,
        bandwidth: f64,
        latency: f64,
        policy: SharingPolicy,
    ) -> LinkIx {
        let l = self.add_link(name, bandwidth, latency, policy);
        self.connect(a, b, l);
        l
    }

    /// Declares an explicit route between two hosts, overriding shortest-path
    /// routing. Symmetric: the reverse route (links reversed, directions
    /// flipped) is registered automatically unless one already exists.
    pub(crate) fn add_explicit_route(&mut self, src: HostIx, dst: HostIx, hops: Vec<Hop>) {
        let rev: Vec<Hop> = hops.iter().rev().map(|h| h.flip()).collect();
        self.explicit_routes.insert((src, dst), hops);
        self.explicit_routes.entry((dst, src)).or_insert(rev);
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of nodes (hosts + switches).
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The node index of a host.
    pub fn host_node(&self, h: HostIx) -> NodeIx {
        self.hosts[h.0 as usize]
    }

    /// Host metadata.
    pub(crate) fn host(&self, h: HostIx) -> &Node {
        &self.nodes[self.hosts[h.0 as usize].0 as usize]
    }

    /// Compute speed of a host in flop/s.
    pub(crate) fn host_speed(&self, h: HostIx) -> f64 {
        match self.host(h).kind {
            NodeKind::Host { speed } => speed,
            NodeKind::Switch => unreachable!("host index points at a switch"),
        }
    }

    /// All hosts, in index order.
    pub(crate) fn host_indices(&self) -> impl Iterator<Item = HostIx> + '_ {
        (0..self.hosts.len() as u32).map(HostIx)
    }

    /// Node metadata.
    pub(crate) fn node(&self, n: NodeIx) -> &Node {
        &self.nodes[n.0 as usize]
    }

    /// Link metadata.
    pub(crate) fn link(&self, l: LinkIx) -> &Link {
        &self.links[l.0 as usize]
    }

    /// All topology edges.
    pub(crate) fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// All links.
    pub(crate) fn links(&self) -> &[Link] {
        &self.links
    }

    /// All nodes.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks a node up by name.
    pub(crate) fn node_by_name(&self, name: &str) -> Option<NodeIx> {
        self.names.get(name).copied()
    }

    /// Looks a host up by name.
    pub(crate) fn host_by_name(&self, name: &str) -> Option<HostIx> {
        let node = self.node_by_name(name)?;
        self.hosts
            .iter()
            .position(|&n| n == node)
            .map(|i| HostIx(i as u32))
    }

    /// Looks a link up by name.
    pub fn link_by_name(&self, name: &str) -> Option<LinkIx> {
        self.link_names.get(name).copied()
    }

    /// Explicitly declared route for a host pair, if any.
    pub(crate) fn explicit_route(&self, src: HostIx, dst: HostIx) -> Option<&[Hop]> {
        self.explicit_routes.get(&(src, dst)).map(|v| v.as_slice())
    }

    /// Sum of nominal latencies along a route.
    pub(crate) fn route_latency(&self, route: &[Hop]) -> f64 {
        route.iter().map(|h| self.link(h.link).latency).sum()
    }

    /// Minimum nominal bandwidth along a route.
    pub(crate) fn route_bandwidth(&self, route: &[Hop]) -> f64 {
        route
            .iter()
            .map(|h| self.link(h.link).bandwidth)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_a_tiny_platform() {
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let sw = p.add_switch("sw");
        p.link_between(
            p.host_node(h0),
            sw,
            "l0",
            125e6,
            50e-6,
            SharingPolicy::Shared,
        );
        p.link_between(
            p.host_node(h1),
            sw,
            "l1",
            125e6,
            50e-6,
            SharingPolicy::Shared,
        );
        assert_eq!(p.num_hosts(), 2);
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.num_links(), 2);
        assert_eq!(p.host_by_name("h1"), Some(h1));
        assert_eq!(p.node_by_name("sw"), Some(sw));
        assert_eq!(p.host_speed(h0), 1e9);
    }

    #[test]
    #[should_panic]
    fn duplicate_names_rejected() {
        let mut p = Platform::new();
        p.add_host("x", 1.0);
        p.add_switch("x");
    }

    #[test]
    #[should_panic]
    fn self_loops_rejected() {
        let mut p = Platform::new();
        let h = p.add_host("h", 1.0);
        let l = p.add_link("l", 1.0, 0.0, SharingPolicy::Shared);
        p.connect(p.host_node(h), p.host_node(h), l);
    }

    #[test]
    fn explicit_routes_are_symmetric_with_flipped_directions() {
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1.0);
        let h1 = p.add_host("h1", 1.0);
        let la = p.add_link("a", 1.0, 0.0, SharingPolicy::Shared);
        let lb = p.add_link("b", 1.0, 0.0, SharingPolicy::Shared);
        p.add_explicit_route(h0, h1, vec![Hop::fwd(la), Hop::fwd(lb)]);
        assert_eq!(
            p.explicit_route(h0, h1).unwrap(),
            &[Hop::fwd(la), Hop::fwd(lb)]
        );
        assert_eq!(
            p.explicit_route(h1, h0).unwrap(),
            &[Hop::fwd(lb).flip(), Hop::fwd(la).flip()]
        );
    }

    #[test]
    fn route_aggregates() {
        let mut p = Platform::new();
        let _ = p.add_host("h", 1.0);
        let a = p.add_link("a", 100.0, 0.1, SharingPolicy::Shared);
        let b = p.add_link("b", 50.0, 0.2, SharingPolicy::Shared);
        let route = [Hop::fwd(a), Hop::fwd(b)];
        assert!((p.route_latency(&route) - 0.3).abs() < 1e-15);
        assert_eq!(p.route_bandwidth(&route), 50.0);
    }

    #[test]
    #[should_panic]
    fn link_cannot_realize_two_edges() {
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1.0);
        let h1 = p.add_host("h1", 1.0);
        let h2 = p.add_host("h2", 1.0);
        let l = p.add_link("l", 1.0, 0.0, SharingPolicy::Shared);
        p.connect(p.host_node(h0), p.host_node(h1), l);
        p.connect(p.host_node(h1), p.host_node(h2), l);
    }

    #[test]
    fn dir_flip_roundtrips() {
        assert_eq!(Dir::Forward.flip(), Dir::Reverse);
        assert_eq!(Dir::Reverse.flip().flip(), Dir::Reverse);
    }
}
