//! Shortest-path routing over the platform graph.
//!
//! Every node has one next-hop row: for each destination node, the first
//! hop out of that node on a shortest path (hop-count metric, found by
//! breadth-first search over the sorted adjacency, so ties break by node
//! insertion order, then link). A row is computed the first time a route
//! leaves its node, so building a [`RoutedPlatform`] costs O(nodes + links)
//! and a run pays only for the nodes its routes leave. A route chains each
//! node's own first hop, like the static routing of a real cluster fabric.
//! Every hop records the link's traversal direction so that split-duplex
//! links can be mapped onto their per-direction channels. Explicit routes
//! declared on the [`Platform`] (e.g. parsed from an XML file) take
//! precedence.

use std::sync::{Arc, OnceLock};

use crate::spec::{Hop, HostIx, NodeIx, Platform};
use crate::surf_bridge::PlatformImage;

#[cfg(test)]
mod oracle_tests;

/// The routing state of a platform: its adjacency, and one next-hop row per
/// node, built on first use.
#[derive(Debug, Clone)]
pub(crate) struct Routes {
    /// `adj[u]`: `(neighbour, hop from u)`, sorted, which is the search's
    /// tie-break (node insertion order, then link, then direction).
    adj: Vec<Vec<(u32, Hop)>>,
    /// `rows[src]`, built once however many threads ask for it.
    rows: Box<[OnceLock<Row>]>,
}

/// A node's next-hop row: per destination node, the first hop towards it
/// and the node that hop reaches, `None` for the node itself and for
/// unreachable nodes.
type Row = Box<[Option<(u32, Hop)>]>;

impl Routes {
    /// Sorts the platform's adjacency; computes no row.
    pub(crate) fn new(platform: &Platform) -> Self {
        let n = platform.num_nodes();
        let mut adj: Vec<Vec<(u32, Hop)>> = vec![Vec::new(); n];
        for e in platform.edges() {
            let hop = Hop::fwd(e.link);
            adj[e.a.0 as usize].push((e.b.0, hop));
            adj[e.b.0 as usize].push((e.a.0, hop.flip()));
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        Routes {
            adj,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `src`'s next-hop row, computed by one breadth-first search on first
    /// use: a neighbour of `src` is reached by its own edge, any other node
    /// by the first hop of the node it was reached from.
    fn row(&self, src: usize) -> &[Option<(u32, Hop)>] {
        self.rows[src].get_or_init(|| {
            let mut row = vec![None; self.adj.len()];
            let mut queue = vec![src];
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &(v, hop) in &self.adj[u] {
                    let v = v as usize;
                    if v != src && row[v].is_none() {
                        row[v] = if u == src {
                            Some((v as u32, hop))
                        } else {
                            row[u]
                        };
                        queue.push(v);
                    }
                }
            }
            row.into_boxed_slice()
        })
    }

    /// The hop sequence from node `src` to node `dst` (empty when
    /// `src == dst`): each node's own first hop, chained. Panics if the
    /// nodes are disconnected.
    pub(crate) fn node_route(&self, src: NodeIx, dst: NodeIx) -> Vec<Hop> {
        let mut route = Vec::new();
        let mut cur = src.0 as usize;
        let dst = dst.0 as usize;
        while cur != dst {
            let Some((next, hop)) = self.row(cur)[dst] else {
                panic!("no route between nodes {cur} and {dst}");
            };
            route.push(hop);
            cur = next as usize;
        }
        route
    }

    /// How many nodes' rows have been computed.
    #[cfg(test)]
    fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }
}

/// A platform together with its routing: the object the simulators
/// actually query.
#[derive(Debug, Clone)]
pub struct RoutedPlatform {
    platform: Platform,
    routes: Routes,
    /// Lazily built network-resource image (see [`PlatformImage`]): one
    /// plan and one route store for every run of either backend over this
    /// platform.
    /// Cloning the `RoutedPlatform` shares the already-built image.
    image: OnceLock<Arc<PlatformImage>>,
}

impl RoutedPlatform {
    /// Wraps a platform for routing. Routes are computed on first use, so
    /// this costs O(nodes + links).
    pub fn new(platform: Platform) -> Self {
        let routes = Routes::new(&platform);
        RoutedPlatform {
            platform,
            routes,
            image: OnceLock::new(),
        }
    }

    /// The shared, immutable translation of this platform into network
    /// resources, built on first use. Every run of either backend builds
    /// its private network state *from* this image and resolves routes
    /// *through* its shared route store, so concurrent runs (sweep
    /// workers, service requests) pay the translation cost once per
    /// platform, not per run.
    pub fn image(&self) -> &Arc<PlatformImage> {
        self.image
            .get_or_init(|| Arc::new(PlatformImage::build(self)))
    }

    /// The underlying platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The hop sequence from host `src` to host `dst`. Explicit routes
    /// (from platform files) take precedence over shortest paths.
    pub fn route(&self, src: HostIx, dst: HostIx) -> Vec<Hop> {
        if let Some(r) = self.platform.explicit_route(src, dst) {
            return r.to_vec();
        }
        self.routes
            .node_route(self.platform.host_node(src), self.platform.host_node(dst))
    }

    /// Nominal end-to-end latency between two hosts.
    pub fn latency(&self, src: HostIx, dst: HostIx) -> f64 {
        self.platform.route_latency(&self.route(src, dst))
    }

    /// Nominal end-to-end bandwidth (bottleneck) between two hosts.
    pub fn bandwidth(&self, src: HostIx, dst: HostIx) -> f64 {
        self.platform.route_bandwidth(&self.route(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Dir, SharingPolicy};

    /// h0 - sw1 - sw2 - h1, plus h2 hanging off sw1.
    fn line_platform() -> Platform {
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let h2 = p.add_host("h2", 1e9);
        let s1 = p.add_switch("sw1");
        let s2 = p.add_switch("sw2");
        p.link_between(
            p.host_node(h0),
            s1,
            "l0",
            125e6,
            1e-6,
            SharingPolicy::Shared,
        );
        p.link_between(s1, s2, "trunk", 1.25e9, 2e-6, SharingPolicy::Shared);
        p.link_between(
            p.host_node(h1),
            s2,
            "l1",
            125e6,
            1e-6,
            SharingPolicy::Shared,
        );
        p.link_between(
            p.host_node(h2),
            s1,
            "l2",
            125e6,
            1e-6,
            SharingPolicy::Shared,
        );
        p
    }

    fn names(p: &Platform, route: &[Hop]) -> Vec<String> {
        route.iter().map(|h| p.link(h.link).name.clone()).collect()
    }

    #[test]
    fn shortest_path_across_switches() {
        let rp = RoutedPlatform::new(line_platform());
        let route = rp.route(HostIx(0), HostIx(1));
        assert_eq!(names(rp.platform(), &route), ["l0", "trunk", "l1"]);
        // h0 is the `a` endpoint of l0, so the first hop is forward; h1 is
        // the `a` endpoint of l1, so the last hop is walked in reverse.
        assert_eq!(route[0].dir, Dir::Forward);
        assert_eq!(route[2].dir, Dir::Reverse);
    }

    #[test]
    fn same_switch_route_is_two_hops() {
        let rp = RoutedPlatform::new(line_platform());
        let route = rp.route(HostIx(0), HostIx(2));
        assert_eq!(names(rp.platform(), &route), ["l0", "l2"]);
    }

    #[test]
    fn route_to_self_is_empty() {
        let rp = RoutedPlatform::new(line_platform());
        assert!(rp.route(HostIx(0), HostIx(0)).is_empty());
    }

    #[test]
    fn reverse_route_flips_every_hop() {
        let rp = RoutedPlatform::new(line_platform());
        let fwd = rp.route(HostIx(0), HostIx(1));
        let rev = rp.route(HostIx(1), HostIx(0));
        let flipped: Vec<Hop> = fwd.iter().rev().map(|h| h.flip()).collect();
        assert_eq!(flipped, rev);
    }

    #[test]
    fn aggregates_match_link_sums() {
        let rp = RoutedPlatform::new(line_platform());
        assert!((rp.latency(HostIx(0), HostIx(1)) - 4e-6).abs() < 1e-18);
        assert_eq!(rp.bandwidth(HostIx(0), HostIx(1)), 125e6);
    }

    #[test]
    fn explicit_route_overrides_shortest_path() {
        let mut p = line_platform();
        let detour = p.add_link("detour", 1.0, 1.0, SharingPolicy::Shared);
        p.add_explicit_route(HostIx(0), HostIx(1), vec![Hop::fwd(detour)]);
        let rp = RoutedPlatform::new(p);
        assert_eq!(rp.route(HostIx(0), HostIx(1)), vec![Hop::fwd(detour)]);
    }

    #[test]
    #[should_panic]
    fn disconnected_nodes_panic() {
        let mut p = Platform::new();
        p.add_host("a", 1.0);
        p.add_host("b", 1.0);
        let rp = RoutedPlatform::new(p);
        let _ = rp.route(HostIx(0), HostIx(1));
    }
}
