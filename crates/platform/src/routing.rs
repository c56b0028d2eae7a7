//! Shortest-path routing over the platform graph.
//!
//! Routes between hosts are computed once with breadth-first search (hop
//! count metric, deterministic tie-breaking by node insertion order) and
//! stored as a next-hop table, exactly like the static routing of a real
//! cluster fabric. Every hop records the link's traversal direction so that
//! split-duplex links can be mapped onto their per-direction channels.
//! Explicit routes declared on the [`Platform`] (e.g. parsed from an XML
//! file) take precedence.

use std::sync::{Arc, OnceLock};

use crate::spec::{Dir, Hop, HostIx, LinkIx, NodeIx, Platform};
use crate::surf_bridge::PlatformImage;

/// Precomputed routing tables for a platform.
#[derive(Debug, Clone)]
pub struct Routes {
    num_nodes: usize,
    /// `next_node[src * n + dst]`: the first node after `src` on the path to
    /// `dst`, or `u32::MAX` when unreachable.
    next_node: Vec<u32>,
    /// The link from `src` to that node.
    next_link: Vec<u32>,
    /// Its traversal direction (0 = forward, 1 = reverse).
    next_dir: Vec<u8>,
}

const UNREACHABLE: u32 = u32::MAX;

impl Routes {
    /// Builds the all-pairs next-hop table with one BFS per node.
    pub(crate) fn build(platform: &Platform) -> Self {
        let n = platform.num_nodes();
        // Adjacency: (neighbor, link, direction), sorted for determinism.
        let mut adj: Vec<Vec<(u32, u32, u8)>> = vec![Vec::new(); n];
        for e in platform.edges() {
            adj[e.a.0 as usize].push((e.b.0, e.link.0, 0));
            adj[e.b.0 as usize].push((e.a.0, e.link.0, 1));
        }
        for a in &mut adj {
            a.sort_unstable();
        }

        let mut next_node = vec![UNREACHABLE; n * n];
        let mut next_link = vec![UNREACHABLE; n * n];
        let mut next_dir = vec![0u8; n * n];
        let mut queue = std::collections::VecDeque::new();
        // pred[v] = (previous node, link, dir) on the path src -> v.
        let mut pred: Vec<(u32, u32, u8)> = Vec::new();

        for src in 0..n {
            pred.clear();
            pred.resize(n, (UNREACHABLE, UNREACHABLE, 0));
            queue.clear();
            queue.push_back(src as u32);
            pred[src] = (src as u32, UNREACHABLE, 0);
            while let Some(u) = queue.pop_front() {
                for &(v, l, d) in &adj[u as usize] {
                    if pred[v as usize].0 == UNREACHABLE {
                        pred[v as usize] = (u, l, d);
                        queue.push_back(v);
                    }
                }
            }
            // Walk each destination's predecessor chain back to src; the hop
            // adjacent to src is the first hop.
            for dst in 0..n {
                if dst == src || pred[dst].0 == UNREACHABLE {
                    continue;
                }
                let mut cur = dst as u32;
                let mut hop = pred[dst];
                while hop.0 != src as u32 {
                    cur = hop.0;
                    hop = pred[cur as usize];
                }
                next_node[src * n + dst] = cur;
                next_link[src * n + dst] = hop.1;
                next_dir[src * n + dst] = hop.2;
            }
        }
        Routes {
            num_nodes: n,
            next_node,
            next_link,
            next_dir,
        }
    }

    /// The hop sequence from node `src` to node `dst` (empty when
    /// `src == dst`). Panics if the nodes are disconnected.
    pub(crate) fn node_route(&self, src: NodeIx, dst: NodeIx) -> Vec<Hop> {
        let n = self.num_nodes;
        let mut route = Vec::new();
        let mut cur = src.0 as usize;
        let dst = dst.0 as usize;
        while cur != dst {
            let nxt = self.next_node[cur * n + dst];
            assert!(nxt != UNREACHABLE, "no route between nodes {cur} and {dst}");
            let link = LinkIx(self.next_link[cur * n + dst]);
            let dir = if self.next_dir[cur * n + dst] == 0 {
                Dir::Forward
            } else {
                Dir::Reverse
            };
            route.push(Hop { link, dir });
            cur = nxt as usize;
        }
        route
    }
}

/// A platform together with its routing tables: the object the simulators
/// actually query.
#[derive(Debug, Clone)]
pub struct RoutedPlatform {
    platform: Platform,
    routes: Routes,
    /// Lazily built network-resource image (see [`PlatformImage`]): one
    /// plan and one route-translation cache for every run of either
    /// backend over this platform.
    /// Cloning the `RoutedPlatform` shares the already-built image.
    image: OnceLock<Arc<PlatformImage>>,
}

impl RoutedPlatform {
    /// Computes routing for a platform.
    pub fn new(platform: Platform) -> Self {
        let routes = Routes::build(&platform);
        RoutedPlatform {
            platform,
            routes,
            image: OnceLock::new(),
        }
    }

    /// The shared, immutable translation of this platform into network
    /// resources, built on first use. Every run of either backend builds
    /// its private network state *from* this image and resolves routes
    /// *through* its shared memoization cache, so concurrent runs (sweep
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
    use crate::spec::SharingPolicy;

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
