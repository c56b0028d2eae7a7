//! The per-node rows against the all-pairs reference they replaced.
//!
//! [`AllPairs`] fills every node's next-hop entry up front with one BFS per
//! node, walking each destination's predecessor chain back to the source.
//! The rows computed on first use must route every host pair hop for hop
//! (link and direction) as it does.

use super::*;
use crate::cluster::{flat_cluster, gdx, griffon, ClusterConfig};
use crate::spec::{Dir, LinkIx, SharingPolicy};
use crate::xml::from_xml;

const UNREACHABLE: u32 = u32::MAX;

/// Dense n×n next-hop tables, filled with one BFS per node.
struct AllPairs {
    num_nodes: usize,
    /// `next_node[src * n + dst]`: the first node after `src` on the path
    /// to `dst`, or `UNREACHABLE`.
    next_node: Vec<u32>,
    /// The link from `src` to that node, and its direction (0 = forward).
    next_link: Vec<u32>,
    next_dir: Vec<u8>,
}

impl AllPairs {
    fn build(platform: &Platform) -> Self {
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
        AllPairs {
            num_nodes: n,
            next_node,
            next_link,
            next_dir,
        }
    }

    fn node_route(&self, src: NodeIx, dst: NodeIx) -> Vec<Hop> {
        let n = self.num_nodes;
        let mut route = Vec::new();
        let mut cur = src.0 as usize;
        let dst = dst.0 as usize;
        while cur != dst {
            let nxt = self.next_node[cur * n + dst];
            assert!(nxt != UNREACHABLE, "no route between nodes {cur} and {dst}");
            let dir = if self.next_dir[cur * n + dst] == 0 {
                Dir::Forward
            } else {
                Dir::Reverse
            };
            route.push(Hop {
                link: LinkIx(self.next_link[cur * n + dst]),
                dir,
            });
            cur = nxt as usize;
        }
        route
    }
}

const TWO_PATHS: &str = include_str!("../../fixtures/two_paths.xml");

/// Three hosts on a mixed-policy fabric with parallel links and a cycle.
fn mixed_testbed() -> Platform {
    let mut p = Platform::new();
    let h0 = p.add_host("h0", 1e9);
    let h1 = p.add_host("h1", 1e9);
    let h2 = p.add_host("h2", 1e9);
    let s0 = p.add_switch("s0");
    let s1 = p.add_switch("s1");
    let (n0, n1, n2) = (p.host_node(h0), p.host_node(h1), p.host_node(h2));
    p.link_between(n0, s0, "a0", 1e8, 1e-6, SharingPolicy::SplitDuplex);
    p.link_between(s1, n1, "a1", 1e8, 1e-6, SharingPolicy::Shared);
    p.link_between(n2, s1, "a2", 1e8, 1e-6, SharingPolicy::FatPipe);
    p.link_between(s0, s1, "t0", 1e9, 1e-6, SharingPolicy::Shared);
    p.link_between(s1, s0, "t1", 1e9, 1e-6, SharingPolicy::SplitDuplex);
    p.link_between(n0, n2, "bypass", 1e7, 1e-5, SharingPolicy::Shared);
    p
}

/// Every platform the tests route: the paper's clusters, their XML files,
/// a flat cluster, a hand-built testbed and the tie-break fixture.
fn platforms() -> Vec<(&'static str, Platform)> {
    let file = |text: &str| from_xml(text).expect("fixture parses");
    vec![
        ("griffon", griffon()),
        ("gdx", gdx()),
        (
            "griffon.xml",
            file(include_str!("../../../../platforms/griffon.xml")),
        ),
        (
            "gdx.xml",
            file(include_str!("../../../../platforms/gdx.xml")),
        ),
        ("flat", flat_cluster("f", 9, &ClusterConfig::default())),
        ("mixed", mixed_testbed()),
        ("two_paths.xml", file(TWO_PATHS)),
    ]
}

#[test]
fn every_host_pair_matches_the_all_pairs_oracle() {
    for (name, p) in platforms() {
        let oracle = AllPairs::build(&p);
        let routes = Routes::new(&p);
        let hosts = p.num_hosts() as u32;
        for a in 0..hosts {
            for b in 0..hosts {
                let (na, nb) = (p.host_node(HostIx(a)), p.host_node(HostIx(b)));
                assert_eq!(
                    routes.node_route(na, nb),
                    oracle.node_route(na, nb),
                    "{name}: host {a} -> host {b}"
                );
            }
        }
    }
}

#[test]
fn equal_length_paths_break_ties_by_node_then_link() {
    let rp = RoutedPlatform::new(from_xml(TWO_PATHS).unwrap());
    let p = rp.platform();
    let hops = |a: u32, b: u32| -> Vec<(String, Dir)> {
        rp.route(HostIx(a), HostIx(b))
            .iter()
            .map(|h| (p.link(h.link).name.clone(), h.dir))
            .collect()
    };
    let fwd = |s: &str| (s.to_string(), Dir::Forward);
    let rev = |s: &str| (s.to_string(), Dir::Reverse);
    assert_eq!(
        hops(0, 1),
        [
            fwd("a-in"),
            fwd("in-north"),
            fwd("north-out-first"),
            rev("b-out")
        ]
    );
    assert_eq!(
        hops(1, 0),
        [
            fwd("b-out"),
            rev("north-out-first"),
            rev("in-north"),
            rev("a-in")
        ]
    );
}

#[test]
fn a_platform_routes_only_the_nodes_its_routes_leave() {
    let rp = RoutedPlatform::new(gdx());
    assert_eq!(rp.routes.rows_built(), 0, "construction builds no row");
    let p = rp.platform();
    let mut left = std::collections::BTreeSet::new();
    for a in 0..5 {
        for b in 0..5 {
            let (a, b) = (HostIx(a), HostIx(b));
            let mut node = p.host_node(a);
            for hop in rp.route(a, b) {
                left.insert(node);
                let edge = p
                    .edges()
                    .iter()
                    .find(|e| e.link == hop.link)
                    .expect("a routed link has an edge");
                node = match hop.dir {
                    Dir::Forward => edge.b,
                    Dir::Reverse => edge.a,
                };
            }
            assert_eq!(node, p.host_node(b));
        }
    }
    // Hosts 0-4 share one cabinet switch: five hosts and that switch.
    assert_eq!(left.len(), 6);
    assert_eq!(rp.routes.rows_built(), left.len());
}
