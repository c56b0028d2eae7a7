//! Cluster topology builders.
//!
//! The paper's experiments run on two Grid'5000 clusters (§7):
//!
//! * **griffon** — 92 nodes in 3 cabinets (33/27/32), Gigabit Ethernet to the
//!   cabinet switch, cabinet switches joined by a 10 GbE second-level switch;
//! * **gdx** — 312 nodes in 36 cabinets, two cabinets per switch (18 switches),
//!   every switch joined to one second-level switch through 1 GbE links, so
//!   distant nodes communicate across three switches.
//!
//! [`griffon`] and [`gdx`] rebuild those fabrics; [`flat_cluster`] and
//! [`hierarchical_cluster`] are the general constructors.
//!
//! Cluster links use the `Shared` sharing policy (both directions share one
//! capacity pool), matching the SimGrid platform models of the paper's era.
//! This is deliberate: on TCP/GbE, simultaneous bidirectional transfers
//! degrade far below 2× the unidirectional rate (ACK/data interference), and
//! the shared model is what makes the pairwise all-to-all contention effect
//! of Fig. 11 appear. `SplitDuplex` remains available for platforms built
//! by hand.

use crate::spec::{Platform, SharingPolicy};

/// Parameters shared by all cluster builders.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Compute speed of each node, flop/s.
    pub node_speed: f64,
    /// Bandwidth of each node's access link, bytes/s.
    pub link_bandwidth: f64,
    /// Latency of each node's access link, seconds.
    pub link_latency: f64,
    /// Bandwidth of cabinet-to-spine uplinks, bytes/s.
    pub uplink_bandwidth: f64,
    /// Latency of cabinet-to-spine uplinks, seconds.
    pub uplink_latency: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // A generic GbE cluster: 1 Gf/s nodes, 1 GbE access links with 50 µs
        // latency, 10 GbE uplinks.
        ClusterConfig {
            node_speed: 1e9,
            link_bandwidth: 125e6,
            link_latency: 50e-6,
            uplink_bandwidth: 1.25e9,
            uplink_latency: 10e-6,
        }
    }
}

/// Builds a single-switch cluster of `n` nodes named `prefix-0..n`.
pub fn flat_cluster(prefix: &str, n: usize, cfg: &ClusterConfig) -> Platform {
    assert!(n > 0, "a cluster needs at least one node");
    let mut p = Platform::new();
    let sw = p.add_switch(format!("{prefix}-switch"));
    for i in 0..n {
        let h = p.add_host(format!("{prefix}-{i}"), cfg.node_speed);
        let node = p.host_node(h);
        p.link_between(
            node,
            sw,
            format!("{prefix}-link-{i}"),
            cfg.link_bandwidth,
            cfg.link_latency,
            SharingPolicy::Shared,
        );
    }
    p
}

/// Builds a two-level cluster: one switch per cabinet, every cabinet switch
/// connected to a spine switch. `cabinets[i]` is the node count of cabinet
/// `i`; hosts are named `prefix-<global index>`.
pub(crate) fn hierarchical_cluster(
    prefix: &str,
    cabinets: &[usize],
    cfg: &ClusterConfig,
) -> Platform {
    assert!(!cabinets.is_empty() && cabinets.iter().all(|&c| c > 0));
    let mut p = Platform::new();
    let spine = p.add_switch(format!("{prefix}-spine"));
    let mut host_ix = 0usize;
    for (c, &size) in cabinets.iter().enumerate() {
        let sw = p.add_switch(format!("{prefix}-cab{c}-switch"));
        p.link_between(
            sw,
            spine,
            format!("{prefix}-cab{c}-uplink"),
            cfg.uplink_bandwidth,
            cfg.uplink_latency,
            SharingPolicy::Shared,
        );
        for _ in 0..size {
            let h = p.add_host(format!("{prefix}-{host_ix}"), cfg.node_speed);
            let node = p.host_node(h);
            p.link_between(
                node,
                sw,
                format!("{prefix}-link-{host_ix}"),
                cfg.link_bandwidth,
                cfg.link_latency,
                SharingPolicy::Shared,
            );
            host_ix += 1;
        }
    }
    p
}

/// The griffon cluster of the paper: 92 Xeon L5420 nodes (2.5 GHz dual-proc
/// quad-core), cabinets of 33/27/32 nodes, GbE access, 10 GbE spine.
pub fn griffon() -> Platform {
    let cfg = ClusterConfig {
        node_speed: 20e9, // 8 cores x 2.5 GHz, ~1 flop/cycle effective
        link_bandwidth: 125e6,
        link_latency: 50e-6,
        uplink_bandwidth: 1.25e9,
        uplink_latency: 10e-6,
    };
    hierarchical_cluster("griffon", &[33, 27, 32], &cfg)
}

/// The gdx cluster of the paper: 312 Opteron 246 nodes (2.0 GHz dual-proc)
/// across 36 cabinets, two cabinets per switch (18 switches of ~17 nodes),
/// all switches joined to one second-level switch by 1 GbE links. A
/// communication between distant cabinets crosses three switches.
pub fn gdx() -> Platform {
    let cfg = ClusterConfig {
        node_speed: 4e9, // 2 cores x 2.0 GHz
        link_bandwidth: 125e6,
        link_latency: 60e-6,
        uplink_bandwidth: 125e6, // 1 GbE uplinks, per the paper
        uplink_latency: 15e-6,
    };
    // 312 nodes over 18 switch groups: 312 = 18*17 + 6, so 6 groups of 18
    // and 12 groups of 17.
    let mut groups = vec![18usize; 6];
    groups.extend(std::iter::repeat_n(17, 12));
    debug_assert_eq!(groups.iter().sum::<usize>(), 312);
    hierarchical_cluster("gdx", &groups, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutedPlatform;
    use crate::spec::HostIx;

    #[test]
    fn flat_cluster_shape() {
        let p = flat_cluster("c", 4, &ClusterConfig::default());
        assert_eq!(p.num_hosts(), 4);
        assert_eq!(p.num_nodes(), 5); // 4 hosts + 1 switch
        assert_eq!(p.num_links(), 4);
        let rp = RoutedPlatform::new(p);
        assert_eq!(rp.route(HostIx(0), HostIx(3)).len(), 2);
    }

    #[test]
    fn hierarchical_cluster_shape() {
        let p = hierarchical_cluster("c", &[2, 3], &ClusterConfig::default());
        assert_eq!(p.num_hosts(), 5);
        assert_eq!(p.num_nodes(), 5 + 3); // hosts + 2 cabinet switches + spine
        assert_eq!(p.num_links(), 5 + 2); // access links + uplinks
    }

    #[test]
    fn griffon_matches_paper() {
        let p = griffon();
        assert_eq!(p.num_hosts(), 92);
        let rp = RoutedPlatform::new(p);
        // Same cabinet: host link + host link.
        assert_eq!(rp.route(HostIx(0), HostIx(1)).len(), 2);
        // Cross cabinet: host link + uplink + uplink + host link.
        assert_eq!(rp.route(HostIx(0), HostIx(91)).len(), 4);
        // Intra-cabinet bottleneck is GbE.
        assert_eq!(rp.bandwidth(HostIx(0), HostIx(1)), 125e6);
    }

    #[test]
    fn gdx_matches_paper() {
        let p = gdx();
        assert_eq!(p.num_hosts(), 312);
        let rp = RoutedPlatform::new(p);
        // Distant cabinets: three switches on the path => 4 links.
        let route = rp.route(HostIx(0), HostIx(311));
        assert_eq!(route.len(), 4);
        // gdx uplinks are only 1 GbE, so the bottleneck is still 125 MB/s.
        assert_eq!(rp.bandwidth(HostIx(0), HostIx(311)), 125e6);
    }

    #[test]
    fn same_switch_pair_exists_in_gdx() {
        let p = gdx();
        let rp = RoutedPlatform::new(p);
        // Hosts 0 and 1 are in the first group: one switch between them.
        assert_eq!(rp.route(HostIx(0), HostIx(1)).len(), 2);
    }
}
