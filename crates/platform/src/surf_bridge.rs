//! Translating a platform into network resources, once for both backends.
//!
//! [`PlatformImage`] is the immutable, shareable plan of a platform that
//! both network backends read: the flow kernel registers its resources as
//! kernel links ([`PlatformImage::instantiate`]), and the packet network
//! makes one channel per resource. It owns every decision the two used to
//! make separately:
//!
//! * which resources a platform link becomes, and their names;
//! * host speeds and resource bandwidth/latency under an optional
//!   [`PlatformPerturbation`] — the only place its factors are applied;
//! * the resources a host-pair route crosses, interned as one
//!   `Arc<[LinkId]>` shared by every run of either backend, in a row per
//!   source host that is allocated when that source is first routed and
//!   read without a lock.
//!
//! Built once per platform (see [`crate::RoutedPlatform::image`]) and
//! shared by every run, worker thread and scenario via `Arc`.
//!
//! Sharing policies map as follows:
//!
//! * `Shared` — one resource `l`, used by both directions (they contend);
//! * `SplitDuplex` — two resources `l:up` / `l:down`, each with the link's
//!   full capacity, selected by the hop's traversal direction;
//! * `FatPipe` — one resource `l`, un-contended.
//!
//! Resource `k` is `LinkId::from_index(k)` and host `h` is
//! `HostId::from_index(h)`: a fresh [`Simulation`] allocates ids in
//! creation order, which [`PlatformImage::instantiate`] asserts.

use std::sync::{Arc, OnceLock};

use surf_sim::{HostId, LinkId, Simulation};

use crate::perturb::PlatformPerturbation;
use crate::routing::RoutedPlatform;
use crate::spec::{Dir, HostIx, SharingPolicy};

/// Per-platform-link resources.
#[derive(Debug, Clone, Copy)]
enum LinkImage {
    /// One resource for both directions.
    Single(LinkId),
    /// Forward (`up`) and reverse (`down`) resources.
    Duplex(LinkId, LinkId),
}

/// Nominal parameters of one resource, in resource-id order.
#[derive(Debug, Clone, Copy)]
struct Resource {
    /// Nominal bandwidth, bytes/s.
    bandwidth: f64,
    /// Nominal latency, seconds.
    latency: f64,
    /// `false` for fat pipes (un-contended).
    contended: bool,
    /// The platform link this resource serves (perturbation factors are
    /// indexed by platform link).
    platform_link: usize,
}

/// The immutable, shareable translation of a platform into network
/// resources.
///
/// `Send + Sync`: the only state filled after construction is the route
/// store, write-once per host pair and shared by design — a route
/// translated by one worker is free for every other worker of a sweep.
#[derive(Debug)]
pub struct PlatformImage {
    host_speeds: Vec<f64>,
    resources: Vec<Resource>,
    links: Vec<LinkImage>,
    names: Vec<String>,
    /// `routes[src][dst]`: the resources from host `src` to host `dst`.
    /// A source's row is allocated when it is first routed, so memory is
    /// O(sources routed × hosts).
    routes: Box<[OnceLock<RouteRow>]>,
}

/// One source host's translated routes, by destination host.
type RouteRow = Box<[OnceLock<Arc<[LinkId]>>]>;

impl PlatformImage {
    /// Computes the resources of `rp`, their parameters and names.
    pub(crate) fn build(rp: &RoutedPlatform) -> Self {
        let p = rp.platform();
        let mut resources = Vec::new();
        let mut names = Vec::new();
        let links = p
            .links()
            .iter()
            .enumerate()
            .map(|(ix, l)| {
                let mut add = |suffix: Option<&str>, contended: bool| {
                    let id = LinkId::from_index(resources.len());
                    resources.push(Resource {
                        bandwidth: l.bandwidth,
                        latency: l.latency,
                        contended,
                        platform_link: ix,
                    });
                    names.push(match suffix {
                        Some(s) => format!("{}:{}", l.name, s),
                        None => l.name.clone(),
                    });
                    id
                };
                match l.policy {
                    SharingPolicy::Shared => LinkImage::Single(add(None, true)),
                    SharingPolicy::SplitDuplex => {
                        LinkImage::Duplex(add(Some("up"), true), add(Some("down"), true))
                    }
                    SharingPolicy::FatPipe => LinkImage::Single(add(None, false)),
                }
            })
            .collect();

        PlatformImage {
            host_speeds: p.host_indices().map(|h| p.host_speed(h)).collect(),
            resources,
            links,
            names,
            routes: p.host_indices().map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.host_speeds.len()
    }

    /// Number of resources (ids `0..num_resources()`).
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Kernel host id of platform host `h`.
    pub fn host(&self, h: HostIx) -> HostId {
        HostId::from_index(h.0 as usize)
    }

    /// Compute speed of host `h`, flop/s, scaled by `perturb`'s factor when
    /// given.
    pub fn host_speed(&self, h: HostIx, perturb: Option<&PlatformPerturbation>) -> f64 {
        let h = h.0 as usize;
        self.host_speeds[h] * perturb.map_or(1.0, |p| p.host_factor(h))
    }

    /// `(bandwidth, latency)` of resource `k` in bytes/s and seconds, scaled
    /// by `perturb`'s factors for its platform link when given. Both
    /// resources of a `SplitDuplex` link share the link's factors: jitter
    /// models the physical link, not a direction.
    pub fn resource(&self, k: usize, perturb: Option<&PlatformPerturbation>) -> (f64, f64) {
        let r = &self.resources[k];
        let (fb, fl) = perturb.map_or((1.0, 1.0), |p| {
            (
                p.bandwidth_factor(r.platform_link),
                p.latency_factor(r.platform_link),
            )
        });
        (r.bandwidth * fb, r.latency * fl)
    }

    /// `false` when resource `k` is a fat pipe (never contended).
    pub fn is_contended(&self, k: usize) -> bool {
        self.resources[k].contended
    }

    /// Human names of the resources, indexed by resource id: a
    /// `SplitDuplex` link `l` is `l:up` and `l:down`, every other link keeps
    /// its name. Both backends label contention attribution with these.
    pub fn resource_names(&self) -> &[String] {
        &self.names
    }

    /// Resource ids along the route from `src` to `dst`, translated on the
    /// pair's first request and interned in the shared store: every later
    /// request, from any run or thread, reads the same `Arc` without a
    /// lock (route translation is on the per-message hot path).
    pub fn route(&self, rp: &RoutedPlatform, src: HostIx, dst: HostIx) -> &Arc<[LinkId]> {
        let row = self.routes[src.0 as usize]
            .get_or_init(|| (0..self.num_hosts()).map(|_| OnceLock::new()).collect());
        row[dst.0 as usize].get_or_init(|| {
            rp.route(src, dst)
                .into_iter()
                .map(|hop| match self.links[hop.link.0 as usize] {
                    LinkImage::Single(id) => id,
                    LinkImage::Duplex(up, down) => match hop.dir {
                        Dir::Forward => up,
                        Dir::Reverse => down,
                    },
                })
                .collect()
        })
    }

    /// One-way latency of a control message of `header_bytes` from `src` to
    /// `dst`: each resource's latency plus the header's serialization on
    /// it. Always nominal — perturbation models data-plane variability.
    pub fn control_latency(
        &self,
        rp: &RoutedPlatform,
        src: HostIx,
        dst: HostIx,
        header_bytes: f64,
    ) -> f64 {
        self.route(rp, src, dst)
            .iter()
            .map(|k| {
                let r = &self.resources[k.index()];
                r.latency + header_bytes / r.bandwidth
            })
            .sum()
    }

    /// Creates every host and resource of the image inside the fresh
    /// simulation `sim`, scaled by `perturb` when given. The overlay must
    /// already be validated against the platform (see
    /// [`PlatformPerturbation::validate`]).
    pub fn instantiate(&self, sim: &mut Simulation, perturb: Option<&PlatformPerturbation>) {
        for h in 0..self.num_hosts() {
            let h = HostIx(h as u32);
            let id = sim.add_host(self.host_speed(h, perturb));
            debug_assert_eq!(id, self.host(h), "instantiated into a used simulation");
        }
        for k in 0..self.num_resources() {
            let (bandwidth, latency) = self.resource(k, perturb);
            let id = sim.add_link(bandwidth, latency);
            debug_assert_eq!(id.index(), k, "instantiated into a used simulation");
            if !self.is_contended(k) {
                sim.set_link_contended(id, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{flat_cluster, ClusterConfig};
    use crate::spec::Platform;
    use surf_sim::TransferModel;

    /// A fresh simulation holding `rp`'s nominal resources.
    fn instantiated(rp: &RoutedPlatform) -> Simulation {
        let mut sim = Simulation::new();
        rp.image().instantiate(&mut sim, None);
        sim
    }

    #[test]
    fn materialized_cluster_simulates_a_transfer() {
        let rp = RoutedPlatform::new(flat_cluster("c", 2, &ClusterConfig::default()));
        let mut sim = instantiated(&rp);
        assert_eq!(rp.image().num_hosts(), 2);
        let route = rp.image().route(&rp, HostIx(0), HostIx(1));
        assert_eq!(route.len(), 2);
        sim.start_transfer(route, 125e6, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        // Two 50 µs links then 1 s at 125 MB/s.
        assert!((t.as_secs() - (100e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn route_store_returns_identical_routes() {
        let rp = RoutedPlatform::new(flat_cluster("c", 3, &ClusterConfig::default()));
        let r1 = rp.image().route(&rp, HostIx(0), HostIx(2));
        let r2 = rp.image().route(&rp, HostIx(0), HostIx(2));
        assert!(Arc::ptr_eq(r1, r2));
    }

    #[test]
    fn concurrent_readers_share_every_route() {
        // Four threads resolve every gdx pair through one image; each pair
        // must be one `Arc`, equal to what one thread on a fresh platform
        // resolves.
        let rp = RoutedPlatform::new(crate::cluster::gdx());
        let hosts = rp.platform().num_hosts() as u32;
        let pairs = || (0..hosts).flat_map(|a| (0..hosts).map(move |b| (HostIx(a), HostIx(b))));
        let resolved: Vec<Vec<Arc<[LinkId]>>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        pairs()
                            .map(|(a, b)| Arc::clone(rp.image().route(&rp, a, b)))
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let alone = RoutedPlatform::new(crate::cluster::gdx());
        for (i, (a, b)) in pairs().enumerate() {
            assert_eq!(resolved[0][i], *alone.image().route(&alone, a, b));
            for other in &resolved[1..] {
                assert!(Arc::ptr_eq(&resolved[0][i], &other[i]), "{a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn image_is_shared_across_materializations() {
        let rp = RoutedPlatform::new(flat_cluster("c", 3, &ClusterConfig::default()));
        let image = Arc::clone(rp.image());
        // Same Arc: one plan, one route store, many runs.
        assert!(Arc::ptr_eq(&image, rp.clone().image()));
        // Ids agree across simulations (deterministic allocation).
        let (mut a, mut b) = (Simulation::new(), Simulation::new());
        image.instantiate(&mut a, None);
        image.instantiate(&mut b, None);
        let route = image.route(&rp, HostIx(0), HostIx(1));
        a.start_transfer(route, 1e6, &TransferModel::ideal());
        b.start_transfer(route, 1e6, &TransferModel::ideal());
        assert_eq!(
            a.advance_to_next().unwrap().0,
            b.advance_to_next().unwrap().0
        );
    }

    #[test]
    fn perturbed_instantiation_scales_parameters() {
        // Two hosts over one shared link at 100 B/s; a 0.5x bandwidth
        // factor makes a 1000 B transfer take twice as long.
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let n0 = p.host_node(h0);
        let n1 = p.host_node(h1);
        p.link_between(n0, n1, "wire", 100.0, 0.0, SharingPolicy::Shared);
        let rp = RoutedPlatform::new(p);

        let mut perturb = PlatformPerturbation::identity(rp.platform());
        perturb.link_bandwidth[0] = 0.5;
        perturb.host_speed[1] = 2.0;
        assert_eq!(rp.image().resource(0, Some(&perturb)), (50.0, 0.0));
        assert_eq!(rp.image().host_speed(HostIx(1), Some(&perturb)), 2e9);
        let mut sim = Simulation::new();
        rp.image().instantiate(&mut sim, Some(&perturb));
        let route = rp.image().route(&rp, HostIx(0), HostIx(1));
        sim.start_transfer(route, 1000.0, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        assert!((t.as_secs() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn identity_perturbation_is_bit_exact() {
        let rp = RoutedPlatform::new(flat_cluster("c", 4, &ClusterConfig::default()));
        let ident = PlatformPerturbation::identity(rp.platform());
        let mut sim_a = instantiated(&rp);
        let mut sim_b = Simulation::new();
        rp.image().instantiate(&mut sim_b, Some(&ident));
        let route = rp.image().route(&rp, HostIx(0), HostIx(3));
        sim_a.start_transfer(route, 12345.0, &TransferModel::default_affine());
        sim_b.start_transfer(route, 12345.0, &TransferModel::default_affine());
        let (ta, _) = sim_a.advance_to_next().unwrap();
        let (tb, _) = sim_b.advance_to_next().unwrap();
        assert_eq!(ta.as_secs().to_bits(), tb.as_secs().to_bits());
    }

    #[test]
    fn control_latency_is_nominal_and_charges_the_header_per_hop() {
        let rp = RoutedPlatform::new(flat_cluster("c", 2, &ClusterConfig::default()));
        let image = rp.image();
        let (a, b) = (HostIx(0), HostIx(1));
        assert_eq!(
            image.control_latency(&rp, a, b, 0.0).to_bits(),
            rp.latency(a, b).to_bits()
        );
        // Two 125 MB/s hops: 1250 header bytes cost 10 µs each.
        let with_header = image.control_latency(&rp, a, b, 1250.0);
        assert!((with_header - rp.latency(a, b) - 20e-6).abs() < 1e-15);
    }

    #[test]
    fn split_duplex_directions_do_not_contend() {
        // Two hosts joined by one split-duplex link: simultaneous transfers
        // in opposite directions each get the full bandwidth.
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let n0 = p.host_node(h0);
        let n1 = p.host_node(h1);
        p.link_between(n0, n1, "wire", 100.0, 0.0, SharingPolicy::SplitDuplex);
        let rp = RoutedPlatform::new(p);
        let mut sim = instantiated(&rp);
        let fwd = rp.image().route(&rp, HostIx(0), HostIx(1));
        let rev = rp.image().route(&rp, HostIx(1), HostIx(0));
        assert_ne!(fwd, rev, "directions must map to distinct resources");
        sim.start_transfer(fwd, 1000.0, &TransferModel::ideal());
        sim.start_transfer(rev, 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert!((t.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn split_duplex_same_direction_contends() {
        // Three hosts on a star; two flows *into* the same destination share
        // its down-link.
        let rp = RoutedPlatform::new(flat_cluster(
            "c",
            3,
            &ClusterConfig {
                link_bandwidth: 100.0,
                link_latency: 0.0,
                ..ClusterConfig::default()
            },
        ));
        let mut sim = instantiated(&rp);
        let r1 = rp.image().route(&rp, HostIx(1), HostIx(0));
        let r2 = rp.image().route(&rp, HostIx(2), HostIx(0));
        sim.start_transfer(r1, 1000.0, &TransferModel::ideal());
        sim.start_transfer(r2, 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        // Both contend on host 0's incoming channel: 50 B/s each.
        assert!((t.as_secs() - 20.0).abs() < 1e-9);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn kernel_link_names_follow_materialization_order() {
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let n0 = p.host_node(h0);
        let n1 = p.host_node(h1);
        p.link_between(n0, n1, "shared", 100.0, 0.0, SharingPolicy::Shared);
        p.link_between(n0, n1, "duplex", 100.0, 0.0, SharingPolicy::SplitDuplex);
        p.link_between(n0, n1, "fat", 100.0, 0.0, SharingPolicy::FatPipe);
        let rp = RoutedPlatform::new(p);
        let image = rp.image();
        assert_eq!(
            image.resource_names(),
            ["shared", "duplex:up", "duplex:down", "fat"]
        );
        let contended: Vec<bool> = (0..image.num_resources())
            .map(|k| image.is_contended(k))
            .collect();
        assert_eq!(contended, [true, true, true, false]);
    }

    #[test]
    fn fatpipe_links_do_not_contend() {
        let mut p = Platform::new();
        let h0 = p.add_host("h0", 1e9);
        let h1 = p.add_host("h1", 1e9);
        let n0 = p.host_node(h0);
        let n1 = p.host_node(h1);
        p.link_between(n0, n1, "fat", 100.0, 0.0, SharingPolicy::FatPipe);
        let rp = RoutedPlatform::new(p);
        let mut sim = instantiated(&rp);
        let route = rp.image().route(&rp, HostIx(0), HostIx(1));
        sim.start_transfer(route, 1000.0, &TransferModel::ideal());
        sim.start_transfer(route, 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert!((t.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(done.len(), 2);
    }
}
