//! Materializing a platform into the flow-level SURF kernel.
//!
//! Split into two layers so that many concurrent runs can share one parsed
//! platform (the unlock for parallel replication sweeps and a persistent
//! simulation service):
//!
//! * [`PlatformImage`] — the *immutable, shareable* kernel-side plan of a
//!   platform: host speeds, per-kernel-link parameters, the platform-link →
//!   kernel-link mapping, kernel link names, and a thread-safe memoized
//!   route-translation cache. Built once per platform (see
//!   [`crate::RoutedPlatform::image`]) and shared by every run, worker
//!   thread and scenario via `Arc`.
//! * [`Materialized`] — the *per-run* handle: instantiates the image's
//!   hosts and links inside one private [`Simulation`], optionally applying
//!   a [`PlatformPerturbation`] overlay (multiplicative bandwidth/latency/
//!   speed factors), and resolves routes through the shared image cache.
//!
//! Kernel ids are allocated deterministically (creation order), so ids
//! precomputed in the image are valid in every freshly instantiated
//! simulation — asserted at instantiation time.
//!
//! Sharing policies map as follows:
//!
//! * `Shared` — one kernel link, used by both directions (they contend);
//! * `SplitDuplex` — two kernel links (up/down), each with the link's full
//!   capacity, selected by the hop's traversal direction;
//! * `FatPipe` — one kernel link marked un-contended.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use surf_sim::{HostId, LinkId, Simulation};

use crate::perturb::PlatformPerturbation;
use crate::routing::RoutedPlatform;
use crate::spec::{Dir, HostIx, SharingPolicy};

/// Per-platform-link kernel image.
#[derive(Debug, Clone, Copy)]
enum LinkImage {
    /// One kernel link for both directions.
    Single(LinkId),
    /// Forward and reverse kernel links.
    Duplex(LinkId, LinkId),
}

/// Nominal parameters of one kernel link, in kernel-id order.
#[derive(Debug, Clone, Copy)]
struct KernelLink {
    /// Nominal bandwidth, bytes/s.
    bandwidth: f64,
    /// Nominal latency, seconds.
    latency: f64,
    /// `false` for fat pipes (un-contended).
    contended: bool,
    /// The platform link this kernel link serves (perturbation factors are
    /// indexed by platform link).
    platform_link: u32,
}

/// The immutable, shareable kernel-side plan of a platform.
///
/// `Send + Sync`: the only mutable state is the memoized route cache, which
/// is behind a mutex and shared by design — a route translated by one
/// worker is free for every other worker of a sweep.
#[derive(Debug)]
pub struct PlatformImage {
    host_ids: Vec<HostId>,
    host_speeds: Vec<f64>,
    kernel_links: Vec<KernelLink>,
    links: Vec<LinkImage>,
    names: Vec<String>,
    route_cache: RouteCache,
}

/// Memoized host-pair → kernel-link-id route translations, shared across
/// every simulation materialized from the same image.
type RouteCache = Mutex<HashMap<(HostIx, HostIx), Arc<[LinkId]>>>;

impl PlatformImage {
    /// Computes the kernel plan of `rp`: deterministic host/link kernel ids
    /// (derived from a throwaway simulation so the allocation rule lives in
    /// one place — the kernel itself), parameters, and names.
    pub fn build(rp: &RoutedPlatform) -> Self {
        let p = rp.platform();
        let mut probe = Simulation::new();
        let host_ids: Vec<HostId> = p
            .host_indices()
            .map(|h| probe.add_host(p.host_speed(h)))
            .collect();
        let host_speeds = p.host_indices().map(|h| p.host_speed(h)).collect();

        let mut kernel_links = Vec::new();
        let mut names = Vec::new();
        let links = p
            .links()
            .iter()
            .enumerate()
            .map(|(ix, l)| {
                let mut add = |suffix: Option<&str>, contended: bool| {
                    let id = probe.add_link(l.bandwidth, l.latency);
                    debug_assert_eq!(id.index(), kernel_links.len());
                    kernel_links.push(KernelLink {
                        bandwidth: l.bandwidth,
                        latency: l.latency,
                        contended,
                        platform_link: ix as u32,
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
                        let up = add(Some("up"), true);
                        let down = add(Some("down"), true);
                        LinkImage::Duplex(up, down)
                    }
                    SharingPolicy::FatPipe => LinkImage::Single(add(None, false)),
                }
            })
            .collect();

        PlatformImage {
            host_ids,
            host_speeds,
            kernel_links,
            links,
            names,
            route_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.host_ids.len()
    }

    /// Human names of the kernel links, indexed by kernel link id (the
    /// materialization creation order). `SplitDuplex` platform links
    /// materialize as two kernel links, named `<name>:up` and
    /// `<name>:down`; everything else keeps the platform link's name.
    /// Used to label contention attribution, which is recorded against
    /// kernel link indices.
    pub fn kernel_link_names(&self) -> &[String] {
        &self.names
    }

    /// Kernel link ids along the route from `src` to `dst`, memoized in the
    /// shared thread-safe cache (route translation is on the per-message
    /// hot path and host pairs repeat constantly).
    pub fn route(&self, rp: &RoutedPlatform, src: HostIx, dst: HostIx) -> Arc<[LinkId]> {
        if let Some(r) = self
            .route_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(src, dst))
        {
            return Arc::clone(r);
        }
        let route: Arc<[LinkId]> = rp
            .route(src, dst)
            .into_iter()
            .map(|hop| match self.links[hop.link.0 as usize] {
                LinkImage::Single(id) => id,
                LinkImage::Duplex(up, down) => match hop.dir {
                    Dir::Forward => up,
                    Dir::Reverse => down,
                },
            })
            .collect();
        self.route_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((src, dst), Arc::clone(&route));
        route
    }
}

/// The per-run kernel-side handle of a platform: one instantiation of a
/// shared [`PlatformImage`] inside one private [`Simulation`].
#[derive(Debug)]
pub struct Materialized {
    image: Arc<PlatformImage>,
}

impl Materialized {
    /// Creates every host and link of `rp` inside `sim` at nominal
    /// parameters (no perturbation).
    pub fn build(rp: &RoutedPlatform, sim: &mut Simulation) -> Self {
        Materialized::instantiate(Arc::clone(rp.image()), sim, None)
    }

    /// Creates every host and link of the image inside `sim`, scaling the
    /// nominal parameters by `perturb`'s factors when given. The overlay
    /// must already be validated against the platform (see
    /// [`PlatformPerturbation::validate`]).
    pub fn instantiate(
        image: Arc<PlatformImage>,
        sim: &mut Simulation,
        perturb: Option<&PlatformPerturbation>,
    ) -> Self {
        for (h, &speed) in image.host_speeds.iter().enumerate() {
            let f = perturb.map_or(1.0, |p| p.host_factor(h));
            let id = sim.add_host(speed * f);
            debug_assert_eq!(id, image.host_ids[h], "non-deterministic host ids");
        }
        for (k, l) in image.kernel_links.iter().enumerate() {
            let (fb, fl) = perturb.map_or((1.0, 1.0), |p| {
                (
                    p.bandwidth_factor(l.platform_link as usize),
                    p.latency_factor(l.platform_link as usize),
                )
            });
            let id = sim.add_link(l.bandwidth * fb, l.latency * fl);
            debug_assert_eq!(id.index(), k, "non-deterministic link ids");
            if !l.contended {
                sim.set_link_contended(id, false);
            }
        }
        Materialized { image }
    }

    /// The shared image this materialization instantiates.
    pub fn image(&self) -> &Arc<PlatformImage> {
        &self.image
    }

    /// Kernel host id of platform host `h`.
    pub fn host(&self, h: HostIx) -> HostId {
        self.image.host_ids[h.0 as usize]
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.image.num_hosts()
    }

    /// Kernel link names (see [`PlatformImage::kernel_link_names`]).
    pub fn kernel_link_names(&self, _rp: &RoutedPlatform) -> Vec<String> {
        self.image.kernel_link_names().to_vec()
    }

    /// Kernel link ids along the route from `src` to `dst` (memoized in the
    /// platform-wide shared cache).
    pub fn route(&self, rp: &RoutedPlatform, src: HostIx, dst: HostIx) -> Arc<[LinkId]> {
        self.image.route(rp, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{flat_cluster, ClusterConfig};
    use crate::spec::Platform;
    use surf_sim::TransferModel;

    #[test]
    fn materialized_cluster_simulates_a_transfer() {
        let rp = RoutedPlatform::new(flat_cluster("c", 2, &ClusterConfig::default()));
        let mut sim = Simulation::new();
        let m = Materialized::build(&rp, &mut sim);
        assert_eq!(m.num_hosts(), 2);
        let route = m.route(&rp, HostIx(0), HostIx(1));
        assert_eq!(route.len(), 2);
        sim.start_transfer(&route, 125e6, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        // Two 50 µs links then 1 s at 125 MB/s.
        assert!((t.as_secs() - (100e-6 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn route_cache_returns_identical_routes() {
        let rp = RoutedPlatform::new(flat_cluster("c", 3, &ClusterConfig::default()));
        let mut sim = Simulation::new();
        let m = Materialized::build(&rp, &mut sim);
        let r1 = m.route(&rp, HostIx(0), HostIx(2));
        let r2 = m.route(&rp, HostIx(0), HostIx(2));
        assert_eq!(r1, r2);
    }

    #[test]
    fn image_is_shared_across_materializations() {
        let rp = RoutedPlatform::new(flat_cluster("c", 3, &ClusterConfig::default()));
        let mut sim_a = Simulation::new();
        let mut sim_b = Simulation::new();
        let a = Materialized::build(&rp, &mut sim_a);
        let b = Materialized::build(&rp, &mut sim_b);
        // Same Arc: one plan, one route cache, many runs.
        assert!(Arc::ptr_eq(a.image(), b.image()));
        // Ids agree across simulations (deterministic allocation).
        assert_eq!(a.host(HostIx(1)), b.host(HostIx(1)));
        assert_eq!(
            a.route(&rp, HostIx(0), HostIx(1)),
            b.route(&rp, HostIx(0), HostIx(1))
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
        let mut sim = Simulation::new();
        let m = Materialized::instantiate(Arc::clone(rp.image()), &mut sim, Some(&perturb));
        let route = m.route(&rp, HostIx(0), HostIx(1));
        sim.start_transfer(&route, 1000.0, &TransferModel::ideal());
        let (t, _) = sim.advance_to_next().unwrap();
        assert!((t.as_secs() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn identity_perturbation_is_bit_exact() {
        let rp = RoutedPlatform::new(flat_cluster("c", 4, &ClusterConfig::default()));
        let ident = PlatformPerturbation::identity(rp.platform());
        let mut sim_a = Simulation::new();
        let mut sim_b = Simulation::new();
        let a = Materialized::build(&rp, &mut sim_a);
        let b = Materialized::instantiate(Arc::clone(rp.image()), &mut sim_b, Some(&ident));
        let route_a = a.route(&rp, HostIx(0), HostIx(3));
        let route_b = b.route(&rp, HostIx(0), HostIx(3));
        assert_eq!(route_a, route_b);
        sim_a.start_transfer(&route_a, 12345.0, &TransferModel::default_affine());
        sim_b.start_transfer(&route_b, 12345.0, &TransferModel::default_affine());
        let (ta, _) = sim_a.advance_to_next().unwrap();
        let (tb, _) = sim_b.advance_to_next().unwrap();
        assert_eq!(ta.as_secs().to_bits(), tb.as_secs().to_bits());
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
        let mut sim = Simulation::new();
        let m = Materialized::build(&rp, &mut sim);
        let fwd = m.route(&rp, HostIx(0), HostIx(1));
        let rev = m.route(&rp, HostIx(1), HostIx(0));
        assert_ne!(fwd, rev, "directions must map to distinct kernel links");
        sim.start_transfer(&fwd, 1000.0, &TransferModel::ideal());
        sim.start_transfer(&rev, 1000.0, &TransferModel::ideal());
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
        let mut sim = Simulation::new();
        let m = Materialized::build(&rp, &mut sim);
        let r1 = m.route(&rp, HostIx(1), HostIx(0));
        let r2 = m.route(&rp, HostIx(2), HostIx(0));
        sim.start_transfer(&r1, 1000.0, &TransferModel::ideal());
        sim.start_transfer(&r2, 1000.0, &TransferModel::ideal());
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
        let mut sim = Simulation::new();
        let m = Materialized::build(&rp, &mut sim);
        assert_eq!(
            m.kernel_link_names(&rp),
            vec!["shared", "duplex:up", "duplex:down", "fat"]
        );
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
        let mut sim = Simulation::new();
        let m = Materialized::build(&rp, &mut sim);
        let route = m.route(&rp, HostIx(0), HostIx(1));
        sim.start_transfer(&route, 1000.0, &TransferModel::ideal());
        sim.start_transfer(&route, 1000.0, &TransferModel::ideal());
        let (t, done) = sim.advance_to_next().unwrap();
        assert!((t.as_secs() - 10.0).abs() < 1e-9);
        assert_eq!(done.len(), 2);
    }
}
