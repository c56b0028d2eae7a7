//! The work ledger: exact counts of what the simulator did, which a noisy
//! host cannot blur. A count that rises is a regression; one that falls is
//! a change to re-pin on purpose.
//!
//! This cell holds the flow kernel's solver counters (`KernelProfile`) on
//! four shapes that use it four ways:
//!
//! * `churn` — 500 independent links with two flows each and a seed-chosen
//!   replacement per completion: every component is one route class, rated
//!   in closed form, so nothing fills and nothing is timed;
//! * `collective` — the 1 024-rank allreduce + barrier of
//!   `online_scale.rs`, on the 61-host flat cluster;
//! * `coupled` — 1 024 four-hop flows over 8 shared uplinks, drained, in a
//!   round of route-equivalent pairs and a round of distinct routes and
//!   sizes: contention decides nearly every component;
//! * `bounded` — 500 links with two flows of different rate bounds that
//!   together stay under the link: each two-class component is handed to
//!   the solver, which returns the bounds without filling.
//!
//! Every counter but `timed_solves` and the two filling counters reads
//! what it read while the solver still filled every component (and timed
//! every one); so does the simulated time.

use std::sync::Arc;

use smpi_suite::obs::KernelProfile;
use smpi_suite::platform::{flat_cluster, ClusterConfig, RoutedPlatform};
use smpi_suite::smpi::World;
use smpi_suite::surf::{Simulation, TransferModel};

/// One shape's exact counters.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    reshares: u64,
    classes_folded: u64,
    batched_completions: u64,
    /// Dirty components, and the variables they held.
    components: u64,
    component_vars: u64,
    /// Actions re-rated.
    rerated: u64,
    /// Components handed to the solver (each is timed).
    timed_solves: u64,
    fillings: u64,
    filling_rounds: u64,
    sim_time_bits: u64,
}

impl Row {
    fn new(k: &KernelProfile, sim_time: f64) -> Self {
        Row {
            reshares: k.reshares,
            classes_folded: k.classes_folded,
            batched_completions: k.batched_completions,
            components: k.component_vars.count,
            component_vars: k.component_vars.sum as u64,
            rerated: k.cascade.sum as u64,
            timed_solves: k.solve_ns.count,
            fillings: k.fillings,
            filling_rounds: k.filling_rounds,
            sim_time_bits: sim_time.to_bits(),
        }
    }
}

/// A 64-bit LCG; `draw(n)` is uniform enough below `n` for input sizes.
struct Lcg(u64);

impl Lcg {
    fn draw(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

fn churn() -> Row {
    const LINKS: usize = 500;
    const COMPLETIONS: usize = 4000;
    let mut sim = Simulation::new();
    let links: Vec<_> = (0..LINKS).map(|_| sim.add_link(1e9, 1e-5)).collect();
    let model = TransferModel::ideal();
    let mut g = Lcg(7);
    for &l in &links {
        for _ in 0..2 {
            sim.start_transfer(&[l], 1e3 + g.draw(1_000_000) as f64, &model);
        }
    }
    let mut completions = 0;
    while completions < COMPLETIONS {
        let (_, done) = sim.advance_to_next().expect("every completion is replaced");
        for _ in &done {
            let l = links[g.draw(LINKS as u64) as usize];
            sim.start_transfer(&[l], 1e3 + g.draw(1_000_000) as f64, &model);
        }
        completions += done.len();
    }
    Row::new(&sim.kernel_profile(), sim.now().as_secs())
}

fn collective() -> Row {
    let rp = Arc::new(RoutedPlatform::new(flat_cluster(
        "n",
        61,
        &ClusterConfig::default(),
    )));
    let world = World::smpi(rp, TransferModel::default_affine());
    let report = world.run(1024, |ctx| {
        let comm = ctx.world();
        let sum = ctx.allreduce(&[ctx.rank() as f64], &smpi_suite::smpi::op::sum(), &comm);
        ctx.barrier(&comm);
        sum[0]
    });
    assert!(report
        .results
        .iter()
        .all(|&s| s == (1023 * 1024 / 2) as f64));
    let kernel = report.profile.kernel.as_ref().expect("surf counts always");
    Row::new(kernel, report.sim_time)
}

fn coupled() -> Row {
    const HOSTS: usize = 1024;
    const UPLINKS: usize = 8;
    let mut sim = Simulation::new();
    let private: Vec<_> = (0..HOSTS).map(|_| sim.add_link(125e6, 5e-5)).collect();
    let uplinks: Vec<_> = (0..UPLINKS).map(|_| sim.add_link(1.25e9, 1e-5)).collect();
    let model = TransferModel::ideal();
    let per_group = HOSTS / UPLINKS;
    let mut g = Lcg(5);
    for round in 0..2 {
        // Half a group past one or two whole groups: a route's two uplinks
        // always differ.
        let shift = per_group * (1 + round) + per_group / 2;
        for flow in 0..HOSTS {
            // Round 0: pairs of one route and one size (they fold); round 1:
            // distinct routes and sizes.
            let (src, bytes) = if round == 0 {
                (flow & !1, 1.5e6)
            } else {
                (flow, 1e5 + g.draw(4_000_000) as f64)
            };
            let dst = (src + shift) % HOSTS;
            let route = [
                private[src],
                uplinks[src / per_group],
                uplinks[dst / per_group],
                private[dst],
            ];
            sim.start_transfer(&route, bytes, &model);
        }
        while sim.advance_to_next().is_some() {}
    }
    Row::new(&sim.kernel_profile(), sim.now().as_secs())
}

fn bounded() -> Row {
    let mut sim = Simulation::new();
    let models = [
        TransferModel::affine(1.0, 0.3),
        TransferModel::affine(1.0, 0.45),
    ];
    let mut g = Lcg(11);
    for _ in 0..500 {
        let l = sim.add_link(1e9, 1e-5);
        for model in &models {
            sim.start_transfer(&[l], 1e3 + g.draw(1_000_000) as f64, model);
        }
    }
    while sim.advance_to_next().is_some() {}
    Row::new(&sim.kernel_profile(), sim.now().as_secs())
}

#[test]
fn solver_counters_are_pinned() {
    let pinned = [
        (
            "churn",
            churn(),
            Row {
                reshares: 7982,
                classes_folded: 12163,
                batched_completions: 2,
                components: 7194,
                component_vars: 7194,
                rerated: 19357,
                timed_solves: 0,
                fillings: 0,
                filling_rounds: 0,
                sim_time_bits: 4573323036725881524,
            },
        ),
        (
            "collective",
            collective(),
            Row {
                reshares: 3191,
                classes_folded: 87828,
                batched_completions: 14127,
                components: 5859,
                component_vars: 31342,
                rerated: 119170,
                timed_solves: 4211,
                fillings: 4211,
                filling_rounds: 13379,
                sim_time_bits: 4566790344325311481,
            },
        ),
        (
            "coupled",
            coupled(),
            Row {
                reshares: 1027,
                classes_folded: 512,
                batched_completions: 1023,
                components: 1025,
                component_vars: 525147,
                rerated: 525659,
                timed_solves: 1023,
                fillings: 1023,
                filling_rounds: 5707,
                sim_time_bits: 4605033731023671884,
            },
        ),
        (
            "bounded",
            bounded(),
            Row {
                reshares: 1001,
                classes_folded: 0,
                batched_completions: 0,
                components: 1000,
                component_vars: 1500,
                rerated: 1500,
                timed_solves: 500,
                fillings: 0,
                filling_rounds: 0,
                sim_time_bits: 4569847238738040058,
            },
        ),
    ];
    for (name, got, want) in pinned {
        assert_eq!(got, want, "{name}");
    }
}
