//! `kernel_churn` and `kernel_coupled`: the flow kernel driven directly,
//! the same layer used two opposite ways. A surf change that helps one and
//! costs the other shows here.
//!
//! Set-up generates the inputs and builds the kernel's topology; the timed
//! section is the `advance_to_next` loop with the starts it triggers. Every
//! rep needs a fresh kernel, so reps after the first rebuild the topology
//! outside the timed section.

use std::time::Instant;

use surf_sim::{HostId, LinkId, Simulation, TransferModel};

use super::{overhead_pct, record_kernel, Cx, Rep, Workload, SIM_TIME_BITS};
use crate::metrics::Layers;
use crate::probes;
use crate::spans::Spans;
use crate::stats::Lcg;

/// What a kernel run leaves behind for checking and accounting.
struct KernelRun {
    wall_s: f64,
    completions: usize,
    sim: Simulation,
}

impl KernelRun {
    fn rep(&self, target: usize) -> Rep {
        Rep::checked(
            self.wall_s,
            vec![
                (SIM_TIME_BITS, self.sim.now().as_secs().to_bits()),
                ("completions", self.completions as u64),
            ],
            &[(
                self.completions == target,
                "completion count differs from the target",
            )],
        )
    }

    /// The kernel keeps its own counters whether or not anyone reads them,
    /// so the "traced" rep of a kernel workload is an ordinary rep read
    /// through `kernel_profile()`.
    fn account(&self, wall_s: f64, layers: &mut Layers) {
        record_kernel(&self.sim.kernel_profile(), layers);
        layers.set("core.sim_time_s", self.sim.now().as_secs());
        layers.set("surf.events_per_s", self.completions as f64 / wall_s);
        layers.set("obs.trace_overhead_pct", overhead_pct(self.wall_s, wall_s));
    }
}

/// 10 k independent one-variable components with continuous churn: every
/// completion starts a replacement on a seed-chosen resource. Heap and
/// lazy-update bookkeeping dominate; the LMM solver does not.
pub struct KernelChurn {
    pairs: usize,
    hosts: usize,
    target: usize,
    /// `(resource, work)` of each replacement in order; resources
    /// `< pairs` are links, the rest hosts.
    starts: Vec<(u32, f64)>,
    prepared: Option<ChurnKernel>,
}

struct ChurnKernel {
    sim: Simulation,
    links: Vec<LinkId>,
    cpus: Vec<HostId>,
}

impl KernelChurn {
    fn prepare(&self) -> ChurnKernel {
        let mut sim = Simulation::new();
        ChurnKernel {
            links: (0..self.pairs).map(|_| sim.add_link(1e9, 1e-5)).collect(),
            cpus: (0..self.hosts).map(|_| sim.add_host(1e9)).collect(),
            sim,
        }
    }

    fn run(&mut self) -> KernelRun {
        let ChurnKernel {
            mut sim,
            links,
            cpus,
        } = self.prepared.take().unwrap_or_else(|| self.prepare());
        let model = TransferModel::ideal();
        let start = |sim: &mut Simulation, resource: usize, work: f64| {
            match links.get(resource) {
                Some(&link) => sim.start_transfer(&[link], work, &model),
                None => sim.start_exec(cpus[resource - links.len()], work),
            };
        };
        let t = Instant::now();
        // Two actions on every resource, then one replacement per completion.
        let (initial, replacements) = self.starts.split_at(2 * (self.pairs + self.hosts));
        for (i, &(_, work)) in initial.iter().enumerate() {
            start(&mut sim, i / 2, work);
        }
        let mut replacements = replacements.iter();
        let mut completions = 0;
        while completions < self.target {
            let (_, done) = sim
                .advance_to_next()
                .expect("never drains: every completion is replaced");
            // The last batch may overshoot the target by a few same-tick
            // completions; count only what the input table covers.
            for &(resource, work) in replacements.by_ref().take(done.len()) {
                start(&mut sim, resource as usize, work);
                completions += 1;
            }
        }
        KernelRun {
            wall_s: t.elapsed().as_secs_f64(),
            completions,
            sim,
        }
    }
}

impl Workload for KernelChurn {
    fn setup(cx: &Cx) -> Self {
        let (pairs, hosts, target) = if cx.quick {
            (450, 50, 20_000)
        } else {
            (4500, 500, 75_000)
        };
        let mut g = Lcg::new(cx.seed, 4);
        let resources = pairs + hosts;
        let mut w = KernelChurn {
            pairs,
            hosts,
            target,
            starts: (0..2 * resources + target)
                .map(|_| (g.below(resources) as u32, 1e3 + g.below(1_000_000) as f64))
                .collect(),
            prepared: None,
        };
        w.prepared = Some(w.prepare());
        w
    }

    fn rep(&mut self) -> Rep {
        self.run().rep(self.target)
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let run = spans.scope("surf.advance_loop", |_| self.run());
        run.account(typical.wall_s, layers);
        run.rep(self.target)
    }
}

/// One giant coupled component: 1 024 hosts with private links behind 8
/// shared uplinks, rounds of 1 024 four-hop shifted flows drained to
/// empty. Component collection, problem build and solve dominate.
pub struct KernelCoupled {
    hosts: usize,
    /// Every flow's size, per round. Even rounds: one size, and flows in
    /// route-equivalent pairs (the class-folding precondition holds); odd
    /// rounds: seed-drawn sizes on distinct routes (the expanded path).
    rounds: Vec<Vec<f64>>,
    prepared: Option<CoupledKernel>,
}

struct CoupledKernel {
    sim: Simulation,
    private: Vec<LinkId>,
    uplinks: Vec<LinkId>,
}

const UPLINKS: usize = 8;

impl KernelCoupled {
    fn prepare(&self) -> CoupledKernel {
        let mut sim = Simulation::new();
        CoupledKernel {
            private: (0..self.hosts).map(|_| sim.add_link(125e6, 5e-5)).collect(),
            uplinks: (0..UPLINKS).map(|_| sim.add_link(1.25e9, 1e-5)).collect(),
            sim,
        }
    }

    fn run(&mut self) -> KernelRun {
        let CoupledKernel {
            mut sim,
            private,
            uplinks,
        } = self.prepared.take().unwrap_or_else(|| self.prepare());
        let model = TransferModel::ideal();
        let per_group = self.hosts / UPLINKS;
        let t = Instant::now();
        let mut completions = 0;
        for (round, sizes) in self.rounds.iter().enumerate() {
            // One to six whole groups plus half a group away, so the two
            // uplinks of a route always differ.
            let shift = per_group * (1 + round % (UPLINKS - 2)) + per_group / 2;
            for (flow, &bytes) in sizes.iter().enumerate() {
                let src = if round % 2 == 0 { flow & !1 } else { flow };
                let dst = (src + shift) % self.hosts;
                let route = [
                    private[src],
                    uplinks[src / per_group],
                    uplinks[dst / per_group],
                    private[dst],
                ];
                sim.start_transfer(&route, bytes, &model);
            }
            while let Some((_, done)) = sim.advance_to_next() {
                completions += done.len();
            }
        }
        KernelRun {
            wall_s: t.elapsed().as_secs_f64(),
            completions,
            sim,
        }
    }
}

impl Workload for KernelCoupled {
    fn setup(cx: &Cx) -> Self {
        let (hosts, rounds) = if cx.quick { (128, 2) } else { (1024, 2) };
        let mut g = Lcg::new(cx.seed, 5);
        let mut w = KernelCoupled {
            hosts,
            rounds: (0..rounds)
                .map(|round| {
                    if round % 2 == 0 {
                        vec![1e6 + g.below(1_000_000) as f64; hosts]
                    } else {
                        (0..hosts)
                            .map(|_| 1e5 + g.below(4_000_000) as f64)
                            .collect()
                    }
                })
                .collect(),
            prepared: None,
        };
        w.prepared = Some(w.prepare());
        w
    }

    fn rep(&mut self) -> Rep {
        self.run().rep(self.hosts * self.rounds.len())
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let run = spans.scope("surf.advance_loop", |_| self.run());
        run.account(typical.wall_s, layers);
        probes::lmm_solve(spans, layers);
        run.rep(self.hosts * self.rounds.len())
    }
}
