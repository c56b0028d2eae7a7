//! `coll_scale`: the paper's "large instance on one node" — 1 024 ranks of
//! small collectives, where thread-per-rank baton handoff dominates.

use std::sync::Arc;

use smpi::RunReport;

use super::{exact_counts, record_traced_run, timed, Calibrated, Cx, Rep, Workload};
use crate::metrics::Layers;
use crate::probes;
use crate::spans::Spans;
use crate::stats::Lcg;

struct CollInput {
    ranks: usize,
    rounds: usize,
    /// Each rank's contribution: small integers, so the reduction is exact
    /// in f64 whatever order the allreduce tree adds them in.
    values: Vec<[f64; 3]>,
    /// Per-rank compute burst per round. Explicit flops, never `sample_*`:
    /// host-timed sampling would make simulated time irreproducible.
    flops: Vec<f64>,
}

pub struct CollScale {
    cal: Calibrated,
    input: Arc<CollInput>,
}

impl CollScale {
    fn run(&self, metrics: bool) -> (RunReport<[f64; 3]>, f64) {
        let input = Arc::clone(&self.input);
        let world = self.cal.world().metrics(metrics);
        timed(|| {
            world.run(self.input.ranks, move |ctx| {
                let comm = ctx.world();
                let [a, b, c] = input.values[ctx.rank()];
                let mut acc = [0.0; 3];
                for round in 0..input.rounds {
                    ctx.compute(input.flops[ctx.rank()]);
                    let sum = ctx.allreduce(&[a + round as f64, b, c], &smpi::op::sum(), &comm);
                    for (acc, s) in acc.iter_mut().zip(&sum) {
                        *acc += s;
                    }
                }
                ctx.barrier(&comm);
                acc
            })
        })
    }

    fn check(&self, report: &RunReport<[f64; 3]>, wall_s: f64) -> Rep {
        let CollInput {
            ranks,
            rounds,
            values,
            ..
        } = &*self.input;
        let (p, n) = (*ranks as f64, *rounds as f64);
        let total = |j: usize| values.iter().map(|v| v[j]).sum::<f64>();
        // Σ over rounds k of (Σa + k·P, Σb, Σc).
        let want = [
            n * total(0) + p * n * (n - 1.0) / 2.0,
            n * total(1),
            n * total(2),
        ];
        Rep::checked(
            wall_s,
            exact_counts(&report.profile),
            &[(
                report.results.iter().all(|got| *got == want),
                "allreduce sums differ from the closed form",
            )],
        )
    }
}

impl Workload for CollScale {
    fn setup(cx: &Cx) -> Self {
        let (ranks, rounds) = if cx.quick { (128, 1) } else { (1024, 1) };
        let mut g = Lcg::new(cx.seed, 2);
        CollScale {
            cal: Calibrated::griffon(),
            input: Arc::new(CollInput {
                ranks,
                rounds,
                values: (0..ranks)
                    .map(|_| {
                        [
                            g.below(1000) as f64,
                            g.below(1000) as f64,
                            g.below(1000) as f64,
                        ]
                    })
                    .collect(),
                flops: (0..ranks).map(|_| 1e5 * (0.5 + g.unit())).collect(),
            }),
        }
    }

    fn rep(&mut self) -> Rep {
        let (report, wall_s) = self.run(false);
        self.check(&report, wall_s)
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let (report, traced_s) = spans.scope("world.run", |_| self.run(true));
        record_traced_run(&report.profile, traced_s, typical, layers);
        probes::simix_handoff(spans, layers);
        self.check(&report, traced_s)
    }
}
