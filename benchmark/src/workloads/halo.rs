//! `halo_p2p`: a point-to-point-heavy on-line run — the surf incremental
//! reshare workload *inside* the runtime. Also the program `replay_halo`
//! captures.

use std::sync::Arc;

use smpi::ctx::Ctx;
use smpi::{RunReport, World};

use super::{exact_counts, record_traced_run, timed, Calibrated, Cx, Rep, Workload};
use crate::metrics::Layers;
use crate::probes;
use crate::spans::Spans;
use crate::stats::Lcg;

/// Halo width in f64 elements (8 KiB messages: eager-size, real payload).
const WIDTH: usize = 1024;
/// Rows each rank owns; both are boundary rows, so every row's update
/// needs a received halo.
const ROWS: usize = 2;
/// Iterations between two residual `allreduce`s.
const REDUCE_EVERY: usize = 5;
const TAG_TO_DOWN: i32 = 0;
const TAG_TO_UP: i32 = 1;

/// The generated inputs of the stencil program.
pub struct HaloInput {
    pub ranks: usize,
    pub iters: usize,
    /// Initial field, `ranks × ROWS` rows of `WIDTH`.
    field: Vec<f64>,
    /// Per-rank compute burst per iteration (±10 % imbalance).
    flops: Vec<f64>,
}

impl HaloInput {
    pub fn generate(cx: &Cx) -> Arc<HaloInput> {
        let (ranks, iters) = if cx.quick { (32, 5) } else { (256, 10) };
        let mut g = Lcg::new(cx.seed, 1);
        Arc::new(HaloInput {
            ranks,
            iters,
            field: (0..ranks * ROWS * WIDTH).map(|_| g.unit()).collect(),
            flops: (0..ranks).map(|_| 2e6 * (0.9 + 0.2 * g.unit())).collect(),
        })
    }

    /// What every rank must return, computed without MPI: the checksum of
    /// each rank's block (same arithmetic in the same order, so bit-equal)
    /// and the last global residual sum.
    fn reference(&self) -> (Vec<f64>, f64) {
        let rows = self.ranks * ROWS;
        let mut cur = self.field.clone();
        let mut next = vec![0.0; cur.len()];
        let mut last_sum = 0.0;
        for it in 0..self.iters {
            for i in 0..rows {
                let above = &cur[(i + rows - 1) % rows * WIDTH..][..WIDTH];
                let below = &cur[(i + 1) % rows * WIDTH..][..WIDTH];
                let row = &cur[i * WIDTH..][..WIDTH];
                relax(above, row, below, &mut next[i * WIDTH..][..WIDTH]);
            }
            std::mem::swap(&mut cur, &mut next);
            if (it + 1) % REDUCE_EVERY == 0 {
                last_sum = cur.iter().sum();
            }
        }
        let sums = cur
            .chunks(ROWS * WIDTH)
            .map(|block| block.iter().sum())
            .collect();
        (sums, last_sum)
    }
}

/// One Jacobi row update, periodic in the column direction.
fn relax(above: &[f64], row: &[f64], below: &[f64], out: &mut [f64]) {
    for j in 0..WIDTH {
        let left = row[(j + WIDTH - 1) % WIDTH];
        let right = row[(j + 1) % WIDTH];
        out[j] = 0.25 * (above[j] + below[j] + left + right);
    }
}

/// One rank of the stencil program: returns its block checksum and the
/// last residual it saw.
pub fn halo_rank(ctx: &Ctx, input: &HaloInput) -> (f64, f64) {
    let (r, p) = (ctx.rank(), ctx.size());
    let comm = ctx.world();
    let (up, down) = ((r + p - 1) % p, (r + 1) % p);
    let mut block = input.field[r * ROWS * WIDTH..][..ROWS * WIDTH].to_vec();
    let mut next = vec![0.0; block.len()];
    let mut last_sum = 0.0;
    for it in 0..input.iters {
        let from_up = ctx.irecv::<f64>(up as i32, TAG_TO_DOWN, WIDTH, &comm);
        let from_down = ctx.irecv::<f64>(down as i32, TAG_TO_UP, WIDTH, &comm);
        let to_up = ctx.isend(&block[..WIDTH], up, TAG_TO_UP, &comm);
        let to_down = ctx.isend(&block[(ROWS - 1) * WIDTH..], down, TAG_TO_DOWN, &comm);
        ctx.compute(input.flops[r]);
        let (above, _) = ctx.wait_recv(from_up, &comm);
        let (below, _) = ctx.wait_recv(from_down, &comm);
        ctx.wait_all_sends(vec![to_up, to_down]);
        for i in 0..ROWS {
            let a = if i == 0 {
                &above[..]
            } else {
                &block[(i - 1) * WIDTH..][..WIDTH]
            };
            let b = if i == ROWS - 1 {
                &below[..]
            } else {
                &block[(i + 1) * WIDTH..][..WIDTH]
            };
            relax(
                a,
                &block[i * WIDTH..][..WIDTH],
                b,
                &mut next[i * WIDTH..][..WIDTH],
            );
        }
        std::mem::swap(&mut block, &mut next);
        if (it + 1) % REDUCE_EVERY == 0 {
            let mine: f64 = block.iter().sum();
            last_sum = ctx.allreduce(&[mine], &smpi::op::sum(), &comm)[0];
        }
    }
    (block.iter().sum(), last_sum)
}

/// Runs the stencil program on `world`; returns the report and the
/// wall-clock seconds the run took.
pub fn run_halo(world: &World, input: &Arc<HaloInput>) -> (RunReport<(f64, f64)>, f64) {
    let ranks = input.ranks;
    let input = Arc::clone(input);
    timed(|| world.run(ranks, move |ctx| halo_rank(ctx, &input)))
}

pub struct HaloP2p {
    cal: Calibrated,
    input: Arc<HaloInput>,
    reference: Option<(Vec<f64>, f64)>,
}

impl HaloP2p {
    fn run(&self, metrics: bool) -> (RunReport<(f64, f64)>, f64) {
        // The traced rep also records the event trace: the critical-path
        // export needs it.
        let world = self.cal.world().metrics(metrics).tracing(metrics);
        run_halo(&world, &self.input)
    }

    fn check(&mut self, report: &RunReport<(f64, f64)>, wall_s: f64) -> Rep {
        let input = &self.input;
        let (sums, last) = self.reference.get_or_insert_with(|| input.reference());
        let blocks_ok = report
            .results
            .iter()
            .zip(sums.iter())
            .all(|(got, want)| got.0.to_bits() == want.to_bits());
        let residual_ok = report
            .results
            .iter()
            .all(|got| (got.1 - *last).abs() <= 1e-9 * last.abs());
        Rep::checked(
            wall_s,
            exact_counts(&report.profile),
            &[
                (
                    blocks_ok,
                    "a rank's block differs from the serial reference",
                ),
                (
                    residual_ok,
                    "allreduce residual differs from the serial reference",
                ),
            ],
        )
    }
}

impl Workload for HaloP2p {
    fn setup(cx: &Cx) -> Self {
        HaloP2p {
            cal: Calibrated::griffon(),
            input: HaloInput::generate(cx),
            reference: None,
        }
    }

    fn rep(&mut self) -> Rep {
        let (report, wall_s) = self.run(false);
        self.check(&report, wall_s)
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let (report, traced_s) = spans.scope("world.run", |_| self.run(true));
        record_traced_run(&report.profile, traced_s, typical, layers);
        probes::exports(&report, spans, layers);
        probes::matching(spans, layers);
        self.check(&report, traced_s)
    }
}
