//! Ablation experiments beyond the paper's figures (DESIGN.md §10).
//!
//! * segment count sweep — why the paper settles on 3 segments;
//! * collective algorithm variants — binomial vs linear vs chain scatter
//!   (the §5.3 observation that "each variant \[is\] best in particular
//!   settings");
//! * contention model on/off across scales (how wrong the contention-blind
//!   model gets as communicators grow).

use smpi_calibrate::{fit_piecewise, predict};
use smpi_metrics::ErrorSummary;
use smpi_workloads::timed_scatter;

use crate::common::{
    calibration_route, calibration_samples, griffon_rp, openmpi_world, secs, smpi_world,
    smpi_world_no_contention, Table,
};

/// Accuracy of the piece-wise model as a function of segment count.
pub fn segment_sweep() -> String {
    let samples = calibration_samples();
    let route = calibration_route();
    let truth: Vec<f64> = samples.iter().map(|s| s.time).collect();
    let mut t = Table::new(&["segments", "avg-err(%)", "worst-err(%)"]);
    for k in 1..=4 {
        let model = fit_piecewise(samples, k, route);
        let e = ErrorSummary::compare(&predict(&model, samples, route), &truth);
        t.row(vec![
            k.to_string(),
            format!("{:.2}", e.mean * 100.0),
            format!("{:.2}", e.max * 100.0),
        ]);
    }
    format!(
        "# Ablation — segment count vs ping-pong accuracy\n{}",
        t.render()
    )
}

/// Completion time of the three scatter algorithms on the same workload,
/// under both the SMPI model and the OpenMPI personality.
pub fn scatter_variants() -> String {
    let rp = griffon_rp();
    let n = 16;
    let chunk = 128 * 1024; // 1 MiB chunks
    let mut t = Table::new(&["algorithm", "smpi(s)", "openmpi(s)"]);
    type Algo = (&'static str, fn(&smpi::Ctx, usize) -> f64);
    let algos: [Algo; 3] = [
        ("binomial", |ctx, chunk| timed_scatter(ctx, chunk)),
        ("linear", |ctx, chunk| {
            let comm = ctx.world();
            let p = ctx.size();
            let data: Option<Vec<f64>> = (ctx.rank() == 0).then(|| vec![0.0; p * chunk]);
            ctx.barrier(&comm);
            let t0 = ctx.wtime();
            let out = ctx.scatter_linear(data.as_deref(), chunk, 0, &comm);
            std::hint::black_box(&out);
            ctx.wtime() - t0
        }),
        ("chain", |ctx, chunk| {
            let comm = ctx.world();
            let p = ctx.size();
            let data: Option<Vec<f64>> = (ctx.rank() == 0).then(|| vec![0.0; p * chunk]);
            ctx.barrier(&comm);
            let t0 = ctx.wtime();
            let out = ctx.scatter_chain(data.as_deref(), chunk, 0, &comm);
            std::hint::black_box(&out);
            ctx.wtime() - t0
        }),
    ];
    for (name, algo) in algos {
        let s = smpi_world(rp.clone())
            .run(n, move |ctx| algo(ctx, chunk))
            .results
            .into_iter()
            .fold(0.0, f64::max);
        let o = openmpi_world(rp.clone())
            .run(n, move |ctx| algo(ctx, chunk))
            .results
            .into_iter()
            .fold(0.0, f64::max);
        t.row(vec![name.to_string(), secs(s), secs(o)]);
    }
    format!(
        "# Ablation — scatter algorithm variants (16 procs, 1 MiB chunks)\n{}",
        t.render()
    )
}

/// How badly the contention-blind model underestimates the pairwise
/// all-to-all as the communicator grows.
pub fn contention_scaling() -> String {
    let rp = griffon_rp();
    let chunk = 64 * 1024; // 512 KiB blocks
    let mut t = Table::new(&["procs", "with-contention(s)", "without(s)", "underestimate"]);
    for n in [2usize, 4, 8, 16] {
        let with = smpi_world(rp.clone())
            .run(n, move |ctx| smpi_workloads::timed_alltoall(ctx, chunk))
            .results
            .into_iter()
            .fold(0.0, f64::max);
        let without = smpi_world_no_contention(rp.clone())
            .run(n, move |ctx| smpi_workloads::timed_alltoall(ctx, chunk))
            .results
            .into_iter()
            .fold(0.0, f64::max);
        t.row(vec![
            n.to_string(),
            secs(with),
            secs(without),
            format!("{:.2}x", with / without),
        ]);
    }
    format!(
        "# Ablation — contention model vs communicator size (pairwise all-to-all)\n{}",
        t.render()
    )
}
