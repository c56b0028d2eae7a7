//! Figures 11–12: accuracy on the pairwise all-to-all.
//!
//! * Fig. 11 — per-process completion times, 16 processes, 4 MiB blocks,
//!   SMPI ±contention vs OpenMPI. The paper reports the contention-blind
//!   model underestimating by ~78% while the contention-aware SMPI is
//!   within a few percent.
//! * Fig. 12 — completion time vs block size, 16 processes.

use smpi::World;
use smpi_metrics::ErrorSummary;
use smpi_workloads::timed_alltoall;

use crate::common::{
    fast, griffon_rp, openmpi_world, secs, smpi_world, smpi_world_no_contention, Table,
};
use crate::fig_scatter::SizeSweep;

fn run_alltoall(world: &World, nranks: usize, chunk_elems: usize) -> Vec<f64> {
    world
        .run(nranks, move |ctx| timed_alltoall(ctx, chunk_elems))
        .results
}

/// Per-process all-to-all data (Fig. 11).
pub struct Fig11 {
    /// SMPI with contention.
    pub smpi: Vec<f64>,
    /// SMPI without contention.
    pub smpi_nc: Vec<f64>,
    /// OpenMPI personality (ground truth).
    pub openmpi: Vec<f64>,
}

impl Fig11 {
    /// Contention-aware accuracy.
    pub(crate) fn smpi_vs_openmpi(&self) -> ErrorSummary {
        ErrorSummary::compare(&self.smpi, &self.openmpi)
    }

    /// Contention-blind accuracy (the ~78% underestimation of the paper).
    pub(crate) fn nocontention_vs_openmpi(&self) -> ErrorSummary {
        ErrorSummary::compare(&self.smpi_nc, &self.openmpi)
    }

    /// Renders per-rank rows plus summaries.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["rank", "smpi(s)", "smpi-nocont(s)", "openmpi(s)"]);
        for r in 0..self.smpi.len() {
            t.row(vec![
                r.to_string(),
                secs(self.smpi[r]),
                secs(self.smpi_nc[r]),
                secs(self.openmpi[r]),
            ]);
        }
        format!(
            "# Fig. 11 — pairwise all-to-all, 16 procs, 4 MiB blocks (per process)\n{}\
             smpi vs openmpi       : {}\n\
             no-contention vs openmpi: {}\n",
            t.render(),
            self.smpi_vs_openmpi(),
            self.nocontention_vs_openmpi()
        )
    }
}

/// Runs Fig. 11 on 16 griffon nodes.
pub fn fig11() -> Fig11 {
    let rp = griffon_rp();
    let chunk = if fast() { 32 * 1024 } else { 512 * 1024 };
    let n = 16;
    Fig11 {
        smpi: run_alltoall(&smpi_world(rp.clone()), n, chunk),
        smpi_nc: run_alltoall(&smpi_world_no_contention(rp.clone()), n, chunk),
        openmpi: run_alltoall(&openmpi_world(rp), n, chunk),
    }
}

/// Runs Fig. 12 (size sweep, completion = slowest rank).
pub fn fig12() -> SizeSweep {
    let rp = griffon_rp();
    let n = 16;
    let max_pow = if fast() { 12 } else { 19 };
    let rows = (0..=max_pow)
        .map(|k| {
            let chunk = 1usize << k;
            let s = run_alltoall(&smpi_world(rp.clone()), n, chunk)
                .into_iter()
                .fold(0.0, f64::max);
            let o = run_alltoall(&openmpi_world(rp.clone()), n, chunk)
                .into_iter()
                .fold(0.0, f64::max);
            (chunk as u64 * 8, s, o)
        })
        .collect();
    SizeSweep {
        rows,
        title: "Fig. 12 — pairwise all-to-all time vs block size, 16 procs".into(),
    }
}
