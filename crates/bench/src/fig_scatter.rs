//! Figures 7–9: accuracy of the contention-aware model on the binomial-tree
//! scatter.
//!
//! * Fig. 7 — per-process completion times, 16 processes, 4 MiB chunks,
//!   SMPI ±contention vs the OpenMPI and MPICH2 personalities;
//! * Fig. 8 — scatter completion time vs message size, 16 processes;
//! * Fig. 9 — scatter completion time vs process count, 4 MiB chunks.

use std::sync::Arc;

use smpi::World;
use smpi_metrics::ErrorSummary;
use smpi_platform::RoutedPlatform;
use smpi_workloads::timed_scatter;

use crate::common::{
    fast, griffon_rp, mpich2_world, openmpi_world, secs, smpi_world, smpi_world_no_contention, us,
    Table,
};

fn run_scatter(world: &World, nranks: usize, chunk_elems: usize) -> Vec<f64> {
    world
        .run(nranks, move |ctx| timed_scatter(ctx, chunk_elems))
        .results
}

fn completion(times: &[f64]) -> f64 {
    times.iter().copied().fold(0.0, f64::max)
}

/// Chunk of 4 MiB in f64 elements.
const CHUNK_4MIB: usize = 512 * 1024;

/// Per-process scatter data (Fig. 7).
pub struct Fig7 {
    /// Per-rank times for (SMPI, SMPI w/o contention, OpenMPI, MPICH2).
    pub smpi: Vec<f64>,
    /// Contention-blind baseline.
    pub smpi_nc: Vec<f64>,
    /// OpenMPI personality.
    pub openmpi: Vec<f64>,
    /// MPICH2 personality.
    pub mpich2: Vec<f64>,
}

impl Fig7 {
    /// SMPI-vs-MPICH2 error (the paper quotes ~5.3% average).
    pub(crate) fn smpi_vs_mpich2(&self) -> ErrorSummary {
        ErrorSummary::compare(&self.smpi, &self.mpich2)
    }

    /// OpenMPI-vs-MPICH2 implementation spread, the paper's yardstick.
    pub(crate) fn openmpi_vs_mpich2(&self) -> ErrorSummary {
        ErrorSummary::compare(&self.openmpi, &self.mpich2)
    }

    /// No-contention error vs MPICH2.
    pub(crate) fn nocontention_vs_mpich2(&self) -> ErrorSummary {
        ErrorSummary::compare(&self.smpi_nc, &self.mpich2)
    }

    /// Renders the per-rank table plus summaries.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "rank",
            "smpi(s)",
            "smpi-nocont(s)",
            "openmpi(s)",
            "mpich2(s)",
        ]);
        for r in 0..self.smpi.len() {
            t.row(vec![
                r.to_string(),
                secs(self.smpi[r]),
                secs(self.smpi_nc[r]),
                secs(self.openmpi[r]),
                secs(self.mpich2[r]),
            ]);
        }
        format!(
            "# Fig. 7 — binomial scatter, 16 procs, 4 MiB chunks (per process)\n{}\
             smpi vs mpich2      : {}\n\
             openmpi vs mpich2   : {}\n\
             no-contention vs mpich2: {}\n",
            t.render(),
            self.smpi_vs_mpich2(),
            self.openmpi_vs_mpich2(),
            self.nocontention_vs_mpich2()
        )
    }
}

/// Runs Fig. 7 on 16 griffon nodes.
pub fn fig7() -> Fig7 {
    let rp = griffon_rp();
    let chunk = if fast() { 64 * 1024 } else { CHUNK_4MIB };
    let n = 16;
    Fig7 {
        smpi: run_scatter(&smpi_world(rp.clone()), n, chunk),
        smpi_nc: run_scatter(&smpi_world_no_contention(rp.clone()), n, chunk),
        openmpi: run_scatter(&openmpi_world(rp.clone()), n, chunk),
        mpich2: run_scatter(&mpich2_world(rp), n, chunk),
    }
}

/// Fig. 8: completion time vs message (chunk) size, 16 processes.
pub struct SizeSweep {
    /// (bytes per chunk, smpi completion, openmpi completion).
    pub rows: Vec<(u64, f64, f64)>,
    /// Figure title.
    pub title: String,
}

impl SizeSweep {
    /// SMPI vs OpenMPI error across the sweep.
    pub(crate) fn summary(&self) -> ErrorSummary {
        let s: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        let o: Vec<f64> = self.rows.iter().map(|r| r.2).collect();
        ErrorSummary::compare(&s, &o)
    }

    /// Error restricted to sizes above `min_bytes` (the paper: "over 10 KiB
    /// is reasonably accurate").
    pub(crate) fn summary_above(&self, min_bytes: u64) -> ErrorSummary {
        let s: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.0 >= min_bytes)
            .map(|r| r.1)
            .collect();
        let o: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.0 >= min_bytes)
            .map(|r| r.2)
            .collect();
        ErrorSummary::compare(&s, &o)
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["bytes", "smpi(us)", "openmpi(us)"]);
        for &(b, s, o) in &self.rows {
            t.row(vec![b.to_string(), us(s), us(o)]);
        }
        format!(
            "# {}\n{}overall: {}\n>=10KiB: {}\n",
            self.title,
            t.render(),
            self.summary(),
            self.summary_above(10 * 1024)
        )
    }
}

fn sweep_sizes() -> Vec<usize> {
    // Chunk sizes in f64 elements: 8 B up to 4 MiB.
    let max_pow = if fast() { 14 } else { 19 };
    (0..=max_pow).map(|k| 1usize << k).collect()
}

/// Runs Fig. 8.
pub fn fig8() -> SizeSweep {
    let rp = griffon_rp();
    let n = 16;
    let rows = sweep_sizes()
        .into_iter()
        .map(|chunk| {
            let s = completion(&run_scatter(&smpi_world(rp.clone()), n, chunk));
            let o = completion(&run_scatter(&openmpi_world(rp.clone()), n, chunk));
            (chunk as u64 * 8, s, o)
        })
        .collect();
    SizeSweep {
        rows,
        title: "Fig. 8 — scatter time vs message size, 16 procs".into(),
    }
}

/// Fig. 9: completion time vs process count with fixed 4 MiB receive
/// buffers.
pub struct Fig9 {
    /// (procs, smpi, openmpi, mpich2).
    pub rows: Vec<(usize, f64, f64, f64)>,
}

impl Fig9 {
    /// SMPI vs OpenMPI error.
    pub(crate) fn summary(&self) -> ErrorSummary {
        let s: Vec<f64> = self.rows.iter().map(|r| r.1).collect();
        let o: Vec<f64> = self.rows.iter().map(|r| r.2).collect();
        ErrorSummary::compare(&s, &o)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["procs", "smpi(s)", "openmpi(s)", "mpich2(s)"]);
        for &(p, s, o, m) in &self.rows {
            t.row(vec![p.to_string(), secs(s), secs(o), secs(m)]);
        }
        format!(
            "# Fig. 9 — scatter vs process count, 4 MiB receive buffers\n{}smpi vs openmpi: {}\n",
            t.render(),
            self.summary()
        )
    }
}

/// Runs Fig. 9 over 4, 8, 16, 32 processes.
pub fn fig9() -> Fig9 {
    let rp: Arc<RoutedPlatform> = griffon_rp();
    let chunk = if fast() { 64 * 1024 } else { CHUNK_4MIB };
    let rows = [4usize, 8, 16, 32]
        .into_iter()
        .map(|n| {
            let s = completion(&run_scatter(&smpi_world(rp.clone()), n, chunk));
            let o = completion(&run_scatter(&openmpi_world(rp.clone()), n, chunk));
            let m = completion(&run_scatter(&mpich2_world(rp.clone()), n, chunk));
            (n, s, o, m)
        })
        .collect();
    Fig9 { rows }
}
