//! Figures 15–16: the NAS DT benchmark.
//!
//! * Fig. 15 — execution time of DT classes A and B, WH and BH variants:
//!   SMPI vs the OpenMPI personality. Expected shape: SMPI tracks OpenMPI
//!   and BH takes clearly longer than WH.
//! * Fig. 16 — per-process memory footprint of DT, classes A/B/C and all
//!   three graphs, with and without RAM folding; "OM" marks configurations
//!   that would not fit the host node's memory without folding.

use std::sync::Arc;

use smpi::World;
use smpi_metrics::ErrorSummary;
use smpi_workloads::dt::unfolded_bytes;
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};

use crate::common::{griffon_rp, mib, openmpi_world, secs, smpi_world, Table};
use smpi_platform::{flat_cluster, ClusterConfig, RoutedPlatform};

/// A platform big enough for `nprocs` ranks: griffon when it fits (the
/// paper's real runs), otherwise a synthetic GbE cluster of exactly that
/// size (the paper's beyond-the-testbed scaling runs, §7.2).
pub(crate) fn dt_platform(nprocs: usize) -> Arc<RoutedPlatform> {
    if nprocs <= griffon_rp().platform().num_hosts() {
        griffon_rp()
    } else {
        Arc::new(RoutedPlatform::new(flat_cluster(
            "big",
            nprocs,
            &ClusterConfig::default(),
        )))
    }
}

/// Runs one DT instance and returns the makespan (last rank completion).
fn run_dt(world: &World, class: DtClass, shape: DtGraph) -> DtRun {
    let graph = Arc::new(build_graph(class, shape));
    let g = Arc::clone(&graph);
    let report = world.run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class));
    DtRun {
        makespan: report.sim_time,
        peak_bytes: report.memory.peak_bytes,
        logical_peak_bytes: report.memory.logical_peak_bytes,
        nprocs: graph.num_nodes(),
    }
}

/// Result of one DT run.
pub(crate) struct DtRun {
    /// Simulated completion time, seconds.
    pub makespan: f64,
    /// Actual (folded) peak application bytes.
    pub peak_bytes: u64,
    /// Unfolded peak application bytes.
    pub logical_peak_bytes: u64,
    /// Processes in the run.
    pub nprocs: usize,
}

/// Fig. 15 data: (class, shape, smpi time, openmpi time).
pub struct Fig15 {
    /// One row per (class, variant).
    pub rows: Vec<(DtClass, DtGraph, f64, f64)>,
}

impl Fig15 {
    /// SMPI vs OpenMPI error across all runs.
    pub(crate) fn summary(&self) -> ErrorSummary {
        let s: Vec<f64> = self.rows.iter().map(|r| r.2).collect();
        let o: Vec<f64> = self.rows.iter().map(|r| r.3).collect();
        ErrorSummary::compare(&s, &o)
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["class", "graph", "smpi(s)", "openmpi(s)"]);
        for &(c, g, s, o) in &self.rows {
            t.row(vec![
                format!("{c:?}"),
                format!("{g:?}").to_uppercase(),
                secs(s),
                secs(o),
            ]);
        }
        format!(
            "# Fig. 15 — DT execution time, classes A/B, WH/BH\n{}smpi vs openmpi: {}\n",
            t.render(),
            self.summary()
        )
    }
}

/// Runs Fig. 15 (classes A and B, WH and BH) on griffon.
pub fn fig15() -> Fig15 {
    let rp = griffon_rp();
    let mut rows = Vec::new();
    for class in [DtClass::A, DtClass::B] {
        for shape in [DtGraph::Wh, DtGraph::Bh] {
            let s = run_dt(&smpi_world(rp.clone()), class, shape).makespan;
            let o = run_dt(&openmpi_world(rp.clone()), class, shape).makespan;
            rows.push((class, shape, s, o));
        }
    }
    Fig15 { rows }
}

/// Fig. 16 data: one row per (class, shape).
pub struct Fig16 {
    /// (class, shape, folded peak bytes, unfolded peak bytes, procs).
    pub rows: Vec<(DtClass, DtGraph, u64, u64, usize)>,
    /// Host-node RAM budget for the OM marker, bytes.
    pub ram_budget: u64,
}

impl Fig16 {
    /// Average folding factor across rows.
    pub(crate) fn mean_factor(&self) -> f64 {
        let fs: Vec<f64> = self
            .rows
            .iter()
            .map(|r| r.3 as f64 / r.2.max(1) as f64)
            .collect();
        fs.iter().sum::<f64>() / fs.len() as f64
    }

    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "class",
            "graph",
            "procs",
            "folded(MiB)",
            "unfolded(MiB)",
            "factor",
            "unfolded-fits",
        ]);
        for &(c, g, folded, unfolded, procs) in &self.rows {
            t.row(vec![
                format!("{c:?}"),
                format!("{g:?}").to_uppercase(),
                procs.to_string(),
                mib(folded),
                mib(unfolded),
                format!("{:.1}x", unfolded as f64 / folded.max(1) as f64),
                if unfolded > self.ram_budget {
                    "OM".into()
                } else {
                    "yes".into()
                },
            ]);
        }
        format!(
            "# Fig. 16 — DT memory footprint with/without RAM folding (budget {} MiB)\n{}\
             mean folding factor: {:.1}x\n",
            self.ram_budget / (1024 * 1024),
            t.render(),
            self.mean_factor()
        )
    }
}

/// Runs Fig. 16: every class × shape on the SMPI backend with folding
/// enabled; the tracker reports both the folded (actual) and unfolded
/// (logical) peaks from the same run.
pub fn fig16() -> Fig16 {
    let mut rows = Vec::new();
    for class in [DtClass::A, DtClass::B, DtClass::C] {
        for shape in [DtGraph::Wh, DtGraph::Bh, DtGraph::Sh] {
            let rp = dt_platform(build_graph(class, shape).num_nodes());
            let run = run_dt(&smpi_world(rp).ram_folding(true), class, shape);
            // Cross-check the tracker against the closed-form volume.
            let g = build_graph(class, shape);
            debug_assert!(run.logical_peak_bytes >= unfolded_bytes(&g, class) / 2);
            rows.push((
                class,
                shape,
                run.peak_bytes,
                run.logical_peak_bytes,
                run.nprocs,
            ));
        }
    }
    Fig16 {
        rows,
        ram_budget: 2 * 1024 * 1024 * 1024, // a 2 GiB host node, as on gdx
    }
}
