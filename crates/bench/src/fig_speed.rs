//! Figures 17–18: simulation speed.
//!
//! * Fig. 17 — wall-clock time of the SMPI simulation vs the simulated
//!   execution time vs the (emulated) real execution time, for a 16-process
//!   scatter of growing messages. The paper's claim: the simulation runs
//!   several times *faster than real time*, with the factor growing with
//!   message size.
//! * Fig. 18 — impact of the `SMPI_SAMPLE_LOCAL` ratio on EP: simulation
//!   time should fall roughly linearly with the fraction of executed
//!   iterations while the simulated execution time stays put.

use smpi_workloads::{ep_rank, timed_scatter, timed_scatter_folded, EpConfig};

use crate::common::{fast, griffon_rp, openmpi_world, secs, smpi_world, Table};

/// One Fig. 17 row.
pub struct SpeedRow {
    /// Per-rank message size, bytes.
    pub bytes: u64,
    /// Wall-clock seconds the SMPI simulation took ("simulation time").
    pub smpi_wall: f64,
    /// Same, with the §3.2 RAM-folding configuration (no application bytes
    /// moved) — the setup the paper's large-scale runs used.
    pub smpi_folded_wall: f64,
    /// SMPI's predicted execution time ("simulated execution time").
    pub smpi_sim: f64,
    /// The emulated real execution time (OpenMPI personality).
    pub openmpi_sim: f64,
}

/// Fig. 17 data.
pub struct Fig17 {
    /// One row per message size.
    pub rows: Vec<SpeedRow>,
}

impl Fig17 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "MiB",
            "smpi-sim(s)",
            "smpi-folded-sim(s)",
            "smpi-simulated(s)",
            "openmpi(s)",
            "speedup",
            "speedup-folded",
        ]);
        for r in &self.rows {
            t.row(vec![
                format!("{}", r.bytes / (1024 * 1024)),
                secs(r.smpi_wall),
                secs(r.smpi_folded_wall),
                secs(r.smpi_sim),
                secs(r.openmpi_sim),
                format!("{:.2}x", r.openmpi_sim / r.smpi_wall),
                format!("{:.2}x", r.openmpi_sim / r.smpi_folded_wall),
            ]);
        }
        format!(
            "# Fig. 17 — simulation vs simulated vs real time, 16-proc scatter\n{}",
            t.render()
        )
    }
}

/// Runs Fig. 17: scatter with 4–64 MiB messages.
pub fn fig17() -> Fig17 {
    let rp = griffon_rp();
    let n = 16;
    let mibs: &[u64] = if fast() { &[1, 4] } else { &[4, 8, 16, 32, 64] };
    let rows = mibs
        .iter()
        .map(|&m| {
            let chunk = (m as usize * 1024 * 1024) / 8;
            let chunk_bytes = m * 1024 * 1024;
            let smpi = smpi_world(rp.clone()).run(n, move |ctx| timed_scatter(ctx, chunk));
            let folded =
                smpi_world(rp.clone()).run(n, move |ctx| timed_scatter_folded(ctx, chunk_bytes));
            let open = openmpi_world(rp.clone()).run(n, move |ctx| timed_scatter(ctx, chunk));
            SpeedRow {
                bytes: m * 1024 * 1024,
                smpi_wall: smpi.wall.as_secs_f64(),
                smpi_folded_wall: folded.wall.as_secs_f64(),
                smpi_sim: smpi.sim_time,
                openmpi_sim: open.sim_time,
            }
        })
        .collect();
    Fig17 { rows }
}

/// One Fig. 18 row.
pub struct SamplingRow {
    /// Fraction of iterations actually executed.
    pub ratio: f64,
    /// Wall-clock simulation time, seconds.
    pub wall: f64,
    /// Simulated execution time, seconds.
    pub simulated: f64,
}

/// Fig. 18 data.
pub struct Fig18 {
    /// One row per sampling ratio (descending, as in the paper's x-axis).
    pub rows: Vec<SamplingRow>,
    /// The emulated real (always-execute) execution time for reference.
    pub openmpi_sim: f64,
}

impl Fig18 {
    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["ratio(%)", "simulation(s)", "simulated(s)"]);
        for r in &self.rows {
            t.row(vec![
                format!("{:.0}", r.ratio * 100.0),
                secs(r.wall),
                secs(r.simulated),
            ]);
        }
        format!(
            "# Fig. 18 — CPU sampling: EP class B (scaled), 4 procs\n{}openmpi reference: {}s\n",
            t.render(),
            secs(self.openmpi_sim)
        )
    }
}

/// Runs Fig. 18: EP on 4 ranks with sampling ratios 100/75/50/25%.
pub fn fig18() -> Fig18 {
    let rp = griffon_rp();
    let n = 4;
    let base = EpConfig {
        total_pairs: if fast() { 1 << 20 } else { 1 << 24 },
        blocks_per_rank: 64,
        sampling_ratio: 1.0,
    };
    // The target nodes are the host node (factor 1): measured bursts map
    // 1:1 to simulated time, as in the paper's same-hardware runs.
    let openmpi_sim = openmpi_world(rp.clone())
        .cpu_factor(1.0)
        .run(n, move |ctx| ep_rank(ctx, base))
        .sim_time;
    let rows = [1.0, 0.75, 0.5, 0.25]
        .into_iter()
        .map(|ratio| {
            let cfg = EpConfig {
                sampling_ratio: ratio,
                ..base
            };
            let report = smpi_world(rp.clone())
                .cpu_factor(1.0)
                .run(n, move |ctx| ep_rank(ctx, cfg));
            SamplingRow {
                ratio,
                wall: report.wall.as_secs_f64(),
                simulated: report.sim_time,
            }
        })
        .collect();
    Fig18 { rows, openmpi_sim }
}
