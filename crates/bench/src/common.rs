//! Shared experiment infrastructure: cached platforms, cached calibration,
//! world builders and table rendering.
//!
//! Calibration (a full ping-pong sweep on the packet-level griffon) is the
//! most expensive shared step, so its samples and the three fitted models
//! are computed once per process and reused by every figure.

use std::sync::{Arc, OnceLock};

use smpi::{Backend, MpiProfile, World};
use smpi_calibrate::{
    fit_best_affine, fit_default_affine, fit_piecewise, pingpong, RouteRef, Sample,
};
use smpi_platform::{gdx, griffon, HostIx, RoutedPlatform};
use surf_sim::{EngineConfig, TransferModel};

/// `true` when the `REPRO_FAST` environment variable trims sweep sizes for
/// smoke-testing the harness.
pub fn fast() -> bool {
    std::env::var_os("REPRO_FAST").is_some()
}

/// The griffon platform (calibration cluster), cached.
pub fn griffon_rp() -> Arc<RoutedPlatform> {
    static RP: OnceLock<Arc<RoutedPlatform>> = OnceLock::new();
    Arc::clone(RP.get_or_init(|| Arc::new(RoutedPlatform::new(griffon()))))
}

/// The gdx platform (transfer-target cluster), cached.
pub fn gdx_rp() -> Arc<RoutedPlatform> {
    static RP: OnceLock<Arc<RoutedPlatform>> = OnceLock::new();
    Arc::clone(RP.get_or_init(|| Arc::new(RoutedPlatform::new(gdx()))))
}

/// Nominal route reference between two hosts of a platform.
pub fn route_ref(rp: &RoutedPlatform, a: usize, b: usize) -> RouteRef {
    RouteRef {
        latency: rp.latency(HostIx(a as u32), HostIx(b as u32)),
        bandwidth: rp.bandwidth(HostIx(a as u32), HostIx(b as u32)),
    }
}

/// The ping-pong calibration sweep sizes.
pub fn calibration_sizes() -> Vec<u64> {
    if fast() {
        let mut v = Vec::new();
        let mut s = 1u64;
        while s <= 1 << 22 {
            v.push(s);
            s *= 4;
        }
        v
    } else {
        smpi_calibrate::default_sizes()
    }
}

/// SKaMPI-equivalent measurements on the packet-level griffon (cached).
pub fn calibration_samples() -> &'static [Sample] {
    static SAMPLES: OnceLock<Vec<Sample>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let rp = griffon_rp();
        let world = World::testbed(rp, MpiProfile::openmpi_like());
        pingpong(&world, 0, 1, &calibration_sizes(), 1)
    })
}

/// The calibration route (two same-cabinet griffon nodes).
pub fn calibration_route() -> RouteRef {
    route_ref(&griffon_rp(), 0, 1)
}

/// The 3-segment piece-wise linear model fitted from the calibration
/// (cached) — SMPI's production model for every figure.
pub fn piecewise_model() -> &'static TransferModel {
    static M: OnceLock<TransferModel> = OnceLock::new();
    M.get_or_init(|| fit_piecewise(calibration_samples(), 3, calibration_route()))
}

/// The best-fit affine baseline (cached).
pub fn best_affine_model() -> &'static TransferModel {
    static M: OnceLock<TransferModel> = OnceLock::new();
    M.get_or_init(|| fit_best_affine(calibration_samples(), calibration_route()))
}

/// The default affine baseline (cached).
pub fn default_affine_model() -> &'static TransferModel {
    static M: OnceLock<TransferModel> = OnceLock::new();
    M.get_or_init(|| fit_default_affine(calibration_samples(), calibration_route()))
}

/// SMPI world on a platform with the calibrated piece-wise model.
pub fn smpi_world(rp: Arc<RoutedPlatform>) -> World {
    World::smpi(rp, piecewise_model().clone())
}

/// SMPI world with link contention disabled *and* the ideal affine model:
/// "each communication ... will get the maximal bandwidth, i.e., 1 Gigabit
/// per second, whatever the number of concurrent communications" — the
/// baseline mimicking the contention-blind simulators of §2 (Figs. 7, 11).
pub fn smpi_world_no_contention(rp: Arc<RoutedPlatform>) -> World {
    World::new(
        rp,
        Backend::Surf {
            model: TransferModel::ideal(),
            engine: EngineConfig {
                contention: false,
                tcp_window: None,
            },
        },
        MpiProfile::smpi(),
    )
}

/// The emulated real cluster with the OpenMPI personality.
pub fn openmpi_world(rp: Arc<RoutedPlatform>) -> World {
    World::testbed(rp, MpiProfile::openmpi_like())
}

/// The emulated real cluster with the MPICH2 personality.
pub fn mpich2_world(rp: Arc<RoutedPlatform>) -> World {
    World::testbed(rp, MpiProfile::mpich2_like())
}

/// Minimal fixed-width table rendering for the repro binary's output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row).take(ncols) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds as microseconds (the unit of Figs. 3–5, 8, 12).
pub fn us(t: f64) -> String {
    format!("{:.1}", t * 1e6)
}

/// Formats seconds with 4 decimals (the unit of Figs. 7, 9, 11, 15, 17, 18).
pub fn secs(t: f64) -> String {
    format!("{t:.4}")
}

/// Formats bytes as MiB.
pub fn mib(b: u64) -> String {
    format!("{:.1}", b as f64 / (1024.0 * 1024.0))
}
