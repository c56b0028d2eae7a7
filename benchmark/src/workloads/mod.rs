//! The seven workloads and the interface the harness drives them through.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use smpi::{MpiProfile, World};
use smpi_calibrate::{default_sizes, fit_piecewise, pingpong, RouteRef};
use smpi_platform::{griffon, HostIx, RoutedPlatform};
use surf_sim::TransferModel;

use crate::metrics::Layers;
use crate::spans::Spans;

pub mod coll;
pub mod dt;
pub mod halo;
pub mod kernel;
pub mod replay;
pub mod sweep;

/// What a child process was asked to run.
pub struct Cx {
    pub seed: u64,
    /// `--quick`: schema-guard sizes, not measurement sizes.
    pub quick: bool,
    /// CPUs this process is pinned to (1 except for `sweep_grid`).
    pub workers: usize,
    /// Scratch directory inside the benchmark's own `results/`.
    pub tmp: PathBuf,
}

/// Outcome of one rep: the wall-clock of its timed section, whether its
/// output check passed, and the values that must repeat bit-for-bit on
/// every rep of one seed (simulated time, exact counts).
pub struct Rep {
    pub wall_s: f64,
    pub failure: Option<String>,
    pub exact: Vec<(&'static str, u64)>,
}

impl Rep {
    /// A rep whose output check is the conjunction of `checks`: the first
    /// failing one becomes the failure message.
    pub fn checked(wall_s: f64, exact: Vec<(&'static str, u64)>, checks: &[(bool, &str)]) -> Rep {
        Rep {
            wall_s,
            failure: checks
                .iter()
                .find(|(ok, _)| !ok)
                .map(|(_, what)| what.to_string()),
            exact,
        }
    }
}

/// One workload. `setup` is timed as `setup_s`; each `rep` times its own
/// section with all observability off and checks its output; `traced`
/// runs one more rep with observability on and fills the per-layer
/// account, wrapping every call into a layer in a span.
pub trait Workload {
    fn setup(cx: &Cx) -> Self
    where
        Self: Sized;

    fn rep(&mut self) -> Rep;

    /// `fidelity_max_err_pct`: flow model vs `packetnet` on NAS DT. Only
    /// `dt_fidelity` pays for class A; the others report the class-S
    /// canary so that every run guards the flow model.
    fn fidelity(&mut self) -> f64 {
        dt::canary_error_pct()
    }

    /// `typical` carries the raw median wall-clock of the untraced reps and
    /// their exact counts: per-layer times are raw, so rates and overheads
    /// are read against it.
    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep;
}

/// Name of the exact value every simulated run reports and tracing must
/// not change.
pub const SIM_TIME_BITS: &str = "sim_time_bits";

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// What a user prepares before an on-line run: the platform, and the
/// transfer model fitted from a ping-pong sweep on the packet-level
/// testbed (paper §6).
pub struct Calibrated {
    pub rp: Arc<RoutedPlatform>,
    pub model: TransferModel,
}

impl Calibrated {
    pub fn griffon() -> Self {
        let rp = Arc::new(RoutedPlatform::new(griffon()));
        let testbed = World::testbed(Arc::clone(&rp), MpiProfile::openmpi_like());
        let samples = pingpong(&testbed, 0, 1, &default_sizes(), 1);
        let model = fit_piecewise(&samples, 3, calibration_route(&rp));
        Calibrated { rp, model }
    }

    /// The SMPI world every on-line workload runs on.
    pub fn world(&self) -> World {
        World::smpi(Arc::clone(&self.rp), self.model.clone())
    }
}

/// The nominal route the ping-pong calibration runs over (hosts 0 and 1).
pub fn calibration_route(rp: &RoutedPlatform) -> RouteRef {
    RouteRef {
        latency: rp.latency(HostIx(0), HostIx(1)),
        bandwidth: rp.bandwidth(HostIx(0), HostIx(1)),
    }
}

/// The account of a traced on-line or replayed run: its profile, the
/// simcall rate of the untraced reps, and what tracing cost.
pub fn record_traced_run(
    profile: &smpi_obs::SelfProfile,
    traced_s: f64,
    typical: &Rep,
    layers: &mut Layers,
) {
    record_profile(profile, layers);
    let simcalls = typical
        .exact
        .iter()
        .find(|(name, _)| *name == "simcalls")
        .map_or(0, |&(_, n)| n);
    layers.set("core.simcalls_per_s", simcalls as f64 / typical.wall_s);
    layers.set(
        "obs.trace_overhead_pct",
        overhead_pct(traced_s, typical.wall_s),
    );
}

/// Copies the drive-loop phases, exact counts and kernel counters of a
/// traced run's profile into the per-layer account.
fn record_profile(profile: &smpi_obs::SelfProfile, layers: &mut Layers) {
    let mut attributed = 0.0;
    for &(phase, secs) in &profile.phases {
        attributed += secs;
        layers.set(
            match phase {
                "actor_execution" => "core.phase.actor_execution_s",
                "simcall_handling" => "core.phase.simcall_handling_s",
                "fabric_advance" => "core.phase.fabric_advance_s",
                "waiter_resolution" => "core.phase.waiter_resolution_s",
                other => panic!("unknown drive-loop phase {other}"),
            },
            secs,
        );
    }
    layers.set(
        "core.phase.unattributed_s",
        profile.wall_seconds - attributed,
    );
    layers.set("core.simcalls", profile.simcalls as f64);
    layers.set("core.local_simcalls", profile.local_simcalls as f64);
    layers.set("core.tokens", profile.tokens as f64);
    layers.set("core.sim_time_s", profile.sim_time);
    if let Some(k) = &profile.kernel {
        record_kernel(k, layers);
    }
}

/// Copies the flow kernel's own counters into the per-layer account.
pub fn record_kernel(k: &smpi_obs::KernelProfile, layers: &mut Layers) {
    layers.set("surf.reshares", k.reshares as f64);
    layers.set("surf.solve_s", k.solve_ns.sum * 1e-9);
    layers.set("surf.component_vars_mean", k.component_vars.mean());
    layers.set("surf.cascade_mean", k.cascade.mean());
    layers.set("surf.classes_folded", k.classes_folded as f64);
    layers.set("surf.batched_completions", k.batched_completions as f64);
    layers.set("surf.parallel_components", k.parallel_components as f64);
    layers.set("surf.heap_rebuilds", k.heap_rebuilds as f64);
    layers.set("surf.heap_orphans", k.heap_orphans as f64);
}

/// The exact counts of an on-line or replayed run that every rep of one
/// seed must reproduce.
pub fn exact_counts(profile: &smpi_obs::SelfProfile) -> Vec<(&'static str, u64)> {
    vec![
        (SIM_TIME_BITS, profile.sim_time.to_bits()),
        ("simcalls", profile.simcalls),
        ("tokens", profile.tokens),
    ]
}

/// `(traced − untraced) ÷ untraced`, in percent.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    100.0 * (traced_s - untraced_s) / untraced_s
}
