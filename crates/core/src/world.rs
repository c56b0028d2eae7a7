//! Launching simulations: platform + backend + ranks.
//!
//! [`World::run`] is the `smpirun` equivalent: it spawns one actor per MPI
//! rank, hands each a [`Ctx`], and drives the maestro until every rank
//! finishes ([`World::try_run_scripts`] does the same for ranks that are
//! stackless scripts). The report carries everything the paper's figures need —
//! simulated time, per-rank completion times (Figs. 7 and 11), wall-clock
//! simulation time (Figs. 17 and 18) and the memory accounting (Fig. 16).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simix::{Scheduler, Scripts};

use packetnet::PacketConfig;
use smpi_obs::{ContentionReport, MetricsReport, Rec, SelfProfile, TimeSeries};
use smpi_platform::{HostIx, PlatformPerturbation, RoutedPlatform};
use surf_sim::{EngineConfig, TransferModel};

use crate::capture::TiTrace;
use crate::comm::Comm;
use crate::ctx::Ctx;
use crate::error::SimError;
use crate::fabric::{Fabric, MpiProfile, PacketFabric, SurfFabric};
use crate::runtime::{Runtime, SimResp, Simcall, Sx};
use crate::shared_mem::MemoryReport;
use crate::state::{RunConfig, SharedState};
use crate::trace::TraceEvent;

/// Which network substrate to simulate on.
#[derive(Debug, Clone)]
pub enum Backend {
    /// SMPI proper: the flow-level kernel with a transfer model.
    Surf {
        /// Point-to-point model (typically from calibration).
        model: TransferModel,
        /// Kernel configuration (contention on/off, TCP window).
        engine: EngineConfig,
    },
    /// The packet-level ground-truth substrate.
    Packet {
        /// Framing parameters.
        config: PacketConfig,
    },
}

/// A configured simulation world.
#[derive(Clone)]
pub struct World {
    rp: Arc<RoutedPlatform>,
    backend: Backend,
    profile: MpiProfile,
    run_config: RunConfig,
    placement: Option<Vec<HostIx>>,
    tracing: bool,
    capture: bool,
    capture_path: Option<std::path::PathBuf>,
    capture_block_ops: usize,
    capture_budget: usize,
    stack_size: usize,
    timeseries: bool,
    perturbation: Option<Arc<PlatformPerturbation>>,
}

/// Results of one run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Simulated time at which the last rank finished, seconds.
    pub sim_time: f64,
    /// Wall-clock time the simulation itself took (the "simulation time"
    /// axis of Figs. 17–18).
    pub wall: Duration,
    /// Simulated completion time of each rank.
    pub finish_times: Vec<f64>,
    /// Value returned by each rank's body.
    pub results: Vec<R>,
    /// Application memory accounting.
    pub memory: MemoryReport,
    /// Recorded event trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Metrics snapshot (`None` unless [`World::metrics`] was enabled):
    /// protocol counters, link utilization, queue depths, rank timelines.
    pub metrics: Option<MetricsReport>,
    /// Simulator self-profile: events processed, events/sec, and (when
    /// metrics are on) wall-clock per drive-loop phase.
    pub profile: SelfProfile,
    /// Captured time-independent trace (`None` unless [`World::capture`]
    /// was enabled); feed it to `smpi-replay` for off-line re-simulation.
    pub ti_trace: Option<TiTrace>,
    /// Contention attribution (`None` unless [`World::metrics`] was
    /// enabled): per delivered message, which links carried it and which
    /// bottlenecked it, with per-link and per-rank rollups.
    pub contention: Option<ContentionReport>,
    /// Bounded-memory time series of the run (`None` unless
    /// [`World::timeseries`] was enabled): per-interval simcall/token
    /// counts, active flows, woken actors, link utilization, solver
    /// wall-clock and memory high-water mark. The sampler halves its
    /// resolution whenever the buffer fills, so memory stays fixed no
    /// matter how long the run simulates.
    pub timeseries: Option<TimeSeries>,
}

impl World {
    /// Creates a world over a platform.
    pub fn new(rp: Arc<RoutedPlatform>, backend: Backend, profile: MpiProfile) -> Self {
        World {
            rp,
            backend,
            profile,
            run_config: RunConfig::default(),
            placement: None,
            tracing: false,
            capture: false,
            capture_path: None,
            capture_block_ops: crate::capture_v2::DEFAULT_BLOCK_OPS,
            capture_budget: crate::capture_v2::DEFAULT_WRITER_BUDGET,
            stack_size: simix::DEFAULT_STACK_SIZE,
            timeseries: false,
            perturbation: None,
        }
    }

    /// Convenience: SMPI on this platform with a model and default engine.
    pub fn smpi(rp: Arc<RoutedPlatform>, model: TransferModel) -> Self {
        World::new(
            rp,
            Backend::Surf {
                model,
                engine: EngineConfig::default(),
            },
            MpiProfile::smpi(),
        )
    }

    /// Convenience: the emulated "real" cluster with an MPI personality.
    pub fn testbed(rp: Arc<RoutedPlatform>, profile: MpiProfile) -> Self {
        World::new(
            rp,
            Backend::Packet {
                config: PacketConfig::default(),
            },
            profile,
        )
    }

    /// Sets the measured-CPU-burst scaling factor (§3.1).
    pub fn cpu_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        self.run_config.cpu_factor = factor;
        self
    }

    /// Enables or disables RAM folding (§3.2). Default: enabled.
    pub fn ram_folding(mut self, enabled: bool) -> Self {
        self.run_config.ram_folding = enabled;
        self
    }

    /// Sets the per-rank stack size in bytes (default
    /// [`simix::DEFAULT_STACK_SIZE`], 256 KiB). The size is rounded up to
    /// whole pages and one inaccessible guard page is mapped below each
    /// stack, so an overflow is a `SIGSEGV`, never a scribble over another
    /// rank. Pages are touched lazily: a rank costs the stack it uses, not
    /// the stack it may use. Large-instance runs keep the default; raise it
    /// for rank bodies with deep recursion or big stack buffers.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "stack size must be non-zero");
        self.stack_size = bytes;
        self
    }

    /// Enables communication tracing: the run report's `trace` carries a
    /// timestamped event per protocol transition (see [`crate::trace`]).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Enables time-independent trace capture: the run report's `ti_trace`
    /// carries each rank's sequence of compute bursts and MPI events with
    /// no timestamps (see [`crate::capture`]). Such a trace replays against
    /// any platform/model with the `smpi-replay` crate. Region annotations
    /// appear in the capture only when [`metrics`](Self::metrics) is also
    /// on (ranks skip the region simcall entirely otherwise).
    pub fn capture(mut self, enabled: bool) -> Self {
        self.capture = enabled;
        self
    }

    /// Enables *streaming* capture straight to a `TITRACE2` file: sealed
    /// blocks of ops leave the maestro as the run progresses, so capture
    /// memory is bounded by the writer budget rather than by trace length
    /// (see [`crate::capture_v2`]). The run report's `ti_trace` stays
    /// `None` (the ops are on disk — open them with `TiV2Reader`), and
    /// `profile.codec` carries the codec counters. Implies
    /// [`capture`](Self::capture).
    pub fn capture_to(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.capture = true;
        self.capture_path = Some(path.into());
        self
    }

    /// Overrides the streaming-capture block size (ops per sealed block)
    /// and global staging budget in bytes. Only meaningful together with
    /// [`capture_to`](Self::capture_to).
    pub fn capture_tuning(mut self, block_ops: usize, budget_bytes: usize) -> Self {
        assert!(block_ops > 0, "block size must be non-zero");
        self.capture_block_ops = block_ops;
        self.capture_budget = budget_bytes;
        self
    }

    /// Enables the observability layer: the run report's `metrics` carries
    /// protocol counters, per-link utilization, queue metrics and per-rank
    /// state timelines, and `profile` gains per-phase wall-clock timings.
    /// Off by default — the disabled path is a single branch per emit site.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.run_config.obs = enabled;
        self
    }

    /// Whether [`metrics`](Self::metrics) is on. Ranks skip annotation
    /// simcalls (collective regions) entirely when it is off.
    pub fn metrics_enabled(&self) -> bool {
        self.run_config.obs
    }

    /// Enables the time-series sampler: the run report's `timeseries`
    /// carries fixed-budget ring buffers of per-interval activity (simcall
    /// rate, active flows, link utilization, …). Deterministic: two
    /// identical runs produce byte-identical series once
    /// [`Deterministic::strip_nondeterminism`](smpi_obs::Deterministic::strip_nondeterminism)
    /// removes the host-dependent solver timings.
    pub fn timeseries(mut self, enabled: bool) -> Self {
        self.timeseries = enabled;
        self
    }

    /// Applies a stochastic perturbation overlay to the platform for every
    /// run of this world: multiplicative per-link bandwidth/latency and
    /// per-host speed factors, applied when the backend materializes the
    /// (otherwise shared, immutable) platform. The identity overlay is
    /// bit-exact with no overlay. Panics if the overlay does not validate
    /// against the platform.
    ///
    /// Control-message latency (the rendezvous handshake cost on backends
    /// that model it) stays nominal: jitter models data-plane variability.
    pub fn perturbation(mut self, p: Arc<PlatformPerturbation>) -> Self {
        p.validate(self.rp.platform())
            .unwrap_or_else(|e| panic!("invalid perturbation: {e}"));
        self.perturbation = Some(p);
        self
    }

    /// Pins rank `r` to host `hosts[r]` instead of the default round-robin
    /// placement (used e.g. to calibrate between two specific nodes of a
    /// hierarchical cluster).
    pub fn place(mut self, hosts: Vec<usize>) -> Self {
        let n = self.rp.platform().num_hosts();
        assert!(hosts.iter().all(|&h| h < n), "placement host out of range");
        self.placement = Some(hosts.into_iter().map(|h| HostIx(h as u32)).collect());
        self
    }

    fn build_fabric(&self) -> Box<dyn Fabric> {
        let perturb = self.perturbation.as_deref();
        match &self.backend {
            Backend::Surf { model, engine } => Box::new(SurfFabric::new(
                Arc::clone(&self.rp),
                model.clone(),
                engine.clone(),
                perturb,
            )),
            Backend::Packet { config } => {
                Box::new(PacketFabric::new(Arc::clone(&self.rp), *config, perturb))
            }
        }
    }

    /// Runs `body` on `nranks` MPI ranks (placed round-robin over the
    /// platform's hosts) and returns the run report with each rank's result.
    ///
    /// The ranks run one at a time on the calling thread, so neither `body`
    /// nor `R` need be `Send` or `Sync`: a body may capture `Rc`/`Cell`
    /// state and share it across ranks.
    ///
    /// Panics on a kernel stall, an MPI-level deadlock or a streaming-capture
    /// I/O failure; use [`try_run`](Self::try_run) to handle those as typed
    /// errors. A rank's own panic reaches the caller with its payload.
    pub fn run<R, F>(&self, nranks: usize, body: F) -> RunReport<R>
    where
        R: 'static,
        F: Fn(&Ctx) -> R + 'static,
    {
        self.try_run(nranks, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`run`](Self::run), but surfaces no-progress conditions (kernel
    /// stalls, unmatched send/recv deadlocks) and streaming-capture I/O
    /// failures as a [`SimError`] instead of panicking. Same bounds as
    /// [`run`](Self::run): the body runs on the calling thread only.
    pub fn try_run<R, F>(&self, nranks: usize, body: F) -> Result<RunReport<R>, SimError>
    where
        R: 'static,
        F: Fn(&Ctx) -> R + 'static,
    {
        let shared = Rc::new(SharedState::new(self.run_config.clone()));
        let results: Rc<RefCell<Vec<Option<R>>>> =
            Rc::new(RefCell::new((0..nranks).map(|_| None).collect()));

        let mut sx: Sx = Sx::with_stack_size(self.stack_size);
        let body = Rc::new(body);
        let world = Comm::world(nranks);
        for rank in 0..nranks {
            let body = Rc::clone(&body);
            let world = world.clone();
            let shared = Rc::clone(&shared);
            let results = Rc::clone(&results);
            sx.spawn(move |handle| {
                let ctx = Ctx::new(handle, world, shared);
                let out = body(&ctx);
                results.borrow_mut()[rank] = Some(out);
            });
        }
        self.drive_to_report(nranks, &shared, sx, move || {
            Rc::try_unwrap(results)
                .unwrap_or_else(|_| panic!("rank bodies leaked the result store"))
                .into_inner()
                .into_iter()
                .map(|r| r.expect("every rank stores a result"))
                .collect()
        })
    }

    /// The event-driven counterpart of [`try_run`](Self::try_run): rank `r`
    /// is the resumable script `scripts[r]` (see [`simix::Scripts`]), stepped
    /// as plain calls in the same id-ordered schedule — no per-rank stack,
    /// so memory, not `vm.max_map_count`, bounds the rank count. Scripts
    /// have no [`Ctx`]: they speak raw simcalls, which is all a replayed
    /// rank needs (`smpi-replay` runs on this).
    pub fn try_run_scripts<F>(&self, scripts: Vec<F>) -> Result<RunReport<()>, SimError>
    where
        F: FnMut(Option<SimResp>) -> Option<Simcall>,
    {
        let nranks = scripts.len();
        let shared = Rc::new(SharedState::new(self.run_config.clone()));
        self.drive_to_report(nranks, &shared, Scripts::new(scripts), || vec![(); nranks])
    }

    /// Everything a run is besides its ranks: placement, runtime set-up per
    /// this world's configuration, the drive loop and report assembly.
    /// `results` is called once every rank has finished.
    fn drive_to_report<S: Scheduler<Simcall, SimResp>, R>(
        &self,
        nranks: usize,
        shared: &Rc<SharedState>,
        mut sx: S,
        results: impl FnOnce() -> Vec<R>,
    ) -> Result<RunReport<R>, SimError> {
        assert!(nranks > 0, "need at least one rank");
        let hosts = self.rp.platform().num_hosts();
        assert!(hosts > 0, "platform has no hosts");
        let placement: Vec<HostIx> = match &self.placement {
            Some(p) => {
                assert_eq!(p.len(), nranks, "placement length != rank count");
                p.clone()
            }
            None => (0..nranks).map(|r| HostIx((r % hosts) as u32)).collect(),
        };

        let mut runtime = Runtime::new(self.build_fabric(), self.profile.clone(), placement);
        runtime.set_clock(Rc::clone(&shared.clock));
        if self.tracing {
            runtime.enable_tracing();
        }
        if let Some(path) = &self.capture_path {
            let file = std::fs::File::create(path).map_err(|error| SimError::Capture {
                context: format!("cannot create capture file {}", path.display()),
                error,
            })?;
            runtime.enable_capture_stream(
                Box::new(std::io::BufWriter::new(file)),
                self.capture_block_ops,
                self.capture_budget,
            );
        } else if self.capture {
            runtime.enable_capture();
        }
        if self.run_config.obs {
            runtime.set_recorder(Rec::enabled());
            runtime.enable_profiling();
        }
        if self.timeseries {
            runtime.enable_timeseries();
            let mem = Rc::clone(shared);
            runtime.set_memory_probe(Box::new(move || mem.memory.report().peak_bytes));
        }
        let start = Instant::now();
        runtime.drive(&mut sx)?;
        let wall = start.elapsed();

        let mut profile = runtime.self_profile();
        profile.wall_seconds = wall.as_secs_f64();
        profile.local_simcalls = shared.local_calls();
        if let Some(stats) = runtime.take_capture_stats() {
            profile.codec = Some(stats.map_err(|error| SimError::Capture {
                context: "streaming capture write failed".into(),
                error,
            })?);
        }

        Ok(RunReport {
            sim_time: runtime.now(),
            wall,
            finish_times: runtime.finish_times().to_vec(),
            results: results(),
            memory: shared.memory.report(),
            metrics: runtime.take_metrics(),
            profile,
            trace: runtime.take_trace(),
            ti_trace: runtime.take_capture(),
            contention: runtime.take_contention(),
            timeseries: runtime.take_timeseries(),
        })
    }
}
