//! # smpi-sweep — parallel replication sweeps with stochastic variability
//!
//! The paper's capture-once/replay-many workflow made single re-simulations
//! cheap; this crate makes *populations* of them cheap. A [`SweepConfig`]
//! crosses a scenario matrix — programs (captured time-independent traces)
//! × platforms × network backends (the surf flow kernel or the packet-level
//! substrate) × calibrated transfer models × injected noise — and
//! [`run_sweep`] replays every cell's replications across a pool of worker
//! threads, each running one whole simulation at a time. Workers claim
//! scenario ids in increasing order from one shared atomic cursor; a
//! scenario is milliseconds to seconds of work, so one `fetch_add` per claim
//! is all the balancing there is to do, and low ids finish first, which
//! keeps the ordered emitter's reorder buffer small.
//!
//! Three properties are load-bearing:
//!
//! * **Shared-immutable inputs.** Workers share `Arc<RoutedPlatform>`s
//!   (and through them one `smpi_platform::PlatformImage` and its route
//!   store) and one decoded copy of each trace, a `TITRACE2` file decoded
//!   once per sweep; each scenario materializes its own per-run simulation
//!   state, so scenarios are independent and embarrassingly parallel.
//! * **Scheduling-independent determinism.** Stochastic perturbations are
//!   drawn from a counter-based generator ([`rng::CbRng`]) keyed by
//!   `(sweep seed, platform, noise axis, replication)` — *never* by worker
//!   id or completion order — and results stream through a reorder buffer
//!   (`table::OrderedEmitter`) keyed by stable scenario id. The results
//!   table is byte-identical for 1 worker or 16.
//! * **Bounded memory.** One JSON line per finished scenario is emitted as
//!   soon as its id is next in sequence; only completion skew is buffered.
//!   Per-cell makespan distributions are folded at the end from the
//!   scalar outcomes, not from retained reports.
//!
//! Replications within a cell differ only by their perturbation draw; the
//! draw is shared across backends and calibrations of the same
//! `(platform, noise, replication)` — common random numbers, so paired
//! cell comparisons see the same "weather".

#![forbid(unsafe_code)]

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smpi::{Backend, MpiProfile, TiTrace, TraceIoError, TraceSource, World};
use smpi_obs::json::JsonBuf;
use smpi_obs::{SweepStats, WorkerStats};
use smpi_platform::RoutedPlatform;
use surf_sim::{EngineConfig, TransferModel};

pub(crate) mod noise;
pub(crate) mod rng;
pub(crate) mod table;

pub use noise::NoiseModel;
pub use rng::CbRng;
pub use table::Distribution;

use table::OrderedEmitter;

/// A named program axis entry: a captured time-independent trace that
/// every scenario replays (no application code, no payload memory).
/// Workers share one decoded copy: an in-memory trace is never copied, and
/// a `TITRACE2` file is decoded once, with a checked decode, when
/// [`run_sweep`] starts, so a corrupt block fails the sweep before any
/// scenario runs. The sweep holds that copy until it returns and reports
/// its size ([`SweepReport::trace_bytes`]).
#[derive(Clone)]
pub struct Program {
    /// Label used in results tables.
    pub name: String,
    /// The trace to replay.
    pub source: TraceSource,
}

impl Program {
    /// A trace-replay program.
    pub fn trace(name: impl Into<String>, trace: Arc<TiTrace>) -> Self {
        Program {
            name: name.into(),
            source: trace.into(),
        }
    }

    /// A replay program over a `TITRACE2` file, decoded once per sweep.
    pub fn stream(name: impl Into<String>, reader: Arc<smpi::TiV2Reader>) -> Self {
        Program {
            name: name.into(),
            source: reader.into(),
        }
    }
}

/// A network-backend axis entry (carries its MPI personality).
#[derive(Clone)]
pub enum FabricKind {
    /// The surf flow kernel; crossed with the calibration axis.
    Surf {
        /// Kernel configuration (contention, TCP window).
        engine: EngineConfig,
        /// MPI profile (eager/rendezvous thresholds etc.).
        profile: MpiProfile,
    },
    /// The packet-level substrate; ignores the calibration axis (its
    /// timing comes from framing, not a fitted transfer model).
    Packet {
        /// Framing parameters.
        config: packetnet::PacketConfig,
        /// MPI profile.
        profile: MpiProfile,
    },
}

impl FabricKind {
    /// Default surf kernel with the SMPI profile.
    pub fn surf() -> Self {
        FabricKind::Surf {
            engine: EngineConfig::default(),
            profile: MpiProfile::smpi(),
        }
    }

    /// Default packet substrate with the OpenMPI-like profile.
    pub fn packet() -> Self {
        FabricKind::Packet {
            config: packetnet::PacketConfig::default(),
            profile: MpiProfile::openmpi_like(),
        }
    }
}

/// A noise axis entry: a variability model plus how many replications to
/// draw from it.
#[derive(Clone)]
pub struct NoiseAxis {
    /// Label used in results tables.
    pub name: String,
    /// The jitter model.
    pub model: NoiseModel,
    /// Replications per cell (zero-noise axes typically use 1 — every
    /// replication would be identical).
    pub replications: u32,
}

impl NoiseAxis {
    /// The deterministic axis: no jitter, one replication.
    pub fn none() -> Self {
        NoiseAxis {
            name: "none".into(),
            model: NoiseModel::none(),
            replications: 1,
        }
    }

    /// A uniform-jitter axis.
    pub fn jitter(name: impl Into<String>, amplitude: f64, replications: u32) -> Self {
        NoiseAxis {
            name: name.into(),
            model: NoiseModel::uniform_jitter(amplitude),
            replications,
        }
    }
}

/// The scenario matrix plus execution parameters.
#[derive(Clone)]
pub struct SweepConfig {
    /// Program axis.
    pub programs: Vec<Program>,
    /// Platform axis (label, parsed-and-routed platform).
    pub platforms: Vec<(String, Arc<RoutedPlatform>)>,
    /// Backend axis.
    pub fabrics: Vec<(String, FabricKind)>,
    /// Calibration axis (crossed with surf fabrics only).
    pub calibrations: Vec<(String, TransferModel)>,
    /// Noise axis.
    pub noises: Vec<NoiseAxis>,
    /// Worker threads.
    pub workers: usize,
    /// Master seed: scenario `(cell, replication)` outcomes are a pure
    /// function of this (plus the matrix), independent of `workers`.
    pub seed: u64,
    /// Zero host-dependent fields (wall-clock, memory probe) in the
    /// streamed lines, making the table byte-stable across machines.
    pub strip_hostdep: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            programs: Vec::new(),
            platforms: Vec::new(),
            fabrics: Vec::new(),
            calibrations: Vec::new(),
            noises: Vec::new(),
            workers: 1,
            seed: 0,
            strip_hostdep: true,
        }
    }
}

/// One enumerated scenario: indices into the config's axes.
#[derive(Debug, Clone, Copy)]
struct ScenarioSpec {
    cell: usize,
    program: usize,
    platform: usize,
    fabric: usize,
    /// `None` for backends that ignore the calibration axis.
    cal: Option<usize>,
    noise: usize,
    rep: u32,
}

/// Labels identifying one matrix cell in reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// Program label.
    pub program: String,
    /// Platform label.
    pub platform: String,
    /// Backend label.
    pub fabric: String,
    /// Calibration label (`"-"` for backends without one).
    pub calibration: String,
    /// Noise-axis label.
    pub noise: String,
}

/// Aggregated makespan statistics of one cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Which cell.
    pub key: CellKey,
    /// Makespan order statistics over the cell's replications.
    pub makespan: Distribution,
}

/// Scalar outcome of one scenario (everything the table line and the
/// aggregation need; full run reports are dropped immediately).
#[derive(Debug, Clone, Copy)]
struct Outcome {
    cell: usize,
    makespan: f64,
    simcalls: u64,
    wall_s: f64,
    peak_bytes: u64,
}

/// End-of-sweep report: throughput, per-worker stats, per-cell summaries.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Total scenarios executed.
    pub scenarios: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Master seed the sweep ran under.
    pub seed: u64,
    /// Bytes of decoded trace the sweep held while it ran: every replay
    /// program's ops, at the per-op cost [`TiTrace::decoded_bytes`]
    /// charges (deterministic, equal trace-fed and stream-fed).
    pub trace_bytes: u64,
    /// Wall-clock seconds for the whole sweep, decoding included
    /// (host-dependent).
    pub wall_s: f64,
    /// Scenario throughput (host-dependent).
    pub scenarios_per_s: f64,
    /// Largest reorder-buffer occupancy the emitter ever saw (a direct
    /// measure of the bounded streaming memory; schedule-dependent).
    pub reorder_high_water: usize,
    /// Per-worker execution counters.
    pub stats: SweepStats,
    /// Per-cell makespan distributions, in stable cell order.
    pub cells: Vec<CellSummary>,
}

impl smpi_obs::Deterministic for SweepReport {
    /// Zeroes every host- or schedule-dependent field (sweep wall-clock,
    /// throughput, reorder-buffer high-water mark, per-worker counters), so
    /// two sweeps of one config serialize identically on any machine, under
    /// any load — and, apart from `workers`, at any worker count.
    fn strip_nondeterminism(&mut self) {
        self.wall_s = 0.0;
        self.scenarios_per_s = 0.0;
        self.reorder_high_water = 0;
        self.stats.strip_nondeterminism();
    }
}

impl SweepReport {
    /// Serializes the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("scenarios").uint_val(self.scenarios as u64);
        j.key("workers").uint_val(self.workers as u64);
        j.key("seed").uint_val(self.seed);
        j.key("trace_bytes").uint_val(self.trace_bytes);
        j.key("wall_s").num_val(self.wall_s);
        j.key("scenarios_per_s").num_val(self.scenarios_per_s);
        j.key("reorder_high_water")
            .uint_val(self.reorder_high_water as u64);
        j.key("worker_stats");
        self.stats.append_json(&mut j);
        j.key("cells").begin_arr();
        for c in &self.cells {
            j.begin_obj();
            j.key("program").str_val(&c.key.program);
            j.key("platform").str_val(&c.key.platform);
            j.key("fabric").str_val(&c.key.fabric);
            j.key("calibration").str_val(&c.key.calibration);
            j.key("noise").str_val(&c.key.noise);
            j.key("makespan");
            c.makespan.append_json(&mut j);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Renders the per-cell distribution table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<10} {:<8} {:<16} {:<10} {:>4} {:>12} {:>12} {:>12} {:>12}\n",
            "program",
            "platform",
            "fabric",
            "calibration",
            "noise",
            "n",
            "min",
            "median",
            "p95",
            "max"
        ));
        for c in &self.cells {
            let d = &c.makespan;
            out.push_str(&format!(
                "{:<10} {:<10} {:<8} {:<16} {:<10} {:>4} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                c.key.program,
                c.key.platform,
                c.key.fabric,
                c.key.calibration,
                c.key.noise,
                d.n,
                d.min,
                d.median,
                d.p95,
                d.max
            ));
        }
        out.push_str(&format!("decoded trace held: {} B\n", self.trace_bytes));
        out
    }
}

impl SweepConfig {
    fn validate(&self) -> Result<(), String> {
        if self.programs.is_empty() {
            return Err("sweep needs at least one program".into());
        }
        if self.platforms.is_empty() {
            return Err("sweep needs at least one platform".into());
        }
        if self.fabrics.is_empty() {
            return Err("sweep needs at least one fabric".into());
        }
        if self.noises.is_empty() {
            return Err("sweep needs at least one noise axis".into());
        }
        if self.workers == 0 {
            return Err("sweep needs at least one worker".into());
        }
        let has_surf = self
            .fabrics
            .iter()
            .any(|(_, f)| matches!(f, FabricKind::Surf { .. }));
        if has_surf && self.calibrations.is_empty() {
            return Err("a surf fabric needs at least one calibration".into());
        }
        for axis in &self.noises {
            axis.model
                .validate()
                .map_err(|e| format!("noise axis '{}': {e}", axis.name))?;
            if axis.replications == 0 {
                return Err(format!("noise axis '{}' has zero replications", axis.name));
            }
        }
        Ok(())
    }

    /// Enumerates the matrix in stable lexicographic order: program →
    /// platform → fabric → calibration → noise → replication. Scenario ids
    /// are the positions in this order, independent of workers/seed — the
    /// streamed table is sorted by them.
    fn enumerate(&self) -> (Vec<ScenarioSpec>, Vec<CellKey>) {
        let mut scenarios = Vec::new();
        let mut cells = Vec::new();
        for (pi, prog) in self.programs.iter().enumerate() {
            for (li, (plat_name, _)) in self.platforms.iter().enumerate() {
                for (fi, (fab_name, fabric)) in self.fabrics.iter().enumerate() {
                    // The packet substrate has no calibration axis: one
                    // pseudo-entry labeled "-" instead of |calibrations|
                    // duplicate cells.
                    let cals: Vec<(Option<usize>, &str)> = match fabric {
                        FabricKind::Surf { .. } => self
                            .calibrations
                            .iter()
                            .enumerate()
                            .map(|(ci, (name, _))| (Some(ci), name.as_str()))
                            .collect(),
                        FabricKind::Packet { .. } => vec![(None, "-")],
                    };
                    for (cal, cal_name) in cals {
                        for (ni, axis) in self.noises.iter().enumerate() {
                            let cell = cells.len();
                            cells.push(CellKey {
                                program: prog.name.clone(),
                                platform: plat_name.clone(),
                                fabric: fab_name.clone(),
                                calibration: cal_name.to_string(),
                                noise: axis.name.clone(),
                            });
                            for rep in 0..axis.replications {
                                scenarios.push(ScenarioSpec {
                                    cell,
                                    program: pi,
                                    platform: li,
                                    fabric: fi,
                                    cal,
                                    noise: ni,
                                    rep,
                                });
                            }
                        }
                    }
                }
            }
        }
        (scenarios, cells)
    }

    /// Number of scenarios the matrix expands to.
    pub fn scenario_count(&self) -> usize {
        self.enumerate().0.len()
    }
}

/// The perturbation stream of `(seed, platform, noise axis, replication)`.
///
/// Deliberately *not* keyed by program, fabric or calibration: cells that
/// differ only in those axes draw identical perturbations (common random
/// numbers), so their per-replication comparison is paired.
fn scenario_rng(seed: u64, platform: usize, noise: usize, rep: u32) -> CbRng {
    CbRng::new(seed)
        .stream(platform as u64)
        .stream(noise as u64)
        .stream(rep as u64)
}

/// Every program's trace as the scenarios replay it, `TITRACE2` files
/// decoded into memory (checked: a corrupt block is an error naming it,
/// not a panic in every scenario).
fn decode_programs(programs: &[Program]) -> io::Result<Vec<Arc<TiTrace>>> {
    programs
        .iter()
        .map(|prog| match &prog.source {
            TraceSource::Mem(trace) => Ok(Arc::clone(trace)),
            file => file.clone().materialize().map(Arc::new).map_err(|e| {
                let kind = match &e {
                    TraceIoError::Io(io) => io.kind(),
                    _ => io::ErrorKind::InvalidData,
                };
                io::Error::new(kind, format!("program '{}': {e}", prog.name))
            }),
        })
        .collect()
}

fn run_scenario(cfg: &SweepConfig, traces: &[Arc<TiTrace>], sc: &ScenarioSpec) -> Outcome {
    let (_, rp) = &cfg.platforms[sc.platform];
    let (backend, profile) = match &cfg.fabrics[sc.fabric].1 {
        FabricKind::Surf { engine, profile } => {
            let model = cfg.calibrations[sc.cal.expect("surf scenario has a calibration")]
                .1
                .clone();
            (
                Backend::Surf {
                    model,
                    engine: engine.clone(),
                },
                profile.clone(),
            )
        }
        FabricKind::Packet { config, profile } => {
            (Backend::Packet { config: *config }, profile.clone())
        }
    };
    let mut world = World::new(Arc::clone(rp), backend, profile);
    let axis = &cfg.noises[sc.noise];
    if !axis.model.is_zero() {
        let rng = scenario_rng(cfg.seed, sc.platform, sc.noise, sc.rep);
        world = world.perturbation(Arc::new(axis.model.sample(rp.platform(), &rng)));
    }
    let report = smpi_replay::replay(&world, Arc::clone(&traces[sc.program]));
    Outcome {
        cell: sc.cell,
        makespan: report.sim_time,
        simcalls: report.profile.simcalls,
        wall_s: report.wall.as_secs_f64(),
        peak_bytes: report.memory.peak_bytes,
    }
}

fn render_line(
    cfg: &SweepConfig,
    cells: &[CellKey],
    id: usize,
    sc: &ScenarioSpec,
    out: &Outcome,
) -> String {
    let key = &cells[sc.cell];
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("scenario").uint_val(id as u64);
    j.key("cell").uint_val(sc.cell as u64);
    j.key("program").str_val(&key.program);
    j.key("platform").str_val(&key.platform);
    j.key("fabric").str_val(&key.fabric);
    j.key("calibration").str_val(&key.calibration);
    j.key("noise").str_val(&key.noise);
    j.key("rep").uint_val(sc.rep as u64);
    j.key("makespan").num_val(out.makespan);
    j.key("simcalls").uint_val(out.simcalls);
    // Host-dependent fields follow the `Deterministic` discipline: zeroed
    // under strip_hostdep so the streamed table is machine-portable.
    let (wall_s, peak) = if cfg.strip_hostdep {
        (0.0, 0)
    } else {
        (out.wall_s, out.peak_bytes)
    };
    j.key("wall_s").num_val(wall_s);
    j.key("peak_bytes").uint_val(peak);
    j.end_obj();
    j.finish()
}

/// State shared between workers: the reorder-buffered sink plus the
/// outcome store the aggregation pass reads.
struct SharedEmit<W: Write> {
    emitter: OrderedEmitter<W>,
    outcomes: Vec<Option<Outcome>>,
    io_err: Option<io::Error>,
}

/// Runs the whole matrix, streaming one JSON line per finished scenario to
/// `sink` (in stable scenario-id order regardless of completion order) and
/// returning the aggregated report.
///
/// Each `TITRACE2` program is decoded into memory once, after the clock
/// starts (so [`SweepReport::wall_s`] counts it), and every scenario
/// replays that copy; a decode failure is returned before any scenario
/// runs, with nothing written to `sink`. So is an invalid config, as an
/// [`io::ErrorKind::InvalidInput`] error that names what is wrong.
///
/// Determinism contract: for a fixed config (matrix + seed), the bytes
/// written to `sink` and every `cells` distribution are identical for any
/// `workers` value. Host-dependent fields (`wall_s`, `scenarios_per_s`,
/// the per-line wall/memory fields unless `strip_hostdep` is off) and
/// schedule-dependent ones (`reorder_high_water`, the per-worker counters)
/// are the only exceptions, and the report's
/// [`strip_nondeterminism`](smpi_obs::Deterministic::strip_nondeterminism)
/// zeroes the report-level ones.
pub fn run_sweep<W: Write + Send>(cfg: &SweepConfig, sink: W) -> io::Result<(SweepReport, W)> {
    cfg.validate().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid sweep config: {e}"),
        )
    })?;
    let (scenarios, cells) = cfg.enumerate();
    let n = scenarios.len();
    let next = AtomicUsize::new(0);
    let shared = Mutex::new(SharedEmit {
        emitter: OrderedEmitter::new(sink),
        outcomes: vec![None; n],
        io_err: None,
    });

    let start = Instant::now();
    let traces = decode_programs(&cfg.programs)?;
    let trace_bytes = traces.iter().map(|t| t.decoded_bytes()).sum();
    let joined: Vec<std::thread::Result<WorkerStats>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|_| {
                let next = &next;
                let shared = &shared;
                let scenarios = &scenarios;
                let cells = &cells;
                let traces = &traces;
                s.spawn(move || {
                    let mut stats = WorkerStats::default();
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        if id >= n {
                            break;
                        }
                        let sc = &scenarios[id];
                        let t0 = Instant::now();
                        let out = run_scenario(cfg, traces, sc);
                        stats.busy_s += t0.elapsed().as_secs_f64();
                        stats.scenarios += 1;
                        let line = render_line(cfg, cells, id, sc, &out);
                        let mut sh = shared.lock().unwrap();
                        sh.outcomes[id] = Some(out);
                        if sh.io_err.is_none() {
                            if let Err(e) = sh.emitter.push(id, line) {
                                sh.io_err = Some(e);
                            }
                        }
                    }
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    // A panicking worker poisons the mutex; the survivors' results inside
    // are still sound.
    let sh = shared
        .into_inner()
        .unwrap_or_else(|poison| poison.into_inner());
    let panicked = joined.iter().filter(|r| r.is_err()).count();
    if panicked > 0 {
        // Flush every buffered in-order result, marking each hole with an
        // explicit gap record, so the JSON-lines stream stays usable and
        // self-describing instead of silently truncating at the gap.
        sh.emitter.abort()?;
        return Err(io::Error::other(format!(
            "{panicked} sweep worker(s) panicked; partial results flushed with sweep-gap records"
        )));
    }
    let worker_stats: Vec<WorkerStats> = joined
        .into_iter()
        .map(|r| r.expect("checked above"))
        .collect();
    if let Some(e) = sh.io_err {
        return Err(e);
    }
    let reorder_high_water = sh.emitter.high_water();
    let sink = sh.emitter.finish()?;

    // Aggregation: outcomes are stored by scenario id, and a cell's
    // scenarios are contiguous in id order — fold them per cell.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    for out in sh.outcomes.iter() {
        let out = out.expect("every scenario ran");
        samples[out.cell].push(out.makespan);
    }
    let summaries = cells
        .into_iter()
        .zip(samples)
        .map(|(key, s)| CellSummary {
            key,
            makespan: Distribution::from_samples(&s),
        })
        .collect();

    Ok((
        SweepReport {
            scenarios: n,
            workers: cfg.workers,
            seed: cfg.seed,
            trace_bytes,
            wall_s,
            scenarios_per_s: if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 },
            reorder_high_water,
            stats: SweepStats {
                workers: worker_stats,
            },
            cells: summaries,
        },
        sink,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smpi_platform::{flat_cluster, ClusterConfig};

    fn tiny_platform(name: &str, hosts: usize) -> (String, Arc<RoutedPlatform>) {
        (
            name.to_string(),
            Arc::new(RoutedPlatform::new(flat_cluster(
                name,
                hosts,
                &ClusterConfig::default(),
            ))),
        )
    }

    fn capture_ring(rp: &Arc<RoutedPlatform>) -> Arc<TiTrace> {
        let world = World::smpi(Arc::clone(rp), TransferModel::default_affine()).capture(true);
        let report = world.run(4, |ctx| {
            ctx.compute(1e5 * (ctx.rank() + 1) as f64);
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let mut buf = vec![0.0f64; 1024];
            let data = vec![ctx.rank() as f64; 1024];
            ctx.sendrecv(&data, right, 3, &mut buf, left as i32, 3, &ctx.world());
        });
        Arc::new(report.ti_trace.unwrap())
    }

    fn small_config() -> SweepConfig {
        let plat = tiny_platform("p0", 4);
        let trace = capture_ring(&plat.1);
        SweepConfig {
            programs: vec![Program::trace("ring", trace)],
            platforms: vec![plat, tiny_platform("p1", 8)],
            fabrics: vec![
                ("surf".into(), FabricKind::surf()),
                ("packet".into(), FabricKind::packet()),
            ],
            calibrations: vec![
                ("affine".into(), TransferModel::default_affine()),
                ("affine-2".into(), TransferModel::affine(1.5, 0.8)),
            ],
            noises: vec![NoiseAxis::none(), NoiseAxis::jitter("j10", 0.1, 3)],
            workers: 2,
            seed: 7,
            strip_hostdep: true,
        }
    }

    #[test]
    fn matrix_enumeration_dedups_packet_calibrations() {
        let cfg = small_config();
        // 1 program × 2 platforms × (surf × 2 cals + packet × 1) × 2 noise
        // axes = 12 cells; scenarios = cells × (1 + 3) / 2 noise split.
        let (scenarios, cells) = cfg.enumerate();
        assert_eq!(cells.len(), 12);
        // Per (platform, fabric-cal) group: none → 1, j10 → 3.
        assert_eq!(scenarios.len(), 2 * 3 * (1 + 3));
        // Ids are strictly increasing cell-contiguous.
        for w in scenarios.windows(2) {
            assert!(w[1].cell >= w[0].cell);
        }
        assert_eq!(cfg.scenario_count(), scenarios.len());
    }

    #[test]
    fn sweep_runs_and_aggregates() {
        let cfg = small_config();
        let (report, lines) = run_sweep(&cfg, Vec::new()).unwrap();
        assert_eq!(report.scenarios, 24);
        assert_eq!(report.stats.total_scenarios(), 24);
        assert_eq!(report.cells.len(), 12);
        let text = String::from_utf8(lines).unwrap();
        assert_eq!(text.lines().count(), 24);
        // Lines are in scenario-id order.
        for (i, line) in text.lines().enumerate() {
            assert!(line.starts_with(&format!("{{\"scenario\":{i},")), "{line}");
        }
        // Every cell distribution has the right replication count.
        for c in &report.cells {
            let expect = if c.key.noise == "none" { 1 } else { 3 };
            assert_eq!(c.makespan.n, expect, "{:?}", c.key);
        }
        // Noise actually spreads the distribution on at least one cell.
        assert!(report
            .cells
            .iter()
            .any(|c| c.key.noise == "j10" && c.makespan.max > c.makespan.min));
        // Render and JSON don't panic and mention a cell.
        assert!(report.render().contains("ring"));
        assert!(report.to_json().contains("\"cells\""));
    }

    /// The ring trace of `cfg`'s only program.
    fn ring_trace(cfg: &SweepConfig) -> Arc<TiTrace> {
        match &cfg.programs[0].source {
            TraceSource::Mem(t) => Arc::clone(t),
            TraceSource::File(_) => unreachable!("small_config is trace-fed"),
        }
    }

    /// Writes `bytes` to a per-process temporary file (concurrent test
    /// invocations must not race on it) and opens its reader.
    fn open_tit2(name: &str, bytes: &[u8]) -> (std::path::PathBuf, Arc<smpi::TiV2Reader>) {
        let dir = std::env::temp_dir().join(format!("smpi_sweep_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.tit2");
        std::fs::write(&path, bytes).unwrap();
        (dir, Arc::new(smpi::TiV2Reader::open(&path).unwrap()))
    }

    /// A sink that stays readable after the sweep consumed it.
    #[derive(Clone, Debug, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_fed_sweep_is_byte_identical_to_trace_fed() {
        // Feeding workers from a TITRACE2 file must not change a single
        // output byte relative to the in-memory trace path.
        let cfg = small_config();
        let (dir, reader) = open_tit2("stream", &smpi::encode_v2(&ring_trace(&cfg)));
        let mut stream_cfg = cfg.clone();
        stream_cfg.programs = vec![Program::stream("ring", reader)];

        let (mut report_t, lines_t) = run_sweep(&cfg, Vec::new()).unwrap();
        let (mut report_s, lines_s) = run_sweep(&stream_cfg, Vec::new()).unwrap();
        assert_eq!(lines_t, lines_s, "scenario lines diverge");
        assert!(report_t.trace_bytes > 0);
        assert_eq!(report_t.trace_bytes, report_s.trace_bytes);
        use smpi_obs::Deterministic as _;
        report_t.strip_nondeterminism();
        report_s.strip_nondeterminism();
        assert_eq!(report_t.to_json(), report_s.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sweep_decodes_every_block_once() {
        // The sweep decodes the file up front and every scenario replays
        // that copy, however many workers share it.
        let trace = ring_trace(&small_config());
        for workers in [1, 4] {
            let (dir, reader) = open_tit2(&format!("decode{workers}"), &smpi::encode_v2(&trace));
            let cfg = SweepConfig {
                programs: vec![Program::stream("ring", Arc::clone(&reader))],
                workers,
                ..small_config()
            };
            let (report, _) = run_sweep(&cfg, Vec::new()).unwrap();
            assert_eq!(report.scenarios, 24);
            // Each of the ring's 4 ranks fits one block.
            assert_eq!(reader.stats().blocks_decoded, 4, "{workers} workers");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_corrupt_block_fails_the_sweep_before_any_scenario() {
        let cfg = small_config();
        let trace = ring_trace(&cfg);
        let bytes = Shared::default();
        let mut w = smpi::TiV2Writer::new(bytes.clone(), trace.num_ranks());
        let mut second_block = 0;
        for (rank, ops) in trace.ranks.iter().enumerate() {
            if rank == 1 {
                second_block = bytes.0.lock().unwrap().len();
            }
            w.write_block(rank as u32, ops).unwrap();
        }
        w.finish().unwrap();
        let mut bytes = std::mem::take(&mut *bytes.0.lock().unwrap());
        // Block header: varint(rank) varint(nops) u8(comp) ...; flip the
        // compression tag of rank 1's block into an unknown one.
        bytes[second_block + 2] ^= 0xff;
        let (dir, reader) = open_tit2("corrupt", &bytes);
        let cfg = SweepConfig {
            programs: vec![Program::stream("ring", reader)],
            ..cfg
        };
        let sink = Shared::default();
        let err = run_sweep(&cfg, sink.clone()).expect_err("a corrupt block fails the sweep");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("program 'ring'"), "{msg}");
        assert!(
            msg.contains("TITRACE2 decode error in block header"),
            "{msg}"
        );
        assert!(!msg.contains("panicked"), "{msg}");
        assert!(
            sink.0.lock().unwrap().is_empty(),
            "the sweep wrote to its sink"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_panic_surfaces_gap_and_flushes_tail() {
        use smpi::{TiOp, WaitMode};
        let plat = tiny_platform("p0", 4);
        let trace = capture_ring(&plat.1);
        // Rank 1 waits on a receive nobody sends to: `replay` panics on
        // the deadlock, killing its worker.
        let deadlock = TiTrace {
            ranks: vec![
                vec![TiOp::Compute { flops: 1e6 }],
                vec![
                    TiOp::Recv {
                        src: 0,
                        cid: 0,
                        tag: 9,
                        max_bytes: 64,
                    },
                    TiOp::Wait {
                        reqs: vec![0],
                        mode: WaitMode::All,
                    },
                ],
            ],
        };
        let cfg = SweepConfig {
            programs: vec![
                // Scenario 0 deadlocks; scenario 1 survives.
                Program::trace("boom", Arc::new(deadlock)),
                Program::trace("ring", trace),
            ],
            platforms: vec![plat],
            fabrics: vec![("surf".into(), FabricKind::surf())],
            calibrations: vec![("affine".into(), TransferModel::default_affine())],
            noises: vec![NoiseAxis::none()],
            workers: 2,
            seed: 7,
            strip_hostdep: true,
        };
        let store = Shared::default();
        let err = run_sweep(&cfg, store.clone()).expect_err("a dead worker must fail the sweep");
        assert!(err.to_string().contains("panicked"), "{err}");
        // The surviving scenario was flushed behind an explicit gap record
        // instead of being silently dropped with the reorder buffer.
        let text = String::from_utf8(store.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "stream: {text}");
        assert!(lines[0].contains("\"type\":\"sweep-gap\""), "{}", lines[0]);
        assert!(lines[0].contains("\"missing_from\":0"), "{}", lines[0]);
        assert!(lines[0].contains("\"missing_to\":0"), "{}", lines[0]);
        assert!(lines[1].contains("\"scenario\":1"), "{}", lines[1]);
        assert!(lines[1].contains("\"program\":\"ring\""), "{}", lines[1]);
    }

    #[test]
    fn surf_without_calibration_is_rejected() {
        let trace = capture_ring(&tiny_platform("c", 4).1);
        let valid = SweepConfig {
            programs: vec![Program::trace("ring", trace)],
            platforms: vec![tiny_platform("p0", 2)],
            fabrics: vec![("surf".into(), FabricKind::surf())],
            calibrations: vec![("affine".into(), TransferModel::default_affine())],
            noises: vec![NoiseAxis::none()],
            ..Default::default()
        };
        let no_calibration = SweepConfig {
            calibrations: vec![],
            ..valid.clone()
        };
        let no_workers = SweepConfig {
            workers: 0,
            ..valid.clone()
        };
        let no_replications = SweepConfig {
            noises: vec![NoiseAxis::jitter("j10", 0.1, 0)],
            ..valid
        };
        for (cfg, why) in [
            (
                no_calibration,
                "a surf fabric needs at least one calibration",
            ),
            (no_workers, "sweep needs at least one worker"),
            (no_replications, "noise axis 'j10' has zero replications"),
        ] {
            let sink = Shared::default();
            let err = run_sweep(&cfg, sink.clone()).expect_err(why);
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert_eq!(err.to_string(), format!("invalid sweep config: {why}"));
            assert!(sink.0.lock().unwrap().is_empty(), "{why}: wrote to sink");
        }
    }
}
