//! Large-instance scaling benchmark (`repro -- scale`).
//!
//! Reproduces the paper's headline capability — *large* MPI instances on a
//! single node (§3, §5.1) — and measures the simulator's scheduling
//! overhead as the rank count grows: an EP-style workload (compute blocks
//! and a final allreduce) where `SMPI_SAMPLE_GLOBAL` makes compute time
//! and `SMPI_SHARED_MALLOC` folding makes application RAM independent of
//! the rank count, so what remains is pure simulator cost per simcall.
//!
//! Tiers: 1k/4k ranks under `REPRO_FAST=1` (the CI configuration), plus a
//! 16k-rank tier in full mode. `SCALE_RANKS=<n>` runs a single ad-hoc tier.
//! Every simulated rank is a fiber on the maestro thread and holds two
//! address-space map entries (stack + guard page), so 16 384 ranks fit the
//! default `vm.max_map_count` of 65 530 and 65 536 cannot: there is no
//! on-line 64k tier (`tests/replay_scale.rs` runs that rank count
//! off-line), and a host with a smaller budget gets `simix`'s panic naming
//! the sysctl.
//! Emits `BENCH_scale.json` (see EXPERIMENTS.md for the schema): per tier
//! `ranks`, `wall_s`, `simcalls`, `simcalls_per_s`, `sim_time`,
//! `peak_actual_bytes`, `peak_logical_bytes` and the kernel fast-path
//! counters `classes_folded` / `batched_completions`, plus the pre-change
//! 4k-rank baseline and the improvement ratio against it. CI gates on
//! `simcalls_per_s` at the 4k tier staying within a generous factor of the
//! committed reference (a ratio of two measurements of the same quantity
//! is robust to runner variance).
//!
//! Every tier runs with the time-series sampler on and live progress lines
//! on stderr (JSON, every 2 s of wall time; from the second tier onward
//! the previous tier's simulated makespan seeds the ETA extrapolation).
//! The last tier's telemetry lands in `target/obs/timeseries.json` and
//! `target/obs/chrome_trace.json` (load the latter in `chrome://tracing`).

use std::fmt::Write as _;
use std::sync::Arc;

use smpi::World;
use smpi_platform::{griffon, RoutedPlatform};
use smpi_workloads::ep_block;
use surf_sim::TransferModel;

/// Maestro-simcall throughput of the 4k-rank tier measured at commit
/// 2905af0 ("Rewrite SURF kernel for O(active) per-event cost"), i.e.
/// immediately before the scheduler fast-path and the O(completions)
/// progress engine landed. The improvement ratio in `BENCH_scale.json`
/// is relative to this figure.
pub const PRE_CHANGE_BASELINE_4K_SIMCALLS_PER_S: f64 = 3891.6;

/// Per-rank compute blocks (each one `SMPI_SAMPLE_GLOBAL` site visit).
const BLOCKS_PER_RANK: usize = 4;
/// Measurements pooled across *all* ranks before the mean replays.
const GLOBAL_MEASURE: u32 = 8;
/// Candidate pairs per measured block (kept small: the point is that only
/// `GLOBAL_MEASURE` blocks execute no matter how many ranks run).
const PAIRS_PER_BLOCK: u64 = 4096;
/// Folded per-rank field size in f64 elements (256 KiB logical per rank).
const FIELD_LEN: usize = 1 << 15;

struct Tier {
    ranks: usize,
    wall_s: f64,
    sim_time: f64,
    simcalls: u64,
    local_simcalls: u64,
    simcalls_per_s: f64,
    peak_actual_bytes: u64,
    peak_logical_bytes: u64,
    /// Rendered kernel introspection (reshare component sizes, dirty
    /// cascades, solve wall-clock). Always present: the kernel counts
    /// these even with metrics off.
    kernel: String,
    /// Kernel fast-path counters (see `KernelProfile`): flows saved by
    /// uniform-round class folding and completions coalesced into shared
    /// reshares.
    classes_folded: u64,
    batched_completions: u64,
    /// `"timeseries"` JSON section of the tier's run.
    timeseries_json: String,
}

fn run_tier(ranks: usize, sim_time_hint: Option<f64>) -> Tier {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    let mut world = World::smpi(rp, TransferModel::default_affine())
        .timeseries(true)
        .progress_every(2.0);
    if let Some(hint) = sim_time_hint {
        world = world.progress_hint(hint);
    }
    let report = world.run(ranks, move |ctx| {
        // Folded field: every rank "allocates" FIELD_LEN doubles, one copy
        // actually exists (§3.2 technique #1).
        let field = ctx.shared_malloc::<f64>("scale:field", FIELD_LEN);
        let r = ctx.rank() as u64;
        let mut sx = 0.0;
        let mut sy = 0.0;
        let mut accepted = 0.0;
        for b in 0..BLOCKS_PER_RANK as u64 {
            let part = std::cell::Cell::new(smpi_workloads::EpPartial::default());
            ctx.sample_global("scale:block", GLOBAL_MEASURE, || {
                part.set(ep_block(
                    (r * BLOCKS_PER_RANK as u64 + b) * PAIRS_PER_BLOCK,
                    PAIRS_PER_BLOCK,
                ));
            });
            let p = part.get();
            sx += p.sx;
            sy += p.sy;
            accepted += p.q.iter().sum::<f64>();
            // Touch the folded field (ranks clobber each other — the
            // accepted corruption trade-off of §3.2).
            field.lock()[(r as usize * 7 + b as usize) % FIELD_LEN] = sx;
        }
        let global = ctx.allreduce(&[sx, sy, accepted], &smpi::op::sum(), &ctx.world());
        (global[0], global[1], global[2])
    });
    let simcalls = report.profile.simcalls;
    let local_simcalls = report.profile.local_simcalls;
    let wall_s = report.wall.as_secs_f64();
    let k = report.profile.kernel.as_ref();
    let tier = Tier {
        ranks,
        wall_s,
        sim_time: report.sim_time,
        simcalls,
        local_simcalls,
        simcalls_per_s: simcalls as f64 / wall_s,
        peak_actual_bytes: report.memory.peak_bytes,
        peak_logical_bytes: report.memory.logical_peak_bytes,
        kernel: k.map(|k| k.render()).unwrap_or_default(),
        classes_folded: k.map_or(0, |k| k.classes_folded),
        batched_completions: k.map_or(0, |k| k.batched_completions),
        timeseries_json: report
            .timeseries
            .as_ref()
            .map(|ts| ts.to_json())
            .unwrap_or_default(),
    };

    // Stream the Chrome Trace Event export straight to disk: at the 16k+
    // tiers the materialized string costs tens of MB of transient heap for
    // no reason. Each tier overwrites the file, so it ends up holding the
    // largest tier that ran — same final state as the old buffered write.
    let dir = std::path::Path::new("target/obs");
    std::fs::create_dir_all(dir).expect("create target/obs");
    let f = std::fs::File::create(dir.join("chrome_trace.json")).expect("create chrome_trace");
    let mut w = std::io::BufWriter::new(f);
    report
        .write_chrome_trace(&mut w)
        .expect("stream chrome trace");
    std::io::Write::flush(&mut w).expect("flush chrome trace");
    tier
}

/// Runs the scaling tiers, writes `BENCH_scale.json`, and returns the
/// human-readable summary.
pub fn scale() -> String {
    let fast = std::env::var("REPRO_FAST").is_ok();
    let tiers: Vec<usize> = match std::env::var("SCALE_RANKS") {
        Ok(v) => vec![v.parse().expect("SCALE_RANKS must be an integer")],
        Err(_) if fast => vec![1024, 4096],
        Err(_) => vec![1024, 4096, 16384],
    };

    // Each tier seeds the next one's progress ETA with its simulated
    // makespan (the workload's sim_time is nearly rank-independent).
    let mut results: Vec<Tier> = Vec::with_capacity(tiers.len());
    for &n in &tiers {
        let hint = results.last().map(|t: &Tier| t.sim_time);
        results.push(run_tier(n, hint));
    }

    // Telemetry artifacts of the largest tier (the Chrome Trace export is
    // already streamed to target/obs/chrome_trace.json inside run_tier).
    if let Some(t) = results.last() {
        let dir = std::path::Path::new("target/obs");
        std::fs::create_dir_all(dir).expect("create target/obs");
        std::fs::write(dir.join("timeseries.json"), &t.timeseries_json)
            .expect("write timeseries.json");
    }

    let mut json = String::from("{\n  \"tiers\": [\n");
    for (i, t) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"ranks\": {}, \"wall_s\": {:.6}, \"sim_time\": {:.9}, \
             \"simcalls\": {}, \"local_simcalls\": {}, \"simcalls_per_s\": {:.1}, \
             \"peak_actual_bytes\": {}, \"peak_logical_bytes\": {}, \
             \"classes_folded\": {}, \"batched_completions\": {} }}{}",
            t.ranks,
            t.wall_s,
            t.sim_time,
            t.simcalls,
            t.local_simcalls,
            t.simcalls_per_s,
            t.peak_actual_bytes,
            t.peak_logical_bytes,
            t.classes_folded,
            t.batched_completions,
            if i + 1 < results.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let four_k = results.iter().find(|t| t.ranks == 4096);
    let _ = writeln!(
        json,
        "  \"baseline_4k_simcalls_per_s\": {PRE_CHANGE_BASELINE_4K_SIMCALLS_PER_S:.1},"
    );
    if let Some(t) = four_k {
        let _ = writeln!(
            json,
            "  \"improvement_4k\": {:.2},",
            t.simcalls_per_s / PRE_CHANGE_BASELINE_4K_SIMCALLS_PER_S
        );
    }
    let _ = writeln!(json, "  \"fast_mode\": {fast}\n}}");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# scale: EP with SMPI_SAMPLE_GLOBAL({GLOBAL_MEASURE}) + folded allocations, griffon"
    );
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>12} {:>10} {:>14} {:>14} {:>16} {:>16}",
        "ranks",
        "wall_s",
        "sim_time",
        "simcalls",
        "local_calls",
        "simcalls/s",
        "peak_actual_B",
        "peak_logical_B"
    );
    for t in &results {
        let _ = writeln!(
            out,
            "{:>7} {:>10.3} {:>12.6} {:>10} {:>14} {:>14.1} {:>16} {:>16}",
            t.ranks,
            t.wall_s,
            t.sim_time,
            t.simcalls,
            t.local_simcalls,
            t.simcalls_per_s,
            t.peak_actual_bytes,
            t.peak_logical_bytes
        );
    }
    if let Some(t) = four_k {
        let _ = writeln!(
            out,
            "4k-rank improvement vs pre-change baseline ({PRE_CHANGE_BASELINE_4K_SIMCALLS_PER_S:.0} simcalls/s): {:.2}x",
            t.simcalls_per_s / PRE_CHANGE_BASELINE_4K_SIMCALLS_PER_S
        );
    }
    if let Some(t) = results.last() {
        let _ = writeln!(
            out,
            "kernel introspection ({} ranks, metrics off):",
            t.ranks
        );
        out.push_str(&t.kernel);
    }
    let _ = writeln!(
        out,
        "wrote BENCH_scale.json, target/obs/timeseries.json, target/obs/chrome_trace.json"
    );
    out
}
