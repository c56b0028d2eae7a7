//! Parallel replication sweep benchmark (`repro -- sweep`).
//!
//! The capture-once/replay-many workflow at population scale: one NAS DT
//! class-S run is captured on-line and saved as a `TITRACE2` file, then a
//! scenario matrix — 2 platforms (griffon, gdx) × (surf kernel × 2
//! calibrated models + packet substrate) × 3 noise axes (none, 5% jitter,
//! 20% jitter, with replications) — is expanded into 66 scenarios and
//! executed by the `smpi-sweep` work-stealing pool at 1, 2 and 4 workers,
//! with every replay rank pulling ops from the shared block-streaming
//! decoder (`TiV2Reader`). The same matrix and seed every time, so the
//! streamed results tables are byte-identical across worker counts *and*
//! byte-identical to a sweep fed from the materialized v1 trace (both are
//! asserted here, not just tested in the crate).
//!
//! Artifacts:
//!
//! * `target/sweep/dt.tit2` — the `TITRACE2` capture the workers stream;
//! * `target/sweep/results.jsonl` — the streamed per-scenario table (one
//!   JSON line per scenario, stable scenario-id order);
//! * `target/sweep/report.json` — the aggregated per-cell distributions of
//!   the widest run;
//! * `BENCH_sweep.json` — scenarios/s per worker count plus the 4-vs-1
//!   speedup (see EXPERIMENTS.md for the schema and the CI gate).
//!
//! `host_cores` is recorded because the speedup is only meaningful on a
//! multi-core host: the committed reference comes from CI's 4-core runners,
//! while single-core boxes (like some dev containers) legitimately see
//! speedup ≈ 1 — the CI gate checks the ratio only when cores allow.

use std::fmt::Write as _;
use std::sync::Arc;

use smpi_sweep::{run_sweep, FabricKind, NoiseAxis, Program, SweepConfig};
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};

use crate::common;

/// Scenario throughput at 1 worker measured on the 1-core container this
/// subsystem was developed in (66 DT-S scenarios streamed from the shared
/// `TiV2Reader`, commit introducing `TITRACE2`). The regression gate in CI compares against this within a
/// generous cross-hardware factor.
pub const BASELINE_1W_SCENARIOS_PER_S: f64 = 753.2;

fn capture_dt_s() -> Arc<smpi::TiTrace> {
    let world = common::smpi_world(common::griffon_rp()).capture(true);
    let class = DtClass::S;
    let graph = Arc::new(build_graph(class, DtGraph::Bh));
    let g = Arc::clone(&graph);
    let report = world.run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class));
    Arc::new(report.ti_trace.expect("capture enabled"))
}

fn matrix(workers: usize, program: Program) -> SweepConfig {
    SweepConfig {
        programs: vec![program],
        platforms: vec![
            ("griffon".into(), common::griffon_rp()),
            ("gdx".into(), common::gdx_rp()),
        ],
        fabrics: vec![
            ("surf".into(), FabricKind::surf()),
            ("packet".into(), FabricKind::packet()),
        ],
        calibrations: vec![
            ("piecewise-3".into(), common::piecewise_model().clone()),
            ("affine-best".into(), common::best_affine_model().clone()),
        ],
        noises: vec![
            NoiseAxis::none(),
            NoiseAxis::jitter("j5", 0.05, 5),
            NoiseAxis::jitter("j20", 0.20, 5),
        ],
        workers,
        seed: 1977,
        strip_hostdep: true,
    }
}

/// Runs the sweep benchmark, writes `BENCH_sweep.json` and the results
/// artifacts, and returns the human-readable summary.
pub fn sweep() -> String {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let trace = capture_dt_s();

    let dir = std::path::Path::new("target/sweep");
    std::fs::create_dir_all(dir).expect("create target/sweep");

    // Workers stream ops from the shared TITRACE2 block decoder instead of
    // an in-memory trace: write the capture out once, open it once, and
    // every scenario's replay ranks pull blocks through the weak cache.
    let tit2 = dir.join("dt.tit2");
    smpi_replay::save_trace_v2(&tit2, &trace).expect("write dt.tit2");
    let reader = Arc::new(smpi::TiV2Reader::open(&tit2).expect("open dt.tit2"));
    let stream_program = || Program::stream("dt-S", Arc::clone(&reader));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# sweep: 1 DT-S capture -> {} scenarios (2 platforms x (surf x 2 cals + packet) x 3 noise axes)",
        matrix(1, stream_program()).scenario_count()
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>14} {:>8} {:>10}",
        "workers", "wall_s", "scenarios/s", "stolen", "reorder"
    );

    // Cross-format reference: the same matrix fed from the materialized v1
    // trace must produce the very bytes the streamed runs produce.
    let ref_cfg = matrix(1, Program::trace("dt-S", Arc::clone(&trace)));
    let (_, ref_lines) = run_sweep(&ref_cfg, Vec::new()).expect("reference sweep");
    let reference = String::from_utf8(ref_lines).expect("utf8 table");

    let mut runs = Vec::new();
    let mut last_report = None;
    for workers in [1usize, 2, 4] {
        let cfg = matrix(workers, stream_program());
        let (report, lines) = run_sweep(&cfg, Vec::new()).expect("sweep to memory");
        let table = String::from_utf8(lines).expect("utf8 table");
        assert_eq!(
            reference, table,
            "streamed results table must be byte-identical to the \
             trace-fed table at any worker count"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>10.3} {:>14.2} {:>8} {:>10}",
            workers,
            report.wall_s,
            report.scenarios_per_s,
            report.stats.total_stolen(),
            report.reorder_high_water,
        );
        runs.push((
            workers,
            report.wall_s,
            report.scenarios_per_s,
            report.stats.total_stolen(),
        ));
        last_report = Some((report, table));
    }
    let (mut report, table) = last_report.expect("three runs");
    let scenarios = report.scenarios;
    assert!(scenarios >= 64, "matrix must expand to >= 64 scenarios");

    std::fs::write(dir.join("results.jsonl"), &table).expect("write results.jsonl");
    smpi_obs::Deterministic::strip_nondeterminism(&mut report);
    std::fs::write(dir.join("report.json"), report.to_json()).expect("write report.json");

    let speedup_4w = runs[2].2 / runs[0].2;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scenarios\": {scenarios},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, (workers, wall_s, sps, stolen)) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"workers\": {workers}, \"wall_s\": {wall_s:.6}, \
             \"scenarios_per_s\": {sps:.2}, \"stolen\": {stolen} }}{}",
            if i + 1 < runs.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedup_4w\": {speedup_4w:.2},");
    let _ = writeln!(
        json,
        "  \"baseline_1w_scenarios_per_s\": {BASELINE_1W_SCENARIOS_PER_S:.1}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");

    let _ = writeln!(
        out,
        "speedup at 4 workers vs 1: {speedup_4w:.2}x on {host_cores} host core(s)"
    );
    let _ = writeln!(
        out,
        "per-cell makespan distributions ({} cells):",
        report.cells.len()
    );
    out.push_str(&report.render());
    let _ = writeln!(
        out,
        "wrote BENCH_sweep.json, target/sweep/results.jsonl, target/sweep/report.json"
    );
    out
}
