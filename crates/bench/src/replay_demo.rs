//! Capture → replay showcase for `repro -- replay`.
//!
//! Demonstrates the off-line complement of the on-line simulator:
//!
//! 1. run NAS DT and EP on-line on griffon with capture enabled,
//! 2. replay each captured trace on the same world and cross-validate the
//!    makespan (tight tolerance — same platform replay is exact),
//! 3. replay the DT trace against gdx (model swap, no application code),
//! 4. measure the replay-vs-online wall-clock speedup.
//!
//! Artifacts land under `target/replay/`:
//!
//! * `dt.tit`, `ep.tit` — the captured `TITRACE v1` files;
//! * `replay_report.json`, `replay_trace.paje` — full `RunReport` JSON and
//!   Paje timeline of a replayed run (same observability artifacts as an
//!   on-line run).
//!
//! The speedup printed here is one unrepeated run; the measured number is
//! `benchmark/`'s `replay.vs_online_ratio`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use smpi::{TiTrace, World};
use smpi_platform::{gdx, griffon, RoutedPlatform};
use smpi_replay as replay;
use smpi_workloads::{build_graph, dt_rank, ep_rank, DtClass, DtGraph, EpConfig};
use surf_sim::TransferModel;

struct Captured {
    name: &'static str,
    online_sim: f64,
    online_wall: f64,
    trace: TiTrace,
}

fn griffon_world() -> World {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    World::smpi(rp, TransferModel::default_affine())
}

fn capture_dt(class: DtClass) -> Captured {
    let world = griffon_world().capture(true);
    let graph = Arc::new(build_graph(class, DtGraph::Bh));
    let g = Arc::clone(&graph);
    let report = world.run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class));
    Captured {
        name: "dt",
        online_sim: report.sim_time,
        online_wall: report.wall.as_secs_f64(),
        trace: report.ti_trace.unwrap(),
    }
}

fn capture_ep(cfg: EpConfig) -> Captured {
    let world = griffon_world().capture(true);
    let report = world.run(8, move |ctx| ep_rank(ctx, cfg));
    Captured {
        name: "ep",
        online_sim: report.sim_time,
        online_wall: report.wall.as_secs_f64(),
        trace: report.ti_trace.unwrap(),
    }
}

/// Runs the demo (`fast`: DT class S and a small EP instead of class A)
/// and returns the human-readable summary. Artifacts land under
/// `target/replay/`.
pub fn replay_demo(fast: bool) -> String {
    let (dt_class, ep_cfg) = if fast {
        (
            DtClass::S,
            EpConfig {
                total_pairs: 1 << 16,
                blocks_per_rank: 8,
                sampling_ratio: 1.0,
            },
        )
    } else {
        (
            DtClass::A,
            EpConfig {
                total_pairs: 1 << 20,
                blocks_per_rank: 32,
                sampling_ratio: 1.0,
            },
        )
    };

    let dir = std::path::Path::new("target/replay");
    std::fs::create_dir_all(dir).expect("create target/replay");

    let mut out = String::new();
    let _ = writeln!(out, "# replay: capture -> replay -> cross-validate");

    for cap in [capture_dt(dt_class), capture_ep(ep_cfg)] {
        let path = dir.join(format!("{}.tit", cap.name));
        std::fs::write(&path, cap.trace.encode()).expect("write trace");
        let s = cap.trace.summary();

        // Replay on the capture world: validates, and times the replay.
        let world = griffon_world();
        let t0 = Instant::now();
        let replayed = replay::replay(&world, &cap.trace);
        let replay_wall = t0.elapsed().as_secs_f64();
        let rel_err = (replayed.sim_time - cap.online_sim).abs() / cap.online_sim;
        let speedup = cap.online_wall / replay_wall.max(1e-9);

        let _ = writeln!(
            out,
            "{}: {} ranks, {} ops ({} sends, {:.1} MiB posted) -> {}",
            cap.name,
            cap.trace.num_ranks(),
            s.ops,
            s.sends,
            s.send_bytes as f64 / (1024.0 * 1024.0),
            path.display(),
        );
        let _ = writeln!(
            out,
            "  online  {:.6} s simulated in {:.4} s wall",
            cap.online_sim, cap.online_wall
        );
        let _ = writeln!(
            out,
            "  replay  {:.6} s simulated in {:.4} s wall  (rel err {:.2e}, speedup {:.1}x)",
            replayed.sim_time, replay_wall, rel_err, speedup
        );
        assert!(
            rel_err <= 1e-3,
            "{}: replay drifted by {rel_err:.2e} on the capture platform",
            cap.name
        );

        // Model swap: the same trace predicts a different cluster.
        if cap.name == "dt" {
            let gdx_world = World::smpi(
                Arc::new(RoutedPlatform::new(gdx())),
                TransferModel::default_affine(),
            );
            let on_gdx = replay::replay(&gdx_world, &cap.trace);
            let _ = writeln!(
                out,
                "  swap    {:.6} s simulated on gdx (no application code executed)",
                on_gdx.sim_time
            );

            // A replayed run produces the full observability artifact set;
            // the report streams straight to disk.
            let obs_replay = replay::replay(&gdx_world.metrics(true), &cap.trace);
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(dir.join("replay_report.json"))
                    .expect("create replay_report.json"),
            );
            obs_replay
                .write_json(&mut f)
                .expect("write replay_report.json");
            drop(f);
            std::fs::write(dir.join("replay_trace.paje"), obs_replay.paje())
                .expect("write replay_trace.paje");
        }
    }

    let _ = writeln!(
        out,
        "wrote target/replay/replay_report.json, replay_trace.paje"
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn demo_produces_all_artifacts() {
        let out = super::replay_demo(true);
        assert!(out.contains("speedup"));
        assert!(out.contains("on gdx"));
        for artifact in [
            "target/replay/dt.tit",
            "target/replay/ep.tit",
            "target/replay/replay_report.json",
            "target/replay/replay_trace.paje",
        ] {
            assert!(
                std::path::Path::new(artifact).exists(),
                "missing {artifact}"
            );
        }
    }
}
