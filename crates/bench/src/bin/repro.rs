//! Regenerates every table/figure of the paper's evaluation.
//!
//! Usage: `repro [fig3 fig4 ... | all]`. `REPRO_FAST=1` trims sweeps.

#![forbid(unsafe_code)]

use smpi_bench::{
    ablations, contention_demo, diff_demo, e2e, fig_alltoall, fig_dt, fig_pingpong, fig_scatter,
    fig_schemes, fig_speed, gate, obs_demo, replay_demo, scale, sweep_bench, trace_bench,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `gate` consumes the rest of the argument list as gate-set filters
    // (e.g. `repro -- gate scale sweep`); exit 1 on a failed gate.
    if args.first().map(String::as_str) == Some("gate") {
        let sets: Vec<&str> = args[1..].iter().map(String::as_str).collect();
        let out = gate::gate(&sets);
        println!("{out}");
        if !out.contains("GATE: PASS") {
            std::process::exit(1);
        }
        return;
    }

    let targets: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "ablations",
            "obs",
            "contention",
            "replay",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    for target in targets {
        let t0 = std::time::Instant::now();
        let out = match target {
            "fig3" => fig_pingpong::fig3().render(),
            "fig4" => fig_pingpong::fig4().render(),
            "fig5" => fig_pingpong::fig5().render(),
            "fig6" => fig_schemes::fig6(),
            "fig7" => fig_scatter::fig7().render(),
            "fig8" => fig_scatter::fig8().render(),
            "fig9" => fig_scatter::fig9().render(),
            "fig10" => fig_schemes::fig10(),
            "fig11" => fig_alltoall::fig11().render(),
            "fig12" => fig_alltoall::fig12().render(),
            "fig13" | "fig14" => fig_schemes::fig13_14(),
            "fig15" => fig_dt::fig15().render(),
            "fig16" => fig_dt::fig16().render(),
            "fig17" => fig_speed::fig17().render(),
            "fig18" => fig_speed::fig18().render(),
            "obs" => obs_demo::obs(),
            "contention" => contention_demo::contention(),
            "diff" => diff_demo::diff(),
            "replay" => replay_demo::replay_demo(),
            "dt" => e2e::dt_report(),
            "ep" => e2e::ep_report(),
            "scale" => scale::scale(),
            "sweep" => sweep_bench::sweep(),
            "trace" => trace_bench::trace(),
            "ablations" => format!(
                "{}\n{}\n{}",
                ablations::segment_sweep(),
                ablations::scatter_variants(),
                ablations::contention_scaling()
            ),
            other => {
                eprintln!("unknown target {other:?}");
                std::process::exit(2);
            }
        };
        println!("{out}");
        eprintln!("[{} done in {:.1}s]\n", target, t0.elapsed().as_secs_f64());
    }
}
