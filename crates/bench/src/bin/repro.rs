//! Regenerates every table/figure of the paper's evaluation.
//!
//! Usage: `repro [fig3 ... fig18 | ablations | dt | ep | all]`; `all` (the
//! default) is every figure plus the ablations. `REPRO_FAST=1` trims sweeps.

#![forbid(unsafe_code)]

use smpi_bench::{
    ablations, e2e, fig_alltoall, fig_dt, fig_pingpong, fig_scatter, fig_schemes, fig_speed,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

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
            "dt" => e2e::dt_report(),
            "ep" => e2e::ep_report(),
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
