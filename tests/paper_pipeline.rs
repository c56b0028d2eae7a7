//! Cross-crate integration: the full paper pipeline with accuracy gates.
//!
//! These tests mirror the headline claims of the evaluation (§7) at reduced
//! scale so they run in CI time. The error bounds are intentionally looser
//! than the measured values in EXPERIMENTS.md — they are regression alarms,
//! not benchmarks.

use std::sync::Arc;

use smpi_suite::calibrate::{
    fit_best_affine, fit_default_affine, fit_piecewise, pingpong, RouteRef,
};
use smpi_suite::metrics::ErrorSummary;
use smpi_suite::platform::{flat_cluster, ClusterConfig, HostIx, RoutedPlatform};
use smpi_suite::smpi::{MpiProfile, World};
use smpi_suite::workloads::{timed_alltoall, timed_scatter};

fn small_cluster(n: usize) -> Arc<RoutedPlatform> {
    Arc::new(RoutedPlatform::new(flat_cluster(
        "it",
        n,
        &ClusterConfig::default(),
    )))
}

fn cal_sizes() -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = 1u64;
    while s <= 1 << 22 {
        v.push(s);
        v.push(s * 3 / 2);
        s *= 2;
    }
    v.sort_unstable();
    v.dedup();
    v
}

struct Calibrated {
    rp: Arc<RoutedPlatform>,
    model: surf_sim::TransferModel,
    samples: Vec<smpi_suite::calibrate::Sample>,
    route: RouteRef,
}

fn calibrate() -> Calibrated {
    let rp = small_cluster(16);
    let testbed = World::testbed(Arc::clone(&rp), MpiProfile::openmpi_like());
    let samples = pingpong(&testbed, 0, 1, &cal_sizes(), 1);
    let route = RouteRef {
        latency: rp.latency(HostIx(0), HostIx(1)),
        bandwidth: rp.bandwidth(HostIx(0), HostIx(1)),
    };
    let model = fit_piecewise(&samples, 3, route);
    Calibrated {
        rp,
        model,
        samples,
        route,
    }
}

#[test]
fn accuracy_ordering_piecewise_best_default() {
    let cal = calibrate();
    let truth: Vec<f64> = cal.samples.iter().map(|s| s.time).collect();
    let e = |m: &surf_sim::TransferModel| {
        let p = smpi_suite::calibrate::predict(m, &cal.samples, cal.route);
        ErrorSummary::compare(&p, &truth).mean
    };
    let pw = e(&cal.model);
    let bf = e(&fit_best_affine(&cal.samples, cal.route));
    let da = e(&fit_default_affine(&cal.samples, cal.route));
    assert!(pw < bf, "piecewise {pw} !< best-fit {bf}");
    assert!(bf < da, "best-fit {bf} !< default {da}");
    assert!(pw < 0.10, "piecewise error too large: {pw}");
}

#[test]
fn smpi_scatter_tracks_testbed_within_20_percent() {
    let cal = calibrate();
    let chunk = 64 * 1024; // 512 KiB chunks: rendezvous regime
    let smpi = World::smpi(Arc::clone(&cal.rp), cal.model.clone())
        .run(16, move |ctx| timed_scatter(ctx, chunk));
    let open = World::testbed(Arc::clone(&cal.rp), MpiProfile::openmpi_like())
        .run(16, move |ctx| timed_scatter(ctx, chunk));
    let e = ErrorSummary::compare(&smpi.results, &open.results);
    assert!(e.mean < 0.20, "scatter error {e}");
}

#[test]
fn contention_blind_underestimates_alltoall() {
    let cal = calibrate();
    let chunk = 64 * 1024;
    let run_max = |world: &World| -> f64 {
        world
            .run(8, move |ctx| timed_alltoall(ctx, chunk))
            .results
            .into_iter()
            .fold(0.0, f64::max)
    };
    let with = run_max(&World::smpi(Arc::clone(&cal.rp), cal.model.clone()));
    let without = run_max(&World::new(
        Arc::clone(&cal.rp),
        smpi_suite::smpi::Backend::Surf {
            model: surf_sim::TransferModel::ideal(),
            engine: surf_sim::EngineConfig {
                contention: false,
                tcp_window: None,
            },
        },
        MpiProfile::smpi(),
    ));
    let truth = run_max(&World::testbed(
        Arc::clone(&cal.rp),
        MpiProfile::openmpi_like(),
    ));
    // The paper's Fig. 11 shape: ignoring contention underestimates badly;
    // modelling it lands close.
    assert!(
        without < truth * 0.7,
        "no-contention should underestimate: {without} vs truth {truth}"
    );
    let e = ErrorSummary::compare(&[with], &[truth]);
    assert!(e.mean < 0.25, "contention-aware error {e}");
}

#[test]
fn simulation_is_faster_than_simulated_reality() {
    // Fig. 17's core claim: in the folded configuration (§3.2 — no
    // application bytes moved, as the paper's large-scale runs require),
    // SMPI's wall-clock time is far below the simulated execution time.
    let cal = calibrate();
    let chunk_bytes = 4 * 1024 * 1024; // 4 MiB messages
    let report = World::smpi(Arc::clone(&cal.rp), cal.model.clone()).run(16, move |ctx| {
        smpi_suite::workloads::timed_scatter_folded(ctx, chunk_bytes)
    });
    assert!(
        report.wall.as_secs_f64() < report.sim_time,
        "simulation ({}s) slower than simulated time ({}s)",
        report.wall.as_secs_f64(),
        report.sim_time
    );
}

#[test]
fn platform_xml_roundtrip_preserves_simulation_results() {
    use smpi_suite::platform::{from_xml, to_xml};
    let rp = small_cluster(8);
    let xml = to_xml(rp.platform());
    let rp2 = Arc::new(RoutedPlatform::new(from_xml(&xml).expect("parse")));
    let chunk = 16 * 1024;
    let run = |rp: Arc<RoutedPlatform>| {
        World::smpi(rp, surf_sim::TransferModel::default_affine())
            .run(8, move |ctx| timed_scatter(ctx, chunk))
            .results
    };
    assert_eq!(
        run(rp),
        run(rp2),
        "XML roundtrip changed simulation results"
    );
}

#[test]
fn full_runs_are_deterministic_across_repetitions() {
    let cal = calibrate();
    let run = || {
        World::smpi(Arc::clone(&cal.rp), cal.model.clone())
            .run(8, |ctx| {
                let comm = ctx.world();
                let mine = vec![ctx.rank() as f64; 1000];
                let all = ctx.allgather(&mine, &comm);
                let sum = ctx.allreduce(
                    &[all.iter().sum::<f64>()],
                    &smpi_suite::smpi::op::sum(),
                    &comm,
                );
                (sum[0], ctx.wtime())
            })
            .results
    };
    assert_eq!(run(), run());
}
