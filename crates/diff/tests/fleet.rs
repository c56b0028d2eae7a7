//! The contention fleet: twelve concurrent NAS DT class-S black-hole
//! instances on griffon, every sink in cabinet 0 and every leaf in
//! cabinets 1 and 2. Its 48 concurrent 32 KiB fan-in flows oversubscribe
//! the cabinet-0 spine uplink (1.25 Gb/s shared by flows whose access links
//! carry 125 Mb/s each), so contention attribution, the critical path and
//! the report diff of a run with that link halved must all name it, while
//! the time-independent captures of the two runs stay identical.

use std::sync::Arc;

use smpi::{RunReport, World};
use smpi_diff::{diff_reports, diff_traces, AlignConfig};
use smpi_platform::{griffon, PlatformPerturbation, RoutedPlatform};
use smpi_workloads::{build_graph, DtClass, DtGraph};
use surf_sim::TransferModel;

/// Concurrent DT instances: 12 × 4 leaves = 48 flows into cabinet 0.
const INSTANCES: usize = 12;

/// Every fan-in flow's max-min bottleneck.
const UPLINK: &str = "griffon-cab0-uplink";

/// Runs the fleet, with the bandwidth of the link named `halved` halved.
fn fleet(halved: Option<&str>) -> RunReport<()> {
    let class = DtClass::S;
    let graph = Arc::new(build_graph(class, DtGraph::Bh));
    let per = graph.num_nodes();
    let nranks = INSTANCES * per;
    // Sinks on cabinet-0 hosts 0..12, leaves one per host from host 33 on
    // (cabinets 1 and 2).
    let mut leaf_hosts = 33..;
    let placement = (0..nranks)
        .map(|r| {
            if graph.succ[r % per].is_empty() {
                r / per
            } else {
                leaf_hosts.next().unwrap()
            }
        })
        .collect();
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    let mut world = World::smpi(Arc::clone(&rp), TransferModel::default_affine())
        .metrics(true)
        .tracing(true)
        .capture(true)
        .place(placement);
    if let Some(name) = halved {
        let mut p = PlatformPerturbation::identity(rp.platform());
        let link = rp.platform().link_by_name(name).expect("a griffon link");
        p.link_bandwidth[link.0 as usize] = 0.5;
        world = world.perturbation(Arc::new(p));
    }
    world.run(nranks, move |ctx| {
        let comm = ctx.world();
        let local = ctx.rank() % per;
        let base = ctx.rank() - local;
        let n = class.num_samples();
        if graph.pred[local].is_empty() {
            let data = vec![local as f64; n];
            for &s in &graph.succ[local] {
                ctx.send(&data, base + s, 0, &comm);
            }
        } else {
            let reqs: Vec<_> = graph.pred[local]
                .iter()
                .map(|&p| ctx.irecv::<f64>((base + p) as i32, 0, n, &comm))
                .collect();
            for req in reqs {
                ctx.wait_recv(req, &comm);
            }
        }
    })
}

#[test]
fn the_cabinet0_uplink_bottlenecks_the_fleet_and_tops_the_diff() {
    let nominal = fleet(None);
    let c = nominal.contention.as_ref().expect("metrics were enabled");
    let m = nominal.metrics.as_ref().expect("metrics were enabled");
    assert_eq!(c.flows.len(), 4 * INSTANCES);
    // Per link, the per-flow share integrals add up to the byte integral
    // the metrics layer recorded independently.
    for (l, r) in c.link_rollup().iter().enumerate() {
        let counter = m.fcounter(&format!("surf.link.{l}.bytes"));
        let rel = (r.share_bytes - counter).abs() / counter.max(1.0);
        assert!(rel <= 1e-9, "link {l}: relative error {rel:e}");
    }
    let top = c.top_bottlenecks(1)[0].0;
    assert_eq!(c.link_name(top), UPLINK, "{}", c.render_top(5));
    let cp = nominal.critical_path().expect("tracing was enabled");
    let hop = format!("link:{UPLINK}");
    assert!(
        cp.segments.iter().any(|(w, _)| *w == hop),
        "{}",
        cp.render()
    );

    let halved = fleet(Some(UPLINK));
    let rd = diff_reports(&nominal, &halved, 8);
    let mover = rd.contention.as_ref().and_then(|c| c.top_mover());
    assert_eq!(mover, Some(UPLINK), "{}", rd.render());
    assert_eq!(rd.to_json(), diff_reports(&nominal, &halved, 8).to_json());
    let cfg = AlignConfig::default();
    let a = nominal.ti_trace.as_ref().expect("capture was enabled");
    let b = halved.ti_trace.as_ref().expect("capture was enabled");
    let td = diff_traces(a, b, &cfg);
    assert!(
        td.is_identical(),
        "captures are timing-blind:\n{}",
        td.render()
    );
    assert_eq!(td.to_json(), diff_traces(a, b, &cfg).to_json());
}
