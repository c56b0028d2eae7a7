//! `dt_fidelity`: NAS DT class A on the flow model and on `packetnet` —
//! the paper's Fig. 15 workload, and the source of the accuracy metric.
//! Few simcalls, 128 MiB of real payload: the `ctx` payload path and the
//! packet substrate do the work, simix and surf almost none.

use std::sync::Arc;

use smpi::{MpiProfile, RunReport, World};
use smpi_platform::{griffon, RoutedPlatform};
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};
use surf_sim::TransferModel;

use super::{record_traced_run, timed, Calibrated, Cx, Rep, Workload, SIM_TIME_BITS};
use crate::metrics::Layers;
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, Lcg};

/// The same cluster simulated twice: by the flow model and by the
/// packet-level ground truth.
struct Substrates {
    flow: World,
    packet: World,
    /// First host of the round-robin placement.
    first_host: usize,
    hosts: usize,
}

/// One DT graph run on both substrates.
struct Pair {
    flow: RunReport<f64>,
    packet: RunReport<f64>,
    flow_s: f64,
    packet_s: f64,
}

impl Pair {
    /// Relative error of the flow model's makespan, in percent.
    fn error_pct(&self) -> f64 {
        100.0 * (self.flow.sim_time - self.packet.sim_time).abs() / self.packet.sim_time
    }
}

impl Substrates {
    fn new(rp: Arc<RoutedPlatform>, model: TransferModel, first_host: usize) -> Self {
        Substrates {
            hosts: rp.platform().num_hosts(),
            flow: World::smpi(Arc::clone(&rp), model),
            packet: World::testbed(rp, MpiProfile::openmpi_like()),
            first_host,
        }
    }

    fn run(&self, class: DtClass, shape: DtGraph, metrics: bool) -> Pair {
        let graph = Arc::new(build_graph(class, shape));
        let ranks = graph.num_nodes();
        let placement: Vec<usize> = (0..ranks)
            .map(|r| (self.first_host + r) % self.hosts)
            .collect();
        let one = |world: &World| {
            let graph = Arc::clone(&graph);
            let world = world.clone().place(placement.clone());
            timed(|| world.run(ranks, move |ctx| dt_rank(ctx, &graph, class)))
        };
        let (flow, flow_s) = one(&self.flow.clone().metrics(metrics));
        let (packet, packet_s) = one(&self.packet);
        Pair {
            flow,
            packet,
            flow_s,
            packet_s,
        }
    }

    /// Max over the three DT graphs of the flow model's error. `bh` is the
    /// Black Hole error when a rep already measured it.
    fn max_error_pct(&self, class: DtClass, bh: Option<f64>) -> f64 {
        let bh = bh.unwrap_or_else(|| self.run(class, DtGraph::Bh, false).error_pct());
        [DtGraph::Wh, DtGraph::Sh]
            .into_iter()
            .map(|shape| self.run(class, shape, false).error_pct())
            .fold(bh, f64::max)
    }
}

/// The accuracy canary of the workloads that are not about accuracy: DT
/// class S (three graphs, a few milliseconds) with the uncalibrated
/// default model, placed from host 0. It takes no seed: its only job is to
/// stay where it is.
pub fn canary_error_pct() -> f64 {
    let rp = Arc::new(RoutedPlatform::new(griffon()));
    Substrates::new(rp, TransferModel::default_affine(), 0).max_error_pct(DtClass::S, None)
}

pub struct DtFidelity {
    class: DtClass,
    substrates: Substrates,
    /// Wall-clock of each half of every rep so far.
    flow_s: Vec<f64>,
    packet_s: Vec<f64>,
    bh_error_pct: f64,
}

impl DtFidelity {
    /// Black Hole on both substrates: the graph whose sink link carries
    /// every byte the sources produce.
    fn run(&mut self, metrics: bool) -> (Pair, Rep) {
        let pair = self.substrates.run(self.class, DtGraph::Bh, metrics);
        self.flow_s.push(pair.flow_s);
        self.packet_s.push(pair.packet_s);
        self.bh_error_pct = pair.error_pct();
        let sum_flow: f64 = pair.flow.results.iter().sum();
        let sum_packet: f64 = pair.packet.results.iter().sum();
        let rep = Rep::checked(
            pair.flow_s + pair.packet_s,
            vec![
                (SIM_TIME_BITS, pair.flow.sim_time.to_bits()),
                ("packet_sim_time_bits", pair.packet.sim_time.to_bits()),
                ("simcalls", pair.flow.profile.simcalls),
            ],
            &[
                (sum_flow != 0.0, "sink checksum is zero"),
                (
                    sum_flow.to_bits() == sum_packet.to_bits(),
                    "sink checksums differ between the two substrates",
                ),
            ],
        );
        (pair, rep)
    }
}

impl Workload for DtFidelity {
    fn setup(cx: &Cx) -> Self {
        let cal = Calibrated::griffon();
        // NAS DT takes no data seed, so the seed chooses where the graph
        // sits on the cluster, which moves the cabinet boundaries under it.
        let first_host = Lcg::new(cx.seed, 3).below(cal.rp.platform().num_hosts());
        DtFidelity {
            class: if cx.quick { DtClass::W } else { DtClass::A },
            substrates: Substrates::new(cal.rp, cal.model, first_host),
            flow_s: Vec::new(),
            packet_s: Vec::new(),
            bh_error_pct: 0.0,
        }
    }

    fn rep(&mut self) -> Rep {
        self.run(false).1
    }

    fn fidelity(&mut self) -> f64 {
        self.substrates
            .max_error_pct(self.class, Some(self.bh_error_pct))
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let flow_s = median(&self.flow_s);
        layers.set("core.surf_run_s", flow_s);
        layers.set("packetnet.run_s", median(&self.packet_s));
        let (pair, rep) = spans.scope("world.run", |_| self.run(true));
        record_traced_run(&pair.flow.profile, rep.wall_s, typical, layers);
        // Only the flow-model half makes simcalls the profile counts.
        layers.set(
            "core.simcalls_per_s",
            pair.flow.profile.simcalls as f64 / flow_s,
        );
        probes::packetnet_messages(spans, layers);
        rep
    }
}
