//! `sweep_grid`: the capture-once / replay-many population run — sweep
//! pool, counter-based RNG, ordered emitter, replay per scenario and
//! `packetnet` cells, on as many workers as the child has CPUs.

use std::sync::Arc;

use smpi::TiV2Reader;
use smpi_platform::{gdx, RoutedPlatform};
use smpi_sweep::{run_sweep, FabricKind, NoiseAxis, Program, SweepConfig, SweepReport};
use smpi_workloads::{build_graph, dt_rank, DtClass, DtGraph};

use super::{Calibrated, Cx, Rep, Workload};
use crate::metrics::Layers;
use crate::probes;
use crate::spans::Spans;

pub struct SweepGrid {
    config: SweepConfig,
    /// The 1-worker table every N-worker table must equal byte for byte.
    reference: Option<Vec<u8>>,
}

impl SweepGrid {
    fn run(&self, workers: usize) -> (SweepReport, Vec<u8>) {
        let config = SweepConfig {
            workers,
            ..self.config.clone()
        };
        run_sweep(&config, Vec::new()).expect("sweep to memory")
    }

    fn matches_one_worker(&mut self, table: &[u8]) -> bool {
        if self.reference.is_none() {
            self.reference = Some(self.run(1).1);
        }
        self.reference.as_deref() == Some(table)
    }
}

impl Workload for SweepGrid {
    fn setup(cx: &Cx) -> Self {
        let cal = Calibrated::griffon();
        let class = DtClass::S;
        let graph = Arc::new(build_graph(class, DtGraph::Bh));
        let g = Arc::clone(&graph);
        let capture = cx.tmp.join("dt-s.tit2");
        cal.world()
            .capture_to(&capture)
            .run(graph.num_nodes(), move |ctx| dt_rank(ctx, &g, class));
        let reader = Arc::new(TiV2Reader::open(&capture).expect("open the capture"));
        let replications = if cx.quick { 5 } else { 60 };
        SweepGrid {
            config: SweepConfig {
                programs: vec![Program::stream("dt-S", reader)],
                platforms: vec![
                    ("griffon".into(), Arc::clone(&cal.rp)),
                    ("gdx".into(), Arc::new(RoutedPlatform::new(gdx()))),
                ],
                fabrics: vec![
                    ("surf".into(), FabricKind::surf()),
                    ("packet".into(), FabricKind::packet()),
                ],
                calibrations: vec![("piecewise-3".into(), cal.model)],
                noises: vec![
                    NoiseAxis::none(),
                    NoiseAxis::jitter("j5", 0.05, replications),
                    NoiseAxis::jitter("j20", 0.20, replications),
                ],
                workers: cx.workers,
                seed: cx.seed,
                strip_hostdep: true,
            },
            reference: None,
        }
    }

    fn rep(&mut self) -> Rep {
        let (report, table) = self.run(self.config.workers);
        let expected = self.config.scenario_count();
        let lines = table.iter().filter(|&&b| b == b'\n').count();
        let no_gaps = !String::from_utf8_lossy(&table).contains("sweep-gap");
        let same_as_one_worker = self.matches_one_worker(&table);
        Rep::checked(
            report.wall_s,
            vec![("scenarios", report.scenarios as u64)],
            &[
                (
                    report.scenarios == expected && lines == expected,
                    "scenario count differs from the matrix",
                ),
                (no_gaps, "the table holds gap records"),
                (
                    same_as_one_worker,
                    "the N-worker table differs from the 1-worker table",
                ),
            ],
        )
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let wall_s = typical.wall_s;
        let workers = self.config.workers;
        let (report, table) = spans.scope("sweep.run_sweep", |_| self.run(workers));
        let (one, _) = spans.scope("sweep.run_sweep.1w", |_| self.run(1));
        let scenarios = report.scenarios as f64;
        layers.set("sweep.scenarios_per_s", scenarios / wall_s);
        layers.set("sweep.scenarios_per_s_1w", scenarios / one.wall_s);
        layers.set("sweep.scaling", one.wall_s / wall_s);
        layers.set("sweep.stolen", report.stats.total_stolen() as f64);
        layers.set("sweep.reorder_high_water", report.reorder_high_water as f64);
        layers.set(
            "obs.trace_overhead_pct",
            super::overhead_pct(report.wall_s, wall_s),
        );
        probes::platform_and_calibration(spans, layers);
        Rep::checked(
            report.wall_s,
            vec![("scenarios", report.scenarios as u64)],
            &[(
                self.matches_one_worker(&table),
                "the N-worker table differs from the 1-worker table",
            )],
        )
    }
}
