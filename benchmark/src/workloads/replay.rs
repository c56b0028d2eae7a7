//! `replay_halo`: the off-line path — codec, simix, runtime and surf with
//! no application code or payload. Replays the capture of the `halo_p2p`
//! program.

use std::path::PathBuf;
use std::sync::Arc;

use smpi::{RunReport, TiV2Reader};

use super::halo::{run_halo, HaloInput};
use super::{exact_counts, overhead_pct, record_traced_run, timed, Calibrated, Cx, Rep, Workload};
use crate::metrics::Layers;
use crate::probes;
use crate::spans::Spans;
use crate::stats::median;

pub struct ReplayHalo {
    cal: Calibrated,
    input: Arc<HaloInput>,
    capture: PathBuf,
    /// What the capture run recorded; the replay must reproduce it.
    captured_sim_time: f64,
    captured_simcalls: u64,
    captured_ops: u64,
}

impl ReplayHalo {
    /// Runs the stencil program on-line, optionally streaming its
    /// time-independent trace to the capture file.
    fn online(&self, capture: bool) -> (RunReport<(f64, f64)>, f64) {
        let mut world = self.cal.world();
        if capture {
            world = world.capture_to(&self.capture);
        }
        run_halo(&world, &self.input)
    }

    fn replay(&self, metrics: bool) -> (RunReport<()>, Rep) {
        let world = self.cal.world().metrics(metrics);
        let ((ops, report), wall_s) = timed(|| {
            let reader = Arc::new(TiV2Reader::open(&self.capture).expect("open the capture"));
            (
                reader.total_ops(),
                smpi_replay::replay_stream(&world, reader),
            )
        });
        let rep = Rep::checked(
            wall_s,
            exact_counts(&report.profile),
            &[
                (
                    report.sim_time.to_bits() == self.captured_sim_time.to_bits(),
                    "replayed simulated time differs from the capture run's",
                ),
                (
                    ops == self.captured_ops && report.profile.simcalls == self.captured_simcalls,
                    "ops replayed differ from ops captured",
                ),
            ],
        );
        (report, rep)
    }
}

impl Workload for ReplayHalo {
    fn setup(cx: &Cx) -> Self {
        let mut w = ReplayHalo {
            cal: Calibrated::griffon(),
            input: HaloInput::generate(cx),
            capture: cx.tmp.join("halo.tit2"),
            captured_sim_time: 0.0,
            captured_simcalls: 0,
            captured_ops: 0,
        };
        let (report, _) = w.online(true);
        w.captured_sim_time = report.sim_time;
        w.captured_simcalls = report.profile.simcalls;
        w.captured_ops = report.profile.codec.expect("streaming capture ran").ops;
        w
    }

    fn rep(&mut self) -> Rep {
        self.replay(false).1
    }

    fn traced(&mut self, typical: &Rep, spans: &mut Spans, layers: &mut Layers) -> Rep {
        let wall_s = typical.wall_s;
        let (report, rep) = spans.scope("replay.replay_stream", |_| self.replay(true));
        record_traced_run(&report.profile, rep.wall_s, typical, layers);
        layers.set("replay.ops_per_s", self.captured_ops as f64 / wall_s);

        // The same program on-line, with and without capture, interleaved.
        let (mut plain_s, mut captured_s) = (Vec::new(), Vec::new());
        spans.scope("world.run.capture_pairs", |_| {
            for _ in 0..3 {
                plain_s.push(self.online(false).1);
                captured_s.push(self.online(true).1);
            }
        });
        let online_s = median(&plain_s);
        layers.set(
            "core.capture.overhead_pct",
            overhead_pct(median(&captured_s), online_s),
        );
        layers.set("replay.vs_online_ratio", wall_s / online_s);
        probes::codec(&self.capture, spans, layers);
        rep
    }
}
