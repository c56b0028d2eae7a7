//! Figures 3–5: ping-pong accuracy of the three point-to-point models.
//!
//! * Fig. 3 — calibration cluster (griffon), same-cabinet pair;
//! * Fig. 4 — gdx same-switch pair, **using the griffon calibration**;
//! * Fig. 5 — gdx pair across three switches, griffon calibration.
//!
//! Every figure compares the SKaMPI ground truth (packet-level simulation)
//! with the closed-form predictions of the default affine, best-fit affine
//! and piece-wise linear models, and summarizes accuracy with the
//! logarithmic error of §7.1.

use smpi_calibrate::{pingpong, predict, RouteRef, Sample};
use smpi_metrics::ErrorSummary;
use surf_sim::TransferModel;

use crate::common::{
    best_affine_model, calibration_samples, calibration_sizes, default_affine_model, gdx_rp,
    griffon_rp, openmpi_world, piecewise_model, route_ref, us, Table,
};

/// Data series for one ping-pong accuracy figure.
pub struct PingPongFigure {
    /// Human-readable scenario.
    pub title: String,
    /// The ground-truth samples.
    pub truth: Vec<Sample>,
    /// (model name, predictions, error summary) per model.
    pub models: Vec<(String, Vec<f64>, ErrorSummary)>,
}

impl PingPongFigure {
    /// Renders the figure's data table plus the error summary block.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "bytes",
            "truth(us)",
            "default(us)",
            "bestfit(us)",
            "piecewise(us)",
        ]);
        for (i, s) in self.truth.iter().enumerate() {
            t.row(vec![
                s.bytes.to_string(),
                us(s.time),
                us(self.models[0].1[i]),
                us(self.models[1].1[i]),
                us(self.models[2].1[i]),
            ]);
        }
        let mut out = format!("# {}\n{}", self.title, t.render());
        for (name, _, e) in &self.models {
            out.push_str(&format!("{name:>10}: {e}\n"));
        }
        out
    }
}

fn compare(title: &str, truth: Vec<Sample>, route: RouteRef) -> PingPongFigure {
    let truth_times: Vec<f64> = truth.iter().map(|s| s.time).collect();
    let named: [(&str, &TransferModel); 3] = [
        ("default", default_affine_model()),
        ("bestfit", best_affine_model()),
        ("piecewise", piecewise_model()),
    ];
    let models = named
        .iter()
        .map(|(name, m)| {
            let preds = predict(m, &truth, route);
            let e = ErrorSummary::compare(&preds, &truth_times);
            (name.to_string(), preds, e)
        })
        .collect();
    PingPongFigure {
        title: title.to_string(),
        truth,
        models,
    }
}

/// Fig. 3: ping-pong on the calibration cluster itself.
pub fn fig3() -> PingPongFigure {
    let truth = calibration_samples().to_vec();
    compare(
        "Fig. 3 — ping-pong on griffon (calibration cluster)",
        truth,
        route_ref(&griffon_rp(), 0, 1),
    )
}

/// Fig. 4: ping-pong on gdx, same switch, with the griffon calibration.
pub fn fig4() -> PingPongFigure {
    let rp = gdx_rp();
    let truth = pingpong(&openmpi_world(rp.clone()), 0, 1, &calibration_sizes(), 1);
    compare(
        "Fig. 4 — ping-pong on gdx (1 switch), griffon calibration",
        truth,
        route_ref(&rp, 0, 1),
    )
}

/// Fig. 5: ping-pong on gdx across three switches, griffon calibration.
pub fn fig5() -> PingPongFigure {
    let rp = gdx_rp();
    let distant = rp.platform().num_hosts() - 1;
    let truth = pingpong(
        &openmpi_world(rp.clone()),
        0,
        distant,
        &calibration_sizes(),
        1,
    );
    compare(
        "Fig. 5 — ping-pong on gdx (3 switches), griffon calibration",
        truth,
        route_ref(&rp, 0, distant),
    )
}
