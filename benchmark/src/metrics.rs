//! The fixed vocabulary of the suite: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repository root lists the same names; `tests/schema.rs` fails if
//! the two drift apart.

use std::collections::BTreeMap;

/// Workloads in the order the suite runs them.
pub const WORKLOADS: [&str; 7] = [
    "halo_p2p",
    "coll_scale",
    "dt_fidelity",
    "kernel_churn",
    "kernel_coupled",
    "replay_halo",
    "sweep_grid",
];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline median by which the metric may worsen before
    /// `--compare` calls it a regression. All four are lower-is-better.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.20,
    },
    EndToEnd {
        name: "fidelity_max_err_pct",
        unit: "%",
        bound: 0.06,
    },
];

/// Per-layer metrics (layer = crate name) as `(name, unit)`. A traced run
/// reports every one of them; a metric the workload does not exercise
/// reads 0 (README.md has the workload × metric table).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("core.phase.actor_execution_s", "s"),
    ("core.phase.simcall_handling_s", "s"),
    ("core.phase.fabric_advance_s", "s"),
    ("core.phase.waiter_resolution_s", "s"),
    ("core.phase.unattributed_s", "s"),
    ("core.simcalls", "count"),
    ("core.local_simcalls", "count"),
    ("core.tokens", "count"),
    ("core.sim_time_s", "s"),
    ("core.simcalls_per_s", "1/s"),
    ("surf.events_per_s", "1/s"),
    ("replay.ops_per_s", "1/s"),
    ("sweep.scenarios_per_s", "1/s"),
    ("simix.handoff_ns_256", "ns"),
    ("simix.handoff_ns_1024", "ns"),
    ("simix.spawn_us", "us"),
    ("core.matching.match_ns", "ns"),
    ("core.matching.wildcard_ns", "ns"),
    ("surf.reshares", "count"),
    ("surf.solve_s", "s"),
    ("surf.component_vars_mean", "count"),
    ("surf.cascade_mean", "count"),
    ("surf.classes_folded", "count"),
    ("surf.batched_completions", "count"),
    ("surf.parallel_components", "count"),
    ("surf.heap_rebuilds", "count"),
    ("surf.heap_orphans", "count"),
    ("surf.lmm.solve_us_64", "us"),
    ("surf.lmm.solve_us_1024", "us"),
    ("packetnet.run_s", "s"),
    ("core.surf_run_s", "s"),
    ("packetnet.msg_us", "us"),
    ("core.codec.v2_encode_mops", "Mops/s"),
    ("core.codec.v2_decode_mops", "Mops/s"),
    ("core.codec.v1_encode_mops", "Mops/s"),
    ("core.codec.v1_decode_mops", "Mops/s"),
    ("core.codec.stream_iter_mops", "Mops/s"),
    ("core.codec.v2_bytes_per_op", "B/op"),
    ("core.capture.overhead_pct", "%"),
    ("replay.vs_online_ratio", "ratio"),
    ("sweep.scenarios_per_s_1w", "1/s"),
    ("sweep.scaling", "ratio"),
    ("sweep.stolen", "count"),
    ("sweep.reorder_high_water", "count"),
    ("platform.build_griffon_ms", "ms"),
    ("platform.xml_parse_ms", "ms"),
    ("platform.route_ns", "ns"),
    ("calibration.pingpong_s", "s"),
    ("calibration.fit_ms", "ms"),
    ("obs.export.json_ms", "ms"),
    ("obs.export.paje_ms", "ms"),
    ("obs.export.chrome_ms", "ms"),
    ("obs.export.critical_path_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("diff.trace_mops", "Mops/s"),
    ("diff.report_ms", "ms"),
];

/// The per-layer account of one traced run: every name of [`PER_LAYER`],
/// 0 until the workload's traced pass measures it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Records a measurement. Panics on a name outside [`PER_LAYER`]: the
    /// metric list is a contract, not a free-form bag.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}
