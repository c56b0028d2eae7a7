//! `repro -- gate [scale sweep trace]` — the consolidated benchmark
//! regression gate.
//!
//! One declarative table replaces the per-job python snippets the CI
//! workflow used to carry: each entry names a metric inside a committed
//! `BENCH_*.json` document, its hardware-independent absolute floor, and
//! its ratio against the `git show HEAD:` reference (see
//! [`smpi_diff::gate`] for the engine and DESIGN.md §18 for the
//! rationale). Every evaluation is appended to
//! `target/bench_history.jsonl` and the folded per-metric trends are
//! printed, so slow drifts that never trip a single gate stay visible.
//!
//! The rendering ends with a `GATE: PASS` / `GATE: FAIL` line; the
//! `repro` binary exits non-zero on `GATE: FAIL`.

use smpi_diff::{append_history, git_reference, render_trends, run_gates, trends, GateSpec};

/// The benchmark gates, one table for all benchmark jobs. Ratios
/// compare two measurements of the same quantity (robust to runner
/// variance); absolute floors encode format/algorithm promises.
pub const GATES: &[GateSpec] = &[
    // 4k-rank scheduler throughput within a generous 10x cross-hardware
    // factor of the reference (catches a return to the O(waiters) sweep).
    GateSpec {
        name: "scale.simcalls_4k",
        file: "BENCH_scale.json",
        selector: "tiers[ranks=4096].simcalls_per_s",
        floor_abs: 0.0,
        ref_ratio: 0.1,
        enable_if: None,
    },
    // 1-worker sweep throughput within 10x of the reference (catches
    // per-scenario platform re-parsing or trace deep copies).
    GateSpec {
        name: "sweep.scenarios_1w",
        file: "BENCH_sweep.json",
        selector: "runs[workers=1].scenarios_per_s",
        floor_abs: 0.0,
        ref_ratio: 0.1,
        enable_if: None,
    },
    // 4-worker speedup acceptance floor, only meaningful on >= 4 cores.
    GateSpec {
        name: "sweep.speedup_4w",
        file: "BENCH_sweep.json",
        selector: "speedup_4w",
        floor_abs: 3.0,
        ref_ratio: 0.0,
        enable_if: Some(("host_cores", 4.0)),
    },
    // TITRACE2 compression ratio: the 5x format promise is
    // hardware-independent (both sides are byte counts).
    GateSpec {
        name: "trace.ratio",
        file: "BENCH_trace.json",
        selector: "ratio",
        floor_abs: 5.0,
        ref_ratio: 0.0,
        enable_if: None,
    },
    // Decode throughput within 5x of the reference (catches a return to
    // per-op string parsing).
    GateSpec {
        name: "trace.decode_mops",
        file: "BENCH_trace.json",
        selector: "decode_mops_per_s",
        floor_abs: 0.0,
        ref_ratio: 0.2,
        enable_if: None,
    },
];

/// `HEAD` commit id for the history stamp, or `"worktree"` outside git.
fn head_stamp() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "worktree".to_string())
}

/// Evaluates the gates whose name starts with one of `sets`
/// (`scale`/`sweep`/`trace`; empty = all), appends the outcome to
/// `target/bench_history.jsonl`, writes the JSON report to
/// `target/diff/gate_report.json`, and returns the rendering (ending in
/// the `GATE:` verdict line).
pub fn gate(sets: &[&str]) -> String {
    let specs: Vec<GateSpec> = GATES
        .iter()
        .filter(|g| sets.is_empty() || sets.iter().any(|s| g.name.split('.').next() == Some(*s)))
        .cloned()
        .collect();
    let report = run_gates(&specs, git_reference);

    let dir = std::path::Path::new("target/diff");
    let mut out = String::new();
    if std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("gate_report.json"), report.to_json()))
        .is_ok()
    {
        out.push_str("wrote target/diff/gate_report.json\n");
    }
    let history = std::path::Path::new("target/bench_history.jsonl");
    if append_history(history, &head_stamp(), &report).is_ok() {
        out.push_str(&render_trends(&trends(history)));
    }
    out.push_str(&report.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_table_mirrors_the_ci_jobs() {
        // One gate set per benchmark job, with the documented floors.
        let sets: std::collections::BTreeSet<_> = GATES
            .iter()
            .map(|g| g.name.split('.').next().unwrap())
            .collect();
        assert_eq!(
            sets.into_iter().collect::<Vec<_>>(),
            ["scale", "sweep", "trace"]
        );
        let by_name = |n: &str| GATES.iter().find(|g| g.name == n).unwrap();
        assert_eq!(by_name("trace.ratio").floor_abs, 5.0);
        assert_eq!(
            by_name("sweep.speedup_4w").enable_if,
            Some(("host_cores", 4.0))
        );
    }

    #[test]
    fn missing_documents_fail_loudly_not_silently() {
        // Run from a scratch cwd-relative namespace: the selected gate's
        // document will not exist, which must FAIL (a gate that cannot
        // measure must not pass). Filtering to an unknown set yields an
        // empty (vacuously passing) report instead.
        let report = run_gates(
            &[GateSpec {
                name: "trace.ratio",
                file: "definitely_missing_BENCH_trace.json",
                selector: "ratio",
                floor_abs: 5.0,
                ref_ratio: 0.0,
                enable_if: None,
            }],
            |_| None,
        );
        assert!(!report.pass());
        assert!(report.render().contains("GATE: FAIL"));
        assert!(gate(&["no-such-set"]).contains("GATE: PASS (0 gates"));
    }
}
