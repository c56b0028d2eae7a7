//! # smpi-diff — streaming divergence attribution
//!
//! The paper's core claim is predictive fidelity: simulated runs must
//! match — each other, their replays, and calibrated reality. The
//! workspace enforces that with byte-identical golden assertions, but a
//! broken golden only says *that* two runs differ. This crate explains
//! *where and why*, in two aligned layers:
//!
//! * `trace_diff` — streams two captures ([`smpi::TraceSource`]s:
//!   TITRACE v1 or v2, in memory or on disk) with bounded memory, aligns
//!   the per-rank op streams (exact-match fast path,
//!   windowed resync across insertions/deletions), and reports the first
//!   divergent op per rank with context in TITRACE op syntax plus a
//!   whole-run edit summary by op kind;
//! * `report_diff` — deep structural comparison of two
//!   [`smpi::RunReport`]s: metrics top movers, kernel counters,
//!   per-link/per-rank contention deltas, and which segments entered or
//!   left the critical path.
//!
//! Both emit a deterministic JSON document (byte-identical across
//! repeated invocations on the same inputs) and a human-readable
//! rendering; [`JsonValue`] (re-exported from `smpi_obs::json`, the
//! format's one home) parses such documents back.
//! [`golden::assert_golden`] wires the line aligner into the e2e golden
//! tests, so a mismatch prints a first-divergence report and leaves a
//! JSON artifact under `target/diff/` for CI to upload.

#![forbid(unsafe_code)]

pub(crate) mod align;
pub(crate) mod golden;
pub(crate) mod report_diff;
pub(crate) mod trace_diff;

pub use align::AlignConfig;
pub use golden::assert_golden;
pub use report_diff::{
    diff_reports, ContentionDiff, CpDiff, LinkDelta, MetricsDiff, Mover, ReportDiff,
};
pub use smpi_obs::json::JsonValue;
pub use trace_diff::{
    diff_trace_files, diff_traces, FirstDivergence, KindCounts, RankDiff, TraceDiff,
};
