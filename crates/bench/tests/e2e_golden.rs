//! Byte-for-byte regression tests against golden `repro -- dt` / `-- ep`
//! reports captured before the O(active) kernel refactor. Any change to the
//! engine's completion-time or rate arithmetic shows up here first.
//!
//! Mismatches go through [`smpi_diff::assert_golden`], which panics with a
//! first-divergence report (the offending lines plus context) instead of a
//! raw string inequality, and drops the machine-readable divergence under
//! `target/diff/<name>.divergence.json` for CI to upload.

use smpi_diff::assert_golden;

#[test]
fn dt_report_matches_golden() {
    let got = smpi_bench::e2e::dt_report();
    let want = include_str!("golden/dt_report.txt");
    assert_golden("dt_report", want, &got);
}

#[test]
fn ep_report_matches_golden() {
    let got = smpi_bench::e2e::ep_report();
    let want = include_str!("golden/ep_report.txt");
    assert_golden("ep_report", want, &got);
}
