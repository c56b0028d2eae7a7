//! `--compare A.json B.json`: for every (end-to-end metric, workload) both
//! medians, the relative difference with its base, the bound, and a
//! verdict. The tool a later performance or simplicity PR is judged with.

use std::path::Path;
use std::process::ExitCode;

use smpi_diff::JsonValue;

use crate::metrics::{END_TO_END, WORKLOADS};

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(median, q1, q3)` of one end-to-end metric of one workload.
fn metric(doc: &JsonValue, workload: &str, name: &str) -> Option<(f64, f64, f64)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("result")?
        .get("end_to_end")?
        .get(name)?;
    let f = |k| m.get(k).and_then(JsonValue::as_f64);
    Some((f("median")?, f("q1")?, f("q3")?))
}

/// All four metrics are lower-is-better, so B regresses when its median
/// exceeds A's by more than the bound. When A's own quartiles are further
/// apart than the bound the comparison cannot resolve a regression of
/// that size, and says so instead of saying `ok`.
fn verdict(a: (f64, f64, f64), b_median: f64, bound: f64) -> &'static str {
    let (a_median, q1, q3) = a;
    if (q3 - q1) > bound * a_median {
        "unresolved"
    } else if b_median > a_median * (1.0 + bound) {
        "regressed"
    } else {
        "ok"
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "A = {} (base of every ratio)\nB = {}\n",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut regressed = 0;
    for workload in WORKLOADS {
        for m in &END_TO_END {
            let (Some(ma), Some(mb)) = (metric(&a, workload, m.name), metric(&b, workload, m.name))
            else {
                println!("{workload:<16} {:<22} missing from A or B", m.name);
                regressed += 1;
                continue;
            };
            let v = verdict(ma, mb.0, m.bound);
            regressed += usize::from(v == "regressed");
            println!(
                "{workload:<16} {:<22} {:>12.6} {:>12.6} {:>+8.2}% {:>6.0}%  {v}",
                m.name,
                ma.0,
                mb.0,
                100.0 * (mb.0 - ma.0) / ma.0,
                100.0 * m.bound,
            );
        }
    }
    if regressed > 0 {
        println!("\n{regressed} (metric, workload) pair(s) regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        assert_eq!(verdict((1.0, 0.99, 1.01), 1.05, 0.10), "ok");
        assert_eq!(verdict((1.0, 0.99, 1.01), 1.11, 0.10), "regressed");
        assert_eq!(verdict((1.0, 0.90, 1.05), 1.20, 0.10), "unresolved");
        // An improvement is never a regression.
        assert_eq!(verdict((1.0, 0.99, 1.01), 0.50, 0.10), "ok");
    }
}
