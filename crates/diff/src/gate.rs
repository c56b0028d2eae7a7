//! Benchmark regression gates and trend history.
//!
//! Consolidates the per-job CI ratio checks (kernel, scale, sweep, trace)
//! into one declarative engine: each [`GateSpec`] names a metric inside a
//! `BENCH_*.json` document (via the selector language of
//! [`crate::json_in::JsonValue::select`]), an absolute floor, and an
//! optional ratio against the *committed* reference version of the same
//! file (`git show HEAD:BENCH_*.json`). Ratios compare two measurements
//! of the same quantity, so they survive runner-speed variance; absolute
//! floors encode hardware-independent format promises (e.g. the TITRACE2
//! 5x compression ratio).
//!
//! Every evaluation can also be appended to `target/bench_history.jsonl`
//! (one JSON object per line), and [`trends`] folds that log into
//! per-metric trajectories — first/last/min/max — so a slow drift that
//! never trips a single gate is still visible.

use std::io::Write as _;
use std::path::Path;

use smpi_obs::json::{num, JsonBuf};

use crate::json_in::JsonValue;

/// One declarative regression gate.
#[derive(Debug, Clone)]
pub struct GateSpec {
    /// Gate name, conventionally `<bench>.<metric>`.
    pub name: &'static str,
    /// Benchmark document holding the metric (path relative to the
    /// working directory, e.g. `BENCH_scale.json`).
    pub file: &'static str,
    /// Selector for the gated metric inside the document.
    pub selector: &'static str,
    /// Hardware-independent absolute floor (`0.0` disables it).
    pub floor_abs: f64,
    /// Ratio against the committed reference: the effective floor becomes
    /// `max(floor_abs, ref_ratio × reference_value)` when the reference
    /// resolves (`0.0` disables the ratio check).
    pub ref_ratio: f64,
    /// Skip guard: evaluate the gate only when this selector (in the same
    /// document) is `>=` the given value — e.g. a parallel-speedup gate
    /// that is meaningless on a 2-core runner.
    pub enable_if: Option<(&'static str, f64)>,
}

/// Outcome of one gate.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Gate name.
    pub name: &'static str,
    /// Measured value (`None` when the document or selector was missing).
    pub current: Option<f64>,
    /// Reference value from the committed document, when resolvable.
    pub reference: Option<f64>,
    /// Effective floor the measurement was held to.
    pub floor: f64,
    /// `"pass"`, `"fail"` or `"skip"`.
    pub status: &'static str,
    /// Human-readable detail (skip reason, missing file, …).
    pub note: String,
}

/// All gate outcomes of one evaluation.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-gate outcomes, in spec order.
    pub outcomes: Vec<GateOutcome>,
}

impl GateReport {
    /// `true` when no gate failed (skipped gates do not fail).
    pub fn pass(&self) -> bool {
        self.outcomes.iter().all(|o| o.status != "fail")
    }

    /// Deterministic JSON document (schema in EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("kind").str_val("gate_report");
        j.key("pass").bool_val(self.pass());
        j.key("gates").begin_arr();
        for o in &self.outcomes {
            j.begin_obj();
            j.key("name").str_val(o.name);
            j.key("status").str_val(o.status);
            match o.current {
                Some(v) => j.key("current").num_val(v),
                None => j.key("current").raw_val("null"),
            };
            match o.reference {
                Some(v) => j.key("reference").num_val(v),
                None => j.key("reference").raw_val("null"),
            };
            j.key("floor").num_val(o.floor);
            j.key("note").str_val(&o.note);
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Human-readable rendering; the final line starts with `GATE: PASS`
    /// or `GATE: FAIL` (the `repro` binary keys its exit status off it).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for o in &self.outcomes {
            let cur = o
                .current
                .map_or_else(|| "-".to_string(), |v| num(v).to_string());
            let refv = o
                .reference
                .map_or_else(|| "-".to_string(), |v| num(v).to_string());
            let _ = writeln!(
                out,
                "gate {:<24} {:>12} (ref {:>12}, floor {:>10}) {}{}",
                o.name,
                cur,
                refv,
                num(o.floor),
                o.status.to_uppercase(),
                if o.note.is_empty() {
                    String::new()
                } else {
                    format!(" — {}", o.note)
                }
            );
        }
        let failed = self.outcomes.iter().filter(|o| o.status == "fail").count();
        let skipped = self.outcomes.iter().filter(|o| o.status == "skip").count();
        let _ = writeln!(
            out,
            "GATE: {} ({} gates, {failed} failed, {skipped} skipped)",
            if self.pass() { "PASS" } else { "FAIL" },
            self.outcomes.len(),
        );
        out
    }
}

/// Loads the committed (`git show HEAD:<file>`) version of a benchmark
/// document, or `None` when git or the committed file is unavailable —
/// ratio checks then degrade to their absolute floors, exactly like the
/// per-job scripts this engine replaces.
pub fn git_reference(file: &str) -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["show", &format!("HEAD:{file}")])
        .output()
        .ok()?;
    if out.status.success() {
        String::from_utf8(out.stdout).ok()
    } else {
        None
    }
}

/// Evaluates `specs` against the current benchmark documents on disk,
/// resolving references through `reference` (normally [`git_reference`];
/// injectable for tests). A missing document or selector fails the gate —
/// a gate that cannot measure must not pass silently.
pub fn run_gates<F>(specs: &[GateSpec], reference: F) -> GateReport
where
    F: Fn(&str) -> Option<String>,
{
    let mut docs: std::collections::BTreeMap<&str, Option<JsonValue>> = Default::default();
    let mut refs: std::collections::BTreeMap<&str, Option<JsonValue>> = Default::default();
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let doc = docs
            .entry(spec.file)
            .or_insert_with(|| {
                std::fs::read_to_string(spec.file)
                    .ok()
                    .and_then(|t| JsonValue::parse(&t).ok())
            })
            .as_ref();
        let Some(doc) = doc else {
            outcomes.push(GateOutcome {
                name: spec.name,
                current: None,
                reference: None,
                floor: spec.floor_abs,
                status: "fail",
                note: format!("{} missing or unparsable", spec.file),
            });
            continue;
        };
        if let Some((sel, min)) = &spec.enable_if {
            let guard = doc.select_f64(sel);
            if guard.is_none_or(|g| g < *min) {
                outcomes.push(GateOutcome {
                    name: spec.name,
                    current: doc.select_f64(spec.selector),
                    reference: None,
                    floor: spec.floor_abs,
                    status: "skip",
                    note: format!(
                        "guard {sel}={} < {min}",
                        guard.map_or_else(|| "absent".into(), |g| num(g).to_string())
                    ),
                });
                continue;
            }
        }
        let Some(current) = doc.select_f64(spec.selector) else {
            outcomes.push(GateOutcome {
                name: spec.name,
                current: None,
                reference: None,
                floor: spec.floor_abs,
                status: "fail",
                note: format!("selector {} not found in {}", spec.selector, spec.file),
            });
            continue;
        };
        let refv = if spec.ref_ratio > 0.0 {
            refs.entry(spec.file)
                .or_insert_with(|| reference(spec.file).and_then(|t| JsonValue::parse(&t).ok()))
                .as_ref()
                .and_then(|r| r.select_f64(spec.selector))
        } else {
            None
        };
        let mut floor = spec.floor_abs;
        let mut note = String::new();
        match refv {
            Some(r) => floor = floor.max(spec.ref_ratio * r),
            None if spec.ref_ratio > 0.0 => {
                note = "no committed reference; absolute floor only".into();
            }
            None => {}
        }
        outcomes.push(GateOutcome {
            name: spec.name,
            current: Some(current),
            reference: refv,
            floor,
            status: if current >= floor { "pass" } else { "fail" },
            note,
        });
    }
    GateReport { outcomes }
}

/// Appends one evaluation to the JSON-lines history log. `stamp` is an
/// opaque label for the entry (commit id, ISO date, …) recorded verbatim;
/// metric values come from the passed outcomes' measurements.
pub fn append_history(
    path: impl AsRef<Path>,
    stamp: &str,
    report: &GateReport,
) -> std::io::Result<()> {
    if let Some(dir) = path.as_ref().parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("stamp").str_val(stamp);
    j.key("pass").bool_val(report.pass());
    j.key("metrics").begin_obj();
    for o in &report.outcomes {
        if let Some(v) = o.current {
            j.key(o.name).num_val(v);
        }
    }
    j.end_obj();
    j.end_obj();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", j.finish())
}

/// Per-metric trajectory folded from the history log.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// Metric (gate) name.
    pub name: String,
    /// Entries carrying this metric.
    pub n: usize,
    /// Oldest recorded value.
    pub first: f64,
    /// Newest recorded value.
    pub last: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

/// Parses `bench_history.jsonl` and folds each metric into a [`Trend`]
/// (sorted by name). Unparsable lines are skipped — the log is append-only
/// and may span format generations.
pub fn trends(path: impl AsRef<Path>) -> Vec<Trend> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut acc: std::collections::BTreeMap<String, Trend> = Default::default();
    for line in text.lines() {
        let Ok(v) = JsonValue::parse(line) else {
            continue;
        };
        let Some(JsonValue::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        for (name, val) in metrics {
            let Some(x) = val.as_f64() else { continue };
            acc.entry(name.clone())
                .and_modify(|t| {
                    t.n += 1;
                    t.last = x;
                    t.min = t.min.min(x);
                    t.max = t.max.max(x);
                })
                .or_insert(Trend {
                    name: name.clone(),
                    n: 1,
                    first: x,
                    last: x,
                    min: x,
                    max: x,
                });
        }
    }
    acc.into_values().collect()
}

/// Renders trends as a compact table (empty string when no history).
pub fn render_trends(trends: &[Trend]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if trends.is_empty() {
        return out;
    }
    let _ = writeln!(out, "bench history trends:");
    for t in trends {
        let _ = writeln!(
            out,
            "  {:<24} n={:<3} first {:>12} last {:>12} min {:>12} max {:>12}",
            t.name,
            t.n,
            num(t.first),
            num(t.last),
            num(t.min),
            num(t.max)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("smpi_gate_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn gates_evaluate_floors_ratios_and_guards() {
        let dir = tmpdir("eval");
        let file = dir.join("BENCH_t.json");
        std::fs::write(
            &file,
            r#"{"speedup":8.0,"cores":2,"par":1.1,"tiers":[{"ranks":4096,"rate":100.0}]}"#,
        )
        .unwrap();
        // run_gates reads from the cwd-relative spec.file; leak the path to
        // get the 'static lifetime the spec wants in this test.
        let fname: &'static str = Box::leak(file.to_str().unwrap().to_string().into_boxed_str());
        let specs = [
            GateSpec {
                name: "t.speedup",
                file: fname,
                selector: "speedup",
                floor_abs: 5.0,
                ref_ratio: 0.2,
                enable_if: None,
            },
            GateSpec {
                name: "t.rate4k",
                file: fname,
                selector: "tiers[ranks=4096].rate",
                floor_abs: 0.0,
                ref_ratio: 0.1,
                enable_if: None,
            },
            GateSpec {
                name: "t.par",
                file: fname,
                selector: "par",
                floor_abs: 3.0,
                ref_ratio: 0.0,
                enable_if: Some(("cores", 4.0)),
            },
        ];
        // Reference claims speedup 100 -> floor max(5, 20) = 20 > 8: fail.
        let r = run_gates(&specs, |_| {
            Some(r#"{"speedup":100.0,"tiers":[{"ranks":4096,"rate":50.0}]}"#.into())
        });
        assert_eq!(r.outcomes[0].status, "fail");
        assert_eq!(r.outcomes[1].status, "pass"); // 100 >= 0.1*50
        assert_eq!(r.outcomes[2].status, "skip"); // 2 cores < 4
        assert!(!r.pass());
        assert!(r.render().contains("GATE: FAIL"));
        // No reference: ratio degrades to the absolute floor; 8 >= 5.
        let r = run_gates(&specs, |_| None);
        assert_eq!(r.outcomes[0].status, "pass");
        assert!(r.pass());
        assert!(r.render().contains("GATE: PASS"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_document_fails_not_passes() {
        let specs = [GateSpec {
            name: "ghost",
            file: "definitely_missing_BENCH.json",
            selector: "x",
            floor_abs: 1.0,
            ref_ratio: 0.0,
            enable_if: None,
        }];
        let r = run_gates(&specs, |_| None);
        assert_eq!(r.outcomes[0].status, "fail");
    }

    #[test]
    fn history_appends_and_trends_fold() {
        let dir = tmpdir("hist");
        let path = dir.join("bench_history.jsonl");
        let mk = |v: f64| GateReport {
            outcomes: vec![GateOutcome {
                name: "k.speedup",
                current: Some(v),
                reference: None,
                floor: 0.0,
                status: "pass",
                note: String::new(),
            }],
        };
        append_history(&path, "one", &mk(10.0)).unwrap();
        append_history(&path, "two", &mk(14.0)).unwrap();
        append_history(&path, "three", &mk(12.0)).unwrap();
        let ts = trends(&path);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].n, 3);
        assert_eq!((ts[0].first, ts[0].last), (10.0, 12.0));
        assert_eq!((ts[0].min, ts[0].max), (10.0, 14.0));
        assert!(render_trends(&ts).contains("k.speedup"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
