//! Schema guard, not a timing gate: the `--quick` suite must complete with
//! no failed op and report exactly the workloads and metrics that the
//! repository's `BENCHMARK.json` promises, with finite values.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use smpi_diff::JsonValue;

fn names(doc: &JsonValue, key: &str) -> BTreeSet<String> {
    let Some(JsonValue::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} array");
    };
    items
        .iter()
        .map(|item| match item.get("name") {
            Some(JsonValue::Str(name)) => name.clone(),
            _ => panic!("a {key} entry has no name"),
        })
        .collect()
}

fn keys(doc: &JsonValue) -> BTreeSet<String> {
    match doc {
        JsonValue::Obj(map) => map.keys().cloned().collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

#[test]
fn quick_suite_reports_what_benchmark_json_promises() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let contract = JsonValue::parse(&contract).expect("BENCHMARK.json parses");

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let status = Command::new(env!("CARGO_BIN_EXE_smpi-benchmark"))
        .args(["--quick", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("run the suite");
    assert!(status.success(), "the quick suite ended with {status}");

    let result = std::fs::read_to_string(&out).expect("the suite wrote its result");
    let result = JsonValue::parse(&result).expect("the result parses");
    let workloads = result.get("workloads").expect("workloads section");
    assert_eq!(keys(workloads), names(&contract, "workloads"));

    for workload in keys(workloads) {
        let doc = workloads
            .get(&workload)
            .and_then(|w| w.get("result"))
            .expect("every workload carries its result");
        assert_eq!(
            doc.get("ops_failed").and_then(JsonValue::as_f64),
            Some(0.0),
            "{workload} failed an output check"
        );
        assert!(doc.get("ops_attempted").and_then(JsonValue::as_f64) >= Some(3.0));
        for (section, field) in [("end_to_end", "median"), ("per_layer", "value")] {
            let metrics = doc.get(section).expect("metric section");
            assert_eq!(
                keys(metrics),
                names(&contract, section),
                "{workload} {section}"
            );
            for metric in keys(metrics) {
                let value = metrics
                    .get(&metric)
                    .and_then(|m| m.get(field))
                    .and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {metric} is {value:?}"
                );
            }
        }
    }
}
