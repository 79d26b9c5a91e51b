//! `cargo test --manifest-path benchmark/Cargo.toml`: the registry and
//! `BENCHMARK.json` agree, and `run.sh --quick` — every workload, 1 s
//! windows, untraced then traced — passes every correctness check.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;
use symbio_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let path = repo_root().join("BENCHMARK.json");
    let json: Value =
        serde_json::from_str(&std::fs::read_to_string(&path).expect("BENCHMARK.json"))
            .expect("valid JSON");
    let names: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    let same = |key: &str, defs: &[MetricDef]| {
        let listed: Vec<(&str, &str, &str)> = list(&json, key)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let registered: Vec<(&str, &str, &str)> = defs
            .iter()
            .map(|d| (d.name, d.unit, d.better.as_str()))
            .collect();
        assert_eq!(listed, registered, "`{key}` differs from the registry");
    };
    same("end_to_end", END_TO_END);
    same("per_layer", PER_LAYER);
}

#[test]
fn quick_run_passes_every_check() {
    let out = Command::new("bash")
        .arg("benchmark/run.sh")
        .args(["--quick", "--seed", "3"])
        .current_dir(repo_root())
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run.sh --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(
        results.len(),
        2 * WORKLOADS.len(),
        "one untraced and one traced result per workload"
    );
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{r:?}");
        assert_eq!(r.get("failed"), Some(&Value::U64(0)), "{r:?}");
        if r.get("trace") == Some(&Value::U64(0)) {
            for d in END_TO_END {
                let value = r
                    .get("metrics")
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"));
                assert!(
                    matches!(value, Some(Value::F64(v)) if *v > 0.0)
                        || matches!(value, Some(Value::U64(v)) if *v > 0),
                    "{} of {:?} is {value:?}",
                    d.name,
                    r.get("workload")
                );
            }
        }
    }
}
