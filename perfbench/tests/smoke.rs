//! Runs every workload at smoke size (homes / 100, at most 8 rounds, two
//! passes), untraced and traced, and checks what a benchmark run relies on:
//! every declared metric printed with its unit, every output check
//! passing, and a trace file that parses.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn spec() -> Value {
    serde_json::from_str_value(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str, field: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists")
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

fn run(out: &Path, args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--out"])
        .arg(out)
        .args(args)
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "perfbench {args:?} failed:\n{stderr}"
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Checks the `workload name value unit` lines and the JSON result of each
/// workload in `stdout`.
fn check_output(stdout: &str, workloads: &[String], metrics: &[(String, String)]) {
    for w in workloads {
        for (name, unit) in metrics {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{w} {name} ")))
                .unwrap_or_else(|| panic!("{w} did not print {name}"));
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 4, "{line}");
            assert!(fields[2].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
            assert_eq!(fields[3], unit, "{line}");
        }
    }
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str_value(l).expect("result line is JSON"))
        .collect();
    assert_eq!(results.len(), workloads.len());
    for r in &results {
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(true),
            "{r:?}"
        );
        assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{r:?}");
        assert!(
            r.get("attempted").and_then(Value::as_u64) > Some(0),
            "{r:?}"
        );
        let reported = r
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(reported.len(), metrics.len());
    }
    assert!(
        stdout.trim_end().ends_with('}'),
        "the last line is the JSON result"
    );
}

#[test]
fn smoke_runs_report_every_declared_metric() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let spec = spec();
    let workloads = names(&spec, "workloads", "name");
    let declared = |key: &str| -> Vec<(String, String)> {
        names(&spec, key, "name")
            .into_iter()
            .zip(names(&spec, key, "unit"))
            .collect()
    };

    check_output(
        &run(&out, &["--trace", "0"]),
        &workloads,
        &declared("end_to_end"),
    );
    check_output(
        &run(&out, &["--trace", "1"]),
        &workloads,
        &declared("per_layer"),
    );
    for w in &workloads {
        let text = std::fs::read_to_string(out.join(format!("{w}.trace.jsonl")))
            .expect("traced run writes its trace file");
        let records: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str_value(l).expect("trace line is JSON"))
            .collect();
        assert!(records
            .iter()
            .any(|r| r.get("name").and_then(Value::as_str) == Some("path")));
        assert!(records
            .iter()
            .all(|r| r.get("workload").and_then(Value::as_str) == Some(w.as_str())));
    }
}
