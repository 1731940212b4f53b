//! End-to-end tests of the `check_claims` binary: exit codes, golden
//! drift detection, and determinism of the metrics sidecar and claim
//! report across runs and thread counts.

use serde_json::Value;
use std::path::Path;
use std::process::{Command, Output};

fn check_claims(args: &[&str], threads: Option<&str>, cwd: &Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_check_claims"));
    cmd.args(args).current_dir(cwd);
    if let Some(n) = threads {
        cmd.env("RAYON_NUM_THREADS", n);
    }
    cmd.output().expect("spawn check_claims")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("check_claims_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn passing_run_exits_zero() {
    let dir = temp_dir("pass");
    let out = check_claims(&["--filter", "meter", "--no-golden"], None, &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("meter.honest-bill-verifies"));
    assert!(stdout.contains("All claims within tolerance."));
}

#[test]
fn usage_errors_exit_two_and_name_the_flag() {
    let dir = temp_dir("usage");
    for bad in [
        vec!["--frobnicate"],
        vec!["--seeds", "zero"],
        vec!["--filter"],
        vec!["--filter", "no-claim-matches-this"],
    ] {
        let out = check_claims(&bad, None, &dir);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: check_claims"),
            "args {bad:?}: {stderr}"
        );
    }
}

#[test]
fn golden_drift_fails_with_exit_one_naming_experiment_and_claims() {
    let dir = temp_dir("drift");
    // A tampered snapshot: the canonical run cannot reproduce this value.
    std::fs::write(
        dir.join("fig6_chpr.json"),
        r#"{"experiment": "fig6", "mcc_before": 0.999}"#,
    )
    .unwrap();
    let out = check_claims(
        &["--filter", "fig6.undefended-mcc", "--golden-dir", "."],
        None,
        &dir,
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("GOLDEN DRIFT fig6_chpr — Fig. 6"),
        "drift report names the experiment and anchor:\n{stdout}"
    );
    assert!(stdout.contains("fig6.undefended-mcc"), "{stdout}");
    assert!(
        stdout.contains("$.mcc_before"),
        "diff names the path:\n{stdout}"
    );

    // An experiment no claim reads is golden-checked too, selected by name.
    std::fs::write(
        dir.join("ablation_niom_window.json"),
        r#"{"experiment": "ablation_niom_window", "points": []}"#,
    )
    .unwrap();
    let out = check_claims(
        &["--filter", "ablation_niom_window", "--golden-dir", "."],
        None,
        &dir,
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("GOLDEN DRIFT ablation_niom_window — §II-A (NIOM design)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("$.points"),
        "diff names the path:\n{stdout}"
    );
}

/// The deterministic section of a metrics sidecar: counters and gauges
/// (timings are wall-clock and excluded by contract — see
/// docs/OBSERVABILITY.md).
fn deterministic_section(metrics_path: &Path) -> String {
    let value: Value =
        serde_json::from_str(&std::fs::read_to_string(metrics_path).unwrap()).unwrap();
    let counters = value.get("counters").expect("metrics carry counters");
    let gauges = value.get("gauges").expect("metrics carry gauges");
    format!("{counters}{gauges}")
}

#[test]
fn metrics_and_claim_report_are_deterministic_across_runs_and_threads() {
    let dir = temp_dir("determinism");
    let run = |tag: &str, threads: &str| {
        let metrics = format!("m_{tag}.json");
        let json = format!("c_{tag}.json");
        let out = check_claims(
            &[
                "--filter",
                "fig6",
                "--no-golden",
                "--metrics",
                &metrics,
                "--json",
                &json,
            ],
            Some(threads),
            &dir,
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        (
            deterministic_section(&dir.join(metrics)),
            std::fs::read_to_string(dir.join(json)).unwrap(),
        )
    };

    let (metrics_a, claims_a) = run("a", "1");
    let (metrics_b, claims_b) = run("b", "1");
    let (metrics_c, claims_c) = run("c", "8");

    assert!(!metrics_a.is_empty());
    // Same thread count, fresh process: byte-identical.
    assert_eq!(metrics_a, metrics_b, "metrics drift between identical runs");
    assert_eq!(
        claims_a, claims_b,
        "claim report drift between identical runs"
    );
    // Different thread count: counters/gauges are commutative, claim
    // values are bit-identical by the fleet engine's contract.
    assert_eq!(metrics_a, metrics_c, "metrics depend on RAYON_NUM_THREADS");
    assert_eq!(
        claims_a, claims_c,
        "claim report depends on RAYON_NUM_THREADS"
    );
}
