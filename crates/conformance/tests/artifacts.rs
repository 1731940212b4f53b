//! Checked-in artifact hygiene: every registered experiment keeps a
//! `.json`/`.txt` pair under `results/`, every JSON artifact round-trips
//! through the vendored serde_json, every claim holds against its
//! canonical artifact, and `docs/CLAIMS.md` matches the registry.

use conformance::{registry, report};
use serde_json::Value;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    // crates/conformance -> crates -> repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

#[test]
fn every_experiment_has_a_results_artifact_pair() {
    let results = repo_root().join("results");
    for spec in bench::experiments::all() {
        let json = results.join(format!("{}.json", spec.name));
        let txt = results.join(format!("{}.txt", spec.name));
        assert!(json.is_file(), "missing artifact {}", json.display());
        assert!(txt.is_file(), "missing artifact {}", txt.display());
        assert!(
            !std::fs::read_to_string(&txt).unwrap().trim().is_empty(),
            "{} is empty",
            txt.display()
        );
    }
}

#[test]
fn every_json_artifact_round_trips_through_serde_json() {
    let results = repo_root().join("results");
    for spec in bench::experiments::all() {
        let path = results.join(format!("{}.json", spec.name));
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e:?}", path.display()));
        assert!(
            value.get("experiment").and_then(Value::as_str).is_some(),
            "{}: artifacts self-identify via an `experiment` field",
            path.display()
        );
        // Render → reparse must reproduce the tree exactly (numbers
        // round-trip through the shortest-float writer losslessly).
        let reparsed: Value = serde_json::from_str(&serde_json::to_string_pretty(&value).unwrap())
            .unwrap_or_else(|e| panic!("{} re-render does not parse: {e:?}", path.display()));
        assert_eq!(value, reparsed, "{} round-trip drift", path.display());
    }
}

#[test]
fn every_claim_holds_against_its_canonical_artifact() {
    // The single-seed claim check, evaluated from the checked-in
    // artifacts instead of a fresh run: fast, and catches a band or
    // metric drifting away from what the repo actually records. The
    // `claims` CI job replays the same bands against fresh runs.
    let results = repo_root().join("results");
    for claim in registry::all() {
        let path = results.join(format!("{}.json", claim.experiment));
        let value: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let measured = claim
            .metric
            .read(&value)
            .unwrap_or_else(|e| panic!("{}: metric failed on {}: {e}", claim.id, path.display()));
        assert!(
            claim.band.contains(measured),
            "{} ({}): canonical artifact value {measured} outside band {}",
            claim.id,
            claim.anchor(),
            claim.band.describe()
        );
    }
}

#[test]
fn tournament_and_robust_claim_families_hold_against_canonical_artifacts() {
    // The generic canonical-artifact check above would pass vacuously if a
    // whole claim family were deleted from the registry; pin the roadmap
    // families by size and re-verify each member explicitly against its
    // checked-in artifact.
    let results = repo_root().join("results");
    for (prefix, expected) in [
        ("tournament.", 6),
        ("robust.", 6),
        ("fleet.recovery-", 5),
        ("netsim.shaping-", 9),
    ] {
        let family: Vec<_> = registry::all()
            .iter()
            .filter(|c| c.id.starts_with(prefix))
            .collect();
        assert_eq!(
            family.len(),
            expected,
            "the `{prefix}*` claim family shrank — bands must not be \
             silently dropped"
        );
        for claim in family {
            let path = results.join(format!("{}.json", claim.experiment));
            let value: Value =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let measured = claim.metric.read(&value).unwrap();
            assert!(
                claim.band.contains(measured),
                "{}: canonical artifact value {measured} outside band {}",
                claim.id,
                claim.band.describe()
            );
        }
    }

    // The tournament artifact itself must be the full canonical matrix:
    // every attacker×defense cell present, the faulted home quarantined
    // in each, and the summary scalars the claims read all in place.
    let value: Value =
        serde_json::from_str(&std::fs::read_to_string(results.join("tournament.json")).unwrap())
            .unwrap();
    let cells = value.get("cells").and_then(Value::as_array).unwrap();
    assert_eq!(cells.len(), 24, "3 attackers × 8 defenses");
    assert!(cells
        .iter()
        .all(|c| c.get("quarantined").and_then(Value::as_f64) == Some(1.0)));
    let summary = value.get("summary").unwrap();
    for key in [
        "adaptive_min_non_dp_margin",
        "dp_static_degradation_min",
        "dp_adaptive_floor_margin",
        "dp_cost_min_ratio",
    ] {
        assert!(
            summary.get(key).and_then(Value::as_f64).is_some(),
            "summary scalar `{key}` missing from the canonical artifact"
        );
    }

    // The recovery artifact must record all four scenarios with their
    // equivalence flags true and the quarantine set exactly as injected.
    let value: Value =
        serde_json::from_str(&std::fs::read_to_string(results.join("recovery_soak.json")).unwrap())
            .unwrap();
    for (section, key) in [
        ("crash", "digest_identical"),
        ("transient", "identical"),
        ("rebuild", "identical"),
        ("quarantine", "exact"),
        ("quarantine", "survivors_identical"),
    ] {
        assert_eq!(
            value.get(section).and_then(|s| s.get(key)),
            Some(&Value::Bool(true)),
            "recovery_soak canonical artifact: `{section}.{key}` must be true"
        );
    }
    let quarantine = value.get("quarantine").unwrap();
    assert_eq!(
        quarantine.get("corrupted_homes"),
        quarantine.get("quarantined_homes"),
        "quarantine set drifted from the injected corruption set"
    );
}

#[test]
fn claims_md_is_in_sync_with_registry_and_artifacts() {
    let root = repo_root();
    let rendered = report::render_claims_md(&root.join("results")).unwrap();
    let committed = std::fs::read_to_string(root.join("docs/CLAIMS.md"))
        .expect("docs/CLAIMS.md exists — generate with check_claims --claims-md docs/CLAIMS.md");
    assert_eq!(
        committed, rendered,
        "docs/CLAIMS.md is stale — regenerate with \
         `cargo run --release -p conformance --bin check_claims -- --claims-md docs/CLAIMS.md`"
    );
}
