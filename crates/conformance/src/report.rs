//! Conformance results: per-claim outcomes, rendering, and the
//! generated `docs/CLAIMS.md` table.

use crate::registry::{self, Band, Claim};
use bench::experiments::{self, ExperimentSpec};
use serde_json::{json, Value};
use std::path::Path;

/// One claim's validated outcome.
#[derive(Debug)]
pub struct ClaimOutcome {
    /// The claim id.
    pub id: &'static str,
    /// The paper anchor (the owning experiment's).
    pub anchor: &'static str,
    /// The claim's one-line statement.
    pub title: &'static str,
    /// The owning experiment.
    pub experiment: &'static str,
    /// The tolerance band.
    pub band: Band,
    /// Extracted metric per seed offset, in offset order.
    pub values: Vec<f64>,
    /// Run/extraction errors, if any (a non-empty list fails the claim).
    pub errors: Vec<String>,
    /// Sweep mean (equals the single value when `seeds == 1`).
    pub mean: f64,
    /// 95% CI half-width (0 for a single seed).
    pub ci_half: f64,
    /// Whether the claim held.
    pub passed: bool,
}

impl ClaimOutcome {
    fn base(claim: &Claim) -> ClaimOutcome {
        ClaimOutcome {
            id: claim.id,
            anchor: claim.anchor(),
            title: claim.title,
            experiment: claim.experiment,
            band: claim.band,
            values: Vec::new(),
            errors: Vec::new(),
            mean: f64::NAN,
            ci_half: 0.0,
            passed: false,
        }
    }

    /// A claim that failed to produce a metric at every offset.
    pub fn errored(claim: &Claim, values: Vec<f64>, errors: Vec<String>) -> ClaimOutcome {
        ClaimOutcome {
            values,
            errors,
            ..ClaimOutcome::base(claim)
        }
    }

    /// A single-seed outcome: pass iff the value lies in the band.
    pub fn single(claim: &Claim, value: f64) -> ClaimOutcome {
        ClaimOutcome {
            values: vec![value],
            mean: value,
            passed: claim.band.contains(value),
            ..ClaimOutcome::base(claim)
        }
    }

    /// A seed-sweep outcome: pass iff mean ± CI overlaps the band.
    pub fn sweep(claim: &Claim, values: Vec<f64>, mean: f64, ci_half: f64) -> ClaimOutcome {
        ClaimOutcome {
            values,
            mean,
            ci_half,
            passed: claim.band.intersects(mean - ci_half, mean + ci_half),
            ..ClaimOutcome::base(claim)
        }
    }

    /// `mean` or `mean ± ci` depending on the number of seeds.
    pub fn measured(&self) -> String {
        if self.errors.is_empty() {
            if self.values.len() == 1 {
                format!("{:.4}", self.mean)
            } else {
                format!("{:.4} ± {:.4}", self.mean, self.ci_half)
            }
        } else {
            "error".to_string()
        }
    }
}

/// One experiment's golden-snapshot comparison.
#[derive(Debug)]
pub struct GoldenOutcome {
    /// The experiment whose canonical output was compared.
    pub experiment: &'static str,
    /// Its paper anchor.
    pub anchor: &'static str,
    /// The claims that read this experiment (named in failure reports).
    pub claim_ids: Vec<&'static str>,
    /// Structural differences (empty = snapshot matches).
    pub diffs: Vec<String>,
    /// Whether the snapshot matched.
    pub passed: bool,
    /// `true` when no snapshot exists yet under `--golden-dir` — the
    /// experiment is newer than the golden directory. Reported as a new
    /// artifact (and passes) rather than drift.
    pub new_artifact: bool,
}

/// A full conformance run: every selected claim plus the golden tier.
#[derive(Debug)]
pub struct ConformanceReport {
    /// Seed draws per experiment.
    pub seeds: u64,
    /// Per-claim outcomes, in registry order.
    pub outcomes: Vec<ClaimOutcome>,
    /// Per-experiment golden comparisons (empty when the tier was off).
    pub golden: Vec<GoldenOutcome>,
}

impl ConformanceReport {
    /// Whether every claim and every golden snapshot passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed) && self.golden.iter().all(|g| g.passed)
    }

    /// Renders the human-readable report: a summary table, then a loud
    /// diffable block per failure naming the claim id and paper anchor.
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.id.to_string(),
                    o.anchor.to_string(),
                    o.measured(),
                    o.band.describe(),
                    if o.passed { "ok".into() } else { "FAIL".into() },
                ]
            })
            .collect();
        let mut out = bench::render_table(
            &format!(
                "Paper-claims conformance — {} claims, {} seed{}",
                self.outcomes.len(),
                self.seeds,
                if self.seeds == 1 { "" } else { "s" }
            ),
            &["claim", "anchor", "measured", "band", "status"],
            &rows,
        );

        for o in self.outcomes.iter().filter(|o| !o.passed) {
            out.push_str(&format!(
                "\nFAIL {} — {}\n  claim: {}\n  band {} vs measured {}",
                o.id,
                o.anchor,
                o.title,
                o.band.describe(),
                o.measured()
            ));
            if self.seeds > 1 && o.errors.is_empty() {
                let rendered: Vec<String> = o.values.iter().map(|v| format!("{v:.4}")).collect();
                out.push_str(&format!("\n  per-seed values: [{}]", rendered.join(", ")));
            }
            for e in &o.errors {
                out.push_str(&format!("\n  error: {e}"));
            }
            out.push('\n');
        }

        if !self.golden.is_empty() {
            let ok = self.golden.iter().filter(|g| g.passed).count();
            let new = self.golden.iter().filter(|g| g.new_artifact).count();
            out.push_str(&format!(
                "\nGolden snapshots: {ok}/{} experiments match results/{}\n",
                self.golden.len(),
                if new > 0 {
                    format!(" ({new} new, unpinned)")
                } else {
                    String::new()
                }
            ));
            for g in self.golden.iter().filter(|g| g.new_artifact) {
                out.push_str(&format!(
                    "\nNEW ARTIFACT {} — {} has no snapshot yet; regenerate results/ to pin it\n",
                    g.experiment, g.anchor
                ));
            }
            for g in self.golden.iter().filter(|g| !g.passed) {
                out.push_str(&format!(
                    "\nGOLDEN DRIFT {} — {} (claims: {})\n",
                    g.experiment,
                    g.anchor,
                    g.claim_ids.join(", ")
                ));
                for d in &g.diffs {
                    out.push_str(&format!("  {d}\n"));
                }
            }
        }

        out.push_str(&format!(
            "\n{}\n",
            if self.passed() {
                "All claims within tolerance."
            } else {
                "CONFORMANCE FAILURES — see blocks above."
            }
        ));
        out
    }

    /// The machine-readable report the binary writes under `--json`.
    pub fn to_json(&self) -> Value {
        let claims: Vec<Value> = self
            .outcomes
            .iter()
            .map(|o| {
                json!({
                    "id": o.id,
                    "anchor": o.anchor,
                    "title": o.title,
                    "experiment": o.experiment,
                    "band": o.band.describe(),
                    "values": o.values.clone(),
                    "mean": o.mean,
                    "ci_half": o.ci_half,
                    "errors": o.errors.clone(),
                    "passed": o.passed,
                })
            })
            .collect();
        let golden: Vec<Value> = self
            .golden
            .iter()
            .map(|g| {
                json!({
                    "experiment": g.experiment,
                    "anchor": g.anchor,
                    "claims": g.claim_ids.clone(),
                    "diffs": g.diffs.clone(),
                    "passed": g.passed,
                    "new_artifact": g.new_artifact,
                })
            })
            .collect();
        json!({
            "schema": "iot-privacy.claims.v1",
            "seeds": self.seeds,
            "passed": self.passed(),
            "claims": claims,
            "golden": golden,
        })
    }
}

/// Renders `docs/CLAIMS.md` from the registry plus the checked-in
/// `results/*.json` artifacts (no experiments are run). The committed
/// file must match this output byte-for-byte — a conformance test checks
/// it, and `check_claims --claims-md docs/CLAIMS.md` regenerates it.
///
/// # Errors
///
/// Returns a message naming the artifact or claim at fault when an
/// artifact is missing, unparsable, or a claim's metric fails on it.
pub fn render_claims_md(results_dir: &Path) -> Result<String, String> {
    let mut out = String::from(
        "# Machine-checked paper claims\n\n\
         Every quantitative claim the suite reproduces, with the tolerance band\n\
         `check_claims` enforces and the value measured from the canonical\n\
         checked-in artifact under `results/`. Generated by\n\
         `cargo run --release -p conformance --bin check_claims -- --claims-md docs/CLAIMS.md`;\n\
         a test in `crates/conformance/tests/artifacts.rs` fails if this file\n\
         drifts from the registry or the artifacts.\n\n\
         Single-seed runs check the canonical value against the band; seed-sweep\n\
         runs (`--seeds N`) check the sweep mean ± 95% CI instead. Each claim's\n\
         metric (a JSON path or a derived function) is in\n\
         `crates/conformance/src/registry.rs`; its paper anchor is its experiment's,\n\
         from `crates/bench/src/experiments/mod.rs`. See `docs/EXPERIMENTS.md`\n\
         for the experiments themselves.\n\n\
         | claim | paper anchor | experiment | band | canonical | status |\n\
         |---|---|---|---|---|---|\n",
    );
    for claim in registry::all() {
        let path = results_dir.join(format!("{}.json", claim.experiment));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read {}: {e}", claim.id, path.display()))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{}: {} is not JSON: {e:?}", claim.id, path.display()))?;
        let measured = claim
            .metric
            .read(&value)
            .map_err(|e| format!("{}: metric failed on {}: {e}", claim.id, path.display()))?;
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} | {:.4} | {} |\n",
            claim.id,
            claim.anchor(),
            claim.experiment,
            claim.band.describe(),
            measured,
            if claim.band.contains(measured) {
                "ok"
            } else {
                "FAIL"
            }
        ));
    }
    let names = |keep: fn(&ExperimentSpec) -> bool| {
        let names: Vec<String> = experiments::all()
            .iter()
            .filter(|spec| keep(spec))
            .map(|spec| format!("`{}`", spec.name))
            .collect();
        names.join(", ")
    };
    out.push_str(&format!(
        "\nArtifacts that hold wall-clock timings, so their JSON is not a pure\n\
         function of the seed: {}.\n\n\
         Experiments with no claim, checked only against their golden snapshot:\n\
         {}.\n",
        names(|spec| !spec.deterministic),
        names(|spec| registry::all().iter().all(|c| c.experiment != spec.name)),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_claim() -> &'static Claim {
        registry::find("fig6.undefended-mcc").unwrap()
    }

    #[test]
    fn single_seed_pass_and_fail() {
        let ok = ClaimOutcome::single(sample_claim(), 0.45);
        assert!(ok.passed);
        let bad = ClaimOutcome::single(sample_claim(), 0.95);
        assert!(!bad.passed);
        assert_eq!(bad.measured(), "0.9500");
    }

    #[test]
    fn sweep_passes_iff_ci_touches_band() {
        // Band is [0.30, 0.70]; mean 0.75 ± 0.06 touches it, ±0.01 does not.
        let touching = ClaimOutcome::sweep(sample_claim(), vec![0.75; 4], 0.75, 0.06);
        assert!(touching.passed);
        let clear_miss = ClaimOutcome::sweep(sample_claim(), vec![0.75; 4], 0.75, 0.01);
        assert!(!clear_miss.passed);
    }

    #[test]
    fn failure_report_names_claim_id_and_anchor() {
        let report = ConformanceReport {
            seeds: 1,
            outcomes: vec![ClaimOutcome::single(sample_claim(), 0.95)],
            golden: Vec::new(),
        };
        assert!(!report.passed());
        let text = report.render_text();
        assert!(text.contains("FAIL fig6.undefended-mcc — Fig. 6"));
        assert!(text.contains("CONFORMANCE FAILURES"));
        let json = report.to_json();
        assert_eq!(json.get("passed"), Some(&Value::Bool(false)));
    }

    #[test]
    fn golden_drift_is_loud_and_fails_the_report() {
        let report = ConformanceReport {
            seeds: 1,
            outcomes: vec![ClaimOutcome::single(sample_claim(), 0.45)],
            golden: vec![GoldenOutcome {
                experiment: "fig6_chpr",
                anchor: "Fig. 6",
                claim_ids: vec!["fig6.undefended-mcc"],
                diffs: vec!["$.mcc_before: expected 0.54, got 0.468".into()],
                passed: false,
                new_artifact: false,
            }],
        };
        assert!(!report.passed());
        let text = report.render_text();
        assert!(text.contains("GOLDEN DRIFT fig6_chpr — Fig. 6"));
        assert!(text.contains("fig6.undefended-mcc"));
    }

    #[test]
    fn missing_snapshot_reports_as_new_artifact_and_passes() {
        let report = ConformanceReport {
            seeds: 1,
            outcomes: vec![ClaimOutcome::single(sample_claim(), 0.45)],
            golden: vec![GoldenOutcome {
                experiment: "degradation_curves",
                anchor: "roadmap (robustness)",
                claim_ids: vec!["robust.attack-survives-faults"],
                diffs: Vec::new(),
                passed: true,
                new_artifact: true,
            }],
        };
        assert!(report.passed(), "a new artifact must not fail the run");
        let text = report.render_text();
        assert!(text.contains("NEW ARTIFACT degradation_curves"));
        assert!(text.contains("(1 new, unpinned)"));
        assert!(!text.contains("GOLDEN DRIFT"));
        let json = report.to_json();
        assert_eq!(json.get("passed"), Some(&Value::Bool(true)));
    }
}
