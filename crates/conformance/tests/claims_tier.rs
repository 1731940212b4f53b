//! The `cargo test` conformance tier: every claim of an experiment marked
//! `cheap` runs in-process on the canonical seed, plus harness-level failure-path
//! coverage (a deliberately broken band must fail loudly, naming the
//! claim id and paper anchor).

use conformance::registry::{self, Band, Claim, Metric};
use conformance::{runner, Options};

#[test]
fn cheap_single_seed_claims_hold() {
    let opts = Options {
        cheap_only: true,
        ..Options::default()
    };
    let report = runner::run(&opts);
    assert!(
        report.outcomes.len() >= 10,
        "cheap tier shrank to {} claims — keep enough coverage under cargo test",
        report.outcomes.len()
    );
    assert!(
        report.passed(),
        "cheap-tier conformance failures:\n{}",
        report.render_text()
    );
}

/// A band no measurement can satisfy, wired to a real experiment: the
/// runner must fail, and the rendered report must name the claim.
static BROKEN: Claim = Claim {
    id: "demo.broken-band",
    title: "Deliberately impossible tolerance (harness failure-path test)",
    experiment: "fig6_chpr",
    band: Band::Absolute { lo: 9.0, hi: 10.0 },
    metric: Metric::Num("mcc_before"),
};

#[test]
fn broken_tolerance_band_fails_and_names_the_claim() {
    let report = runner::run_claims(&[&BROKEN], &Options::default());
    assert!(!report.passed());
    let text = report.render_text();
    assert!(
        text.contains("FAIL demo.broken-band — Fig. 6"),
        "failure block must name the claim id and anchor:\n{text}"
    );
    assert!(text.contains("[9, 10]"), "failure names the band:\n{text}");

    let json = report.to_json();
    assert_eq!(json.get("passed"), Some(&serde_json::Value::Bool(false)));
    let claims = json.get("claims").and_then(|c| c.as_array()).unwrap();
    assert_eq!(
        claims[0].get("id").and_then(|v| v.as_str()),
        Some("demo.broken-band")
    );
}

#[test]
fn sweep_mode_tightens_the_verdict_with_a_ci() {
    // Two decorrelated draws of the cheapest experiment: the sweep path
    // (mean ± CI vs band) must hold for the fig1 claims.
    let opts = Options {
        seeds: 2,
        filter: Some("fig1".into()),
        ..Options::default()
    };
    let report = runner::run(&opts);
    assert_eq!(report.seeds, 2);
    assert!(report.passed(), "{}", report.render_text());
    for outcome in &report.outcomes {
        assert_eq!(
            outcome.values.len(),
            2,
            "{}: one value per seed",
            outcome.id
        );
        assert!(
            outcome.values[0] != outcome.values[1],
            "{}: sweep seeds must decorrelate the draws",
            outcome.id
        );
    }
}

#[test]
fn registered_experiments_expose_reports_with_json_and_text() {
    // Claims are only as good as the experiment contract: a registered
    // claim's experiment must produce both a JSON object and rendered
    // text on the canonical run.
    let spec = bench::experiments::find("claim_private_meter").unwrap();
    let report = (spec.run)(&bench::experiments::RunConfig::CANONICAL);
    assert!(report.json.as_object().is_some());
    assert!(!report.render_text().is_empty());
    let _ = registry::all();
}
