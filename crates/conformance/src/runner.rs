//! Executes experiments in-process and validates claims against bands.
//!
//! Experiments run through the library entry points in
//! [`bench::experiments`] — one run per `(experiment, seed offset)` pair
//! is shared by every claim that reads it. Offset 0 is the canonical
//! configuration (the exact run the checked-in `results/` artifacts came
//! from); offsets `1..N` are the seed-sweep draws.

use crate::golden;
use crate::registry::{self, Claim};
use crate::report::{ClaimOutcome, ConformanceReport, GoldenOutcome};
use bench::experiments::{self, RunConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How a conformance run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// Number of seed draws per experiment (1 = canonical run only).
    pub seeds: u64,
    /// Substring filter over claim ids (`None` = every claim).
    pub filter: Option<String>,
    /// Directory of golden `results/*.json` snapshots to compare the
    /// canonical run against (`None` skips the golden tier).
    pub golden_dir: Option<PathBuf>,
    /// Restrict to experiments marked cheap — the `cargo test` tier.
    pub cheap_only: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            seeds: 1,
            filter: None,
            golden_dir: None,
            cheap_only: false,
        }
    }
}

/// Claims selected by an options filter, in registry order.
pub fn select(opts: &Options) -> Vec<&'static Claim> {
    registry::all()
        .iter()
        .filter(|c| !opts.cheap_only || experiments::find(c.experiment).is_some_and(|e| e.cheap))
        .filter(|c| match &opts.filter {
            Some(f) => c.id.contains(f.as_str()) || c.experiment.contains(f.as_str()),
            None => true,
        })
        .collect()
}

/// Nondeterministic experiments whose artifacts still join the golden
/// tier after *timing projection*: wall-clock keys are stripped from both
/// the snapshot and the fresh run, and the remaining structure (sizes,
/// equivalence flags, summaries) must match exactly.
const GOLDEN_PROJECTED: &[&str] = &["stream_throughput", "recovery_soak"];

/// Whether an object key carries a wall-clock (or machine-local)
/// measurement that the golden projection drops.
fn is_timing_key(key: &str) -> bool {
    key.ends_with("_seconds")
        || key.ends_with("_per_sec")
        || key.ends_with("speedup")
        || matches!(key, "seconds" | "threads" | "obs")
}

/// Recursively removes timing keys from a JSON value (see
/// [`GOLDEN_PROJECTED`]).
fn strip_timing(v: &Value) -> Value {
    match v {
        Value::Object(map) => Value::Object(
            map.iter()
                .filter(|(k, _)| !is_timing_key(k))
                .map(|(k, val)| (k.clone(), strip_timing(val)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// Runs one experiment at one seed offset, capturing panics (experiment
/// bodies carry internal shape `assert!`s) as errors.
fn run_experiment(name: &str, offset: u64) -> Result<Value, String> {
    let spec = experiments::find(name).ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let cfg = RunConfig::sweep(offset);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (spec.run)(&cfg).json)).map_err(
        |panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            format!("experiment `{name}` panicked at seed offset {offset}: {msg}")
        },
    )
}

/// Student-t 95% two-sided quantile for `df` degrees of freedom.
fn t95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// Sample mean and 95% CI half-width (0 when `values.len() == 1`).
fn mean_ci(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, t95(values.len() as u64 - 1) * (var / n).sqrt())
}

/// Validates an explicit claim list. Exposed so tests can feed the runner
/// a deliberately broken band and watch it fail loudly.
pub fn run_claims(claims: &[&'static Claim], opts: &Options) -> ConformanceReport {
    // One run per (experiment, offset), shared across claims.
    let mut runs: BTreeMap<(&str, u64), Result<Value, String>> = BTreeMap::new();
    let seeds = opts.seeds.max(1);
    for claim in claims {
        for offset in 0..seeds {
            runs.entry((claim.experiment, offset))
                .or_insert_with(|| run_experiment(claim.experiment, offset));
        }
    }

    let mut outcomes = Vec::new();
    for claim in claims {
        let mut values = Vec::new();
        let mut errors = Vec::new();
        for offset in 0..seeds {
            match &runs[&(claim.experiment, offset)] {
                Ok(json) => match claim.metric.read(json) {
                    Ok(v) => values.push(v),
                    Err(e) => errors.push(format!("offset {offset}: {e}")),
                },
                Err(e) => errors.push(format!("offset {offset}: {e}")),
            }
        }
        let outcome = if !errors.is_empty() {
            ClaimOutcome::errored(claim, values, errors)
        } else if seeds == 1 {
            ClaimOutcome::single(claim, values[0])
        } else {
            let (mean, ci_half) = mean_ci(&values);
            ClaimOutcome::sweep(claim, values, mean, ci_half)
        };
        outcomes.push(outcome);
    }

    // Golden tier: compare the canonical JSON of every deterministic (or
    // projected) experiment that a selected claim reads or `opts` selects
    // by name against its checked-in snapshot, reported in name order.
    let mut goldens = Vec::new();
    if let Some(dir) = &opts.golden_dir {
        for spec in experiments::all() {
            let experiment = spec.name;
            let projected = GOLDEN_PROJECTED.contains(&experiment);
            let claim_ids: Vec<&'static str> = claims
                .iter()
                .filter(|c| c.experiment == experiment)
                .map(|c| c.id)
                .collect();
            let named = (!opts.cheap_only || spec.cheap)
                && opts
                    .filter
                    .as_ref()
                    .is_none_or(|f| experiment.contains(f.as_str()));
            if !(spec.deterministic || projected) || (claim_ids.is_empty() && !named) {
                continue;
            }
            runs.entry((experiment, 0))
                .or_insert_with(|| run_experiment(experiment, 0));
            let path = dir.join(format!("{experiment}.json"));
            // A snapshot that does not exist yet is a *new artifact*, not
            // drift: the experiment postdates the golden directory (e.g. a
            // fresh claim checked against an older `--golden-dir`). It
            // passes with a note telling the operator to regenerate and
            // pin it; every other read failure is still loud.
            let (diffs, new_artifact) = match std::fs::read_to_string(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), true),
                Err(e) => (
                    vec![format!("cannot read snapshot {}: {e}", path.display())],
                    false,
                ),
                Ok(text) => (
                    match serde_json::from_str::<Value>(&text) {
                        Err(e) => vec![format!("snapshot {} is not JSON: {e:?}", path.display())],
                        Ok(expected) => match &runs[&(experiment, 0)] {
                            Err(e) => vec![format!("canonical run failed: {e}")],
                            Ok(actual) if projected => {
                                golden::diff(&strip_timing(&expected), &strip_timing(actual))
                            }
                            Ok(actual) => golden::diff(&expected, actual),
                        },
                    },
                    false,
                ),
            };
            goldens.push(GoldenOutcome {
                experiment,
                anchor: spec.paper_anchor,
                claim_ids,
                passed: diffs.is_empty(),
                new_artifact,
                diffs,
            });
        }
        goldens.sort_by_key(|g| g.experiment);
    }

    ConformanceReport {
        seeds,
        outcomes,
        golden: goldens,
    }
}

/// Selects claims per `opts` and validates them.
pub fn run(opts: &Options) -> ConformanceReport {
    run_claims(&select(opts), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_quantiles_are_monotone_toward_the_normal() {
        assert!(t95(1) > t95(7));
        assert!(t95(7) > t95(30));
        assert!((t95(7) - 2.365).abs() < 1e-9);
        assert!((t95(100) - 1.96).abs() < 1e-9);
    }

    #[test]
    fn mean_ci_matches_hand_computation() {
        let (mean, half) = mean_ci(&[1.0, 2.0, 3.0]);
        assert!((mean - 2.0).abs() < 1e-12);
        // sd = 1, se = 1/sqrt(3), t95(df=2) = 4.303.
        assert!((half - 4.303 / 3f64.sqrt()).abs() < 1e-9);
        let (m1, h1) = mean_ci(&[5.0]);
        assert_eq!((m1, h1), (5.0, 0.0));
    }

    #[test]
    fn select_honors_filter_and_cheap_tier() {
        let all = select(&Options::default());
        assert_eq!(all.len(), registry::all().len());

        let fig6 = select(&Options {
            filter: Some("fig6".into()),
            ..Options::default()
        });
        assert!(!fig6.is_empty());
        assert!(fig6
            .iter()
            .all(|c| c.id.contains("fig6") || c.experiment.contains("fig6")));

        let cheap = select(&Options {
            cheap_only: true,
            ..Options::default()
        });
        assert!(!cheap.is_empty() && cheap.len() < all.len());
        assert!(cheap
            .iter()
            .all(|c| experiments::find(c.experiment).unwrap().cheap));
    }

    #[test]
    fn timing_projection_strips_wall_clock_keys_only() {
        let v = serde_json::json!({
            "experiment": "stream_throughput",
            "threads": 8,
            "sizes": [{
                "homes": 10,
                "batch_seconds": 0.123,
                "chunks": [{
                    "chunk_len": 60,
                    "seconds": 0.5,
                    "samples_per_sec": 1e6,
                    "vs_batch_speedup": 1.1,
                    "matches_batch": true,
                    "obs": {"stream_chunks": 240},
                }],
            }],
        });
        let projected = strip_timing(&v);
        assert_eq!(
            projected,
            serde_json::json!({
                "experiment": "stream_throughput",
                "sizes": [{
                    "homes": 10,
                    "chunks": [{"chunk_len": 60, "matches_batch": true}],
                }],
            })
        );
        // Two runs differing only in timing project to the same value.
        let other = serde_json::json!({
            "experiment": "stream_throughput",
            "threads": 1,
            "sizes": [{
                "homes": 10,
                "batch_seconds": 9.9,
                "chunks": [{
                    "chunk_len": 60,
                    "seconds": 0.5,
                    "samples_per_sec": 1e6,
                    "vs_batch_speedup": 1.1,
                    "matches_batch": true,
                    "obs": {"stream_chunks": 240},
                }],
            }],
        });
        assert!(golden::diff(&projected, &strip_timing(&other)).is_empty());
    }

    #[test]
    fn unknown_experiment_is_a_loud_error() {
        let err = run_experiment("no_such_experiment", 0).unwrap_err();
        assert!(err.contains("no_such_experiment"));
    }
}
