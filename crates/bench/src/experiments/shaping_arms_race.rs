//! The encrypted-traffic arms race (ROADMAP item 4, threat model of
//! arXiv 1708.05044 and arXiv 2406.10358): every shaping policy in
//! [`policies`] versus both fingerprinters — the naive
//! naive-Bayes attack trained once on clear traffic, and the
//! [`StrongFingerprinter`] that re-featurizes on what shaping does not
//! destroy and retrains per-policy on shaped traces.
//!
//! Each `(policy, attacker)` cell runs through the supervised fleet
//! engine over fault-injected flow logs with one persistently panicking
//! home, so the whole matrix also witnesses that quarantine composes with
//! shaping. The `netsim.shaping-*` conformance claims read the summary
//! scalars; docs/NETSIM.md documents the methodology.

use super::{Report, RunConfig};
use crate::table::{Cell, ThroughputTable};
use faults::FaultPlan;
use iot_privacy::defense::DefenseCost;
use iot_privacy::fleet::par_map;
use iot_privacy::netsim::fingerprint::{accuracy, labelled_examples};
use iot_privacy::netsim::{
    policies, simulate_home_network, strong_accuracy, strong_examples, DeviceType, FeatureVector,
    NaiveBayes, NetworkTrace, StrongFeatureVector, StrongFingerprinter, TrafficOccupancy,
};
use iot_privacy::timeseries::rng::derive_seed;
use iot_privacy::timeseries::{LabelSeries, Resolution, Timestamp};
use iot_privacy::{run_fleet, AttackScore, HomeAttempt, ScenarioReport};

const ROOT_SEED: u64 = 47;

/// The 10-device-class chance accuracy every leakage number is measured
/// against.
pub const CHANCE_ACCURACY: f64 = 0.1;

/// `FaultPlan::network_profile` intensity applied to every evaluation
/// home's flow log before shaping.
const FAULT_INTENSITY: f64 = 0.1;

/// How one arms-race run is parameterized. [`ArmsRaceConfig::canonical`]
/// is what the binary and the conformance harness run;
/// [`ArmsRaceConfig::tiny`] keeps the determinism test fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmsRaceConfig {
    /// Root seed; every internal stream derives from it by label.
    pub root_seed: u64,
    /// Evaluation homes run under the fleet supervisor.
    pub eval_homes: usize,
    /// Days of clear traffic the attackers train on (one observation
    /// window per day).
    pub train_days: u64,
    /// Days of traffic per evaluation home.
    pub eval_days: u64,
    /// Per-policy retraining rounds for the strong attacker.
    pub rounds: usize,
    /// Home index that panics on every attempt (`None` disables the
    /// panic-injection witness).
    pub panic_home: Option<usize>,
}

impl ArmsRaceConfig {
    /// The canonical configuration behind `results/shaping_arms_race.*`.
    pub fn canonical(root_seed: u64) -> ArmsRaceConfig {
        ArmsRaceConfig {
            root_seed,
            eval_homes: 6,
            train_days: 6,
            eval_days: 4,
            rounds: 2,
            panic_home: Some(4),
        }
    }

    /// A deliberately small configuration for byte-identity tests.
    pub fn tiny(root_seed: u64) -> ArmsRaceConfig {
        ArmsRaceConfig {
            root_seed,
            eval_homes: 3,
            train_days: 2,
            eval_days: 2,
            rounds: 1,
            panic_home: Some(1),
        }
    }
}

/// One `(policy, attacker)` matrix cell, aggregated over the surviving
/// evaluation homes.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmsRaceCell {
    /// Shaping-policy registry key.
    pub policy: String,
    /// Attacker name (`naive-bayes` or `strong-logistic`).
    pub attacker: &'static str,
    /// Mean device-identification accuracy on the *unshaped* (but
    /// faulted) logs.
    pub clear_accuracy: f64,
    /// Mean device-identification accuracy on the shaped logs.
    pub shaped_accuracy: f64,
    /// Mean traffic-occupancy MCC on the shaped logs (side-channel
    /// residual).
    pub shaped_occupancy_mcc: f64,
    /// Surviving homes in this cell's supervised fleet.
    pub survivors: usize,
    /// Homes quarantined by the supervisor.
    pub quarantined: Vec<usize>,
    /// Retry attempts the supervisor spent.
    pub retries: u64,
}

/// Per-policy defense price tag, averaged over evaluation homes.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPrice {
    /// Shaping-policy registry key.
    pub policy: String,
    /// Whether the registry marks this a partial defense.
    pub partial: bool,
    /// Mean overhead bytes as a fraction of raw bytes.
    pub overhead_frac: f64,
    /// Mean added latency per real flow, seconds.
    pub added_latency_secs: f64,
}

/// The whole matrix plus the derived summary scalars the claims pin.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmsRaceResult {
    /// The configuration that produced this result.
    pub config: ArmsRaceConfig,
    /// All `(policy, attacker)` cells, policy-major in registry order.
    pub cells: Vec<ArmsRaceCell>,
    /// Per-policy price tags, registry order.
    pub prices: Vec<PolicyPrice>,
    /// The strong attacker's per-policy training trail (prefix-stable).
    pub strong_trails: Vec<(String, Vec<f64>)>,
}

impl ArmsRaceResult {
    fn cell(&self, policy: &str, attacker: &str) -> &ArmsRaceCell {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.attacker == attacker)
            .expect("cell present")
    }

    fn price(&self, policy: &str) -> &PolicyPrice {
        self.prices
            .iter()
            .find(|p| p.policy == policy)
            .expect("price present")
    }

    /// Minimum, over the partial defenses, of the strong attacker's
    /// shaped-accuracy margin over the naive attacker. Positive means the
    /// re-featurizing attacker beats the naive one on *every* partial
    /// defense.
    pub fn strong_minus_naive_min_partial(&self) -> f64 {
        self.prices
            .iter()
            .filter(|p| p.partial)
            .map(|p| {
                self.cell(&p.policy, "strong-logistic").shaped_accuracy
                    - self.cell(&p.policy, "naive-bayes").shaped_accuracy
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every supervised cell quarantined exactly the configured
    /// panic home and kept all other homes.
    pub fn quarantine_composes(&self) -> bool {
        let Some(panic_home) = self.config.panic_home else {
            return self.cells.iter().all(|c| c.quarantined.is_empty());
        };
        self.cells
            .iter()
            .all(|c| c.quarantined == [panic_home] && c.survivors == self.config.eval_homes - 1)
    }

    /// Whether latency pricing is honest: zero without aggregation,
    /// positive with it.
    pub fn latency_honest(&self) -> bool {
        policies().iter().all(|spec| {
            let latency = self.price(spec.key).added_latency_secs;
            if spec.policy.aggregates() {
                latency > 0.0
            } else {
                latency == 0.0
            }
        })
    }

    /// Projects the result into the JSON the conformance claims read.
    pub fn to_json(&self) -> serde_json::Value {
        let cells: Vec<serde_json::Value> = self
            .cells
            .iter()
            .map(|c| {
                serde_json::json!({
                    "policy": c.policy,
                    "attacker": c.attacker,
                    "clear_accuracy": c.clear_accuracy,
                    "shaped_accuracy": c.shaped_accuracy,
                    "shaped_occupancy_mcc": c.shaped_occupancy_mcc,
                    "survivors": c.survivors,
                    "quarantined": c.quarantined,
                    "retries": c.retries,
                })
            })
            .collect();
        let prices: Vec<serde_json::Value> = self
            .prices
            .iter()
            .map(|p| {
                serde_json::json!({
                    "policy": p.policy,
                    "partial": p.partial,
                    "overhead_frac": p.overhead_frac,
                    "added_latency_secs": p.added_latency_secs,
                })
            })
            .collect();
        let trails: Vec<serde_json::Value> = self
            .strong_trails
            .iter()
            .map(|(policy, trail)| serde_json::json!({"policy": policy, "round_train_acc": trail}))
            .collect();
        let min_defended_overhead = self
            .prices
            .iter()
            .filter(|p| p.policy != "none")
            .map(|p| p.overhead_frac)
            .fold(f64::INFINITY, f64::min);
        serde_json::json!({
            "experiment": "shaping_arms_race",
            "config": {
                "eval_homes": self.config.eval_homes,
                "train_days": self.config.train_days,
                "eval_days": self.config.eval_days,
                "rounds": self.config.rounds,
                "fault_intensity": FAULT_INTENSITY,
                "panic_home": self.config.panic_home,
            },
            "chance_accuracy": CHANCE_ACCURACY,
            "cells": cells,
            "prices": prices,
            "strong_trails": trails,
            "summary": {
                "strong_minus_naive_min_partial": self.strong_minus_naive_min_partial(),
                "pad_strong_above_chance":
                    self.cell("pad", "strong-logistic").shaped_accuracy - CHANCE_ACCURACY,
                "full_strong_above_chance":
                    self.cell("full", "strong-logistic").shaped_accuracy - CHANCE_ACCURACY,
                "naive_pad_cover_accuracy":
                    self.cell("pad-cover", "naive-bayes").shaped_accuracy,
                "strong_clear_accuracy":
                    self.cell("none", "strong-logistic").shaped_accuracy,
                "naive_clear_accuracy":
                    self.cell("none", "naive-bayes").shaped_accuracy,
                "min_defended_overhead_frac": min_defended_overhead,
                "full_overhead_frac": self.price("full").overhead_frac,
                "full_added_latency_secs": self.price("full").added_latency_secs,
                "full_occupancy_mcc":
                    self.cell("full", "strong-logistic").shaped_occupancy_mcc,
                "none_occupancy_mcc":
                    self.cell("none", "strong-logistic").shaped_occupancy_mcc,
                "pad_cover_occupancy_mcc":
                    self.cell("pad-cover", "strong-logistic").shaped_occupancy_mcc,
                "latency_honest": self.latency_honest(),
                "quarantine_composes": self.quarantine_composes(),
            },
        })
    }
}

fn occupancy(days: u64) -> LabelSeries {
    LabelSeries::from_fn(
        Timestamp::ZERO,
        Resolution::ONE_MINUTE,
        (days * 1440) as usize,
        |i| {
            let m = i % 1440;
            !(540..1_020).contains(&m)
        },
    )
}

/// One evaluation home's precomputed example sets for one policy.
struct PolicyEval {
    naive: Vec<(DeviceType, FeatureVector)>,
    strong: Vec<(DeviceType, StrongFeatureVector)>,
    occupancy_mcc: f64,
    overhead_frac: f64,
    added_latency_secs: f64,
}

/// One evaluation home: the faulted-but-unshaped view plus one
/// [`PolicyEval`] per registry policy.
struct HomeEval {
    naive_clear: Vec<(DeviceType, FeatureVector)>,
    strong_clear: Vec<(DeviceType, StrongFeatureVector)>,
    occupancy_mcc_clear: f64,
    per_policy: Vec<PolicyEval>,
}

fn occupancy_mcc(
    flows: &[iot_privacy::netsim::FlowRecord],
    truth: &LabelSeries,
    horizon: u64,
) -> f64 {
    TrafficOccupancy::default()
        .evaluate(flows, truth, horizon)
        .map(|c| c.mcc())
        .unwrap_or(0.0)
}

/// Runs the arms race at an explicit configuration. Exposed (rather than
/// only via [`run`]) so the determinism test can drive a small matrix
/// through the identical code path.
pub fn run_arms_race(cfg: &ArmsRaceConfig) -> ArmsRaceResult {
    let _span = obs::span("bench.shaping_arms_race");
    let registry = policies();
    let inventory: Vec<DeviceType> = DeviceType::all().to_vec();
    let root = cfg.root_seed;

    // -- attacker training ------------------------------------------------
    let train_trace = simulate_home_network(
        &inventory,
        &occupancy(cfg.train_days),
        cfg.train_days,
        derive_seed(root, "train"),
    );
    let train_windows = cfg.train_days as usize;
    let nb = NaiveBayes::train(&labelled_examples(&train_trace, train_windows));
    let strong_models: Vec<StrongFingerprinter> = par_map(registry.clone(), |spec| {
        StrongFingerprinter::fit(
            &train_trace,
            &spec.policy,
            train_windows,
            cfg.rounds,
            derive_seed(root, &format!("strong:{}", spec.key)),
        )
    });

    // -- evaluation worlds: simulate, fault-inject, shape, featurize ------
    let eval_truth = occupancy(cfg.eval_days);
    let eval_windows = cfg.eval_days as usize;
    let home_evals: Vec<HomeEval> = par_map((0..cfg.eval_homes).collect(), |h| {
        let trace = simulate_home_network(
            &inventory,
            &eval_truth,
            cfg.eval_days,
            derive_seed(root, &format!("eval-home:{h}")),
        );
        let ids: Vec<u32> = trace.devices.iter().map(|d| d.device_id).collect();
        let faulted = FaultPlan::network_profile(FAULT_INTENSITY)
            .apply_flows(&trace, derive_seed(root, &format!("faults:{h}")));
        let mut faulted_trace = trace.clone();
        faulted_trace.flows = faulted.flows;
        let per_policy = registry
            .iter()
            .map(|spec| {
                let shaped = spec.policy.shape(
                    &faulted_trace.flows,
                    &ids,
                    faulted_trace.horizon_secs,
                    derive_seed(root, &format!("shape:{}:{h}", spec.key)),
                );
                let overhead_frac = shaped.overhead_frac();
                let added_latency_secs = shaped.added_latency_secs;
                let mut shaped_trace: NetworkTrace = faulted_trace.clone();
                shaped_trace.flows = shaped.flows;
                PolicyEval {
                    naive: labelled_examples(&shaped_trace, eval_windows),
                    strong: strong_examples(&shaped_trace, eval_windows),
                    occupancy_mcc: occupancy_mcc(
                        &shaped_trace.flows,
                        &eval_truth,
                        shaped_trace.horizon_secs,
                    ),
                    overhead_frac,
                    added_latency_secs,
                }
            })
            .collect();
        HomeEval {
            naive_clear: labelled_examples(&faulted_trace, eval_windows),
            strong_clear: strong_examples(&faulted_trace, eval_windows),
            occupancy_mcc_clear: occupancy_mcc(
                &faulted_trace.flows,
                &eval_truth,
                faulted_trace.horizon_secs,
            ),
            per_policy,
        }
    });

    // -- the matrix: every policy × both attackers, supervised ------------
    let mut cells = Vec::with_capacity(registry.len() * 2);
    for (p_idx, spec) in registry.iter().enumerate() {
        for attacker in ["naive-bayes", "strong-logistic"] {
            let fleet = run_fleet(
                cfg.eval_homes,
                derive_seed(root, &format!("fleet:{}:{attacker}", spec.key)),
                |attempt: HomeAttempt| {
                    if Some(attempt.home) == cfg.panic_home {
                        panic!("injected fault in home {}", attempt.home);
                    }
                    let he = &home_evals[attempt.home];
                    let pe = &he.per_policy[p_idx];
                    let (clear_acc, shaped_acc) = match attacker {
                        "naive-bayes" => (accuracy(&nb, &he.naive_clear), accuracy(&nb, &pe.naive)),
                        _ => (
                            strong_accuracy(&strong_models[p_idx], &he.strong_clear),
                            strong_accuracy(&strong_models[p_idx], &pe.strong),
                        ),
                    };
                    ScenarioReport {
                        undefended: AttackScore {
                            accuracy: clear_acc,
                            mcc: he.occupancy_mcc_clear,
                        },
                        defended: AttackScore {
                            accuracy: shaped_acc,
                            mcc: pe.occupancy_mcc,
                        },
                        cost: DefenseCost::default(),
                    }
                },
            )
            .expect("at least one home survives");
            cells.push(ArmsRaceCell {
                policy: spec.key.to_string(),
                attacker,
                clear_accuracy: fleet.summary.undefended_accuracy.mean,
                shaped_accuracy: fleet.summary.defended_accuracy.mean,
                shaped_occupancy_mcc: fleet.summary.defended_mcc.mean,
                survivors: fleet.reports.len(),
                quarantined: fleet.quarantined.iter().map(|q| q.home).collect(),
                retries: fleet.retries,
            });
        }
    }

    // -- price tags, averaged over every home -----------------------------
    let prices = registry
        .iter()
        .enumerate()
        .map(|(p_idx, spec)| {
            let n = home_evals.len() as f64;
            PolicyPrice {
                policy: spec.key.to_string(),
                partial: spec.partial,
                overhead_frac: home_evals
                    .iter()
                    .map(|he| he.per_policy[p_idx].overhead_frac)
                    .sum::<f64>()
                    / n,
                added_latency_secs: home_evals
                    .iter()
                    .map(|he| he.per_policy[p_idx].added_latency_secs)
                    .sum::<f64>()
                    / n,
            }
        })
        .collect();

    let strong_trails = registry
        .iter()
        .zip(&strong_models)
        .map(|(spec, m)| (spec.key.to_string(), m.round_train_acc.clone()))
        .collect();

    ArmsRaceResult {
        config: *cfg,
        cells,
        prices,
        strong_trails,
    }
}

/// Runs the shaping arms-race experiment at the canonical configuration.
pub fn run(cfg: &RunConfig) -> Report {
    let arms_cfg = ArmsRaceConfig::canonical(cfg.seed(ROOT_SEED));
    let m = run_arms_race(&arms_cfg);

    let mut table = ThroughputTable::new(&[
        "policy",
        "attacker",
        "clear acc",
        "shaped acc",
        "occ mcc",
        "overhead",
        "latency s",
        "quarantined",
    ]);
    for c in &m.cells {
        let price = m.price(&c.policy);
        table.row(&[
            Cell::Text(c.policy.clone()),
            Cell::Text(c.attacker.to_string()),
            Cell::Score(c.clear_accuracy),
            Cell::Score(c.shaped_accuracy),
            Cell::Score(c.shaped_occupancy_mcc),
            Cell::Score(price.overhead_frac),
            Cell::Score(price.added_latency_secs),
            Cell::Count(c.quarantined.len() as u64),
        ]);
    }

    let mut report = Report::new();
    table.add_to(
        &mut report,
        &format!(
            "Shaping x attacker matrix: {} eval homes x {} days, {} retrain rounds, \
             {:.0}% flow faults",
            arms_cfg.eval_homes,
            arms_cfg.eval_days,
            arms_cfg.rounds,
            FAULT_INTENSITY * 100.0,
        ),
    );
    report.note(format!(
        "\nStrong attacker beats naive on every partial defense by ≥ {:.3} accuracy",
        m.strong_minus_naive_min_partial(),
    ));
    report.note(format!(
        "Padding-only still leaks: strong attacker {:.3} above chance (\"I Still See You\")",
        m.cell("pad", "strong-logistic").shaped_accuracy - CHANCE_ACCURACY,
    ));
    report.note(format!(
        "Full aggregation+cover stack floors the strong attacker to chance + {:.3}, \
         at {:.2}x byte overhead and {:.0} s mean added latency",
        m.cell("full", "strong-logistic").shaped_accuracy - CHANCE_ACCURACY,
        m.price("full").overhead_frac,
        m.price("full").added_latency_secs,
    ));
    report.note(format!(
        "Every cell ran under the fleet supervisor with home {:?} persistently faulted — \
         quarantine composes: {}",
        arms_cfg.panic_home,
        if m.quarantine_composes() {
            "✓"
        } else {
            "✗"
        },
    ));
    report.json = m.to_json();
    report
}
