//! The full attack×defense matrix, run under the fleet supervisor.

use crate::arena::TrainingArena;
use crate::attacker::DeployedModel;
use crate::registry::{attackers, defenses};
use iot_privacy::fleet::{home_seed, par_map};
use iot_privacy::homesim::{Home, HomeConfig, Persona};
use iot_privacy::nilm::{evaluate_disaggregation, train_device_hmm, Disaggregator, Fhmm};
use iot_privacy::run_fleet;
use iot_privacy::scenario::{AttackScore, ScenarioReport};
use iot_privacy::stream::{
    dense_samples, feed_chunked, LogisticStream, StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy::timeseries::rng::{derive_seed, seeded_rng};
use iot_privacy::timeseries::{LabelSeries, PowerTrace};
use serde_json::{json, Value};

/// Devices the NILM-leakage probe tracks (small on purpose: the probe
/// measures ordering across defenses, not absolute Fig. 2 accuracy).
const NILM_DEVICES: [&str; 3] = ["fridge", "freezer", "toaster"];
/// Samples of the evaluation trace the NILM probe decodes (one day).
const NILM_SAMPLES: usize = 1_440;
/// Chunk lengths the streaming-admission check replays the adaptive
/// attack at (one window-misaligned on purpose).
const STREAM_CHUNKS: [usize; 2] = [64, 997];

/// How one tournament run is parameterized. Every number the matrix
/// produces is a pure function of this struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixConfig {
    /// Root seed; all internal seeds derive from it.
    pub seed: u64,
    /// Instrumented training homes available to the attackers.
    pub train_homes: usize,
    /// Days each training home is observed.
    pub train_days: u64,
    /// Evaluation fleet size.
    pub eval_homes: usize,
    /// Days each evaluation home is observed.
    pub eval_days: u64,
    /// Co-evolution rounds for adaptive attackers.
    pub rounds: usize,
    /// A home index that panics on every attempt — proves the fleet
    /// supervisor's quarantine composes with the tournament. `None`
    /// disables fault injection.
    pub panic_home: Option<usize>,
}

impl MatrixConfig {
    /// The canonical configuration: 6 training homes × 6 days, an
    /// 8-home evaluation fleet × 3 days, 3 co-evolution rounds, and
    /// home 3 persistently faulted.
    pub fn canonical(seed: u64) -> MatrixConfig {
        MatrixConfig {
            seed,
            train_homes: 6,
            train_days: 6,
            eval_homes: 8,
            eval_days: 3,
            rounds: 3,
            panic_home: Some(3),
        }
    }
}

/// One (attacker, defense) cell of the matrix: fleet-mean scores over
/// the surviving evaluation homes, plus the cell's quarantine ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Attacker registry key.
    pub attacker: &'static str,
    /// Defense registry key.
    pub defense: String,
    /// The ε for DP columns, `None` elsewhere.
    pub dp_epsilon: Option<f64>,
    /// Mean attack accuracy on raw meters (baseline, defense-free).
    pub undefended_accuracy: f64,
    /// Mean attack MCC on raw meters.
    pub undefended_mcc: f64,
    /// Mean attack accuracy on defended meters — the cell's headline.
    pub accuracy: f64,
    /// Mean attack MCC on defended meters.
    pub mcc: f64,
    /// Mean per-home energy cost of the defense, kWh: real extra energy
    /// plus billing distortion converted at the fleet's mean consumption.
    pub energy_cost_kwh: f64,
    /// Mean absolute billing distortion fraction.
    pub billing_error_frac: f64,
    /// Evaluation homes that survived supervision.
    pub survivors: usize,
    /// Evaluation homes quarantined by the supervisor.
    pub quarantined: usize,
    /// Retry attempts the supervisor spent on this cell.
    pub retries: u64,
    /// Adaptive attackers' per-round training MCC trajectory (empty for
    /// static rows).
    pub round_train_mcc: Vec<f64>,
}

/// Per-defense NILM leakage: FHMM disaggregation error on a defended
/// trace (higher = the defense blinds NILM harder).
#[derive(Debug, Clone, PartialEq)]
pub struct NilmLeakage {
    /// Defense registry key.
    pub defense: String,
    /// The ε for DP columns, `None` elsewhere.
    pub dp_epsilon: Option<f64>,
    /// Mean disaggregation error factor over the tracked devices
    /// (0 = perfect recovery, 1 = as bad as guessing zero).
    pub mean_error_factor: f64,
}

/// The full tournament outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// The configuration that produced this result.
    pub config: MatrixConfig,
    /// All attacker×defense cells, defense-major in registry order.
    pub cells: Vec<MatrixCell>,
    /// The NILM-leakage probe, one entry per defense.
    pub nilm: Vec<NilmLeakage>,
    /// Whether the adaptive attack replayed through chunked streaming
    /// admission matched the batch attack byte-for-byte.
    pub stream_chunked_equal: bool,
    /// Mean per-home total energy of the evaluation fleet, kWh.
    pub mean_home_energy_kwh: f64,
}

impl MatrixResult {
    /// The cell for `(attacker, defense)` keys, if present.
    pub fn cell(&self, attacker: &str, defense: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.attacker == attacker && c.defense == defense)
    }

    fn mcc_of(&self, attacker: &str, defense: &str) -> f64 {
        self.cell(attacker, defense)
            .unwrap_or_else(|| panic!("missing cell {attacker}/{defense}"))
            .mcc
    }

    /// The DP defense keys, registry order (weakest budget first).
    fn dp_keys(&self) -> Vec<&str> {
        let mut keys = Vec::new();
        for c in &self.cells {
            if c.dp_epsilon.is_some() && !keys.contains(&c.defense.as_str()) {
                keys.push(c.defense.as_str());
            }
        }
        keys
    }

    /// The headline ordering: minimum over non-DP defense columns of
    /// (adaptive MCC − best static MCC). Positive means the co-evolving
    /// attacker strictly beats both static baselines everywhere the
    /// defense carries no DP guarantee.
    pub fn adaptive_min_non_dp_margin(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.attacker == "adaptive-tuned" && c.dp_epsilon.is_none())
            .map(|c| {
                let best_static = ["static-threshold", "static-logistic"]
                    .iter()
                    .map(|a| self.mcc_of(a, &c.defense))
                    .fold(f64::NEG_INFINITY, f64::max);
                c.mcc - best_static
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Graceful degradation on the static-threshold row: minimum of
    /// (undefended − first rung) and (first rung − every stronger rung).
    /// The strongest rungs are allowed to tie each other — at small ε the
    /// attack bottoms out at the schedule-prior floor and adjacent rungs
    /// differ only by noise — but each must sit below the weakest rung.
    pub fn dp_static_degradation_min(&self) -> f64 {
        let row = |d: &str| self.mcc_of("static-threshold", d);
        let rungs = self.dp_keys();
        let first = row(rungs[0]);
        let mut min = row("none") - first;
        for rung in &rungs[1..] {
            min = min.min(first - row(rung));
        }
        min
    }

    /// How far the strongest DP rung pushes the *adaptive* attacker below
    /// its own undefended score — the guarantee retraining cannot beat.
    pub fn dp_adaptive_floor_margin(&self) -> f64 {
        let rungs = self.dp_keys();
        let strongest = rungs.last().expect("registry has DP rungs");
        self.mcc_of("adaptive-tuned", "none") - self.mcc_of("adaptive-tuned", strongest)
    }

    /// Minimum consecutive energy-cost ratio down the DP ladder. Cost is
    /// a per-column quantity (every attacker row sees the same defended
    /// traces), read off the static-threshold row. A ratio well above 1
    /// means cost grows monotonically — and steeply — as ε shrinks.
    pub fn dp_cost_min_ratio(&self) -> f64 {
        let cost = |d: &str| {
            self.cell("static-threshold", d)
                .unwrap_or_else(|| panic!("missing cell static-threshold/{d}"))
                .energy_cost_kwh
        };
        let rungs = self.dp_keys();
        rungs
            .windows(2)
            .map(|w| cost(w[1]) / cost(w[0]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether fleet supervision composed identically with every cell:
    /// the injected panic home (if any) quarantined, everyone else
    /// surviving, in all `attackers × defenses` evaluations.
    pub fn quarantine_composes(&self) -> bool {
        let expected = self
            .config
            .panic_home
            .map_or(0, |h| usize::from(h < self.config.eval_homes));
        self.cells
            .iter()
            .all(|c| c.quarantined == expected && c.survivors == self.config.eval_homes - expected)
    }

    /// The canonical JSON projection — what `results/tournament.json`
    /// stores and the `tournament.*` conformance claims read. A pure
    /// function of the config, byte-identical across thread counts.
    pub fn to_json(&self) -> Value {
        let opt = |e: Option<f64>| e.map_or(Value::Null, |x| json!(x));
        json!({
            "experiment": "tournament",
            "seed": self.config.seed,
            "train_homes": self.config.train_homes,
            "train_days": self.config.train_days,
            "eval_homes": self.config.eval_homes,
            "eval_days": self.config.eval_days,
            "rounds": self.config.rounds,
            "mean_home_energy_kwh": self.mean_home_energy_kwh,
            "cells": self.cells.iter().map(|c| json!({
                "attacker": c.attacker,
                "defense": c.defense,
                "dp_epsilon": opt(c.dp_epsilon),
                "undefended_accuracy": c.undefended_accuracy,
                "undefended_mcc": c.undefended_mcc,
                "accuracy": c.accuracy,
                "mcc": c.mcc,
                "energy_cost_kwh": c.energy_cost_kwh,
                "billing_error_frac": c.billing_error_frac,
                "survivors": c.survivors,
                "quarantined": c.quarantined,
                "retries": c.retries,
                "round_train_mcc": c.round_train_mcc,
            })).collect::<Vec<_>>(),
            "nilm": self.nilm.iter().map(|n| json!({
                "defense": n.defense,
                "dp_epsilon": opt(n.dp_epsilon),
                "mean_error_factor": n.mean_error_factor,
            })).collect::<Vec<_>>(),
            "stream": {
                "attacker": "adaptive-tuned",
                "defense": "chpr",
                "chunk_lens": STREAM_CHUNKS,
                "chunked_equal": self.stream_chunked_equal,
            },
            "summary": {
                "adaptive_min_non_dp_margin": self.adaptive_min_non_dp_margin(),
                "dp_static_degradation_min": self.dp_static_degradation_min(),
                "dp_adaptive_floor_margin": self.dp_adaptive_floor_margin(),
                "dp_cost_min_ratio": self.dp_cost_min_ratio(),
                "quarantine_composes": self.quarantine_composes(),
            },
        })
    }
}

/// Replays `model` over `defended` through chunked streaming admission —
/// the gateway deployment shape, where readings arrive `chunk_len` at a
/// time rather than as a finished trace.
fn chunked_detect(model: &DeployedModel, defended: &PowerTrace, chunk_len: usize) -> LabelSeries {
    let samples = dense_samples(defended.samples());
    let spec = StreamSpec::of_trace(defended);
    match model {
        DeployedModel::Threshold(d) => {
            let mut s = ThresholdStream::new(d.clone(), spec);
            feed_chunked(&mut s, &samples, chunk_len);
            s.finalize()
        }
        DeployedModel::Logistic(d) => {
            let mut s = LogisticStream::new(d.clone(), spec);
            feed_chunked(&mut s, &samples, chunk_len);
            s.finalize()
        }
    }
}

/// Runs the full tournament.
///
/// Structure per defense column: all attackers fit first (adaptive ones
/// against this column's defense), then each (attacker, defense) cell
/// evaluates through [`run_fleet`] with a root seed
/// derived from the *defense key only* — every attacker row of a column
/// therefore sees byte-identical defended evaluation traces, and the
/// injected panic home is quarantined identically in every cell.
///
/// # Panics
///
/// Panics if the config is degenerate (zero homes/days/rounds) or the
/// whole evaluation fleet ends up quarantined.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixResult {
    assert!(
        cfg.eval_homes > 0 && cfg.eval_days > 0,
        "need an eval fleet"
    );
    assert!(cfg.rounds > 0, "need at least one round");
    let _span = obs::span("tournament.matrix");

    let arena = TrainingArena::simulate(
        derive_seed(cfg.seed, "train"),
        cfg.train_homes,
        cfg.train_days,
    );
    // Personas rotate as in the training arena: the fleet the attacker
    // monetizes has the same schedule mix its training homes sampled.
    const PERSONAS: [Persona; 3] = [Persona::Worker, Persona::Homebody, Persona::NightShift];
    let eval_root = derive_seed(cfg.seed, "eval-worlds");
    let worlds: Vec<Home> = par_map((0..cfg.eval_homes).collect(), |i| {
        Home::simulate(
            &HomeConfig::new(home_seed(eval_root, i))
                .days(cfg.eval_days)
                .persona(PERSONAS[i % PERSONAS.len()]),
        )
    });
    let mean_home_energy_kwh =
        worlds.iter().map(|w| w.meter.energy_kwh()).sum::<f64>() / worlds.len() as f64;

    // The NILM probe's device models, trained on evaluation home 0's own
    // ground-truth submeters (the strongest NILM attacker: it knows the
    // home's appliances exactly; only the defense stands in the way).
    let nilm_home = &worlds[0];
    let fhmm = {
        let mut models: Vec<_> = NILM_DEVICES
            .iter()
            .map(|name| {
                let d = nilm_home.device(name).expect("catalogue device simulated");
                train_device_hmm(&d.name, &d.trace.slice(0..NILM_SAMPLES), 2)
            })
            .collect();
        let mut other = nilm_home.meter.slice(0..NILM_SAMPLES);
        for name in NILM_DEVICES {
            let d = nilm_home.device(name).expect("catalogue device simulated");
            other = other
                .checked_sub(&d.trace.slice(0..NILM_SAMPLES))
                .expect("aligned");
        }
        models.push(train_device_hmm("other", &other.clamp_non_negative(), 3));
        Fhmm::new(models)
    };
    let nilm_truth: Vec<(String, PowerTrace)> = NILM_DEVICES
        .iter()
        .map(|name| {
            let d = nilm_home.device(name).expect("catalogue device simulated");
            (d.name.clone(), d.trace.slice(0..NILM_SAMPLES))
        })
        .collect();

    let attackers = attackers();
    let mut cells = Vec::new();
    let mut nilm = Vec::new();
    let mut stream_chunked_equal = true;
    for spec in defenses() {
        let defense = spec.defense.as_ref();
        for attacker in &attackers {
            let fit_seed = derive_seed(cfg.seed, &format!("fit:{}:{}", attacker.name(), spec.key));
            let fitted = attacker.fit(&arena, defense, cfg.rounds, fit_seed);

            let eval_seed = derive_seed(cfg.seed, &format!("eval:{}", spec.key));
            let fleet = run_fleet(cfg.eval_homes, eval_seed, |attempt| {
                if Some(attempt.home) == cfg.panic_home {
                    panic!("injected fault in home {}", attempt.home);
                }
                let world = &worlds[attempt.home];
                let mut rng = seeded_rng(derive_seed(attempt.seed, "defense"));
                let defended = defense.apply(&world.meter, &mut rng);
                let score = |trace: &PowerTrace| -> AttackScore {
                    let c = world
                        .occupancy
                        .confusion(&fitted.detect(trace))
                        .expect("attack output is aligned by contract");
                    AttackScore {
                        accuracy: c.accuracy(),
                        mcc: c.mcc(),
                    }
                };
                ScenarioReport {
                    undefended: score(&world.meter),
                    defended: score(&defended.trace),
                    cost: defended.cost,
                }
            })
            .expect("evaluation fleet survives");

            let s = &fleet.summary;
            cells.push(MatrixCell {
                attacker: attacker.name(),
                defense: spec.key.clone(),
                dp_epsilon: spec.dp_epsilon,
                undefended_accuracy: s.undefended_accuracy.mean,
                undefended_mcc: s.undefended_mcc.mean,
                accuracy: s.defended_accuracy.mean,
                mcc: s.defended_mcc.mean,
                energy_cost_kwh: s.extra_energy_kwh.mean
                    + s.billing_error_frac.mean * mean_home_energy_kwh,
                billing_error_frac: s.billing_error_frac.mean,
                survivors: fleet.reports.len(),
                quarantined: fleet.quarantined.len(),
                retries: fleet.retries,
                round_train_mcc: fitted.round_train_mcc.clone(),
            });

            // The streaming-admission contract: the adaptive attack vs
            // CHPr replayed through chunked ingestion must reproduce
            // the batch attack byte-for-byte.
            if attacker.is_adaptive() && spec.key == "chpr" {
                let mut rng = seeded_rng(derive_seed(cfg.seed, "stream-check"));
                let defended = defense.apply(&worlds[0].meter, &mut rng).trace;
                let batch = fitted.detect(&defended);
                for chunk_len in STREAM_CHUNKS {
                    stream_chunked_equal &=
                        chunked_detect(&fitted.model, &defended, chunk_len) == batch;
                }
            }
        }

        // NILM leakage probe for this defense column.
        let mut rng = seeded_rng(derive_seed(cfg.seed, &format!("nilm:{}", spec.key)));
        let defended = defense.apply(&nilm_home.meter, &mut rng).trace;
        let scores = evaluate_disaggregation(
            &nilm_truth,
            &fhmm.disaggregate(&defended.slice(0..NILM_SAMPLES)),
        )
        .expect("probe traces aligned");
        nilm.push(NilmLeakage {
            defense: spec.key.clone(),
            dp_epsilon: spec.dp_epsilon,
            mean_error_factor: scores.iter().map(|s| s.error_factor).sum::<f64>()
                / scores.len() as f64,
        });
    }

    obs::counter_add("tournament.cells", cells.len() as u64);
    MatrixResult {
        config: *cfg,
        cells,
        nilm,
        stream_chunked_equal,
        mean_home_energy_kwh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny configuration for unit tests — the full canonical run is
    /// exercised by the bench experiment and the integration suite.
    fn tiny() -> MatrixConfig {
        MatrixConfig {
            seed: 21,
            train_homes: 2,
            train_days: 2,
            eval_homes: 2,
            eval_days: 2,
            rounds: 1,
            panic_home: None,
        }
    }

    #[test]
    fn matrix_covers_the_cross_product() {
        let m = run_matrix(&tiny());
        assert_eq!(m.cells.len(), attackers().len() * defenses().len());
        assert_eq!(m.nilm.len(), defenses().len());
        assert!(m.stream_chunked_equal);
        assert!(m.cell("adaptive-tuned", "chpr").is_some());
        assert!(m.cell("no-such", "chpr").is_none());
        for cell in &m.cells {
            assert_eq!(cell.survivors, 2);
            assert_eq!(cell.quarantined, 0);
            assert!(cell.mcc.is_finite() && cell.accuracy.is_finite());
            assert!(cell.energy_cost_kwh.is_finite());
        }
    }

    #[test]
    fn undefended_baseline_is_shared_within_a_static_row() {
        // A static attacker's model ignores the defense, so its
        // undefended score must be identical across a row's columns.
        // (Adaptive rows legitimately vary: the fitted model depends on
        // which defense it co-evolved against.)
        let m = run_matrix(&tiny());
        for attacker in ["static-threshold", "static-logistic"] {
            let row: Vec<&MatrixCell> = m.cells.iter().filter(|c| c.attacker == attacker).collect();
            assert!(row
                .windows(2)
                .all(|w| w[0].undefended_mcc == w[1].undefended_mcc));
        }
        // The identity column defends nothing: defended == undefended.
        for cell in m.cells.iter().filter(|c| c.defense == "none") {
            assert_eq!(cell.mcc, cell.undefended_mcc, "{}", cell.attacker);
            assert_eq!(cell.energy_cost_kwh, 0.0);
        }
    }

    #[test]
    fn panic_home_is_quarantined_in_every_cell() {
        let cfg = MatrixConfig {
            panic_home: Some(1),
            ..tiny()
        };
        let m = run_matrix(&cfg);
        for cell in &m.cells {
            assert_eq!(cell.quarantined, 1, "{}/{}", cell.attacker, cell.defense);
            assert_eq!(cell.survivors, 1);
            assert!(cell.retries > 0);
        }
    }

    #[test]
    fn json_projection_is_stable() {
        let m = run_matrix(&tiny());
        let a = serde_json::to_string(&m.to_json()).unwrap();
        let b = serde_json::to_string(&run_matrix(&tiny()).to_json()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"cells\""));
        assert!(a.contains("\"dp_epsilon\""));
        assert!(a.contains("\"summary\""));
    }

    #[test]
    fn summary_scalars_are_finite_and_coherent() {
        let m = run_matrix(&tiny());
        assert!(m.adaptive_min_non_dp_margin().is_finite());
        assert!(m.dp_static_degradation_min().is_finite());
        assert!(m.dp_adaptive_floor_margin().is_finite());
        // Laplace noise at ε-steps of 8× must cost strictly more per rung.
        assert!(m.dp_cost_min_ratio() > 1.0);
        // No panic home injected → zero quarantines everywhere.
        assert!(m.quarantine_composes());
        // The composition flag notices a missing quarantine.
        let faulted = run_matrix(&MatrixConfig {
            panic_home: Some(0),
            ..tiny()
        });
        assert!(faulted.quarantine_composes());
        assert!(faulted.cells.iter().all(|c| c.quarantined == 1));
    }
}
