//! The declarative claim registry.
//!
//! One [`Claim`] per quantitative statement the paper makes that the
//! suite reproduces. Each claim names the experiment whose JSON output it
//! reads, scalarizes that output with a [`Metric`] — a dotted JSON path
//! or a derived function — and constrains the scalar with a [`Band`].
//! Ordering claims ("the defended MCC sits well below the undefended
//! MCC") are expressed as a derived *margin* — the difference or ratio of
//! the two quantities — constrained by [`Band::AtLeast`]/[`Band::AtMost`],
//! so every claim reduces to one number against one band.

use serde_json::Value;

/// The tolerance band a claim's extracted metric must satisfy.
///
/// Measured values come from a stochastic simulation, so bands are
/// deliberately wide around the paper's reported numbers: the claim is
/// the *shape* (occupied homes draw visibly more power; CHPr collapses
/// the attack toward random), not the third decimal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// `lo <= x <= hi`.
    Absolute {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `x >= lo` — used for ordering margins that must stay positive.
    AtLeast {
        /// Inclusive lower bound.
        lo: f64,
    },
    /// `x <= hi` — used for error ceilings and near-zero checks.
    AtMost {
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `|x - expected| <= rel * |expected|` — a relative tolerance.
    Relative {
        /// The value the paper (or theory) predicts.
        expected: f64,
        /// Allowed relative deviation (0.5 = ±50%).
        rel: f64,
    },
}

impl Band {
    /// The band as an inclusive `[lo, hi]` interval (±∞ for open sides).
    pub fn bounds(&self) -> (f64, f64) {
        match *self {
            Band::Absolute { lo, hi } => (lo, hi),
            Band::AtLeast { lo } => (lo, f64::INFINITY),
            Band::AtMost { hi } => (f64::NEG_INFINITY, hi),
            Band::Relative { expected, rel } => {
                let slack = rel * expected.abs();
                (expected - slack, expected + slack)
            }
        }
    }

    /// Whether `x` lies inside the band.
    pub fn contains(&self, x: f64) -> bool {
        let (lo, hi) = self.bounds();
        x.is_finite() && x >= lo && x <= hi
    }

    /// Whether the interval `[lo, hi]` overlaps the band — the seed-sweep
    /// acceptance rule, applied to the mean ± CI interval.
    pub fn intersects(&self, lo: f64, hi: f64) -> bool {
        let (band_lo, band_hi) = self.bounds();
        lo.is_finite() && hi.is_finite() && lo <= band_hi && hi >= band_lo
    }

    /// A compact human-readable rendering, e.g. `[0.30, 0.70]` or `>= 0.2`.
    pub fn describe(&self) -> String {
        match *self {
            Band::Absolute { lo, hi } => format!("[{lo}, {hi}]"),
            Band::AtLeast { lo } => format!(">= {lo}"),
            Band::AtMost { hi } => format!("<= {hi}"),
            Band::Relative { expected, rel } => {
                format!("{expected} ±{:.0}%", rel * 100.0)
            }
        }
    }
}

/// How a claim scalarizes its experiment's JSON output.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// The number at a dotted path, e.g. `summary.dp_cost_min_ratio`.
    Num(&'static str),
    /// The boolean at a dotted path, read as 1 (`true`) or 0 (`false`).
    Flag(&'static str),
    /// A computed scalar: a margin, ratio or fold over an array.
    Derived(fn(&Value) -> Result<f64, String>),
}

impl Metric {
    /// Reads the metric from an experiment's JSON output.
    ///
    /// # Errors
    ///
    /// Names the path that is missing or of the wrong type, or carries
    /// the derived function's error.
    pub fn read(&self, v: &Value) -> Result<f64, String> {
        match *self {
            Metric::Num(path) => num(v, path),
            Metric::Flag(path) => flag(v, path),
            Metric::Derived(f) => f(v),
        }
    }
}

/// One machine-checked claim from the paper. Its paper anchor and cost
/// tier are facts of the experiment it reads (see [`Claim::anchor`] and
/// [`bench::experiments::ExperimentSpec`]).
#[derive(Debug)]
pub struct Claim {
    /// Stable identifier, e.g. `fig6.chpr-mcc-near-random`. `--filter`
    /// matches against this.
    pub id: &'static str,
    /// One-line statement of what the paper claims.
    pub title: &'static str,
    /// Name of the experiment (in [`bench::experiments::all`]) whose
    /// JSON output the metric reads.
    pub experiment: &'static str,
    /// The tolerance band the metric must satisfy.
    pub band: Band,
    /// Scalarizes the experiment's JSON output into the checked number.
    pub metric: Metric,
}

impl Claim {
    /// The paper figure/section the claim comes from: its experiment's
    /// anchor, or `""` for an unknown experiment (which the runner
    /// reports as an error).
    pub fn anchor(&self) -> &'static str {
        bench::experiments::find(self.experiment).map_or("", |spec| spec.paper_anchor)
    }
}

// ---- metric helpers ---------------------------------------------------

/// The value at a dotted path of object keys, e.g. `resident.sizes`.
fn at<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

fn num(v: &Value, path: &str) -> Result<f64, String> {
    at(v, path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{path}`"))
}

fn flag(v: &Value, path: &str) -> Result<f64, String> {
    at(v, path)
        .and_then(Value::as_bool)
        .map(|b| if b { 1.0 } else { 0.0 })
        .ok_or_else(|| format!("missing boolean field `{path}`"))
}

fn items<'a>(v: &'a Value, path: &str) -> Result<&'a [Value], String> {
    at(v, path)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field `{path}`"))
}

/// Folds `f(item)` over an array field with `pick` (`f64::min` or
/// `f64::max`). Every item must yield a finite value: `f64::min` and
/// `f64::max` return the other operand when one is NaN, so an undefined
/// member would otherwise drop out of the fold unnoticed.
fn fold_over(
    v: &Value,
    path: &str,
    f: impl Fn(&Value) -> Result<f64, String>,
    pick: fn(f64, f64) -> f64,
) -> Result<f64, String> {
    let mut best: Option<f64> = None;
    for (i, item) in items(v, path)?.iter().enumerate() {
        let x = f(item)?;
        if !x.is_finite() {
            return Err(format!("array field `{path}` item {i} is not finite ({x})"));
        }
        best = Some(best.map_or(x, |b| pick(b, x)));
    }
    best.ok_or_else(|| format!("array field `{path}` is empty"))
}

/// The minimum of `f(item)` over an array field.
fn min_over(
    v: &Value,
    path: &str,
    f: impl Fn(&Value) -> Result<f64, String>,
) -> Result<f64, String> {
    fold_over(v, path, f, f64::min)
}

/// The maximum of `f(item)` over an array field.
fn max_over(
    v: &Value,
    path: &str,
    f: impl Fn(&Value) -> Result<f64, String>,
) -> Result<f64, String> {
    fold_over(v, path, f, f64::max)
}

/// The `mcc` at a given `effort` setting in the privacy-knob sweep.
fn knob_mcc_at(v: &Value, effort: f64) -> Result<f64, String> {
    for point in items(v, "points")? {
        if num(point, "effort")? == effort {
            return num(point, "mcc");
        }
    }
    Err(format!("no sweep point with effort == {effort}"))
}

/// The `mean_abs_err_kwh` at a given `epsilon` in the DP sweep.
fn dp_err_at(v: &Value, epsilon: f64) -> Result<f64, String> {
    for point in items(v, "points")? {
        if num(point, "epsilon")? == epsilon {
            return num(point, "mean_abs_err_kwh");
        }
    }
    Err(format!("no sweep point with epsilon == {epsilon}"))
}

// ---- derived metrics --------------------------------------------------

fn fig1_power_gap(v: &Value) -> Result<f64, String> {
    min_over(v, "homes", |h| {
        Ok(num(h, "occupied_mean_w")? - num(h, "empty_mean_w")?)
    })
}

fn fig1_variance_gap(v: &Value) -> Result<f64, String> {
    min_over(v, "homes", |h| {
        Ok(num(h, "occupied_sigma_w")? - num(h, "empty_sigma_w")?)
    })
}

fn fig2_margin_vs_fhmm(v: &Value) -> Result<f64, String> {
    // Minimum (FHMM error − PowerPlay error) over devices where the FHMM
    // error is defined; the dryer never runs in the canonical week, so
    // its FHMM error is null and it is skipped.
    let mut best = f64::INFINITY;
    for item in items(v, "devices")? {
        let fhmm = item.get("fhmm_error");
        let Some(fhmm) = fhmm.and_then(Value::as_f64).filter(|e| e.is_finite()) else {
            continue;
        };
        best = best.min(fhmm - num(item, "powerplay_error")?);
    }
    if best.is_finite() {
        Ok(best)
    } else {
        Err("no device with a defined FHMM error".to_string())
    }
}

fn fig2_powerplay_mean_error(v: &Value) -> Result<f64, String> {
    // Mean normalized error across all five devices: PowerPlay recovers
    // most of each device's energy, where a trivial all-zero guess
    // scores 1.0 per device.
    let devices = items(v, "devices")?;
    let mut total = 0.0;
    for item in devices {
        total += num(item, "powerplay_error")?;
    }
    Ok(total / devices.len() as f64)
}

fn fig6_mcc_after_abs(v: &Value) -> Result<f64, String> {
    Ok(num(v, "mcc_after")?.abs())
}

fn fig6_collapse_margin(v: &Value) -> Result<f64, String> {
    // Positive iff the defended MCC is below a third of the undefended
    // one (the paper reports a ~10× drop; we require at least 3×).
    Ok(num(v, "mcc_before")? / 3.0 - num(v, "mcc_after")?)
}

fn sundance_rmse_ratio(v: &Value) -> Result<f64, String> {
    max_over(v, "sites", |s| {
        Ok(num(s, "rmse_sundance_w")? / num(s, "rmse_ignore_solar_w")?)
    })
}

fn sundance_energy_ratio_err(v: &Value) -> Result<f64, String> {
    max_over(v, "sites", |s| {
        Ok((num(s, "recovered_energy_ratio")? - 1.0).abs())
    })
}

fn meter_bills_verify(v: &Value) -> Result<f64, String> {
    Ok(flag(v, "honest_verifies")?.min(flag(v, "tou_verifies")?))
}

fn knob_mcc_drop(v: &Value) -> Result<f64, String> {
    Ok(knob_mcc_at(v, 0.0)? - knob_mcc_at(v, 1.0)?)
}

fn dp_laplace_scaling(v: &Value) -> Result<f64, String> {
    Ok(dp_err_at(v, 0.1)? / dp_err_at(v, 1.0)?)
}

fn dp_error_monotone(v: &Value) -> Result<f64, String> {
    Ok(dp_err_at(v, 0.05)? - dp_err_at(v, 5.0)?)
}

fn chpr_best_cadence_margin(v: &Value) -> Result<f64, String> {
    let best = min_over(v, "points", |p| num(p, "attack_mcc"))?;
    Ok(num(v, "undefended_mcc")? - best)
}

/// A field from the degradation sweep point at a given fault intensity.
fn degradation_at(v: &Value, key: &str, intensity: f64, field: &str) -> Result<f64, String> {
    for point in items(v, key)? {
        if num(point, "intensity")? == intensity {
            return num(point, field);
        }
    }
    Err(format!("no `{key}` point with intensity == {intensity}"))
}

fn robust_attack_mcc_floor(v: &Value) -> Result<f64, String> {
    min_over(v, "points", |p| num(p, "undefended_mcc"))
}

fn robust_defense_mcc_ceiling(v: &Value) -> Result<f64, String> {
    max_over(v, "points", |p| Ok(num(p, "defended_mcc")?.abs()))
}

fn robust_heavy_gap_fraction(v: &Value) -> Result<f64, String> {
    degradation_at(v, "points", 0.50, "gap_fraction")
}

fn robust_fingerprint_floor(v: &Value) -> Result<f64, String> {
    min_over(v, "network_points", |p| num(p, "fingerprint_accuracy"))
}

/// AND of boolean flags inside one section of `stream_equivalence`'s
/// output: 1.0 iff every named flag is `true`.
fn nested_flags_all(v: &Value, outer: &str, inners: &[&str]) -> Result<f64, String> {
    let section = v
        .get(outer)
        .ok_or_else(|| format!("missing object field `{outer}`"))?;
    let mut all_true = 1.0;
    for inner in inners {
        all_true = f64::min(all_true, flag(section, inner)?);
    }
    Ok(all_true)
}

fn stream_niom_equal(v: &Value) -> Result<f64, String> {
    nested_flags_all(v, "niom", &["threshold_equal", "hmm_equal"])
}

fn stream_nilm_equal(v: &Value) -> Result<f64, String> {
    nested_flags_all(v, "nilm", &["exact_equal", "icm_equal", "powerplay_equal"])
}

fn stream_defense_equal(v: &Value) -> Result<f64, String> {
    nested_flags_all(v, "defense", &["chpr_equal", "battery_equal"])
}

fn stream_netsim_equal(v: &Value) -> Result<f64, String> {
    nested_flags_all(v, "netsim", &["fingerprint_equal", "gateway_equal"])
}

fn stream_faults_equal(v: &Value) -> Result<f64, String> {
    nested_flags_all(v, "faults", &["hold_equal", "zero_equal", "chpr_equal"])
}

fn stream_scenario_equal(v: &Value) -> Result<f64, String> {
    nested_flags_all(v, "scenario", &["equal", "checkpoint_equal"])
}

fn chunked_speedup_min(v: &Value) -> Result<f64, String> {
    min_over(v, "sizes", |size| {
        min_over(size, "chunks", |c| num(c, "vs_batch_speedup"))
    })
}

/// Samples/sec of the default `f64` decode row.
fn decode_throughput_f64(v: &Value) -> Result<f64, String> {
    items(v, "decode.kernels")?
        .iter()
        .find(|k| k.get("precision").and_then(Value::as_str) == Some("f64"))
        .ok_or_else(|| "no `f64` decode kernel row".to_string())
        .and_then(|k| num(k, "samples_per_sec"))
}

fn resident_cold_bytes_max(v: &Value) -> Result<f64, String> {
    max_over(v, "resident.sizes", |s| num(s, "cold_bytes_per_home"))
}

fn resident_samples_per_sec_min(v: &Value) -> Result<f64, String> {
    min_over(v, "resident.sizes", |s| num(s, "samples_per_sec"))
}

fn resident_homes_per_sec_min(v: &Value) -> Result<f64, String> {
    min_over(v, "resident.sizes", |s| num(s, "homes_per_sec"))
}

fn recovery_quarantine_exact(v: &Value) -> Result<f64, String> {
    Ok(flag(v, "quarantine.exact")? * flag(v, "quarantine.survivors_identical")?)
}

fn shaping_cover_occupancy_drop(v: &Value) -> Result<f64, String> {
    Ok(num(v, "summary.none_occupancy_mcc")? - num(v, "summary.pad_cover_occupancy_mcc")?)
}

/// Every registered claim, grouped by experiment in registry order.
pub fn all() -> &'static [Claim] {
    use Metric::{Derived, Flag, Num};
    static ALL: &[Claim] = &[
        // -- Fig. 1: whole-home power reveals occupancy ------------------
        Claim {
            id: "fig1.occupied-power-gap",
            title: "Occupied periods draw visibly more mean power than empty ones",
            experiment: "fig1_occupancy_overlay",
            band: Band::AtLeast { lo: 50.0 },
            metric: Derived(fig1_power_gap),
        },
        Claim {
            id: "fig1.occupied-variance-gap",
            title: "Occupied periods are burstier (higher σ) than empty ones",
            experiment: "fig1_occupancy_overlay",
            band: Band::AtLeast { lo: 50.0 },
            metric: Derived(fig1_variance_gap),
        },
        // -- §II-A: NIOM occupancy detection accuracy --------------------
        Claim {
            id: "niom.accuracy-mean",
            title: "Threshold NIOM detects occupancy around 80% accuracy across homes",
            experiment: "claim_niom_accuracy",
            band: Band::Absolute { lo: 0.70, hi: 0.90 },
            metric: Num("threshold_accuracy.mean"),
        },
        Claim {
            id: "niom.accuracy-min",
            title: "Even the hardest home stays well above coin-flip accuracy",
            experiment: "claim_niom_accuracy",
            band: Band::Absolute { lo: 0.50, hi: 0.85 },
            metric: Num("threshold_accuracy.min"),
        },
        Claim {
            id: "niom.accuracy-max",
            title: "Detection is good but imperfect — no home is classified perfectly",
            experiment: "claim_niom_accuracy",
            band: Band::AtMost { hi: 0.97 },
            metric: Num("threshold_accuracy.max"),
        },
        // -- Fig. 2: NILM disaggregation ---------------------------------
        Claim {
            id: "fig2.powerplay-beats-fhmm",
            title: "Device-aware PowerPlay tracking beats generic FHMM on every device",
            experiment: "fig2_disaggregation",
            band: Band::AtLeast { lo: -0.05 },
            metric: Derived(fig2_margin_vs_fhmm),
        },
        Claim {
            id: "fig2.powerplay-mean-error",
            title: "PowerPlay recovers most per-device energy (mean error ≪ all-zero's 1.0)",
            experiment: "fig2_disaggregation",
            band: Band::AtMost { hi: 0.85 },
            metric: Derived(fig2_powerplay_mean_error),
        },
        // -- Fig. 5: solar localization ----------------------------------
        Claim {
            id: "fig5.weatherman-within-15km",
            title: "WeatherMan localizes every site to within ~15 km",
            experiment: "fig5_localization",
            band: Band::AtMost { hi: 15.0 },
            metric: Num("weatherman_max_km"),
        },
        Claim {
            id: "fig5.sunspot-median",
            title: "Sun-angle SunSpot alone localizes to the ~100 km scale",
            experiment: "fig5_localization",
            band: Band::AtMost { hi: 150.0 },
            metric: Num("sunspot_median_km"),
        },
        // -- Fig. 6: CHPr defeats the NIOM attack ------------------------
        Claim {
            id: "fig6.undefended-mcc",
            title: "Undefended week: NIOM attack MCC sits near the paper's 0.44",
            experiment: "fig6_chpr",
            band: Band::Absolute { lo: 0.30, hi: 0.70 },
            metric: Num("mcc_before"),
        },
        Claim {
            id: "fig6.chpr-mcc-near-random",
            title: "Under CHPr the attack MCC collapses to near-random (paper: 0.045)",
            experiment: "fig6_chpr",
            band: Band::AtMost { hi: 0.15 },
            metric: Derived(fig6_mcc_after_abs),
        },
        Claim {
            id: "fig6.chpr-collapse",
            title: "CHPr cuts the attack MCC by at least 3× (paper: ~10×)",
            experiment: "fig6_chpr",
            band: Band::AtLeast { lo: 0.0 },
            metric: Derived(fig6_collapse_margin),
        },
        Claim {
            id: "fig6.chpr-energy-overhead",
            title: "CHPr's default cadence costs little extra energy over the week",
            experiment: "fig6_chpr",
            band: Band::AtMost { hi: 2.0 },
            metric: Num("extra_energy_kwh"),
        },
        // -- §II-B: SunDance solar disaggregation ------------------------
        Claim {
            id: "sundance.rmse-improvement",
            title: "Solar-aware SunDance cuts demand RMSE several-fold at every site",
            experiment: "claim_sundance",
            band: Band::AtMost { hi: 0.6 },
            metric: Derived(sundance_rmse_ratio),
        },
        Claim {
            id: "sundance.energy-recovery",
            title: "Recovered generation energy lands within ±40% of truth",
            experiment: "claim_sundance",
            band: Band::AtMost { hi: 0.4 },
            metric: Derived(sundance_energy_ratio_err),
        },
        // -- §III-C: privacy-preserving verifiable billing ---------------
        Claim {
            id: "meter.honest-bill-verifies",
            title: "Honest flat-rate and TOU bills pass commitment verification",
            experiment: "claim_private_meter",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(meter_bills_verify),
        },
        Claim {
            id: "meter.cheat-detected",
            title: "An under-reported bill fails verification",
            experiment: "claim_private_meter",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("cheat_detected"),
        },
        // -- §II-A: extended-absence (vacation) detection ----------------
        Claim {
            id: "vacation.week-flagged",
            title: "A week-long absence is flagged nearly day-for-day",
            experiment: "claim_vacation_detection",
            band: Band::Absolute { lo: 6.0, hi: 7.0 },
            metric: Num("hits"),
        },
        Claim {
            id: "vacation.no-false-alarms",
            title: "Occupied days are essentially never flagged as vacation",
            experiment: "claim_vacation_detection",
            band: Band::AtMost { hi: 1.0 },
            metric: Num("false_alarms"),
        },
        // -- §IV: traffic fingerprinting and the smart gateway -----------
        Claim {
            id: "sec4.fingerprint-accuracy",
            title: "Flow metadata alone fingerprints device types far above chance",
            experiment: "sec4_traffic_fingerprint",
            band: Band::Absolute { lo: 0.80, hi: 1.0 },
            metric: Num("acc_naive_bayes"),
        },
        Claim {
            id: "sec4.shaping-blunts-fingerprint",
            title: "Traffic shaping drives fingerprinting back toward chance (0.1)",
            experiment: "sec4_traffic_fingerprint",
            band: Band::AtMost { hi: 0.35 },
            metric: Num("acc_shaped"),
        },
        Claim {
            id: "sec4.gateway-catches-compromise",
            title: "The smart gateway quarantines an injected compromised device",
            experiment: "sec4_traffic_fingerprint",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("compromise_caught"),
        },
        Claim {
            id: "sec4.gateway-false-quarantines",
            title: "At most one of the nine benign devices is ever falsely quarantined",
            experiment: "sec4_traffic_fingerprint",
            band: Band::AtMost { hi: 1.0 },
            metric: Num("false_quarantines"),
        },
        // -- §III-E: the privacy-effort knob -----------------------------
        Claim {
            id: "knob.monotone-tradeoff",
            title: "Full privacy effort cuts attack MCC by at least 0.2 vs no effort",
            experiment: "ablation_privacy_knob",
            band: Band::AtLeast { lo: 0.2 },
            metric: Derived(knob_mcc_drop),
        },
        // -- §III-A: differential privacy on shared aggregates -----------
        Claim {
            id: "dp.laplace-scaling",
            title: "Laplace error scales ~1/ε: a 10× smaller ε costs ~10× the error",
            experiment: "ablation_dp_tradeoff",
            band: Band::Relative {
                expected: 10.0,
                rel: 0.6,
            },
            metric: Derived(dp_laplace_scaling),
        },
        Claim {
            id: "dp.error-monotone",
            title: "Stricter privacy (ε: 5 → 0.05) costs strictly more utility",
            experiment: "ablation_dp_tradeoff",
            band: Band::AtLeast { lo: 1.0 },
            metric: Derived(dp_error_monotone),
        },
        // -- Fig. 6 design space: CHPr tank cadence ----------------------
        Claim {
            id: "chpr.best-cadence-collapse",
            title: "Some burst cadence cuts attack MCC by ≥0.1 vs the undefended home",
            experiment: "ablation_chpr_tank",
            band: Band::AtLeast { lo: 0.1 },
            metric: Derived(chpr_best_cadence_margin),
        },
        // -- roadmap: robustness under injected faults --------------------
        Claim {
            id: "robust.attack-survives-faults",
            title: "Gap-aware NIOM attack stays far above random at every fault level",
            experiment: "degradation_curves",
            band: Band::AtLeast { lo: 0.2 },
            metric: Derived(robust_attack_mcc_floor),
        },
        Claim {
            id: "robust.defense-holds-under-faults",
            title: "CHPr keeps the attack MCC collapsed even on corrupted meters",
            experiment: "degradation_curves",
            band: Band::AtMost { hi: 0.25 },
            metric: Derived(robust_defense_mcc_ceiling),
        },
        Claim {
            id: "robust.heavy-faults-destroy-samples",
            title: "The 50% fault profile really destroys a large trace fraction",
            experiment: "degradation_curves",
            band: Band::Absolute { lo: 0.2, hi: 0.9 },
            metric: Derived(robust_heavy_gap_fraction),
        },
        Claim {
            id: "robust.fingerprint-survives-flow-faults",
            title: "Traffic fingerprinting stays potent under packet loss and reboots",
            experiment: "degradation_curves",
            band: Band::AtLeast { lo: 0.8 },
            metric: Derived(robust_fingerprint_floor),
        },
        Claim {
            id: "robust.supervisor-quarantines-exactly",
            title: "The fleet supervisor quarantines exactly the panicking 10% of homes",
            experiment: "degradation_curves",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Num("fleet.quarantined"),
        },
        Claim {
            id: "robust.supervisor-saves-the-rest",
            title: "Every non-panicking home survives a fleet run with injected panics",
            experiment: "degradation_curves",
            band: Band::Absolute { lo: 9.0, hi: 9.0 },
            metric: Num("fleet.survivors"),
        },
        // -- Streaming: batch equivalence (crates/stream) ----------------
        Claim {
            id: "stream.niom-batch-equal",
            title: "Streaming NIOM detection (Fig. 1 metrics) is byte-identical to batch for any chunking",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(stream_niom_equal),
        },
        Claim {
            id: "stream.nilm-batch-equal",
            title: "Streaming FHMM/PowerPlay disaggregation (Fig. 2 metrics) is byte-identical to batch",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(stream_nilm_equal),
        },
        Claim {
            id: "stream.defense-batch-equal",
            title: "Streaming CHPr and battery defenses replay the batch rng schedule exactly",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(stream_defense_equal),
        },
        Claim {
            id: "stream.netsim-batch-equal",
            title: "Streaming flow fingerprinting and gateway monitoring (§IV metrics) match batch",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(stream_netsim_equal),
        },
        Claim {
            id: "stream.faulted-batch-equal",
            title: "Gap-marked (fault-injected) chunks resolve to the batch gap-fill output exactly",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(stream_faults_equal),
        },
        Claim {
            id: "stream.scenario-batch-equal",
            title: "The chunked scenario and checkpoint/restore resume reproduce the batch report",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(stream_scenario_equal),
        },
        Claim {
            id: "stream.metric-deltas-zero",
            title: "Streaming accuracy/MCC/error metrics differ from batch by exactly zero",
            experiment: "stream_equivalence",
            band: Band::AtMost { hi: 0.0 },
            metric: Num("metric_delta_max"),
        },
        // -- Streaming and decode throughput (wall-clock) -----------------
        Claim {
            id: "stream.chunked-not-slower",
            title: "Chunked admission of arrived readings beats the world-rebuild batch fleet",
            experiment: "stream_throughput",
            band: Band::AtLeast { lo: 1.0 },
            metric: Derived(chunked_speedup_min),
        },
        Claim {
            id: "perf.fhmm-decode-throughput",
            title: "The default f64 FHMM decode path clears 5x the fleet throughput ceiling",
            experiment: "stream_throughput",
            band: Band::AtLeast { lo: 1_600_000.0 },
            metric: Derived(decode_throughput_f64),
        },
        // -- Resident fleet service (docs/FLEET.md) ----------------------
        Claim {
            id: "fleet.resident-evict-identical",
            title: "Eviction/rehydration through compact checkpoints is byte-invisible to output",
            experiment: "fleet_scale",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("resident.evict_identical"),
        },
        Claim {
            id: "fleet.resident-bytes-per-home",
            title: "An evicted home costs at most 160 bytes at every ladder rung (10^4..10^6)",
            experiment: "fleet_scale",
            band: Band::AtMost { hi: 160.0 },
            metric: Derived(resident_cold_bytes_max),
        },
        Claim {
            id: "fleet.resident-throughput",
            title: "Resident admission clears 1M samples/sec at every rung up to 10^6 homes",
            experiment: "fleet_scale",
            band: Band::AtLeast { lo: 1_000_000.0 },
            metric: Derived(resident_samples_per_sec_min),
        },
        Claim {
            id: "fleet.resident-homes-per-sec",
            title: "The resident service admits 30k home-rounds/sec at every rung (vs ~1,460 rebuilt homes/sec on one thread)",
            experiment: "fleet_scale",
            band: Band::AtLeast { lo: 30_000.0 },
            metric: Derived(resident_homes_per_sec_min),
        },
        // -- Crash recovery of the durable fleet (docs/FLEET.md) ---------
        Claim {
            id: "fleet.recovery-digest-identical",
            title: "A fleet crashed mid-ladder and recovered from its durable store finishes byte-identical",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("crash.digest_identical"),
        },
        Claim {
            id: "fleet.recovery-transient-identical",
            title: "Transient store-write failures are absorbed by bounded retry with byte-identical output",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("transient.identical"),
        },
        Claim {
            id: "fleet.recovery-rebuild-identical",
            title: "Under the full storage-fault ladder, degraded-mode rebuild restores byte-identical output",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("rebuild.identical"),
        },
        Claim {
            id: "fleet.recovery-quarantine-exact",
            title: "Offline frame corruption quarantines exactly the corrupted homes, survivors untouched",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Derived(recovery_quarantine_exact),
        },
        Claim {
            id: "fleet.recovery-wall-time",
            title: "Recovering and resuming after a 4/6-round crash beats re-running the full ladder",
            experiment: "recovery_soak",
            band: Band::AtLeast { lo: 1.2 },
            metric: Num("crash.recovery_speedup"),
        },
        // -- Adaptive-adversary tournament (docs/TOURNAMENT.md) ----------
        Claim {
            id: "tournament.adaptive-beats-static",
            title: "The co-evolving attacker strictly beats both static baselines on every non-DP defense",
            experiment: "tournament",
            band: Band::AtLeast { lo: 0.004 },
            metric: Num("summary.adaptive_min_non_dp_margin"),
        },
        Claim {
            id: "tournament.dp-mcc-monotone",
            title: "DP noise degrades the static attack gracefully: MCC falls from ε=∞ to ε=8, and every stronger rung stays below ε=8",
            experiment: "tournament",
            band: Band::AtLeast { lo: 0.01 },
            metric: Num("summary.dp_static_degradation_min"),
        },
        Claim {
            id: "tournament.dp-floors-adaptive",
            title: "The strongest DP rung (ε=0.125) holds even the retrained attacker well below its undefended MCC",
            experiment: "tournament",
            band: Band::AtLeast { lo: 0.03 },
            metric: Num("summary.dp_adaptive_floor_margin"),
        },
        Claim {
            id: "tournament.cost-monotone-in-epsilon",
            title: "Defense energy cost is monotone in strength: each 8× ε cut at least doubles the per-home kWh cost",
            experiment: "tournament",
            band: Band::AtLeast { lo: 2.0 },
            metric: Num("summary.dp_cost_min_ratio"),
        },
        Claim {
            id: "tournament.quarantine-composes",
            title: "The fleet supervisor quarantines the injected panic home in every matrix cell",
            experiment: "tournament",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("summary.quarantine_composes"),
        },
        Claim {
            id: "tournament.stream-chunked-identical",
            title: "The fitted adaptive attack replayed through chunked streaming admission matches batch byte-for-byte",
            experiment: "tournament",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("stream.chunked_equal"),
        },
        // -- Encrypted-traffic arms race (docs/NETSIM.md) ----------------
        Claim {
            id: "netsim.shaping-strong-beats-naive",
            title: "The re-featurizing attacker beats the naive one on every partial shaping defense",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.05 },
            metric: Num("summary.strong_minus_naive_min_partial"),
        },
        Claim {
            id: "netsim.shaping-pad-still-leaks",
            title: "Size-bucket padding alone leaves the strong attacker at least 0.15 accuracy above chance — timing survives padding",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.15 },
            metric: Num("summary.pad_strong_above_chance"),
        },
        Claim {
            id: "netsim.shaping-full-stack-floors-strong",
            title: "Only the full aggregation+cover+padding stack floors the strong attacker to within 0.05 of chance",
            experiment: "shaping_arms_race",
            band: Band::AtMost { hi: 0.05 },
            metric: Num("summary.full_strong_above_chance"),
        },
        Claim {
            id: "netsim.shaping-naive-blinded-by-pad-cover",
            title: "Padding plus cover traffic blinds the naive size-feature attacker to below 0.45 accuracy",
            experiment: "shaping_arms_race",
            band: Band::AtMost { hi: 0.45 },
            metric: Num("summary.naive_pad_cover_accuracy"),
        },
        Claim {
            id: "netsim.shaping-strong-matches-baseline-clear",
            title: "On unshaped flows the strong attacker reproduces the baseline fingerprinting accuracy",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.7 },
            metric: Num("summary.strong_clear_accuracy"),
        },
        Claim {
            id: "netsim.shaping-cover-floors-occupancy",
            title: "Cover traffic collapses the traffic-occupancy side channel (MCC drop vs. unshaped)",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.4 },
            metric: Derived(shaping_cover_occupancy_drop),
        },
        Claim {
            id: "netsim.shaping-overhead-priced",
            title: "The full stack reports a positive byte-overhead price, not a free lunch",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.001 },
            metric: Num("summary.full_overhead_frac"),
        },
        Claim {
            id: "netsim.shaping-latency-honest",
            title: "Added latency is honest: zero for every non-aggregating policy, positive under tunnel aggregation",
            experiment: "shaping_arms_race",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("summary.latency_honest"),
        },
        Claim {
            id: "netsim.shaping-quarantine-composes",
            title: "The fleet supervisor quarantines the injected panic home in every shaping matrix cell",
            experiment: "shaping_arms_race",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            metric: Flag("summary.quarantine_composes"),
        },
    ];
    ALL
}

/// Looks up a claim by exact id.
pub fn find(id: &str) -> Option<&'static Claim> {
    all().iter().find(|c| c.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_experiments_resolve() {
        let mut seen = std::collections::HashSet::new();
        for claim in all() {
            assert!(seen.insert(claim.id), "duplicate claim id {}", claim.id);
            assert!(
                bench::experiments::find(claim.experiment).is_some(),
                "{}: unknown experiment {}",
                claim.id,
                claim.experiment
            );
        }
    }

    #[test]
    fn registry_covers_the_required_anchors() {
        // The acceptance floor: ≥10 claims spanning the headline figures,
        // billing, and the Section IV network attack.
        assert!(all().len() >= 10, "only {} claims registered", all().len());
        for required in ["Fig. 1", "Fig. 2", "Fig. 5", "Fig. 6", "§III-C", "§IV"] {
            assert!(
                all().iter().any(|c| c.anchor().starts_with(required)),
                "no claim anchored at {required}"
            );
        }
    }

    #[test]
    fn path_metrics_read_only_their_own_type_and_name_the_path() {
        let v = serde_json::json!({"summary": {"ratio": 2.5, "ok": true}, "n": 3});
        assert_eq!(Metric::Num("summary.ratio").read(&v), Ok(2.5));
        assert_eq!(Metric::Num("n").read(&v), Ok(3.0));
        assert_eq!(Metric::Flag("summary.ok").read(&v), Ok(1.0));
        for (metric, path) in [
            (Metric::Num("summary.ok"), "`summary.ok`"),
            (Metric::Flag("summary.ratio"), "`summary.ratio`"),
            (Metric::Num("summary.missing"), "`summary.missing`"),
            (Metric::Num("n.deeper"), "`n.deeper`"),
        ] {
            let err = metric.read(&v).unwrap_err();
            assert!(err.contains(path), "{metric:?}: {err}");
        }
    }

    #[test]
    fn folds_fail_on_a_non_finite_member() {
        // `f64::min`/`f64::max` return the other operand when one is NaN,
        // so a plain fold over [1, NaN, 3] would report 1 and pass a claim
        // with an undefined member.
        let v = serde_json::json!({"xs": [1.0, f64::NAN, 3.0], "ys": [f64::NAN, 0.2]});
        let x = |item: &Value| item.as_f64().ok_or_else(|| "not a number".to_string());
        for (result, at) in [
            (min_over(&v, "xs", x), "`xs` item 1"),
            (max_over(&v, "xs", x), "`xs` item 1"),
            (min_over(&v, "ys", x), "`ys` item 0"),
            (max_over(&v, "ys", x), "`ys` item 0"),
        ] {
            let err = result.expect_err("a NaN member must fail the fold");
            assert!(err.contains(at), "{err}");
        }
        let finite = serde_json::json!({"xs": [2.0, 1.0, 3.0], "empty": []});
        assert_eq!(min_over(&finite, "xs", x), Ok(1.0));
        assert_eq!(max_over(&finite, "xs", x), Ok(3.0));
        assert!(min_over(&finite, "empty", x).is_err());
    }

    #[test]
    fn bands_are_well_formed() {
        for claim in all() {
            let (lo, hi) = claim.band.bounds();
            assert!(lo <= hi, "{}: inverted band {:?}", claim.id, claim.band);
        }
    }

    #[test]
    fn band_semantics() {
        let abs = Band::Absolute { lo: 0.3, hi: 0.7 };
        assert!(abs.contains(0.3) && abs.contains(0.7) && !abs.contains(0.71));
        assert!(!abs.contains(f64::NAN));
        assert!(abs.intersects(0.65, 0.9) && !abs.intersects(0.71, 0.9));

        let at_least = Band::AtLeast { lo: 0.2 };
        assert!(at_least.contains(0.2) && !at_least.contains(0.19));
        assert_eq!(at_least.describe(), ">= 0.2");

        let rel = Band::Relative {
            expected: 10.0,
            rel: 0.6,
        };
        assert!(rel.contains(4.0) && rel.contains(16.0) && !rel.contains(3.9));
        assert_eq!(rel.bounds(), (4.0, 16.0));
    }

    #[test]
    fn find_resolves_exact_ids_only() {
        assert_eq!(find("fig6.undefended-mcc").unwrap().experiment, "fig6_chpr");
        assert!(find("fig6").is_none());
    }
}
