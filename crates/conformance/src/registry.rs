//! The declarative claim registry.
//!
//! One [`Claim`] per quantitative statement the paper makes that the
//! suite reproduces. Each claim names the experiment whose JSON output it
//! reads, scalarizes that output with an extractor, and constrains the
//! scalar with a [`Band`]. Ordering claims ("the defended MCC sits well
//! below the undefended MCC") are expressed as a *margin* extractor — the
//! difference or ratio of the two quantities — constrained by
//! [`Band::AtLeast`]/[`Band::AtMost`], so every claim reduces to one
//! number against one band.

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

/// One machine-checked claim from the paper.
pub struct Claim {
    /// Stable identifier, e.g. `fig6.chpr-mcc-near-random`. `--filter`
    /// matches against this.
    pub id: &'static str,
    /// The paper figure/section the claim comes from.
    pub anchor: &'static str,
    /// One-line statement of what the paper claims.
    pub title: &'static str,
    /// Name of the experiment (in [`bench::experiments::all`]) whose
    /// JSON output the extractor reads.
    pub experiment: &'static str,
    /// The tolerance band the extracted metric must satisfy.
    pub band: Band,
    /// Scalarizes the experiment's JSON output into the checked metric.
    pub extract: fn(&Value) -> Result<f64, String>,
    /// Whether the owning experiment is fast enough (in debug builds) to
    /// run in the `cargo test` single-seed tier.
    pub cheap: bool,
}

impl std::fmt::Debug for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim")
            .field("id", &self.id)
            .field("anchor", &self.anchor)
            .field("experiment", &self.experiment)
            .field("band", &self.band)
            .finish()
    }
}

// ---- extractor helpers ------------------------------------------------

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn nested_num(v: &Value, outer: &str, inner: &str) -> Result<f64, String> {
    v.get(outer)
        .and_then(|o| o.get(inner))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric field `{outer}.{inner}`"))
}

fn flag(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .map(|b| if b { 1.0 } else { 0.0 })
        .ok_or_else(|| format!("missing boolean field `{key}`"))
}

fn items<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array field `{key}`"))
}

/// Folds `f(item)` over an array field, keeping the minimum.
fn min_over(
    v: &Value,
    key: &str,
    f: impl Fn(&Value) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for item in items(v, key)? {
        best = best.min(f(item)?);
    }
    if best.is_finite() {
        Ok(best)
    } else {
        Err(format!("array field `{key}` yielded no finite values"))
    }
}

/// Folds `f(item)` over an array field, keeping the maximum.
fn max_over(
    v: &Value,
    key: &str,
    f: impl Fn(&Value) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut best = f64::NEG_INFINITY;
    for item in items(v, key)? {
        best = best.max(f(item)?);
    }
    if best.is_finite() {
        Ok(best)
    } else {
        Err(format!("array field `{key}` yielded no finite values"))
    }
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

// ---- per-claim extractors ---------------------------------------------
// Named functions (not closures) because `Claim::extract` is a plain fn
// pointer, which keeps the registry a flat `static` array.

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

fn niom_accuracy_mean(v: &Value) -> Result<f64, String> {
    nested_num(v, "threshold_accuracy", "mean")
}

fn niom_accuracy_min(v: &Value) -> Result<f64, String> {
    nested_num(v, "threshold_accuracy", "min")
}

fn niom_accuracy_max(v: &Value) -> Result<f64, String> {
    nested_num(v, "threshold_accuracy", "max")
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

fn fig5_weatherman_max(v: &Value) -> Result<f64, String> {
    num(v, "weatherman_max_km")
}

fn fig5_sunspot_median(v: &Value) -> Result<f64, String> {
    num(v, "sunspot_median_km")
}

fn fig6_mcc_before(v: &Value) -> Result<f64, String> {
    num(v, "mcc_before")
}

fn fig6_mcc_after_abs(v: &Value) -> Result<f64, String> {
    Ok(num(v, "mcc_after")?.abs())
}

fn fig6_collapse_margin(v: &Value) -> Result<f64, String> {
    // Positive iff the defended MCC is below a third of the undefended
    // one (the paper reports a ~10× drop; we require at least 3×).
    Ok(num(v, "mcc_before")? / 3.0 - num(v, "mcc_after")?)
}

fn fig6_extra_energy(v: &Value) -> Result<f64, String> {
    num(v, "extra_energy_kwh")
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

fn meter_cheat_detected(v: &Value) -> Result<f64, String> {
    flag(v, "cheat_detected")
}

fn vacation_hits(v: &Value) -> Result<f64, String> {
    num(v, "hits")
}

fn vacation_false_alarms(v: &Value) -> Result<f64, String> {
    num(v, "false_alarms")
}

fn sec4_fingerprint_accuracy(v: &Value) -> Result<f64, String> {
    num(v, "acc_naive_bayes")
}

fn sec4_shaped_accuracy(v: &Value) -> Result<f64, String> {
    num(v, "acc_shaped")
}

fn sec4_compromise_caught(v: &Value) -> Result<f64, String> {
    flag(v, "compromise_caught")
}

fn sec4_false_quarantines(v: &Value) -> Result<f64, String> {
    num(v, "false_quarantines")
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

fn robust_quarantined_homes(v: &Value) -> Result<f64, String> {
    nested_num(v, "fleet", "quarantined")
}

fn robust_fleet_survivors(v: &Value) -> Result<f64, String> {
    nested_num(v, "fleet", "survivors")
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

fn stream_metric_delta_max(v: &Value) -> Result<f64, String> {
    num(v, "metric_delta_max")
}

fn chunked_speedup_min(v: &Value) -> Result<f64, String> {
    min_over(v, "sizes", |size| {
        min_over(size, "chunks", |c| num(c, "vs_batch_speedup"))
    })
}

/// The `decode` section of `stream_throughput`'s output.
fn decode_section(v: &Value) -> Result<&Value, String> {
    v.get("decode")
        .ok_or_else(|| "missing object field `decode`".to_string())
}

/// Samples/sec of the default `f64` decode row.
fn decode_throughput_f64(v: &Value) -> Result<f64, String> {
    items(decode_section(v)?, "kernels")?
        .iter()
        .find(|k| k.get("precision").and_then(Value::as_str) == Some("f64"))
        .ok_or_else(|| "no `f64` decode kernel row".to_string())
        .and_then(|k| num(k, "samples_per_sec"))
}

fn resident_section(v: &Value) -> Result<&Value, String> {
    v.get("resident")
        .ok_or_else(|| "missing `resident` section".to_string())
}

fn resident_evict_identical(v: &Value) -> Result<f64, String> {
    flag(resident_section(v)?, "evict_identical")
}

fn resident_cold_bytes_max(v: &Value) -> Result<f64, String> {
    max_over(resident_section(v)?, "sizes", |s| {
        num(s, "cold_bytes_per_home")
    })
}

fn resident_samples_per_sec_min(v: &Value) -> Result<f64, String> {
    min_over(resident_section(v)?, "sizes", |s| num(s, "samples_per_sec"))
}

fn resident_homes_per_sec_min(v: &Value) -> Result<f64, String> {
    min_over(resident_section(v)?, "sizes", |s| num(s, "homes_per_sec"))
}

fn recovery_section<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}` section"))
}

fn recovery_crash_identical(v: &Value) -> Result<f64, String> {
    flag(recovery_section(v, "crash")?, "digest_identical")
}

fn recovery_transient_identical(v: &Value) -> Result<f64, String> {
    flag(recovery_section(v, "transient")?, "identical")
}

fn recovery_rebuild_identical(v: &Value) -> Result<f64, String> {
    flag(recovery_section(v, "rebuild")?, "identical")
}

fn recovery_quarantine_exact(v: &Value) -> Result<f64, String> {
    let q = recovery_section(v, "quarantine")?;
    Ok(flag(q, "exact")? * flag(q, "survivors_identical")?)
}

fn recovery_speedup(v: &Value) -> Result<f64, String> {
    num(recovery_section(v, "crash")?, "recovery_speedup")
}

/// The derived `summary` section of the tournament matrix.
fn tournament_summary(v: &Value) -> Result<&Value, String> {
    v.get("summary")
        .ok_or_else(|| "missing `summary` section".to_string())
}

fn tournament_adaptive_margin(v: &Value) -> Result<f64, String> {
    num(tournament_summary(v)?, "adaptive_min_non_dp_margin")
}

fn tournament_dp_degradation(v: &Value) -> Result<f64, String> {
    num(tournament_summary(v)?, "dp_static_degradation_min")
}

fn tournament_dp_floor(v: &Value) -> Result<f64, String> {
    num(tournament_summary(v)?, "dp_adaptive_floor_margin")
}

fn tournament_cost_ratio(v: &Value) -> Result<f64, String> {
    num(tournament_summary(v)?, "dp_cost_min_ratio")
}

fn tournament_quarantine(v: &Value) -> Result<f64, String> {
    flag(tournament_summary(v)?, "quarantine_composes")
}

fn tournament_stream_equal(v: &Value) -> Result<f64, String> {
    v.get("stream")
        .ok_or_else(|| "missing `stream` section".to_string())
        .and_then(|s| flag(s, "chunked_equal"))
}

// ---- shaping_arms_race extractors -------------------------------------

fn shaping_summary(v: &Value) -> Result<&Value, String> {
    v.get("summary")
        .ok_or_else(|| "missing `summary` section".to_string())
}

fn shaping_strong_margin(v: &Value) -> Result<f64, String> {
    num(shaping_summary(v)?, "strong_minus_naive_min_partial")
}

fn shaping_pad_leak(v: &Value) -> Result<f64, String> {
    num(shaping_summary(v)?, "pad_strong_above_chance")
}

fn shaping_full_floor(v: &Value) -> Result<f64, String> {
    num(shaping_summary(v)?, "full_strong_above_chance")
}

fn shaping_naive_blinded(v: &Value) -> Result<f64, String> {
    num(shaping_summary(v)?, "naive_pad_cover_accuracy")
}

fn shaping_strong_clear(v: &Value) -> Result<f64, String> {
    num(shaping_summary(v)?, "strong_clear_accuracy")
}

fn shaping_cover_occupancy_drop(v: &Value) -> Result<f64, String> {
    let s = shaping_summary(v)?;
    Ok(num(s, "none_occupancy_mcc")? - num(s, "pad_cover_occupancy_mcc")?)
}

fn shaping_full_overhead(v: &Value) -> Result<f64, String> {
    num(shaping_summary(v)?, "full_overhead_frac")
}

fn shaping_latency_honest(v: &Value) -> Result<f64, String> {
    flag(shaping_summary(v)?, "latency_honest")
}

fn shaping_quarantine(v: &Value) -> Result<f64, String> {
    flag(shaping_summary(v)?, "quarantine_composes")
}

/// Every registered claim, grouped by experiment in registry order.
pub fn all() -> &'static [Claim] {
    static ALL: &[Claim] = &[
        // -- Fig. 1: whole-home power reveals occupancy ------------------
        Claim {
            id: "fig1.occupied-power-gap",
            anchor: "Fig. 1",
            title: "Occupied periods draw visibly more mean power than empty ones",
            experiment: "fig1_occupancy_overlay",
            band: Band::AtLeast { lo: 50.0 },
            extract: fig1_power_gap,
            cheap: true,
        },
        Claim {
            id: "fig1.occupied-variance-gap",
            anchor: "Fig. 1",
            title: "Occupied periods are burstier (higher σ) than empty ones",
            experiment: "fig1_occupancy_overlay",
            band: Band::AtLeast { lo: 50.0 },
            extract: fig1_variance_gap,
            cheap: true,
        },
        // -- §II-A: NIOM occupancy detection accuracy --------------------
        Claim {
            id: "niom.accuracy-mean",
            anchor: "§II-A (Fig. 1 claim)",
            title: "Threshold NIOM detects occupancy around 80% accuracy across homes",
            experiment: "claim_niom_accuracy",
            band: Band::Absolute { lo: 0.70, hi: 0.90 },
            extract: niom_accuracy_mean,
            cheap: false,
        },
        Claim {
            id: "niom.accuracy-min",
            anchor: "§II-A (Fig. 1 claim)",
            title: "Even the hardest home stays well above coin-flip accuracy",
            experiment: "claim_niom_accuracy",
            band: Band::Absolute { lo: 0.50, hi: 0.85 },
            extract: niom_accuracy_min,
            cheap: false,
        },
        Claim {
            id: "niom.accuracy-max",
            anchor: "§II-A (Fig. 1 claim)",
            title: "Detection is good but imperfect — no home is classified perfectly",
            experiment: "claim_niom_accuracy",
            band: Band::AtMost { hi: 0.97 },
            extract: niom_accuracy_max,
            cheap: false,
        },
        // -- Fig. 2: NILM disaggregation ---------------------------------
        Claim {
            id: "fig2.powerplay-beats-fhmm",
            anchor: "Fig. 2",
            title: "Device-aware PowerPlay tracking beats generic FHMM on every device",
            experiment: "fig2_disaggregation",
            band: Band::AtLeast { lo: -0.05 },
            extract: fig2_margin_vs_fhmm,
            cheap: false,
        },
        Claim {
            id: "fig2.powerplay-mean-error",
            anchor: "Fig. 2",
            title: "PowerPlay recovers most per-device energy (mean error ≪ all-zero's 1.0)",
            experiment: "fig2_disaggregation",
            band: Band::AtMost { hi: 0.85 },
            extract: fig2_powerplay_mean_error,
            cheap: false,
        },
        // -- Fig. 5: solar localization ----------------------------------
        Claim {
            id: "fig5.weatherman-within-15km",
            anchor: "Fig. 5",
            title: "WeatherMan localizes every site to within ~15 km",
            experiment: "fig5_localization",
            band: Band::AtMost { hi: 15.0 },
            extract: fig5_weatherman_max,
            cheap: false,
        },
        Claim {
            id: "fig5.sunspot-median",
            anchor: "Fig. 5",
            title: "Sun-angle SunSpot alone localizes to the ~100 km scale",
            experiment: "fig5_localization",
            band: Band::AtMost { hi: 150.0 },
            extract: fig5_sunspot_median,
            cheap: false,
        },
        // -- Fig. 6: CHPr defeats the NIOM attack ------------------------
        Claim {
            id: "fig6.undefended-mcc",
            anchor: "Fig. 6",
            title: "Undefended week: NIOM attack MCC sits near the paper's 0.44",
            experiment: "fig6_chpr",
            band: Band::Absolute { lo: 0.30, hi: 0.70 },
            extract: fig6_mcc_before,
            cheap: true,
        },
        Claim {
            id: "fig6.chpr-mcc-near-random",
            anchor: "Fig. 6",
            title: "Under CHPr the attack MCC collapses to near-random (paper: 0.045)",
            experiment: "fig6_chpr",
            band: Band::AtMost { hi: 0.15 },
            extract: fig6_mcc_after_abs,
            cheap: true,
        },
        Claim {
            id: "fig6.chpr-collapse",
            anchor: "Fig. 6",
            title: "CHPr cuts the attack MCC by at least 3× (paper: ~10×)",
            experiment: "fig6_chpr",
            band: Band::AtLeast { lo: 0.0 },
            extract: fig6_collapse_margin,
            cheap: true,
        },
        Claim {
            id: "fig6.chpr-energy-overhead",
            anchor: "Fig. 6",
            title: "CHPr's default cadence costs little extra energy over the week",
            experiment: "fig6_chpr",
            band: Band::AtMost { hi: 2.0 },
            extract: fig6_extra_energy,
            cheap: true,
        },
        // -- §II-B: SunDance solar disaggregation ------------------------
        Claim {
            id: "sundance.rmse-improvement",
            anchor: "§II-B (SunDance)",
            title: "Solar-aware SunDance cuts demand RMSE several-fold at every site",
            experiment: "claim_sundance",
            band: Band::AtMost { hi: 0.6 },
            extract: sundance_rmse_ratio,
            cheap: true,
        },
        Claim {
            id: "sundance.energy-recovery",
            anchor: "§II-B (SunDance)",
            title: "Recovered generation energy lands within ±40% of truth",
            experiment: "claim_sundance",
            band: Band::AtMost { hi: 0.4 },
            extract: sundance_energy_ratio_err,
            cheap: true,
        },
        // -- §III-C: privacy-preserving verifiable billing ---------------
        Claim {
            id: "meter.honest-bill-verifies",
            anchor: "§III-C (verifiable billing)",
            title: "Honest flat-rate and TOU bills pass commitment verification",
            experiment: "claim_private_meter",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: meter_bills_verify,
            cheap: true,
        },
        Claim {
            id: "meter.cheat-detected",
            anchor: "§III-C (verifiable billing)",
            title: "An under-reported bill fails verification",
            experiment: "claim_private_meter",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: meter_cheat_detected,
            cheap: true,
        },
        // -- §II-A: extended-absence (vacation) detection ----------------
        Claim {
            id: "vacation.week-flagged",
            anchor: "§II-A (extended absence)",
            title: "A week-long absence is flagged nearly day-for-day",
            experiment: "claim_vacation_detection",
            band: Band::Absolute { lo: 6.0, hi: 7.0 },
            extract: vacation_hits,
            cheap: true,
        },
        Claim {
            id: "vacation.no-false-alarms",
            anchor: "§II-A (extended absence)",
            title: "Occupied days are essentially never flagged as vacation",
            experiment: "claim_vacation_detection",
            band: Band::AtMost { hi: 1.0 },
            extract: vacation_false_alarms,
            cheap: true,
        },
        // -- §IV: traffic fingerprinting and the smart gateway -----------
        Claim {
            id: "sec4.fingerprint-accuracy",
            anchor: "§IV",
            title: "Flow metadata alone fingerprints device types far above chance",
            experiment: "sec4_traffic_fingerprint",
            band: Band::Absolute { lo: 0.80, hi: 1.0 },
            extract: sec4_fingerprint_accuracy,
            cheap: true,
        },
        Claim {
            id: "sec4.shaping-blunts-fingerprint",
            anchor: "§IV",
            title: "Traffic shaping drives fingerprinting back toward chance (0.1)",
            experiment: "sec4_traffic_fingerprint",
            band: Band::AtMost { hi: 0.35 },
            extract: sec4_shaped_accuracy,
            cheap: true,
        },
        Claim {
            id: "sec4.gateway-catches-compromise",
            anchor: "§IV",
            title: "The smart gateway quarantines an injected compromised device",
            experiment: "sec4_traffic_fingerprint",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: sec4_compromise_caught,
            cheap: true,
        },
        Claim {
            id: "sec4.gateway-false-quarantines",
            anchor: "§IV",
            title: "At most one of the nine benign devices is ever falsely quarantined",
            experiment: "sec4_traffic_fingerprint",
            band: Band::AtMost { hi: 1.0 },
            extract: sec4_false_quarantines,
            cheap: true,
        },
        // -- §III-E: the privacy-effort knob -----------------------------
        Claim {
            id: "knob.monotone-tradeoff",
            anchor: "§III-E (privacy knob)",
            title: "Full privacy effort cuts attack MCC by at least 0.2 vs no effort",
            experiment: "ablation_privacy_knob",
            band: Band::AtLeast { lo: 0.2 },
            extract: knob_mcc_drop,
            cheap: true,
        },
        // -- §III-A: differential privacy on shared aggregates -----------
        Claim {
            id: "dp.laplace-scaling",
            anchor: "§III-A (differential privacy)",
            title: "Laplace error scales ~1/ε: a 10× smaller ε costs ~10× the error",
            experiment: "ablation_dp_tradeoff",
            band: Band::Relative {
                expected: 10.0,
                rel: 0.6,
            },
            extract: dp_laplace_scaling,
            cheap: true,
        },
        Claim {
            id: "dp.error-monotone",
            anchor: "§III-A (differential privacy)",
            title: "Stricter privacy (ε: 5 → 0.05) costs strictly more utility",
            experiment: "ablation_dp_tradeoff",
            band: Band::AtLeast { lo: 1.0 },
            extract: dp_error_monotone,
            cheap: true,
        },
        // -- Fig. 6 design space: CHPr tank cadence ----------------------
        Claim {
            id: "chpr.best-cadence-collapse",
            anchor: "Fig. 6 (CHPr design)",
            title: "Some burst cadence cuts attack MCC by ≥0.1 vs the undefended home",
            experiment: "ablation_chpr_tank",
            band: Band::AtLeast { lo: 0.1 },
            extract: chpr_best_cadence_margin,
            cheap: true,
        },
        // -- roadmap: robustness under injected faults --------------------
        Claim {
            id: "robust.attack-survives-faults",
            anchor: "roadmap (robustness)",
            title: "Gap-aware NIOM attack stays far above random at every fault level",
            experiment: "degradation_curves",
            band: Band::AtLeast { lo: 0.2 },
            extract: robust_attack_mcc_floor,
            cheap: true,
        },
        Claim {
            id: "robust.defense-holds-under-faults",
            anchor: "roadmap (robustness)",
            title: "CHPr keeps the attack MCC collapsed even on corrupted meters",
            experiment: "degradation_curves",
            band: Band::AtMost { hi: 0.25 },
            extract: robust_defense_mcc_ceiling,
            cheap: true,
        },
        Claim {
            id: "robust.heavy-faults-destroy-samples",
            anchor: "roadmap (robustness)",
            title: "The 50% fault profile really destroys a large trace fraction",
            experiment: "degradation_curves",
            band: Band::Absolute { lo: 0.2, hi: 0.9 },
            extract: robust_heavy_gap_fraction,
            cheap: true,
        },
        Claim {
            id: "robust.fingerprint-survives-flow-faults",
            anchor: "roadmap (robustness)",
            title: "Traffic fingerprinting stays potent under packet loss and reboots",
            experiment: "degradation_curves",
            band: Band::AtLeast { lo: 0.8 },
            extract: robust_fingerprint_floor,
            cheap: true,
        },
        Claim {
            id: "robust.supervisor-quarantines-exactly",
            anchor: "roadmap (robustness)",
            title: "The fleet supervisor quarantines exactly the panicking 10% of homes",
            experiment: "degradation_curves",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: robust_quarantined_homes,
            cheap: true,
        },
        Claim {
            id: "robust.supervisor-saves-the-rest",
            anchor: "roadmap (robustness)",
            title: "Every non-panicking home survives a fleet run with injected panics",
            experiment: "degradation_curves",
            band: Band::Absolute { lo: 9.0, hi: 9.0 },
            extract: robust_fleet_survivors,
            cheap: true,
        },
        // -- Streaming: batch equivalence (crates/stream) ----------------
        Claim {
            id: "stream.niom-batch-equal",
            anchor: "roadmap (streaming)",
            title: "Streaming NIOM detection (Fig. 1 metrics) is byte-identical to batch for any chunking",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: stream_niom_equal,
            cheap: true,
        },
        Claim {
            id: "stream.nilm-batch-equal",
            anchor: "roadmap (streaming)",
            title: "Streaming FHMM/PowerPlay disaggregation (Fig. 2 metrics) is byte-identical to batch",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: stream_nilm_equal,
            cheap: true,
        },
        Claim {
            id: "stream.defense-batch-equal",
            anchor: "roadmap (streaming)",
            title: "Streaming CHPr and battery defenses replay the batch rng schedule exactly",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: stream_defense_equal,
            cheap: true,
        },
        Claim {
            id: "stream.netsim-batch-equal",
            anchor: "roadmap (streaming)",
            title: "Streaming flow fingerprinting and gateway monitoring (§IV metrics) match batch",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: stream_netsim_equal,
            cheap: true,
        },
        Claim {
            id: "stream.faulted-batch-equal",
            anchor: "roadmap (streaming)",
            title: "Gap-marked (fault-injected) chunks resolve to the batch gap-fill output exactly",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: stream_faults_equal,
            cheap: true,
        },
        Claim {
            id: "stream.scenario-batch-equal",
            anchor: "roadmap (streaming)",
            title: "The chunked scenario and checkpoint/restore resume reproduce the batch report",
            experiment: "stream_equivalence",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: stream_scenario_equal,
            cheap: true,
        },
        Claim {
            id: "stream.metric-deltas-zero",
            anchor: "roadmap (streaming)",
            title: "Streaming accuracy/MCC/error metrics differ from batch by exactly zero",
            experiment: "stream_equivalence",
            band: Band::AtMost { hi: 0.0 },
            extract: stream_metric_delta_max,
            cheap: true,
        },
        // -- Streaming and decode throughput (wall-clock) -----------------
        Claim {
            id: "stream.chunked-not-slower",
            anchor: "roadmap (streaming throughput)",
            title: "Chunked admission of arrived readings beats the world-rebuild batch fleet",
            experiment: "stream_throughput",
            band: Band::AtLeast { lo: 1.0 },
            extract: chunked_speedup_min,
            cheap: false,
        },
        Claim {
            id: "perf.fhmm-decode-throughput",
            anchor: "roadmap (streaming throughput)",
            title: "The default f64 FHMM decode path clears 5x the fleet throughput ceiling",
            experiment: "stream_throughput",
            band: Band::AtLeast { lo: 1_600_000.0 },
            extract: decode_throughput_f64,
            cheap: false,
        },
        // -- Resident fleet service (docs/FLEET.md) ----------------------
        Claim {
            id: "fleet.resident-evict-identical",
            anchor: "roadmap (fleet throughput)",
            title: "Eviction/rehydration through compact checkpoints is byte-invisible to output",
            experiment: "fleet_scale",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: resident_evict_identical,
            cheap: false,
        },
        Claim {
            id: "fleet.resident-bytes-per-home",
            anchor: "roadmap (fleet throughput)",
            title: "An evicted home costs at most 512 bytes at every ladder rung (10^4..10^6)",
            experiment: "fleet_scale",
            band: Band::AtMost { hi: 512.0 },
            extract: resident_cold_bytes_max,
            cheap: false,
        },
        Claim {
            id: "fleet.resident-throughput",
            anchor: "roadmap (fleet throughput)",
            title: "Resident admission clears 1M samples/sec at every rung up to 10^6 homes",
            experiment: "fleet_scale",
            band: Band::AtLeast { lo: 1_000_000.0 },
            extract: resident_samples_per_sec_min,
            cheap: false,
        },
        Claim {
            id: "fleet.resident-homes-per-sec",
            anchor: "roadmap (fleet throughput)",
            title: "The resident service admits 30k home-rounds/sec at every rung (vs ~200 rebuilt homes/sec)",
            experiment: "fleet_scale",
            band: Band::AtLeast { lo: 30_000.0 },
            extract: resident_homes_per_sec_min,
            cheap: false,
        },
        // -- Crash recovery of the durable fleet (docs/FLEET.md) ---------
        Claim {
            id: "fleet.recovery-digest-identical",
            anchor: "roadmap (crash recovery)",
            title: "A fleet crashed mid-ladder and recovered from its durable store finishes byte-identical",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: recovery_crash_identical,
            cheap: false,
        },
        Claim {
            id: "fleet.recovery-transient-identical",
            anchor: "roadmap (crash recovery)",
            title: "Transient store-write failures are absorbed by bounded retry with byte-identical output",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: recovery_transient_identical,
            cheap: false,
        },
        Claim {
            id: "fleet.recovery-rebuild-identical",
            anchor: "roadmap (crash recovery)",
            title: "Under the full storage-fault ladder, degraded-mode rebuild restores byte-identical output",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: recovery_rebuild_identical,
            cheap: false,
        },
        Claim {
            id: "fleet.recovery-quarantine-exact",
            anchor: "roadmap (crash recovery)",
            title: "Offline frame corruption quarantines exactly the corrupted homes, survivors untouched",
            experiment: "recovery_soak",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: recovery_quarantine_exact,
            cheap: false,
        },
        Claim {
            id: "fleet.recovery-wall-time",
            anchor: "roadmap (crash recovery)",
            title: "Recovering and resuming after a 4/6-round crash beats re-running the full ladder",
            experiment: "recovery_soak",
            band: Band::AtLeast { lo: 1.2 },
            extract: recovery_speedup,
            cheap: false,
        },
        // -- Adaptive-adversary tournament (docs/TOURNAMENT.md) ----------
        Claim {
            id: "tournament.adaptive-beats-static",
            anchor: "roadmap (adaptive adversary)",
            title: "The co-evolving attacker strictly beats both static baselines on every non-DP defense",
            experiment: "tournament",
            band: Band::AtLeast { lo: 0.004 },
            extract: tournament_adaptive_margin,
            cheap: false,
        },
        Claim {
            id: "tournament.dp-mcc-monotone",
            anchor: "roadmap (adaptive adversary)",
            title: "DP noise degrades the static attack gracefully: MCC falls from ε=∞ to ε=8, and every stronger rung stays below ε=8",
            experiment: "tournament",
            band: Band::AtLeast { lo: 0.01 },
            extract: tournament_dp_degradation,
            cheap: false,
        },
        Claim {
            id: "tournament.dp-floors-adaptive",
            anchor: "roadmap (adaptive adversary)",
            title: "The strongest DP rung (ε=0.125) holds even the retrained attacker well below its undefended MCC",
            experiment: "tournament",
            band: Band::AtLeast { lo: 0.03 },
            extract: tournament_dp_floor,
            cheap: false,
        },
        Claim {
            id: "tournament.cost-monotone-in-epsilon",
            anchor: "roadmap (adaptive adversary)",
            title: "Defense energy cost is monotone in strength: each 8× ε cut at least doubles the per-home kWh cost",
            experiment: "tournament",
            band: Band::AtLeast { lo: 2.0 },
            extract: tournament_cost_ratio,
            cheap: false,
        },
        Claim {
            id: "tournament.quarantine-composes",
            anchor: "roadmap (adaptive adversary)",
            title: "The fleet supervisor quarantines the injected panic home in every matrix cell",
            experiment: "tournament",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: tournament_quarantine,
            cheap: false,
        },
        Claim {
            id: "tournament.stream-chunked-identical",
            anchor: "roadmap (adaptive adversary)",
            title: "The fitted adaptive attack replayed through chunked streaming admission matches batch byte-for-byte",
            experiment: "tournament",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: tournament_stream_equal,
            cheap: false,
        },
        // -- Encrypted-traffic arms race (docs/NETSIM.md) ----------------
        Claim {
            id: "netsim.shaping-strong-beats-naive",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "The re-featurizing attacker beats the naive one on every partial shaping defense",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.05 },
            extract: shaping_strong_margin,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-pad-still-leaks",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "Size-bucket padding alone leaves the strong attacker at least 0.15 accuracy above chance — timing survives padding",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.15 },
            extract: shaping_pad_leak,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-full-stack-floors-strong",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "Only the full aggregation+cover+padding stack floors the strong attacker to within 0.05 of chance",
            experiment: "shaping_arms_race",
            band: Band::AtMost { hi: 0.05 },
            extract: shaping_full_floor,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-naive-blinded-by-pad-cover",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "Padding plus cover traffic blinds the naive size-feature attacker to below 0.45 accuracy",
            experiment: "shaping_arms_race",
            band: Band::AtMost { hi: 0.45 },
            extract: shaping_naive_blinded,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-strong-matches-baseline-clear",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "On unshaped flows the strong attacker reproduces the baseline fingerprinting accuracy",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.7 },
            extract: shaping_strong_clear,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-cover-floors-occupancy",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "Cover traffic collapses the traffic-occupancy side channel (MCC drop vs. unshaped)",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.4 },
            extract: shaping_cover_occupancy_drop,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-overhead-priced",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "The full stack reports a positive byte-overhead price, not a free lunch",
            experiment: "shaping_arms_race",
            band: Band::AtLeast { lo: 0.001 },
            extract: shaping_full_overhead,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-latency-honest",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "Added latency is honest: zero for every non-aggregating policy, positive under tunnel aggregation",
            experiment: "shaping_arms_race",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: shaping_latency_honest,
            cheap: false,
        },
        Claim {
            id: "netsim.shaping-quarantine-composes",
            anchor: "§IV (encrypted-traffic arms race)",
            title: "The fleet supervisor quarantines the injected panic home in every shaping matrix cell",
            experiment: "shaping_arms_race",
            band: Band::Absolute { lo: 1.0, hi: 1.0 },
            extract: shaping_quarantine,
            cheap: false,
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
            let spec = bench::experiments::find(claim.experiment)
                .unwrap_or_else(|| panic!("{}: unknown experiment {}", claim.id, claim.experiment));
            assert_eq!(
                spec.paper_anchor, claim.anchor,
                "{}: anchor drifted from the experiment registry",
                claim.id
            );
            // Cheap claims run in the `cargo test` single-seed tier, where
            // a nondeterministic metric would flake; wall-clock claims
            // (`stream.chunked-not-slower`, `perf.*`) may target the
            // throughput experiments but only through the sweep tier.
            assert!(
                spec.deterministic || !claim.cheap,
                "{}: cheap claims must target deterministic experiments",
                claim.id
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
                all().iter().any(|c| c.anchor.starts_with(required)),
                "no claim anchored at {required}"
            );
        }
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
