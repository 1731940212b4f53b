//! Fleet-scale throughput: homes/sec for the scenario fleet engine at
//! fleet sizes 10, 100, and 1000.
//!
//! Each home is an independent 1-day Figure-6 scenario (simulate → NIOM
//! attack → CHPr → attack again), run through [`run_fleet`]. The fleet
//! is byte-identical at every thread count
//! (`crates/iot-privacy/tests/fleet_determinism.rs`); the only thing the
//! thread pool buys is wall-clock time.
//!
//! With the [`obs`] layer enabled (the binary's `--metrics <path>` flag)
//! the run additionally breaks each fleet run down per pipeline stage
//! (homes/sec through simulate, attack, defend) — stage seconds are
//! summed across worker threads, so they are cumulative CPU-seconds, not
//! wall-clock.
//!
//! The second half is the **resident ladder** (`fleet.resident-*`
//! claims): a sharded [`fleetd::FleetService`] admits three rounds of
//! synthetic readings to 10⁴ → 10⁶ homes under a residency cap, so
//! most homes live as compact evicted checkpoints between rounds. It
//! reports homes/sec (home-rounds admitted per wall-clock second),
//! samples/sec, measured bytes/home in both tiers, and a perf-model
//! extrapolation ("at this samples/sec, 1M homes needs N cores"). At
//! the 10⁴ rung the capped fleet's digest is checked byte-identical to
//! an always-resident fleet — eviction/rehydration must be invisible.
//!
//! The JSON output carries wall-clock timings, so this is the one
//! experiment whose artifact is *not* a pure function of the seed (its
//! registry entry sets `deterministic: false`).

use super::{Report, RunConfig};
use crate::table::{Cell, ThroughputTable};
use fleetd::{extrapolate, top_rung, FleetService, FleetdConfig, Observation};
use iot_privacy::scenario::EnergyScenario;
use iot_privacy::{obs, run_fleet};
use std::time::Instant;

const ROOT_SEED: u64 = 7;

/// Shard count of the resident ladder — part of the run's deterministic
/// identity (home → shard is `home % RESIDENT_SHARDS`), never derived
/// from thread count.
const RESIDENT_SHARDS: usize = 64;
/// Admission rounds per rung.
const RESIDENT_ROUNDS: u64 = 3;
/// Readings per home per round (90 samples total → 6 closed windows at
/// the default 15-sample NIOM window).
const SAMPLES_PER_ROUND: usize = 30;

/// The per-home pipeline stages rolled up in the `--metrics` breakdown.
const STAGES: [&str; 5] = [
    "fleet.home",
    "scenario.simulate",
    "scenario.attack_undefended",
    "scenario.defend",
    "scenario.attack_defended",
];

/// Per-stage CPU-seconds spent between two snapshots, from exact
/// count/total deltas (quantiles are not delta-able; throughput is).
fn stage_deltas(before: &obs::MetricsReport, after: &obs::MetricsReport) -> Vec<(String, f64)> {
    STAGES
        .iter()
        .filter_map(|&stage| {
            let prior = before.timing(stage).map_or(0.0, |t| t.total);
            let total = after.timing(stage).map_or(0.0, |t| t.total) - prior;
            (total > 0.0).then(|| (stage.to_string(), total))
        })
        .collect()
}

/// Runs the fleet-throughput benchmark.
pub fn run(cfg: &RunConfig) -> Report {
    let root_seed = cfg.seed(ROOT_SEED);
    let threads = rayon::current_num_threads();

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut stage_rows = Vec::new();
    for homes in [10usize, 100, 1000] {
        let before = obs::is_enabled().then(obs::snapshot);
        let t = Instant::now();
        let fleet = run_fleet(homes, root_seed, |a| {
            EnergyScenario::new(a.seed).days(1).run()
        })
        .expect("non-empty fleet");
        let seconds = t.elapsed().as_secs_f64();
        assert!(fleet.quarantined.is_empty(), "no home may fail");

        let homes_per_sec = homes as f64 / seconds;
        rows.push(vec![format!("{homes}"), format!("{homes_per_sec:.0}")]);
        let mut size_json = serde_json::json!({
            "homes": homes,
            "parallel_seconds": seconds,
            "parallel_homes_per_sec": homes_per_sec,
            "summary": serde_json::to_value(&fleet.summary),
        });
        if let Some(before) = before {
            let deltas = stage_deltas(&before, &obs::snapshot());
            let mut stages = serde_json::Map::new();
            stage_rows.clear();
            for (stage, cpu_s) in &deltas {
                stage_rows.push(vec![
                    stage.clone(),
                    format!("{cpu_s:.3}"),
                    format!("{:.0}", homes as f64 / cpu_s),
                ]);
                stages.insert(
                    stage.clone(),
                    serde_json::json!({
                        "cpu_seconds": cpu_s,
                        "homes_per_cpu_sec": homes as f64 / cpu_s,
                    }),
                );
            }
            if let serde_json::Value::Object(map) = &mut size_json {
                map.insert("stages".to_string(), serde_json::Value::Object(stages));
            }
        }
        json.push(size_json);
    }

    // ---- resident ladder: 10^4 -> 10^6 homes under a residency cap ----
    let mut resident_table = ThroughputTable::new(&[
        "homes",
        "cap",
        "homes/s",
        "samples/s",
        "B/home steady",
        "B/home cold",
        "evictions",
    ]);
    let mut resident_sizes = Vec::new();
    let mut evict_identical = false;
    let mut ladder = Vec::new();
    for homes in [10_000usize, 100_000, 1_000_000] {
        let cap = homes / 8;
        let fleet_cfg = FleetdConfig {
            shards: RESIDENT_SHARDS,
            resident_cap: Some(cap),
            root_seed,
            ..FleetdConfig::default()
        };
        let mut svc = FleetService::new(fleet_cfg.clone(), homes);
        let t = Instant::now();
        for round in 0..RESIDENT_ROUNDS {
            svc.admit_round(round, SAMPLES_PER_ROUND);
        }
        let admit_s = t.elapsed().as_secs_f64();
        let digest = svc.digest();
        let steady = svc.memory();

        if homes == 10_000 {
            // Differential: the same readings admitted with no cap (every
            // home stays resident, nothing is ever evicted) must finalize
            // to the identical per-home outputs.
            let mut full = FleetService::new(
                FleetdConfig {
                    resident_cap: None,
                    ..fleet_cfg
                },
                homes,
            );
            for round in 0..RESIDENT_ROUNDS {
                full.admit_round(round, SAMPLES_PER_ROUND);
            }
            evict_identical = full.digest() == digest && svc.evictions() > 0;
        }

        svc.evict_all();
        let cold = svc.memory();

        let homes_per_sec = (homes as u64 * RESIDENT_ROUNDS) as f64 / admit_s;
        let samples_per_sec = digest.samples as f64 / admit_s;
        resident_table.row(&[
            Cell::Count(homes as u64),
            Cell::Count(cap as u64),
            Cell::Rate(homes_per_sec),
            Cell::MegaRate(samples_per_sec),
            Cell::Rate(steady.bytes_per_home()),
            Cell::Rate(cold.bytes_per_home()),
            Cell::Count(svc.evictions()),
        ]);
        resident_sizes.push(serde_json::json!({
            "homes": homes,
            "resident_cap": cap,
            "admit_seconds": admit_s,
            "homes_per_sec": homes_per_sec,
            "samples_per_sec": samples_per_sec,
            "samples": digest.samples,
            "positives": digest.positives,
            "digest": format!("{:016x}", digest.digest),
            "resident_homes": steady.resident_homes,
            "bytes_per_home": steady.bytes_per_home(),
            "cold_bytes_per_home": cold.bytes_per_home(),
            "evictions": svc.evictions(),
            "rehydrations": svc.rehydrations(),
        }));
        ladder.push(Observation {
            homes,
            samples_per_sec,
            threads,
        });
    }
    assert!(
        evict_identical,
        "capped fleet must evict and still match the always-resident digest"
    );

    // Project the measured top rung onto the million-home north star at
    // one reading per home per second.
    let top = top_rung(&ladder).expect("ladder is non-empty");
    let x = extrapolate(top, 1_000_000, 1.0);
    let extrapolation = serde_json::json!({
        "target_homes": 1_000_000,
        "target_samples_per_home_per_sec": 1.0,
        "measured_samples_per_sec": top.samples_per_sec,
        "measured_threads": top.threads,
        "per_core_samples_per_sec": x.per_core_samples_per_sec,
        "required_samples_per_sec": x.required_samples_per_sec,
        "projected_cores": x.projected_cores,
        "projected_cores_ceil": x.projected_cores_ceil,
        "headroom": x.headroom,
    });

    let mut report = Report::new();
    report.table(
        &format!("Fleet throughput: 1-day scenarios, {threads} threads"),
        &["homes", "homes/s"],
        rows,
    );
    if !stage_rows.is_empty() {
        report.table(
            "Per-stage breakdown, 1000-home run (CPU-seconds across workers)",
            &["stage", "cpu s", "homes/cpu-s"],
            stage_rows,
        );
    }
    resident_table.add_to(
        &mut report,
        &format!(
            "Resident fleet ladder: {RESIDENT_ROUNDS} rounds x {SAMPLES_PER_ROUND} samples/home, \
             {RESIDENT_SHARDS} shards, cap = homes/8"
        ),
    );
    report.note("\nEviction/rehydration verified byte-identical to the always-resident fleet ✓");
    report.note(format!(
        "Extrapolation: 1M homes at 1 sample/home/s needs {} core(s) of this machine \
         ({:.2}M samples/s per core; measured headroom {:.0}x)",
        x.projected_cores_ceil,
        x.per_core_samples_per_sec / 1e6,
        x.headroom,
    ));

    report.json = serde_json::json!({
        "experiment": "fleet_scale",
        "threads": threads,
        "sizes": json,
        "resident": {
            "shards": RESIDENT_SHARDS,
            "rounds": RESIDENT_ROUNDS,
            "samples_per_round": SAMPLES_PER_ROUND,
            "evict_identical": evict_identical,
            "sizes": resident_sizes,
            "extrapolation": extrapolation,
        },
    });
    report
}
