//! Degradation curves: how the pipeline's headline numbers bend as
//! deterministic faults corrupt its inputs (roadmap: robustness).
//!
//! Three curves, all swept over fault intensity 0 / 5 / 10 / 25 / 50 %:
//!
//! 1. **NIOM attack on a faulted meter** — the Fig. 6 threshold attack,
//!    scored gap-aware (`confusion_where` over the fault layer's keep
//!    mask) so destroyed samples are excluded rather than guessed.
//! 2. **CHPr on the same faulted meter** — the defended MCC must stay
//!    collapsed even when the input the defense sees is damaged.
//! 3. **Traffic fingerprinting on faulted flows** — the §IV naive-Bayes
//!    classifier trained clean, tested on a flow log with packet loss,
//!    reordering, and reboot chatter.
//!
//! A fourth section exercises the fleet supervisor: a 10-home fleet where
//! 10 % of homes (home 3) panic on every attempt must complete, quarantine
//! exactly that home, and report the rest.
//!
//! Every number is a pure function of the seed: faults are injected by
//! `faults::FaultPlan` (seeded, per-fault RNG streams) and the supervisor
//! schedule depends only on `(home, attempt)`.

use super::{Report, RunConfig};
use faults::{FaultPlan, GapFill};
use iot_privacy::defense::{Chpr, Defense};
use iot_privacy::homesim::{Home, HomeConfig};
use iot_privacy::netsim::fingerprint::{accuracy, labelled_examples};
use iot_privacy::netsim::{simulate_home_network, DeviceType, NaiveBayes};
use iot_privacy::niom::{OccupancyDetector, ThresholdDetector};
use iot_privacy::scenario::EnergyScenario;
use iot_privacy::timeseries::rng::seeded_rng;
use iot_privacy::timeseries::{LabelSeries, Resolution, Timestamp};
use iot_privacy::{run_fleet, HomeAttempt};

/// The swept corruption levels (fraction of the trace each fault family
/// targets; see [`faults::FaultPlan::power_profile`]).
const INTENSITIES: [f64; 5] = [0.0, 0.05, 0.10, 0.25, 0.50];

/// Homes in the supervised-fleet section; home 3 (10 %) always panics.
const FLEET_HOMES: usize = 10;

fn fleet_occupancy(days: usize) -> LabelSeries {
    LabelSeries::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, days * 1440, |i| {
        let m = i % 1440;
        !(540..1_020).contains(&m)
    })
}

/// Runs the degradation-curves experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let home = Home::simulate(&HomeConfig::new(cfg.seed(60)).days(7));
    let attack = ThresholdDetector::default();
    let fault_seed = cfg.seed(400);

    // -- power-pipeline degradation --------------------------------------
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for intensity in INTENSITIES {
        let plan = FaultPlan::power_profile(intensity);
        let faulted = plan.apply_trace(&home.meter, fault_seed);
        let keep = faulted.keep_mask();
        let meter = faulted.fill(GapFill::Hold);

        let undefended = home
            .occupancy
            .confusion_where(&attack.detect(&meter), &keep)
            .expect("aligned");
        let defended_trace = Chpr::default()
            .try_apply(&meter, &mut seeded_rng(cfg.seed(1)))
            .expect("filled trace is valid");
        let defended = home
            .occupancy
            .confusion_where(&attack.detect(&defended_trace.trace), &keep)
            .expect("aligned");

        rows.push(vec![
            format!("{:.0}%", intensity * 100.0),
            format!("{:.3}", faulted.gap_fraction()),
            format!("{:.3}", undefended.accuracy()),
            format!("{:.3}", undefended.mcc()),
            format!("{:.3}", defended.accuracy()),
            format!("{:.3}", defended.mcc()),
        ]);
        points.push(serde_json::json!({
            "intensity": intensity,
            "gap_fraction": faulted.gap_fraction(),
            "undefended_accuracy": undefended.accuracy(),
            "undefended_mcc": undefended.mcc(),
            "defended_accuracy": defended.accuracy(),
            "defended_mcc": defended.mcc(),
        }));
    }

    // -- network-pipeline degradation -------------------------------------
    // Train clean, test on progressively faulted flow logs.
    let inventory = DeviceType::all().to_vec();
    let occupancy = fleet_occupancy(6);
    let train_trace = simulate_home_network(&inventory, &occupancy, 6, cfg.seed(100));
    let test_trace = simulate_home_network(&inventory, &occupancy, 6, cfg.seed(200));
    let classifier = NaiveBayes::train(&labelled_examples(&train_trace, 6));

    let mut net_rows = Vec::new();
    let mut net_points = Vec::new();
    for intensity in INTENSITIES {
        let plan = FaultPlan::network_profile(intensity);
        let faulted = plan.apply_flows(&test_trace, fault_seed);
        let loss = faulted.loss_fraction(test_trace.flows.len());
        let mut damaged = test_trace.clone();
        damaged.flows = faulted.flows;
        let acc = accuracy(&classifier, &labelled_examples(&damaged, 6));
        net_rows.push(vec![
            format!("{:.0}%", intensity * 100.0),
            format!("{loss:.3}"),
            format!("{acc:.3}"),
        ]);
        net_points.push(serde_json::json!({
            "intensity": intensity,
            "loss_fraction": loss,
            "fingerprint_accuracy": acc,
        }));
    }

    // -- fleet supervision under injected panics --------------------------
    let supervised = run_fleet(FLEET_HOMES, cfg.seed(7), |attempt: HomeAttempt| {
        if attempt.home % 10 == 3 {
            panic!("injected fault in home {}", attempt.home);
        }
        EnergyScenario::new(attempt.seed).days(1).run()
    })
    .expect("some homes survive");
    let quarantined_homes: Vec<usize> = supervised.quarantined.iter().map(|q| q.home).collect();

    let mut report = Report::new();
    report.table(
        "Power pipeline vs fault intensity (gap-aware scoring)",
        &[
            "faults",
            "gap frac",
            "attack acc",
            "attack mcc",
            "chpr acc",
            "chpr mcc",
        ],
        rows,
    );
    report.table(
        "Traffic fingerprint vs flow-fault intensity (trained clean)",
        &["faults", "flows lost", "accuracy"],
        net_rows,
    );
    report.note(format!(
        "\nSupervised fleet: {}/{FLEET_HOMES} homes survived, quarantined {:?} after {} retries",
        supervised.reports.len(),
        quarantined_homes,
        supervised.retries,
    ));
    report.note(format!(
        "Shape check: defense stays collapsed at every intensity → {}",
        if points.iter().all(|p| {
            p.get("defended_mcc")
                .and_then(serde_json::Value::as_f64)
                .is_some_and(|m| m.abs() < 0.25)
        }) {
            "reproduced ✓"
        } else {
            "VIOLATED ✗"
        }
    ));

    report.json = serde_json::json!({
        "experiment": "degradation_curves",
        "points": points,
        "network_points": net_points,
        "fleet": {
            "homes": FLEET_HOMES,
            "survivors": supervised.reports.len(),
            "quarantined": supervised.quarantined.len(),
            "quarantined_homes": quarantined_homes,
            "retries": supervised.retries,
        },
    });
    report
}
