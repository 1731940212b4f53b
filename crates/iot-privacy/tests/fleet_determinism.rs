//! Regression tests for the fleet engine's determinism contract: the
//! parallel engine must serialize byte-for-byte identically to the serial
//! reference at every thread count — including with the obs metrics layer
//! enabled, whose deterministic section (counters/gauges) must itself be
//! byte-identical between the serial and parallel engines.
//!
//! All thread-count cases live in ONE test function on purpose —
//! `RAYON_NUM_THREADS` is process-global, and the harness runs separate
//! `#[test]`s concurrently.

use iot_privacy::scenario::EnergyScenario;
use iot_privacy::{
    obs, run_fleet, run_fleet_serial, run_fleet_supervised, run_fleet_supervised_serial,
    HomeAttempt, SupervisorConfig,
};

fn build(seed: u64) -> EnergyScenario {
    EnergyScenario::new(seed).days(1)
}

/// A supervised build where ~10 % of homes (here 2 of 20) panic on every
/// attempt — the acceptance scenario for the quarantine contract.
fn faulty_build(attempt: HomeAttempt) -> EnergyScenario {
    if attempt.home % 10 == 3 {
        panic!("injected per-home panic in home {}", attempt.home);
    }
    EnergyScenario::new(attempt.seed).days(1)
}

#[test]
fn parallel_fleet_is_byte_identical_to_serial_at_any_thread_count() {
    const HOMES: usize = 8;
    const ROOT: u64 = 123;
    const SUPERVISED_HOMES: usize = 20;

    // Metrics observation must never feed back into results, so the whole
    // test runs with the obs layer ON (the stricter direction: a pass here
    // also covers metrics-off runs, which execute strictly less code).
    obs::enable();
    obs::reset();

    let reference = serde_json::to_string(&run_fleet_serial(HOMES, ROOT, build).unwrap())
        .expect("serial fleet serializes");
    assert!(reference.contains("undefended"), "sanity: report shape");
    let serial_metrics = obs::snapshot().deterministic_json();
    assert!(
        serial_metrics.contains("fleet.homes"),
        "sanity: metrics recorded"
    );

    // Supervised reference: 10 % injected per-home panics, quarantine
    // ledger included in the serialized bytes.
    let cfg = SupervisorConfig::default();
    let supervised_reference = serde_json::to_string(
        &run_fleet_supervised_serial(SUPERVISED_HOMES, ROOT, cfg, faulty_build).unwrap(),
    )
    .expect("supervised serial fleet serializes");
    assert!(
        supervised_reference.contains("quarantined"),
        "sanity: quarantine ledger serialized"
    );

    for threads in ["1", "2", "3", "8", "32"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        obs::reset();
        let parallel = serde_json::to_string(&run_fleet(HOMES, ROOT, build).unwrap())
            .expect("parallel fleet serializes");
        assert_eq!(
            parallel, reference,
            "fleet JSON must be byte-identical to the serial reference at \
             RAYON_NUM_THREADS={threads}"
        );
        // Counters merge commutatively, so the deterministic metric
        // section is also schedule-independent.
        assert_eq!(
            obs::snapshot().deterministic_json(),
            serial_metrics,
            "deterministic metrics section must match the serial reference \
             at RAYON_NUM_THREADS={threads}"
        );

        let supervised = run_fleet_supervised(SUPERVISED_HOMES, ROOT, cfg, faulty_build).unwrap();
        let quarantined: Vec<usize> = supervised.quarantined.iter().map(|q| q.home).collect();
        assert_eq!(
            quarantined,
            vec![3, 13],
            "quarantine set must be deterministic at RAYON_NUM_THREADS={threads}"
        );
        assert_eq!(
            serde_json::to_string(&supervised).expect("supervised fleet serializes"),
            supervised_reference,
            "supervised fleet JSON (reports + quarantine ledger) must be \
             byte-identical to the serial reference at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    obs::disable();
}
