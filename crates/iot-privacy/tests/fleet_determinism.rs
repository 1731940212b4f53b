//! Regression tests for the fleet engine's determinism contract: the
//! fleet must serialize byte-for-byte identically at every thread count —
//! including with the obs metrics layer enabled, whose deterministic
//! section (counters/gauges) must itself be byte-identical across thread
//! counts. The reference is `run_fleet` at `RAYON_NUM_THREADS=1`, where
//! the pool maps the homes serially on the calling thread.
//!
//! All thread-count cases live in ONE test function on purpose —
//! `RAYON_NUM_THREADS` is process-global, and the harness runs separate
//! `#[test]`s concurrently.

use iot_privacy::scenario::{EnergyScenario, ScenarioReport};
use iot_privacy::streaming::StreamingScenario;
use iot_privacy::{obs, run_fleet, FleetResult, HomeAttempt};

const HOMES: usize = 8;
const ROOT: u64 = 123;
const SUPERVISED_HOMES: usize = 20;

fn day(attempt: HomeAttempt) -> ScenarioReport {
    EnergyScenario::new(attempt.seed).days(1).run()
}

/// The same homes streamed in hour-long chunks.
fn streamed_day(attempt: HomeAttempt) -> ScenarioReport {
    StreamingScenario::new(attempt.seed)
        .days(1)
        .chunk_len(60)
        .run()
}

/// A run where ~10 % of homes (here 2 of 20) panic on every attempt —
/// the acceptance scenario for the quarantine contract.
fn faulty_day(attempt: HomeAttempt) -> ScenarioReport {
    if attempt.home % 10 == 3 {
        panic!("injected per-home panic in home {}", attempt.home);
    }
    day(attempt)
}

fn json(fleet: &FleetResult) -> String {
    serde_json::to_string(fleet).expect("fleet serializes")
}

#[test]
fn parallel_fleet_is_byte_identical_to_serial_at_any_thread_count() {
    // Metrics observation must never feed back into results, so the whole
    // test runs with the obs layer ON (the stricter direction: a pass here
    // also covers metrics-off runs, which execute strictly less code).
    obs::enable();

    std::env::set_var("RAYON_NUM_THREADS", "1");
    obs::reset();
    let reference = json(&run_fleet(HOMES, ROOT, day).unwrap());
    assert!(reference.contains("undefended"), "sanity: report shape");
    let serial_metrics = obs::snapshot().deterministic_json();
    assert!(
        serial_metrics.contains("fleet.homes"),
        "sanity: metrics recorded"
    );

    // Supervised reference: 10 % injected per-home panics, quarantine
    // ledger included in the serialized bytes.
    let supervised = run_fleet(SUPERVISED_HOMES, ROOT, faulty_day).unwrap();
    let quarantined: Vec<usize> = supervised.quarantined.iter().map(|q| q.home).collect();
    assert_eq!(
        quarantined,
        vec![3, 13],
        "sanity: injected panics quarantined"
    );
    let supervised_reference = json(&supervised);

    // Streaming ingestion must reproduce the batch fleet, here at one
    // thread and below at every other thread count.
    assert_eq!(
        json(&run_fleet(HOMES, ROOT, streamed_day).unwrap()),
        reference,
        "streaming fleet must be byte-identical to the batch fleet at RAYON_NUM_THREADS=1"
    );

    for threads in ["2", "3", "8", "32"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        obs::reset();
        assert_eq!(
            json(&run_fleet(HOMES, ROOT, day).unwrap()),
            reference,
            "fleet JSON must be byte-identical to the one-thread reference at \
             RAYON_NUM_THREADS={threads}"
        );
        // Counters merge commutatively, so the deterministic metric
        // section is also schedule-independent.
        assert_eq!(
            obs::snapshot().deterministic_json(),
            serial_metrics,
            "deterministic metrics section must match the one-thread reference \
             at RAYON_NUM_THREADS={threads}"
        );

        let supervised = run_fleet(SUPERVISED_HOMES, ROOT, faulty_day).unwrap();
        let quarantined: Vec<usize> = supervised.quarantined.iter().map(|q| q.home).collect();
        assert_eq!(
            quarantined,
            vec![3, 13],
            "quarantine set must be deterministic at RAYON_NUM_THREADS={threads}"
        );
        assert_eq!(
            json(&supervised),
            supervised_reference,
            "supervised fleet JSON (reports + quarantine ledger) must be \
             byte-identical to the one-thread reference at RAYON_NUM_THREADS={threads}"
        );

        assert_eq!(
            json(&run_fleet(HOMES, ROOT, streamed_day).unwrap()),
            reference,
            "streaming fleet must be byte-identical to the batch fleet at \
             RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    obs::disable();
}
