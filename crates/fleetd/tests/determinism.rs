//! Resident-service determinism: parallel admission must leave the
//! fleet byte-identical to the one-thread run, and eviction/rehydration
//! must be invisible to every home's finalized output. CI runs this
//! binary at `RAYON_NUM_THREADS` 1 and 8.

use fleetd::{FleetService, FleetdConfig};

fn drive(cfg: FleetdConfig, homes: usize, rounds: u64) -> FleetService {
    let mut svc = FleetService::new(cfg, homes);
    for round in 0..rounds {
        svc.admit_round(round, 24);
    }
    svc
}

#[test]
fn parallel_digest_equals_serial_at_any_thread_count() {
    // The serial reference is the one-thread run. `RAYON_NUM_THREADS` is
    // process-global, and the harness runs separate `#[test]`s
    // concurrently, so every thread-count case lives in this one test.
    let capped = FleetdConfig {
        resident_cap: Some(100),
        ..FleetdConfig::default()
    };
    let cases = [1, 63, 64, 65, 1_000]
        .map(|homes| (FleetdConfig::default(), homes, 3))
        .into_iter()
        .chain([(capped, 1_000, 4)]);
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    for (cfg, homes, rounds) in cases {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = drive(cfg.clone(), homes, rounds);
        for threads in ["2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let par = drive(cfg.clone(), homes, rounds);
            let ctx = format!(
                "{homes} homes, cap {:?}, {threads} threads",
                cfg.resident_cap
            );
            assert_eq!(par.digest(), serial.digest(), "{ctx}");
            assert_eq!(par.memory(), serial.memory(), "{ctx}");
            assert_eq!(par.evictions(), serial.evictions(), "{ctx}");
            assert_eq!(par.rehydrations(), serial.rehydrations(), "{ctx}");
        }
    }
    match prior {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

#[test]
fn capped_fleet_output_is_byte_identical_to_always_resident() {
    let capped = FleetdConfig {
        resident_cap: Some(64),
        ..FleetdConfig::default()
    };
    let evicting = drive(capped, 1_000, 3);
    let resident = drive(FleetdConfig::default(), 1_000, 3);
    assert!(evicting.evictions() > 0, "cap must actually evict");
    assert_eq!(evicting.digest(), resident.digest());
    // Spot-check whole label series, not just the digest.
    for home in [0, 1, 64, 500, 999] {
        assert_eq!(
            evicting.finalize_home(home),
            resident.finalize_home(home),
            "home {home}"
        );
    }
}

#[test]
fn digest_is_stable_across_repeat_runs() {
    let a = drive(FleetdConfig::default(), 500, 2);
    let b = drive(FleetdConfig::default(), 500, 2);
    assert_eq!(a.digest(), b.digest());
}
