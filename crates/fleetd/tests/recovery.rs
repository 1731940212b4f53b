//! Crash-recovery equivalence suite (docs/FLEET.md, recovery
//! lifecycle): a `FleetService` dropped mid-ladder and reopened from
//! its durable store must produce a digest and per-home outputs
//! byte-identical to an uninterrupted run — with and without injected
//! storage faults, at any `RAYON_NUM_THREADS` (CI runs this suite at 1
//! and 8).

use faults::{FaultPlan, StoreFault};
use fleetd::store::{self, durable_home_path};
use fleetd::{FleetService, FleetdConfig, RecoverError, RecoveryPolicy, StoreConfig};
use niom::ThresholdDetector;
use std::path::{Path, PathBuf};
use stream::{StreamFill, StreamSpec};
use timeseries::{Resolution, Timestamp};

const HOMES: usize = 400;
const SAMPLES: usize = 25;
const ROUNDS: u64 = 5;
const CRASH_AT: u64 = 3;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fleetd-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn durable_cfg(root: &Path) -> FleetdConfig {
    FleetdConfig {
        shards: 16,
        resident_cap: Some(150),
        store: StoreConfig::Durable {
            root: root.to_path_buf(),
        },
        ..FleetdConfig::default()
    }
}

fn run_rounds(svc: &mut FleetService, from: u64, to: u64) {
    for round in from..to {
        svc.admit_round(round, SAMPLES);
    }
}

fn full_run(cfg: FleetdConfig) -> FleetService {
    let mut svc = FleetService::new(cfg, HOMES);
    run_rounds(&mut svc, 0, ROUNDS);
    svc
}

#[test]
fn crash_recover_is_byte_identical_to_uninterrupted_run() {
    let root_a = temp_root("uninterrupted");
    let root_b = temp_root("crashed");
    let baseline = full_run(durable_cfg(&root_a));

    // Also prove the store backend itself is invisible to output.
    let memory_baseline = full_run(FleetdConfig {
        shards: 16,
        resident_cap: Some(150),
        ..FleetdConfig::default()
    });
    assert_eq!(baseline.digest(), memory_baseline.digest());

    // "Crash" mid-ladder: drop the service with rounds committed.
    {
        let mut svc = FleetService::new(durable_cfg(&root_b), HOMES);
        run_rounds(&mut svc, 0, CRASH_AT);
    }

    let (mut recovered, report) =
        FleetService::recover(durable_cfg(&root_b)).expect("manifest and frames are intact");
    assert_eq!(report.recovered, HOMES, "every home was write-synced");
    assert_eq!(report.scheduled_rebuilds, 0);
    assert!(report.quarantined.is_empty());
    assert_eq!(recovered.rounds(), CRASH_AT);
    assert_eq!(recovered.samples(), baseline.samples() / ROUNDS * CRASH_AT);

    run_rounds(&mut recovered, CRASH_AT, ROUNDS);
    assert_eq!(recovered.digest(), baseline.digest());
    for home in 0..HOMES {
        assert_eq!(
            recovered.finalize_home(home),
            baseline.finalize_home(home),
            "home {home}"
        );
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn recover_without_further_rounds_preserves_digest() {
    let root = temp_root("cold-floor");
    let mut svc = full_run(durable_cfg(&root));
    svc.evict_all();
    let before = svc.digest();
    drop(svc);

    let (recovered, report) = FleetService::recover(durable_cfg(&root)).expect("intact fleet");
    assert_eq!(report.recovered, HOMES);
    assert_eq!(recovered.rounds(), ROUNDS);
    assert_eq!(recovered.digest(), before);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_round_future_generation_frames_are_rebuilt() {
    let root_a = temp_root("torn-baseline");
    let root_b = temp_root("torn-round");
    let baseline = full_run(durable_cfg(&root_a));

    let cfg = durable_cfg(&root_b);
    {
        let mut svc = FleetService::new(cfg.clone(), HOMES);
        run_rounds(&mut svc, 0, CRASH_AT);
    }
    // Simulate a crash mid-round CRASH_AT: some homes' frames were
    // already overwritten at the next generation, but the manifest
    // commit never landed.
    let torn_homes = [3usize, 97, 250];
    for &home in &torn_homes {
        let path = durable_home_path(&root_b, cfg.shards, home);
        let bytes = std::fs::read(&path).expect("synced frame exists");
        let frame = store::decode_frame(&bytes).expect("frame is valid");
        std::fs::write(
            &path,
            store::encode_frame(home as u64, CRASH_AT + 1, frame.payload),
        )
        .unwrap();
    }

    let (mut recovered, report) = FleetService::recover(cfg).expect("manifest is intact");
    assert_eq!(report.scheduled_rebuilds, torn_homes.len());
    assert_eq!(report.recovered, HOMES - torn_homes.len());
    assert!(report.quarantined.is_empty());

    run_rounds(&mut recovered, CRASH_AT, ROUNDS);
    assert!(recovered.store_rebuilds() >= torn_homes.len() as u64);
    assert_eq!(recovered.digest(), baseline.digest());
    for &home in &torn_homes {
        assert_eq!(
            recovered.finalize_home(home),
            baseline.finalize_home(home),
            "rebuilt home {home}"
        );
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn offline_corruption_quarantines_exactly_the_corrupted_homes() {
    let root_a = temp_root("quarantine-baseline");
    let root_b = temp_root("quarantine");
    let baseline = full_run(durable_cfg(&root_a));

    let cfg = FleetdConfig {
        recovery: RecoveryPolicy::Quarantine,
        ..durable_cfg(&root_b)
    };
    drop(full_run(cfg.clone()));

    // Corrupt three known homes three different ways: torn write,
    // bit rot, stale-generation replay.
    let torn = 11usize;
    let flipped = 140usize;
    let stale = 333usize;
    let path = |home: usize| durable_home_path(&root_b, cfg.shards, home);
    let torn_bytes = std::fs::read(path(torn)).unwrap();
    std::fs::write(path(torn), &torn_bytes[..torn_bytes.len() / 2]).unwrap();
    let mut flip_bytes = std::fs::read(path(flipped)).unwrap();
    let at = flip_bytes.len() - 3;
    flip_bytes[at] ^= 0x40;
    std::fs::write(path(flipped), &flip_bytes).unwrap();
    let stale_bytes = std::fs::read(path(stale)).unwrap();
    let stale_frame = store::decode_frame(&stale_bytes).unwrap();
    std::fs::write(
        path(stale),
        store::encode_frame(stale as u64, ROUNDS - 1, stale_frame.payload),
    )
    .unwrap();

    let (recovered, report) = FleetService::recover(cfg).expect("manifest is intact");
    let quarantined_homes: Vec<usize> = report.quarantined.iter().map(|&(h, _)| h).collect();
    assert_eq!(quarantined_homes, vec![torn, flipped, stale]);
    assert_eq!(report.recovered, HOMES - 3);
    assert_eq!(recovered.quarantined_count(), 3);
    assert!(matches!(
        report.quarantined[2].1,
        store::StoreError::StaleGeneration {
            found,
            expected,
            ..
        } if found == ROUNDS - 1 && expected == ROUNDS
    ));

    // The survivors are untouched; the quarantined homes are excluded.
    let digest = recovered.digest();
    assert_eq!(digest.homes, HOMES - 3);
    assert!(recovered.finalize_home(torn).is_none());
    for home in [0, 10, 12, 139, 141, 332, 334, HOMES - 1] {
        assert_eq!(
            recovered.finalize_home(home),
            baseline.finalize_home(home),
            "surviving home {home}"
        );
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn recover_refuses_a_fleet_written_under_another_window() {
    // 64 homes in 4 shards, written under a 30-sample window after two
    // 20-sample rounds: one closed window and 10 open samples per home.
    // Every open window also fits a 15-sample window, so the frames
    // validate under either; only the manifest can tell which window
    // wrote them.
    let root = temp_root("other-window");
    let cfg = |window| FleetdConfig {
        detector: ThresholdDetector::with_window(window),
        shards: 4,
        store: StoreConfig::Durable { root: root.clone() },
        ..FleetdConfig::default()
    };
    let mut svc = FleetService::new(cfg(30), 64);
    run_rounds(&mut svc, 0, 2);
    let digest = svc.digest();
    drop(svc);

    assert_eq!(
        FleetService::recover(cfg(15)).err(),
        Some(RecoverError::ConfigMismatch {
            field: "window",
            manifest: 30,
            config: 15,
        })
    );
    let (recovered, report) = FleetService::recover(cfg(30)).expect("same window");
    assert_eq!(report.recovered, 64);
    assert_eq!(recovered.digest(), digest);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn frames_from_a_longer_window_are_corrupt_not_a_panic() {
    // A fleet written under a 30-sample window holds 20 open samples per
    // home after one 20-sample round. Copied into a fleet of the same
    // layout run under a 15-sample window, whose manifest matches its
    // config, no frame's open window fits: recovery must see every frame
    // as corrupt at its open-count field (frame byte 41) and apply the
    // policy, instead of restoring streams that panic on the next round.
    const HOMES: usize = 64;
    let window = |w| ThresholdDetector::with_window(w);
    for policy in [RecoveryPolicy::Rebuild, RecoveryPolicy::Quarantine] {
        let foreign = temp_root(&format!("window-30-{policy:?}"));
        let root = temp_root(&format!("window-15-{policy:?}"));
        let cfg = FleetdConfig {
            detector: window(15),
            recovery: policy,
            ..durable_cfg(&root)
        };
        for (dir, detector) in [(&foreign, window(30)), (&root, window(15))] {
            let mut svc = FleetService::new(
                FleetdConfig {
                    detector,
                    ..durable_cfg(dir)
                },
                HOMES,
            );
            svc.admit_round(0, 20);
        }
        for home in 0..HOMES {
            let from = durable_home_path(&foreign, cfg.shards, home);
            std::fs::copy(from, durable_home_path(&root, cfg.shards, home)).unwrap();
        }

        let (mut recovered, report) = FleetService::recover(cfg).expect("manifest is intact");
        assert_eq!(report.recovered, 0, "{policy:?}");
        recovered.admit_round(1, 20);
        match policy {
            RecoveryPolicy::Rebuild => {
                assert_eq!(report.scheduled_rebuilds, HOMES);
                assert!(report.quarantined.is_empty());
                let mut fresh = FleetService::new(
                    FleetdConfig {
                        detector: window(15),
                        shards: 16,
                        resident_cap: Some(150),
                        ..FleetdConfig::default()
                    },
                    HOMES,
                );
                fresh.admit_round(0, 20);
                fresh.admit_round(1, 20);
                assert_eq!(recovered.digest(), fresh.digest());
            }
            RecoveryPolicy::Quarantine => {
                assert_eq!(report.scheduled_rebuilds, 0);
                assert_eq!(report.quarantined.len(), HOMES);
                for (home, err) in &report.quarantined {
                    assert!(
                        matches!(err, store::StoreError::Corrupt { offset: 41, .. }),
                        "home {home}: {err}"
                    );
                }
                assert_eq!(recovered.quarantined_count(), HOMES);
                assert_eq!(recovered.digest().homes, 0);
            }
        }
        let _ = std::fs::remove_dir_all(&foreign);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn transient_store_faults_are_retried_and_output_identical() {
    let root_a = temp_root("transient-clean");
    let root_b = temp_root("transient-faulted");
    let clean = full_run(durable_cfg(&root_a));
    let faulted_cfg = FleetdConfig {
        store_faults: FaultPlan::for_store(vec![StoreFault::Transient {
            prob: 0.4,
            max_failures: 2,
        }]),
        ..durable_cfg(&root_b)
    };
    let faulted = full_run(faulted_cfg.clone());

    assert!(faulted.store_retries() > 0, "0.4 over thousands of writes");
    assert_eq!(faulted.store_rebuilds(), 0);
    assert!(faulted.quarantined().is_empty());
    assert_eq!(faulted.digest(), clean.digest());
    for home in [0, 7, 199, HOMES - 1] {
        assert_eq!(faulted.finalize_home(home), clean.finalize_home(home));
    }

    // Retry counts are part of the deterministic contract too.
    let retries = faulted.store_retries();
    drop(faulted);
    let again = full_run(faulted_cfg);
    assert_eq!(again.store_retries(), retries);

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn full_fault_ladder_rebuilds_to_identical_output() {
    let root_a = temp_root("ladder-clean");
    let root_b = temp_root("ladder-faulted");
    let clean = full_run(durable_cfg(&root_a));
    let faulted_cfg = FleetdConfig {
        store_faults: FaultPlan::store_profile(0.6),
        recovery: RecoveryPolicy::Rebuild,
        ..durable_cfg(&root_b)
    };
    let mut faulted = full_run(faulted_cfg);
    // The final round's writes can be corrupted too; scrub validates
    // every cold frame and rebuilds the casualties before digesting.
    let (rebuilt, quarantined) = faulted.scrub(SAMPLES);
    assert_eq!(quarantined, 0, "rebuild policy never quarantines here");
    assert!(
        faulted.store_rebuilds() > 0,
        "profile 0.6 must corrupt some of the thousands of writes"
    );
    let _ = rebuilt;

    assert_eq!(faulted.digest(), clean.digest());
    for home in [0, 42, 137, 256, HOMES - 1] {
        assert_eq!(
            faulted.finalize_home(home),
            clean.finalize_home(home),
            "home {home}"
        );
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

#[test]
fn recover_rejects_mismatched_or_missing_fleets() {
    let missing = temp_root("never-created");
    assert!(matches!(
        FleetService::recover(durable_cfg(&missing)),
        Err(RecoverError::Manifest(_))
    ));

    let root = temp_root("mismatch");
    drop(FleetService::new(durable_cfg(&root), HOMES));
    let wrong_seed = FleetdConfig {
        root_seed: 999,
        ..durable_cfg(&root)
    };
    assert_eq!(
        FleetService::recover(wrong_seed).err(),
        Some(RecoverError::ConfigMismatch {
            field: "root_seed",
            manifest: 7,
            config: 999,
        })
    );
    let wrong_shards = FleetdConfig {
        shards: 8,
        ..durable_cfg(&root)
    };
    assert_eq!(
        FleetService::recover(wrong_shards).err(),
        Some(RecoverError::ConfigMismatch {
            field: "shards",
            manifest: 16,
            config: 8,
        })
    );
    // The fill policy and the trace geometry are part of what a frame
    // means, too.
    let wrong_fill = FleetdConfig {
        fill: StreamFill::Hold,
        ..durable_cfg(&root)
    };
    let wrong_start = FleetdConfig {
        spec: StreamSpec::new(Timestamp(3_600), Resolution::ONE_MINUTE),
        ..durable_cfg(&root)
    };
    let wrong_resolution = FleetdConfig {
        spec: StreamSpec::new(Timestamp::ZERO, Resolution::ONE_SECOND),
        ..durable_cfg(&root)
    };
    for (cfg, field, manifest, config) in [
        (wrong_fill, "fill", 0, 1),
        (wrong_start, "start", 0, 3_600),
        (wrong_resolution, "resolution", 60, 1),
    ] {
        assert_eq!(
            FleetService::recover(cfg).err(),
            Some(RecoverError::ConfigMismatch {
                field,
                manifest,
                config,
            })
        );
    }

    // A manifest in the previous layout (`FDM1`, before the manifest
    // recorded the detector configuration) is unusable, not misread.
    let mut fdm1 = b"FDM1".to_vec();
    for v in [HOMES as u64, 16, 0, 7] {
        fdm1.extend_from_slice(&v.to_le_bytes());
    }
    fdm1.extend_from_slice(&16u32.to_le_bytes());
    fdm1.extend_from_slice(&[0; 16 * 8]);
    let crc = store::crc32(&fdm1[4..]);
    fdm1.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(root.join(store::MANIFEST_FILE), fdm1).unwrap();
    assert!(matches!(
        FleetService::recover(durable_cfg(&root)),
        Err(RecoverError::Manifest(_))
    ));

    let _ = std::fs::remove_dir_all(&root);
}
