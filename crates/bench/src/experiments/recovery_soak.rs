//! Recovery soak: crash-recovery equivalence of the durable fleet
//! service under injected storage faults (`fleet.recovery-*` claims).
//!
//! Four scenarios over one 600-home durable fleet configuration
//! (16 shards, residency cap homes/4, 6 rounds × 30 samples):
//!
//! 1. **Crash/reopen** — the service is dropped after 4 committed
//!    rounds and reopened with [`FleetService::recover`]; after the
//!    remaining rounds its digest and every per-home series must be
//!    byte-identical to the uninterrupted run, and resuming must beat
//!    re-running the full ladder on wall-clock.
//! 2. **Transient faults** — every durable write is subjected to
//!    seeded transient IO failures; bounded retry must absorb them with
//!    byte-identical output and a nonzero retry count.
//! 3. **Full fault ladder** — torn writes, bit flips, and stale-
//!    generation replays ([`FaultPlan::store_profile`]) under
//!    [`RecoveryPolicy::Rebuild`]; a post-run scrub rebuilds every
//!    casualty and the output must still be byte-identical.
//! 4. **Offline corruption** — three cold frames are corrupted on disk
//!    (truncation, bit rot, stale generation) behind the service's
//!    back; [`RecoveryPolicy::Quarantine`] must quarantine *exactly*
//!    the corrupted homes and leave every survivor byte-identical.
//!
//! The JSON carries wall-clock timings (`*_seconds`, `*speedup`), so
//! the artifact joins the golden tier via timing projection
//! (`GOLDEN_PROJECTED`), like `stream_throughput`.

use super::{Report, RunConfig};
use faults::{FaultPlan, StoreFault};
use fleetd::store::{self, durable_home_path};
use fleetd::{FleetService, FleetdConfig, RecoveryPolicy, StoreConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

const ROOT_SEED: u64 = 7;
const HOMES: usize = 600;
const SHARDS: usize = 16;
const ROUNDS: u64 = 6;
const SAMPLES_PER_ROUND: usize = 30;
const CRASH_AFTER: u64 = 4;

/// The three homes scenario 4 corrupts offline, one per defect kind.
const CORRUPT_TORN: usize = 17;
const CORRUPT_FLIP: usize = 256;
const CORRUPT_STALE: usize = 599;

fn temp_root(seed: u64, tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("recovery_soak-{seed}-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn durable_cfg(root_seed: u64, root: &Path) -> FleetdConfig {
    FleetdConfig {
        shards: SHARDS,
        resident_cap: Some(HOMES / 4),
        root_seed,
        store: StoreConfig::Durable {
            root: root.to_path_buf(),
        },
        ..FleetdConfig::default()
    }
}

fn run_rounds(svc: &mut FleetService, from: u64, to: u64) {
    for round in from..to {
        svc.admit_round(round, SAMPLES_PER_ROUND);
    }
}

fn full_run(cfg: FleetdConfig) -> FleetService {
    let mut svc = FleetService::new(cfg, HOMES);
    run_rounds(&mut svc, 0, ROUNDS);
    svc
}

/// Whether every non-quarantined home of `got` finalizes identically to
/// `want`'s.
fn homes_identical(got: &FleetService, want: &FleetService) -> bool {
    (0..HOMES).all(|home| match got.finalize_home(home) {
        None => true, // quarantined — excluded by contract
        Some(series) => want.finalize_home(home).as_ref() == Some(&series),
    })
}

/// Runs the recovery soak.
pub fn run(cfg: &RunConfig) -> Report {
    let root_seed = cfg.seed(ROOT_SEED);

    // ---- baseline: uninterrupted durable run ---------------------------
    let base_root = temp_root(root_seed, "baseline");
    let t = Instant::now();
    let baseline = full_run(durable_cfg(root_seed, &base_root));
    let full_seconds = t.elapsed().as_secs_f64();
    let digest = baseline.digest();

    // ---- scenario 1: crash after CRASH_AFTER rounds, recover, finish ---
    let crash_root = temp_root(root_seed, "crash");
    {
        let mut svc = FleetService::new(durable_cfg(root_seed, &crash_root), HOMES);
        run_rounds(&mut svc, 0, CRASH_AFTER);
        // Dropped here with CRASH_AFTER rounds committed: the "crash".
    }
    let t = Instant::now();
    let (mut recovered, crash_report) =
        FleetService::recover(durable_cfg(root_seed, &crash_root)).expect("intact fleet recovers");
    run_rounds(&mut recovered, CRASH_AFTER, ROUNDS);
    let recovery_seconds = t.elapsed().as_secs_f64();
    let recovery_speedup = full_seconds / recovery_seconds;
    let crash_identical = recovered.digest() == digest && homes_identical(&recovered, &baseline);
    assert!(crash_identical, "crash/recover must be byte-identical");
    assert!(crash_report.quarantined.is_empty());

    // ---- scenario 2: transient store faults, absorbed by retry ---------
    let transient_root = temp_root(root_seed, "transient");
    let transient = full_run(FleetdConfig {
        store_faults: FaultPlan::for_store(vec![StoreFault::Transient {
            prob: 0.4,
            max_failures: 2,
        }]),
        ..durable_cfg(root_seed, &transient_root)
    });
    let transient_identical =
        transient.digest() == digest && homes_identical(&transient, &baseline);
    let transient_retries = transient.store_retries();
    assert!(transient_identical, "retried writes must be invisible");
    assert!(transient_retries > 0, "0.4 over thousands of writes");

    // ---- scenario 3: full fault ladder under the rebuild policy --------
    let ladder_root = temp_root(root_seed, "ladder");
    let mut ladder = full_run(FleetdConfig {
        store_faults: FaultPlan::store_profile(0.6),
        recovery: RecoveryPolicy::Rebuild,
        ..durable_cfg(root_seed, &ladder_root)
    });
    let (scrub_rebuilt, scrub_quarantined) = ladder.scrub(SAMPLES_PER_ROUND);
    let rebuild_identical = ladder.digest() == digest && homes_identical(&ladder, &baseline);
    let rebuilds = ladder.store_rebuilds();
    assert!(rebuild_identical, "rebuilt homes must be byte-identical");
    assert!(rebuilds > 0, "profile 0.6 must corrupt some writes");
    assert_eq!(scrub_quarantined, 0, "rebuild policy never quarantines");

    // ---- scenario 4: offline corruption, quarantined exactly -----------
    let quarantine_root = temp_root(root_seed, "quarantine");
    let quarantine_cfg = FleetdConfig {
        recovery: RecoveryPolicy::Quarantine,
        ..durable_cfg(root_seed, &quarantine_root)
    };
    drop(full_run(quarantine_cfg.clone()));
    let path = |home: usize| durable_home_path(&quarantine_root, SHARDS, home);
    let torn = std::fs::read(path(CORRUPT_TORN)).expect("synced frame");
    std::fs::write(path(CORRUPT_TORN), &torn[..torn.len() / 2]).unwrap();
    let mut flip = std::fs::read(path(CORRUPT_FLIP)).expect("synced frame");
    let at = flip.len() - 5;
    flip[at] ^= 0x10;
    std::fs::write(path(CORRUPT_FLIP), &flip).unwrap();
    let stale = std::fs::read(path(CORRUPT_STALE)).unwrap();
    let stale = store::decode_frame(&stale).expect("frame is valid before corruption");
    std::fs::write(
        path(CORRUPT_STALE),
        store::encode_frame(CORRUPT_STALE as u64, ROUNDS - 1, stale.payload),
    )
    .unwrap();

    let (survivor, quarantine_report) =
        FleetService::recover(quarantine_cfg).expect("manifest is intact");
    let corrupted = vec![CORRUPT_TORN, CORRUPT_FLIP, CORRUPT_STALE];
    let quarantined: Vec<usize> = quarantine_report
        .quarantined
        .iter()
        .map(|&(home, _)| home)
        .collect();
    let quarantine_exact = quarantined == corrupted;
    let survivors_identical =
        survivor.digest().homes == HOMES - corrupted.len() && homes_identical(&survivor, &baseline);
    assert!(
        quarantine_exact,
        "quarantine set must equal the corrupted set"
    );
    assert!(survivors_identical, "survivors must be untouched");

    for root in [
        &base_root,
        &crash_root,
        &transient_root,
        &ladder_root,
        &quarantine_root,
    ] {
        let _ = std::fs::remove_dir_all(root);
    }

    // ---- report --------------------------------------------------------
    let mut report = Report::new();
    report.table(
        &format!(
            "Recovery soak: {HOMES} homes, {SHARDS} shards, cap {}, \
             {ROUNDS} rounds x {SAMPLES_PER_ROUND} samples, crash after {CRASH_AFTER}",
            HOMES / 4
        ),
        &["scenario", "identical", "detail"],
        vec![
            vec![
                "crash/recover".into(),
                format!("{crash_identical}"),
                format!(
                    "{} homes recovered, {recovery_speedup:.2}x vs full re-run",
                    crash_report.recovered
                ),
            ],
            vec![
                "transient faults".into(),
                format!("{transient_identical}"),
                format!("{transient_retries} retried writes"),
            ],
            vec![
                "fault ladder + rebuild".into(),
                format!("{rebuild_identical}"),
                format!("{rebuilds} rebuilds ({scrub_rebuilt} by scrub)"),
            ],
            vec![
                "offline corruption".into(),
                format!("{survivors_identical}"),
                format!("quarantined exactly {quarantined:?}"),
            ],
        ],
    );
    report.note(format!(
        "\nAll four scenarios byte-identical to the uninterrupted run \
         (digest {:016x}) ✓",
        digest.digest
    ));

    report.json = serde_json::json!({
        "experiment": "recovery_soak",
        "homes": HOMES,
        "shards": SHARDS,
        "resident_cap": HOMES / 4,
        "rounds": ROUNDS,
        "samples_per_round": SAMPLES_PER_ROUND,
        "crash_after": CRASH_AFTER,
        "digest": format!("{:016x}", digest.digest),
        "full_seconds": full_seconds,
        "crash": {
            "digest_identical": crash_identical,
            "recovered_homes": crash_report.recovered,
            "recovery_seconds": recovery_seconds,
            "recovery_speedup": recovery_speedup,
        },
        "transient": {
            "identical": transient_identical,
            "store_retries": transient_retries,
        },
        "rebuild": {
            "identical": rebuild_identical,
            "store_rebuilds": rebuilds,
            "scrub_rebuilt": scrub_rebuilt,
        },
        "quarantine": {
            "corrupted_homes": corrupted,
            "quarantined_homes": quarantined,
            "exact": quarantine_exact,
            "survivors_identical": survivors_identical,
        },
    });
    report
}
