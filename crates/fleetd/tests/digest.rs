//! The fleet digest against its definition: FNV-1a over each home's
//! index, series length and label bytes, one byte at a time, folded in
//! home order over the homes `finalize_home` returns. The service folds
//! each home's labels a run at a time; this checks that the two agree on
//! a fleet whose homes are resident, cold, quarantined, fed nothing, and
//! never admitted. CI runs this binary at `RAYON_NUM_THREADS` 1 and 8.

use faults::{FaultPlan, StoreFault};
use fleetd::{synthetic_chunk, FleetDigest, FleetService, FleetdConfig, RecoveryPolicy};
use stream::Sample;

const HOMES: usize = 200;
const ROUNDS: u64 = 4;
/// Four rounds of 360 one-minute samples: a day, so labels mix the night
/// prior's hours with the detector's own decisions.
const SAMPLES: usize = 360;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, v.to_le_bytes())
}

/// The digest by its definition, over homes `0..homes` (an index past
/// the fleet finalizes to `None`, like a never-admitted home).
fn byte_by_byte(svc: &FleetService, homes: usize) -> (u64, usize, u64) {
    let (mut digest, mut folded, mut positives) = (FNV_OFFSET, 0, 0);
    for home in 0..homes {
        let Some(series) = svc.finalize_home(home) else {
            continue;
        };
        let h = fnv_u64(fnv_u64(FNV_OFFSET, home as u64), series.len() as u64);
        let h = fnv_bytes(h, series.labels().iter().map(|&b| b as u8));
        digest = fnv_u64(fnv_u64(digest, home as u64), h);
        folded += 1;
        positives += series.labels().iter().filter(|&&b| b).count() as u64;
    }
    (digest, folded, positives)
}

fn check(svc: &FleetService, ctx: &str) -> FleetDigest {
    let d = svc.digest();
    assert_eq!(
        (d.digest, d.homes, d.positives),
        byte_by_byte(svc, HOMES + 3),
        "{ctx}"
    );
    d
}

/// Every seventh home's meter sends nothing; the rest send a day of
/// synthetic readings.
fn gen(seed: u64, round: u64, out: &mut Vec<Sample>) {
    if seed.is_multiple_of(7) {
        out.clear();
    } else {
        synthetic_chunk(seed, round, SAMPLES, out);
    }
}

fn mixed_fleet() -> FleetService {
    let cfg = FleetdConfig {
        shards: 3,
        resident_cap: Some(40),
        recovery: RecoveryPolicy::Quarantine,
        store_faults: FaultPlan::for_store(vec![
            StoreFault::BitFlip { prob: 0.03 },
            StoreFault::TornWrite { prob: 0.02 },
            // Up to 8 failures against 4 retries: some writes never land.
            StoreFault::Transient {
                prob: 0.05,
                max_failures: 8,
            },
        ]),
        ..FleetdConfig::default()
    };
    let mut svc = FleetService::new(cfg, HOMES);
    let never_admitted = check(&svc, "before round 0");
    assert_eq!(
        (never_admitted.homes, never_admitted.digest),
        (0, FNV_OFFSET)
    );
    for round in 0..ROUNDS {
        svc.admit_round_with(round, &gen);
    }
    // Quarantines the homes whose last frame was corrupted, so that the
    // digest has no unreadable frame to meet.
    svc.scrub_with(&gen);
    svc
}

#[test]
fn digest_equals_the_byte_by_byte_fold_at_any_thread_count() {
    // `RAYON_NUM_THREADS` is process-global, and the harness runs
    // separate `#[test]`s concurrently, so both counts live in this test.
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    let mut digests = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let svc = mixed_fleet();
        let memory = svc.memory();
        let ctx = format!("{threads} threads");
        assert!(memory.resident_homes > 0, "{ctx}: {memory:?}");
        assert!(memory.cold_homes > 0, "{ctx}: {memory:?}");
        assert!(svc.quarantined_count() > 0, "{ctx}: no home quarantined");
        let empty = (0..HOMES).filter(|&home| {
            svc.finalize_home(home)
                .is_some_and(|series| series.is_empty())
        });
        assert!(empty.count() > 0, "{ctx}: every home was fed");
        let d = check(&svc, &ctx);
        assert!(0 < d.positives && d.positives < d.samples, "{ctx}: {d:?}");
        digests.push(d);
    }
    assert_eq!(digests[0], digests[1]);
    match prior {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
