//! The fleet workloads: `synthetic_chunk` readings admitted round by
//! round into a capped `FleetService` with an in-memory store.

use crate::shadow::{self, Gen, Shadows};
use crate::trace::Tracer;
use crate::workload::Checks;
use fleetd::{synthetic_chunk, FleetService, FleetdConfig};

/// Samples each home receives per round.
pub const SAMPLES_PER_ROUND: usize = 30;
/// The residency cap is `homes / CAP_DIVISOR`.
const CAP_DIVISOR: usize = 8;
/// Shadow homes replayed per round.
pub const SHADOWS: usize = 256;

#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub homes: usize,
    /// Timed rounds, after the warm-up round of set-up.
    pub rounds: u64,
}

/// One pass: set up a fresh service, admit every round, read out the
/// digest, and check the shadows.
///
/// Set-up builds the service and admits round 0, the warm-up round that
/// creates every home's stream and fills the store with the first
/// evictions; the timed rounds 1..=`rounds` find every home resident or
/// cold. `FleetService::new` alone allocates 64 empty shards in about
/// 2 µs whatever the fleet size, which times the allocator's free lists
/// rather than the service.
pub fn pass(shape: &FleetShape, seed: u64, tr: &mut Tracer, checks: &mut Checks) {
    let cfg = FleetdConfig {
        resident_cap: Some((shape.homes / CAP_DIVISOR).max(1)),
        root_seed: seed,
        ..FleetdConfig::default()
    };
    let gen = |home_seed: u64, round: u64, out: &mut Vec<_>| {
        synthetic_chunk(home_seed, round, SAMPLES_PER_ROUND, out)
    };
    let setup = tr.open("setup", false);
    let mut svc = FleetService::new(cfg.clone(), shape.homes);
    svc.admit_round_with(0, &gen);
    tr.close(setup, 1, 0);
    let mut shadows = Shadows::new(&cfg, shadow::choose(shape.homes, SHADOWS, seed));
    shadows.feed(&cfg, 0, &gen);

    for round in 1..=shape.rounds {
        tr.round = Some(round as u32);
        let r = tr.open("round", false);
        let path = tr.open("path", false);
        let admitted = admit(tr, &mut svc, round, &gen, SAMPLES_PER_ROUND);
        tr.close(path, admitted.fed, admitted.samples);
        record_round(tr, &svc, &admitted);
        shadows.round(tr, &cfg, round, &gen);
        tr.close(r, 0, 0);
    }
    tr.round = None;
    finish(tr, &svc, &shadows, checks);
}

/// The service's counts for one admitted round.
pub struct Admitted {
    fed: u64,
    samples: u64,
    evictions_before: u64,
    rehydrations_before: u64,
}

/// Admits round `round` inside a `fleetd.admit` span.
pub fn admit(
    tr: &mut Tracer,
    svc: &mut FleetService,
    round: u64,
    gen: &impl Gen,
    samples_per_home: usize,
) -> Admitted {
    let fed = (svc.homes() - svc.quarantined_count()) as u64;
    let admitted = Admitted {
        fed,
        samples: fed * samples_per_home as u64,
        evictions_before: svc.evictions(),
        rehydrations_before: svc.rehydrations(),
    };
    let s = tr.open("fleetd.admit", true);
    svc.admit_round_with(round, gen);
    tr.close(s, admitted.fed, admitted.samples);
    admitted
}

/// Times `memory()`, which the service also walks at the end of every
/// round, and records the round's counters.
pub fn record_round(tr: &mut Tracer, svc: &FleetService, a: &Admitted) {
    let b = tr.open("fleetd.bookkeeping", false);
    std::hint::black_box(svc.memory());
    tr.close(b, 1, 0);
    tr.counters(&[
        ("fed", a.fed),
        ("samples", a.samples),
        ("evictions", svc.evictions() - a.evictions_before),
        ("rehydrations", svc.rehydrations() - a.rehydrations_before),
    ]);
}

/// After the last round: the timed digest, the shadow and quarantine
/// checks, and the memory of both tiers.
pub fn finish(tr: &mut Tracer, svc: &FleetService, shadows: &Shadows, checks: &mut Checks) {
    let s = tr.open("fleetd.digest", false);
    let d = svc.digest();
    tr.close(s, d.homes as u64, 0);
    let (attempted, failed) = shadows.check(svc);
    checks.add(attempted, failed);
    // Without injected faults every checkpoint must round-trip: a home
    // rebuilt from its readings or quarantined means one did not.
    let lost = svc.quarantined_count() as u64 + svc.store_rebuilds();
    checks.add(svc.homes() as u64, lost);
    let mem = svc.memory();
    tr.counters(&[
        ("resident_homes", mem.resident_homes as u64),
        ("resident_bytes", mem.resident_bytes as u64),
        ("cold_homes", mem.cold_homes as u64),
        ("cold_bytes", mem.cold_bytes as u64),
    ]);
}
