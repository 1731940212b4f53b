//! The `pipeline` workload: homesim readings, a defense, the FHMM
//! disaggregator (NILM), then admission into fleetd, which runs the NIOM
//! threshold detector. One round is one simulated day of every home.

use crate::fleet;
use crate::shadow::{self, Shadows};
use crate::trace::Tracer;
use crate::workload::Checks;
use defense::{BatteryLeveler, Chpr, Defense, DpNoise, NoDefense};
use fleetd::{FleetService, FleetdConfig};
use homesim::{Home, HomeConfig};
use nilm::{DeviceHmm, Disaggregator, Fhmm};
use niom::{OccupancyDetector, ThresholdDetector};
use std::collections::HashMap;
use std::hint::black_box;
use stream::{dense_samples, FhmmStream, Sample, StreamSpec, StreamState};
use timeseries::rng::{derive_seed, seeded_rng};
use timeseries::{PowerTrace, Resolution, Timestamp};

/// One-minute samples per day, i.e. per home and round.
const SAMPLES_PER_DAY: usize = 1_440;
/// Samples per `FhmmStream::feed` call.
const FHMM_CHUNK: usize = 60;
/// Shadow homes: fleetd's shadow replay and the FHMM and NIOM oracles.
const SHADOWS: usize = 32;

#[derive(Debug, Clone, Copy)]
pub struct PipelineShape {
    pub homes: usize,
    /// Rounds, and the days each pool home is simulated for.
    pub rounds: u64,
    /// Simulated homes whose readings the fleet reuses: home `i` reads
    /// `pool[i % pool]`.
    pub pool: usize,
}

/// Four two-state appliances: 16 joint states, decoded by exact Viterbi.
fn fhmm_model() -> Fhmm {
    let device = |name: &str, watts: f64, stay_off: f64, stay_on: f64| DeviceHmm {
        name: name.to_string(),
        state_watts: vec![0.0, watts],
        log_trans: vec![
            vec![stay_off.ln(), (1.0 - stay_off).ln()],
            vec![(1.0 - stay_on).ln(), stay_on.ln()],
        ],
        log_init: vec![0.9f64.ln(), 0.1f64.ln()],
    };
    Fhmm::new(vec![
        device("fridge", 150.0, 0.92, 0.88),
        device("tv", 120.0, 0.96, 0.93),
        device("heater", 1_000.0, 0.97, 0.94),
        device("oven", 2_200.0, 0.995, 0.90),
    ])
}

/// The defense rotation; home `h` in round `r` uses entry `(h + r) % 4`.
fn defenses() -> [Box<dyn Defense>; 4] {
    [
        Box::new(DpNoise::new(1.0)),
        Box::new(Chpr::default()),
        Box::new(BatteryLeveler::default()),
        Box::new(NoDefense),
    ]
}

pub fn pass(shape: &PipelineShape, seed: u64, tr: &mut Tracer, checks: &mut Checks) {
    let homes = shape.homes;
    let pool_len = shape.pool.min(homes);
    let setup = tr.open("setup", false);
    let s = tr.open("homesim.simulate", true);
    let pool: Vec<PowerTrace> = (0..pool_len)
        .map(|i| {
            let config =
                HomeConfig::new(derive_seed(seed, &format!("pool:{i}"))).days(shape.rounds);
            Home::simulate(&config).meter
        })
        .collect();
    let simulated = pool.iter().map(|m| m.len() as u64).sum();
    tr.close(s, pool_len as u64, simulated);

    let s = tr.open("nilm.fhmm.warmup", true);
    let fhmm = fhmm_model();
    black_box(fhmm.disaggregate(&pool[0].day_slice(0)));
    tr.close(s, 1, SAMPLES_PER_DAY as u64);

    let cfg = FleetdConfig {
        resident_cap: None,
        root_seed: seed,
        ..FleetdConfig::default()
    };
    let mut svc = FleetService::new(cfg.clone(), homes);
    // fleetd hands the generator the home's derived seed, not its index.
    let index: HashMap<u64, usize> = (0..homes)
        .map(|h| (derive_seed(seed, &format!("home:{h}")), h))
        .collect();
    assert_eq!(index.len(), homes, "derived home seeds must be distinct");
    tr.close(setup, 1, 0);

    let defenses = defenses();
    let mut shadows = Shadows::new(&cfg, shadow::choose(homes, SHADOWS, seed));
    let mut shadow_days: Vec<Vec<f64>> = vec![Vec::new(); shadows.homes().len()];
    for round in 0..shape.rounds {
        tr.round = Some(round as u32);
        let r = tr.open("round", false);
        let path = tr.open("path", false);
        let days: Vec<PowerTrace> = (0..homes)
            .map(|h| pool[h % pool_len].day_slice(round))
            .collect();
        let mut rngs: Vec<_> = (0..homes)
            .map(|h| seeded_rng(derive_seed(seed, &format!("defense:{h}:{round}"))))
            .collect();

        let s = tr.open("defense.apply", true);
        let defended: Vec<PowerTrace> = days
            .iter()
            .zip(&mut rngs)
            .enumerate()
            .map(|(h, (meter, rng))| defenses[(h + round as usize) % 4].apply(meter, rng).trace)
            .collect();
        tr.close(s, homes as u64, (homes * SAMPLES_PER_DAY) as u64);

        let chunks: Vec<Vec<Sample>> = defended
            .iter()
            .map(|t| dense_samples(t.samples()))
            .collect();
        let s = tr.open("nilm.fhmm.feed", true);
        let streams: Vec<_> = defended
            .iter()
            .zip(&chunks)
            .map(|(trace, samples)| {
                let mut stream = FhmmStream::new(&fhmm, StreamSpec::of_trace(trace));
                for chunk in samples.chunks(FHMM_CHUNK) {
                    stream.feed(chunk);
                }
                stream
            })
            .collect();
        tr.close(s, homes as u64, (homes * SAMPLES_PER_DAY) as u64);

        let s = tr.open("nilm.fhmm.finalize", true);
        let estimates: Vec<_> = streams.iter().map(|s| s.finalize()).collect();
        tr.close(s, homes as u64, 0);

        let gen = |home_seed: u64, _round: u64, out: &mut Vec<Sample>| {
            out.clear();
            out.extend_from_slice(&chunks[index[&home_seed]]);
        };
        let admitted = fleet::admit(tr, &mut svc, round, &gen, SAMPLES_PER_DAY);
        tr.close(path, homes as u64, (homes * SAMPLES_PER_DAY) as u64);
        fleet::record_round(tr, &svc, &admitted);
        shadows.round(tr, &cfg, round, &gen);

        // FHMM oracle: streamed estimates equal the batch decoder's.
        for (i, &h) in shadows.homes().iter().enumerate() {
            let ok = fhmm.disaggregate(&defended[h]) == estimates[h];
            checks.add(1, u64::from(!ok));
            shadow_days[i].extend_from_slice(defended[h].samples());
        }
        drop((streams, estimates));
        tr.close(r, 0, 0);
    }
    tr.round = None;

    fleet::finish(tr, &svc, &shadows, checks);
    // NIOM oracle: fleetd's streamed occupancy equals the batch detector
    // on the whole defended trace.
    let detector = ThresholdDetector::default();
    for (&h, samples) in shadows.homes().iter().zip(shadow_days) {
        let trace = PowerTrace::new(Timestamp::ZERO, Resolution::ONE_MINUTE, samples)
            .expect("defended readings are finite");
        checks.add(
            1,
            u64::from(svc.finalize_home(h) != Some(detector.detect(&trace))),
        );
    }
}
