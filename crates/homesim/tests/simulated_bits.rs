//! Pins every bit [`Home::simulate`] produces.
//!
//! The experiments' golden artifacts cover the simulator only through
//! what their attacks and defenses make of its output. This test folds
//! every `f64` bit of the meter reading, the true aggregate and each
//! device trace of ~60 homes into one FNV-1a digest and compares it with
//! a pinned value, so a change to the renderers that moves any simulated
//! bit fails here first.
//!
//! The homes span the three catalogues (the process-wide
//! `standard_shared`, a fresh `standard` and `figure2`), resolutions of
//! 1, 30, 60 and 900 s, all three personas, one vacation and horizons of
//! 1–9 days. The last four run 14, 3, 20 and 14 days on the shared
//! catalogue, so its always-on renders are reused whole, served as a
//! prefix and grown. A second test simulates homes in parallel and checks
//! them against the same homes simulated one at a time.

use homesim::{Home, HomeConfig, OccupancyModel, Persona, SmartMeter};
use loads::Catalogue;
use rayon::prelude::*;
use timeseries::{PowerTrace, Resolution};

/// The FNV-1a digest of [`homes`], computed with the direct per-slot
/// `LoadModel::average_power` renderer.
const PINNED: u64 = 3_891_168_201_929_582_132;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn trace(&mut self, trace: &PowerTrace) {
        self.bytes(&trace.start().as_secs().to_le_bytes());
        self.bytes(&trace.resolution().as_secs().to_le_bytes());
        self.bytes(&(trace.len() as u64).to_le_bytes());
        for w in trace.samples() {
            self.bytes(&w.to_bits().to_le_bytes());
        }
    }

    fn of(home: &Home) -> u64 {
        let mut fnv = Fnv(FNV_OFFSET);
        fnv.home(home);
        fnv.0
    }

    fn home(&mut self, home: &Home) {
        self.trace(&home.meter);
        self.trace(&home.aggregate);
        self.bytes(&(home.devices.len() as u64).to_le_bytes());
        for device in &home.devices {
            self.bytes(device.name.as_bytes());
            self.trace(&device.trace);
        }
    }
}

fn homes() -> Vec<HomeConfig> {
    let personas = [Persona::Worker, Persona::Homebody, Persona::NightShift];
    let mut homes = Vec::new();
    for i in 0..56u64 {
        let secs = [1, 30, 60, 900][i as usize % 4];
        let resolution = Resolution::from_secs(secs);
        // A one-second home is 86,400 samples a day per trace.
        let days = if secs == 1 { 1 } else { 1 + i * 5 % 9 };
        let catalogue = match i % 3 {
            0 => Catalogue::standard_shared(),
            1 => Catalogue::standard(),
            _ => Catalogue::figure2(),
        };
        let mut occupancy = OccupancyModel::for_persona(personas[(i / 3 % 3) as usize]);
        if i == 21 {
            occupancy = occupancy.with_vacation(1, days - 2);
        }
        homes.push(
            HomeConfig::new(1_000 + i)
                .days(days)
                .resolution(resolution)
                .catalogue(catalogue)
                .occupancy(occupancy)
                .intensity(0.6 + 0.3 * (i % 5) as f64)
                .meter(SmartMeter::new(Resolution::from_secs(secs.max(60)), 15.0)),
        );
    }
    for (i, days) in [14, 3, 20, 14].into_iter().enumerate() {
        homes.push(HomeConfig::new(2_000 + i as u64).days(days));
    }
    homes
}

#[test]
fn simulated_bits_are_pinned() {
    let configs = homes();
    let mut fnv = Fnv(FNV_OFFSET);
    fnv.bytes(&(configs.len() as u64).to_le_bytes());
    for config in &configs {
        fnv.home(&Home::simulate(config));
    }
    assert_eq!(fnv.0, PINNED, "the simulated bits moved");
}

/// 32 homes whose clones of one catalogue race to fill its always-on memo
/// equal, at `RAYON_NUM_THREADS` 1 and 8, the same homes simulated one at
/// a time with a catalogue each.
#[test]
fn parallel_homes_are_the_same_at_any_thread_count() {
    let config = |i: u64, catalogue: Catalogue| {
        HomeConfig::new(3_000 + i)
            .days(1 + i % 5)
            .catalogue(catalogue)
    };
    let alone: Vec<u64> = (0..32)
        .map(|i| Fnv::of(&Home::simulate(&config(i, Catalogue::standard()))))
        .collect();
    // `RAYON_NUM_THREADS` is process-global, and the harness runs
    // separate `#[test]`s concurrently, so both counts live in this test.
    let prior = std::env::var("RAYON_NUM_THREADS").ok();
    for threads in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let catalogue = Catalogue::standard();
        let shared: Vec<u64> = (0..32u64)
            .into_par_iter()
            .map(|i| Fnv::of(&Home::simulate(&config(i, catalogue.clone()))))
            .collect();
        assert_eq!(shared, alone, "{threads} threads");
    }
    match prior {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
