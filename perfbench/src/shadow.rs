//! Shadow replay: the layers inside `FleetService::admit_round*`, timed
//! from outside.
//!
//! A seed-chosen set of shadow homes receives, every round, the chunk the
//! service's generator gives that home, fed to a never-evicted
//! `ThresholdStream` built from the service's own config, so a shadow's
//! checkpoint is byte-identical to the one the service encodes for that
//! home. In a traced pass the shadows also go through every public call
//! the service makes when it evicts (checkpoint, encode, frame, put) and
//! rehydrates (get, remove, unframe, decode, restore), against an
//! in-memory store the benchmark owns, like the service's. The per-call
//! times are multiplied by the service's own per-round counters to
//! attribute the admit time (`metrics::unattributed_frac`).
//!
//! Each home runs its calls as one chain, the way the service does, so
//! every buffer is freed while still hot. Timing each layer as a loop over
//! all shadows instead kept 256 buffers alive per layer and measured
//! 1.1-1.6x the chained cost.

use crate::trace::{clock_cost_ns, Laps, Tracer};
use fleetd::store::{decode_frame, encode_frame};
use fleetd::{codec, CheckpointStore, FleetService, FleetdConfig, MemoryStore};
use std::hint::black_box;
use stream::{Sample, StreamState, ThresholdStream};
use timeseries::rng::derive_seed;

/// The generator signature `FleetService::admit_round_with` takes.
pub trait Gen: Fn(u64, u64, &mut Vec<Sample>) + Sync {}
impl<F: Fn(u64, u64, &mut Vec<Sample>) + Sync> Gen for F {}

/// The replayed calls, in chain order; `STAGES[i]` names stage `i`.
const STAGES: [&str; 11] = [
    "fleetd.gen",
    "stream.feed",
    "stream.checkpoint",
    "fleetd.codec.encode",
    "fleetd.store.frame",
    "fleetd.store.put",
    "fleetd.store.get",
    "fleetd.store.remove",
    "fleetd.store.unframe",
    "fleetd.codec.decode",
    "stream.restore",
];
const GEN: usize = 0;
const FEED: usize = 1;
const CHECKPOINT: usize = 2;
const ENCODE: usize = 3;
const FRAME: usize = 4;
const PUT: usize = 5;
const GET: usize = 6;
const REMOVE: usize = 7;
const UNFRAME: usize = 8;
const DECODE: usize = 9;
const RESTORE: usize = 10;

pub struct Shadows {
    homes: Vec<usize>,
    streams: Vec<ThresholdStream>,
    chunks: Vec<Vec<Sample>>,
    store: MemoryStore,
    clock_ns: u64,
}

/// The seed fleetd hands the generator for `home`.
fn seed_of(cfg: &FleetdConfig, home: usize) -> u64 {
    derive_seed(cfg.root_seed, &format!("home:{home}"))
}

/// `k` distinct homes out of `0..homes`, chosen by `seed`.
pub fn choose(homes: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(homes);
    let mut state = derive_seed(seed, "shadows");
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        chosen.insert(((state >> 33) % homes as u64) as usize);
    }
    chosen.into_iter().collect()
}

impl Shadows {
    pub fn new(cfg: &FleetdConfig, homes: Vec<usize>) -> Shadows {
        Shadows {
            streams: homes
                .iter()
                .map(|_| ThresholdStream::new(cfg.detector.clone(), cfg.spec).with_fill(cfg.fill))
                .collect(),
            chunks: vec![Vec::new(); homes.len()],
            homes,
            store: MemoryStore::new(),
            clock_ns: clock_cost_ns(),
        }
    }

    pub fn homes(&self) -> &[usize] {
        &self.homes
    }

    /// Feeds round `round` to every shadow, untimed.
    pub fn feed(&mut self, cfg: &FleetdConfig, round: u64, gen: &impl Gen) {
        for ((stream, chunk), &home) in self
            .streams
            .iter_mut()
            .zip(&mut self.chunks)
            .zip(&self.homes)
        {
            gen(seed_of(cfg, home), round, chunk);
            stream.feed(chunk);
        }
    }

    /// Feeds round `round` to every shadow. In a traced pass each shadow
    /// then runs the service's eviction and rehydration calls as one
    /// chain, as the service does per home, and each call is timed.
    pub fn round(&mut self, tr: &mut Tracer, cfg: &FleetdConfig, round: u64, gen: &impl Gen) {
        if !tr.detail {
            self.feed(cfg, round, gen);
            return;
        }
        // Frames carry the generation the service stamps on this round.
        let generation = round + 1;
        let k = self.homes.len() as u64;
        let span = tr.open("replay", true);
        let mut laps = Laps::new(STAGES.len(), self.clock_ns);
        for ((stream, chunk), &home) in self
            .streams
            .iter_mut()
            .zip(&mut self.chunks)
            .zip(&self.homes)
        {
            laps.restart();
            gen(seed_of(cfg, home), round, chunk);
            laps.lap(GEN, 0);
            let fed = stream.feed(chunk).items as u64;
            laps.lap(FEED, fed);
            let cp = stream.compact_checkpoint();
            laps.lap(CHECKPOINT, 0);
            let payload = codec::encode(&cp);
            laps.lap(ENCODE, payload.len() as u64);
            let frame = encode_frame(home as u64, generation, &payload);
            laps.lap(FRAME, frame.len() as u64);
            self.store
                .put(home, generation, &frame)
                .expect("shadow store put");
            laps.lap(PUT, frame.len() as u64);
            let stored = self
                .store
                .get(home)
                .expect("shadow store get")
                .expect("frame was just put");
            laps.lap(GET, stored.len() as u64);
            self.store.remove(home);
            laps.lap(REMOVE, 0);
            let unframed = decode_frame(&stored).expect("shadow frame must validate");
            laps.lap(UNFRAME, stored.len() as u64);
            let decoded = codec::decode(&unframed.payload).expect("shadow payload must decode");
            laps.lap(DECODE, unframed.payload.len() as u64);
            black_box(ThresholdStream::from_compact(
                cfg.detector.clone(),
                cfg.spec,
                &decoded,
            ));
            laps.lap(RESTORE, 0);
        }
        tr.close(span, k, 0);
        for (name, &(ns, items)) in STAGES.iter().zip(&laps.totals) {
            tr.layer(name, ns, k, items);
        }
    }

    /// The oracle: every shadow's finalized output equals the service's
    /// for that home. Returns `(attempted, failed)`.
    pub fn check(&self, svc: &FleetService) -> (u64, u64) {
        let failed = self
            .homes
            .iter()
            .zip(&self.streams)
            .filter(|&(&home, stream)| svc.finalize_home(home) != Some(stream.finalize()))
            .count();
        (self.homes.len() as u64, failed as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_is_seeded_distinct_and_bounded() {
        let a = choose(1_000, 256, 3);
        assert_eq!(a.len(), 256);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[255] < 1_000);
        assert_eq!(a, choose(1_000, 256, 3));
        assert_ne!(a, choose(1_000, 256, 4));
        assert_eq!(choose(10, 256, 3), (0..10).collect::<Vec<_>>());
    }
}
