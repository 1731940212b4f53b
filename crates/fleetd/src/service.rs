//! The sharded resident fleet service.
//!
//! A [`FleetService`] owns a fixed number of shards; each home belongs
//! to shard `home % shards` forever and lives in slot `home / shards`
//! of that shard's one vector of 16-byte `Slot`s. A slot says where its
//! home is — **resident** (a live [`ThresholdStream`], measured by
//! [`StreamState::state_bytes`]), **cold** (a CRC-framed,
//! generation-stamped [`codec`](crate::codec) checkpoint in the shard's
//! pluggable [`CheckpointStore`]), awaiting a rebuild, or quarantined —
//! and one method, `Shard::set`, moves a home between them. Admission
//! takes each home in one pass (restore it if cold, feed it, then keep
//! it resident or evict it on the spot), so memory is O(resident cap)
//! live streams plus O(homes) compact checkpoints, during a round as
//! well as between rounds.
//!
//! With [`StoreConfig::Durable`], every round also write-syncs each
//! resident home's frame and commits a fleet [`Manifest`], from which a
//! crashed service is [`recover`](FleetService::recover)ed to continue
//! byte-identically. Transient store failures are retried
//! (`fleetd.store.retries`); unrecoverable records are replayed from
//! re-admitted readings ([`RecoveryPolicy::Rebuild`]) or excluded with
//! their typed [`StoreError`] ([`RecoveryPolicy::Quarantine`]).
//! `docs/FLEET.md` documents the full lifecycle.

use crate::store::{
    self, shard_dir, CheckpointStore, DurableStore, FaultyStore, Manifest, MemoryStore, StoreError,
};
use faults::{FaultPlan, StoreFaultInjector};
use niom::{MeanVariance, ThresholdDetector};
use std::path::PathBuf;
use stream::{Sample, StreamFill, StreamSpec, StreamState, ThresholdStream, WindowCheckpoint};
use timeseries::rng::{derive_seed, home_seed};
use timeseries::{LabelSeries, Resolution, Timestamp};

/// Retries per store write on a transient error.
const MAX_STORE_RETRIES: u32 = 4;

/// Where the fleet keeps its cold-tier checkpoint frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreConfig {
    /// Frames live in process memory (today's behavior; survives
    /// nothing, costs no IO).
    Memory,
    /// Frames live in per-shard directories under `root`, written
    /// atomically, with a round-committed [`Manifest`] — the
    /// crash-recoverable mode.
    Durable {
        /// Fleet root directory (created, or wiped by
        /// [`FleetService::new`], reopened by
        /// [`FleetService::recover`]).
        root: PathBuf,
    },
}

/// What to do with a home whose stored checkpoint is unrecoverable
/// (corrupt frame, stale generation, lost file, persistent IO error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Degraded-mode rebuild: re-derive the home's stream by replaying
    /// its readings for every completed round through the same
    /// generator — byte-identical to the lost state because admission
    /// is a pure function of `(root_seed, home, round)`.
    Rebuild,
    /// Exclude the home from admission and digests, preserving the
    /// typed [`StoreError`] in the quarantine report (the PR 4
    /// supervisor semantics, applied to storage).
    Quarantine,
}

/// Configuration of a resident fleet service.
#[derive(Debug, Clone)]
pub struct FleetdConfig {
    /// Occupancy detector every home runs (Sec. III-B).
    pub detector: ThresholdDetector,
    /// Trace geometry shared by all homes.
    pub spec: StreamSpec,
    /// Causal gap-fill policy for transport gaps in admitted chunks.
    pub fill: StreamFill,
    /// Number of shards. Home → shard assignment is `home % shards`, so
    /// this is part of the deterministic identity of a run — it must
    /// never be derived from thread count.
    pub shards: usize,
    /// Fleet-wide residency cap: at most this many homes keep a live
    /// stream between rounds (each shard keeps its `ceil(cap / shards)`
    /// highest-index live homes, at least one). `None` keeps every home
    /// resident.
    pub resident_cap: Option<usize>,
    /// Root seed from which per-home seeds derive
    /// (`derive_seed(root, "home:<i>")`, computed without allocating by
    /// [`home_seed`] — the fleet engine's scheme).
    pub root_seed: u64,
    /// Cold-tier backend.
    pub store: StoreConfig,
    /// Policy for unrecoverable checkpoints.
    pub recovery: RecoveryPolicy,
    /// Injected storage faults (identity by default). The injector is
    /// seeded `derive_seed(root_seed, "store-faults")` and keys every
    /// decision on `(home, generation)`, so faulted runs stay
    /// deterministic at any thread count.
    pub store_faults: FaultPlan,
}

impl Default for FleetdConfig {
    fn default() -> FleetdConfig {
        FleetdConfig {
            detector: ThresholdDetector::default(),
            spec: StreamSpec::new(Timestamp::ZERO, Resolution::ONE_MINUTE),
            fill: StreamFill::Zero,
            shards: 64,
            resident_cap: None,
            root_seed: 7,
            store: StoreConfig::Memory,
            recovery: RecoveryPolicy::Rebuild,
            store_faults: FaultPlan::default(),
        }
    }
}

impl FleetdConfig {
    fn shard_cap(&self) -> Option<usize> {
        self.resident_cap
            .map(|cap| (cap.div_ceil(self.shards)).max(1))
    }

    fn durable_root(&self) -> Option<&PathBuf> {
        match &self.store {
            StoreConfig::Memory => None,
            StoreConfig::Durable { root } => Some(root),
        }
    }

    /// A home's stream before its first reading.
    fn fresh_stream(&self) -> ThresholdStream {
        ThresholdStream::new(self.detector.clone(), self.spec).with_fill(self.fill)
    }

    /// The manifest of a fleet of `homes` run under this config.
    fn manifest(&self, homes: usize, rounds: u64, shard_samples: Vec<u64>) -> Manifest {
        Manifest {
            homes: homes as u64,
            shards: self.shards as u64,
            rounds,
            root_seed: self.root_seed,
            window: self.detector.window as u64,
            fill: match self.fill {
                StreamFill::Zero => 0,
                StreamFill::Hold => 1,
            },
            start: self.spec.start.0,
            resolution: self.spec.resolution.as_secs() as u64,
            shard_samples,
        }
    }

    /// Builds shard `idx`'s store stack: the configured backend, fault-
    /// wrapped when the plan injects store faults.
    fn make_store(&self, idx: usize) -> std::io::Result<Box<dyn CheckpointStore>> {
        let base: Box<dyn CheckpointStore> = match &self.store {
            StoreConfig::Memory => Box::new(MemoryStore::for_shard(idx, self.shards)),
            StoreConfig::Durable { root } => Box::new(DurableStore::open(shard_dir(root, idx))?),
        };
        if self.store_faults.store_faults.is_empty() {
            return Ok(base);
        }
        let injector = StoreFaultInjector::new(
            &self.store_faults,
            derive_seed(self.root_seed, "store-faults"),
        );
        Ok(Box::new(FaultyStore::new(base, injector)))
    }
}

/// Point-in-time memory accounting of the fleet, split by tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Homes currently holding a live stream.
    pub resident_homes: usize,
    /// Homes currently evicted to an encoded checkpoint frame.
    pub cold_homes: usize,
    /// Bytes of live stream state ([`StreamState::state_bytes`] summed).
    pub resident_bytes: usize,
    /// Bytes of encoded cold checkpoint frames (header + CRC included).
    pub cold_bytes: usize,
}

impl MemoryStats {
    /// Total tracked bytes across both tiers.
    pub fn total_bytes(&self) -> usize {
        self.resident_bytes + self.cold_bytes
    }

    /// Mean tracked bytes per home (0 for an empty fleet).
    pub fn bytes_per_home(&self) -> f64 {
        let homes = self.resident_homes + self.cold_homes;
        if homes == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / homes as f64
    }
}

/// Digest of every home's finalized occupancy series, folded in home
/// index order. Two services that processed the same readings, at any
/// thread count and with any eviction history, give equal digests when
/// every home's output is byte-identical; a differing output changes the
/// digest except on an FNV collision. Quarantined homes are excluded
/// (and reduce [`FleetDigest::homes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetDigest {
    /// Homes folded into the digest.
    pub homes: usize,
    /// Samples admitted across the fleet (gap-withheld ones included).
    pub samples: u64,
    /// Occupied labels across every home's finalized series.
    pub positives: u64,
    /// FNV-1a fold over `(home index, series length, labels)`.
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_byte(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = fnv_byte(h, b);
    }
    h
}

/// `(p^n, C_n)` for a run of `n` one bytes: FNV-1a maps an even state
/// `h` to `p^n·h + C_n` and an odd one to `p^n·h − C_n` (`p` is
/// [`FNV_PRIME`]). A one byte XORs `h` to `h + 1` if `h` is even and
/// `h − 1` if odd, and the odd prime keeps that sum's parity, so every
/// one byte flips the state's parity and the sign alternates. Composed
/// by doubling over `n`'s bits, from `C_{2m} = C_m·(p^m + (−1)^m)` and
/// `C_{m+1} = p·(C_m + (−1)^m)`: O(log n) multiplications.
fn one_run_map(n: usize) -> (u64, u64) {
    let (mut pow, mut c, mut odd) = (1u64, 0u64, false);
    for bit in (0..usize::BITS - n.leading_zeros()).rev() {
        c = c.wrapping_mul(if odd {
            pow.wrapping_sub(1)
        } else {
            pow.wrapping_add(1)
        });
        pow = pow.wrapping_mul(pow);
        odd = n >> bit & 1 == 1;
        if odd {
            // The doubled length is even: the next byte adds.
            c = FNV_PRIME.wrapping_mul(c.wrapping_add(1));
            pow = pow.wrapping_mul(FNV_PRIME);
        }
    }
    (pow, c)
}

/// FNV-1a over `n` copies of the label byte `label as u8`, from state
/// `h`: one affine map instead of `n` byte steps. A run of zero bytes is
/// `h·p^n`; a run of ones is [`one_run_map`]'s.
fn fnv_run(h: u64, label: bool, n: usize) -> u64 {
    let (pow, c) = one_run_map(n);
    let scaled = h.wrapping_mul(pow);
    match (label, h & 1 == 0) {
        (false, _) => scaled,
        (true, true) => scaled.wrapping_add(c),
        (true, false) => scaled.wrapping_sub(c),
    }
}

/// Length of the run of `label` that `labels` starts with, compared 16
/// labels at a time.
fn run_len(labels: &[bool], label: bool) -> usize {
    const LANES: usize = 16;
    let whole = LANES
        * labels
            .chunks_exact(LANES)
            .take_while(|c| **c == [label; LANES])
            .count();
    let tail = &labels[whole..];
    whole + tail.iter().position(|&b| b != label).unwrap_or(tail.len())
}

/// FNV-1a over `labels` as bytes (0 or 1) from state `h`, one
/// [`fnv_run`] per run of equal labels, and the number of `true` labels.
/// Equal to folding [`fnv_byte`] over every label.
fn fnv_labels(mut h: u64, labels: &[bool]) -> (u64, u64) {
    let (mut rest, mut positives) = (labels, 0);
    while let Some(&label) = rest.first() {
        let n = run_len(rest, label);
        h = fnv_run(h, label, n);
        positives += if label { n as u64 } else { 0 };
        rest = &rest[n..];
    }
    (h, positives)
}

/// What [`FleetService::recover`] found in the durable store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Homes whose frame validated at the manifest generation.
    pub recovered: usize,
    /// Homes scheduled for degraded-mode rebuild (replayed on their
    /// next admission, or by [`FleetService::scrub`]).
    pub scheduled_rebuilds: usize,
    /// Homes quarantined with their typed error, home order.
    pub quarantined: Vec<(usize, StoreError)>,
}

/// Why [`FleetService::recover`] could not reopen a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The config's store is [`StoreConfig::Memory`] — nothing to
    /// recover from.
    NotDurable,
    /// The manifest is missing, unreadable, or fails validation.
    Manifest(String),
    /// A shard store could not be opened.
    Io(String),
    /// The manifest disagrees with the config on a field that is part
    /// of the fleet's deterministic identity.
    ConfigMismatch {
        /// Disagreeing field: `"shards"`, `"root_seed"`, `"window"`,
        /// `"fill"`, `"start"` or `"resolution"`.
        field: &'static str,
        /// Value recorded in the manifest.
        manifest: u64,
        /// Value in the supplied config.
        config: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NotDurable => write!(f, "config has no durable store to recover from"),
            RecoverError::Manifest(detail) => write!(f, "manifest unusable: {detail}"),
            RecoverError::Io(detail) => write!(f, "shard store unusable: {detail}"),
            RecoverError::ConfigMismatch {
                field,
                manifest,
                config,
            } => write!(
                f,
                "config {field} = {config} but durable fleet was written with {manifest}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Where one home of a shard is. The payloads are boxed so that a slot
/// is 16 B (`slot_is_16_bytes`).
#[derive(Debug)]
enum Slot {
    /// A live stream.
    Resident(Box<ThresholdStream>),
    /// The home's frame is in the store, or, before its first admission,
    /// it has no state at all.
    Cold,
    /// The home's record was lost: its readings are replayed on its next
    /// admission or scrub.
    Rebuild,
    /// Excluded from admission and digests, with the error that
    /// excluded it.
    Quarantined(Box<StoreError>),
}

/// One shard: a [`Slot`] per home, the pluggable cold store, and
/// lifecycle counters. Shard `first` of `stride` holds homes
/// `first, first + stride, …`; home `first + local * stride` is in
/// `slots[local]`, and only [`set`](Shard::set) changes a slot.
#[derive(Debug)]
struct Shard {
    first: usize,
    stride: usize,
    slots: Vec<Slot>,
    cold: Box<dyn CheckpointStore>,
    quarantined: usize,
    samples: u64,
    evictions: u64,
    rehydrations: u64,
    rebuilds: u64,
    retries: u64,
}

impl Shard {
    /// Shard `index` of a fleet of `homes` homes, every home cold.
    fn new(index: usize, homes: usize, cfg: &FleetdConfig) -> std::io::Result<Shard> {
        let len = homes.saturating_sub(index).div_ceil(cfg.shards);
        Ok(Shard {
            first: index,
            stride: cfg.shards,
            slots: (0..len).map(|_| Slot::Cold).collect(),
            cold: cfg.make_store(index)?,
            quarantined: 0,
            samples: 0,
            evictions: 0,
            rehydrations: 0,
            rebuilds: 0,
            retries: 0,
        })
    }

    fn home(&self, local: usize) -> usize {
        self.first + local * self.stride
    }

    /// Moves home `local` to `slot` and returns where it was: the one
    /// place a home changes state.
    fn set(&mut self, local: usize, slot: Slot) -> Slot {
        let quarantined = matches!(slot, Slot::Quarantined(_));
        let old = std::mem::replace(&mut self.slots[local], slot);
        self.quarantined =
            self.quarantined + quarantined as usize - matches!(old, Slot::Quarantined(_)) as usize;
        old
    }

    /// Re-derives `home`'s stream by replaying every completed round
    /// (`0..rounds`) through the admission generator — the degraded-
    /// mode rebuild. Byte-identical to the lost state because chunk
    /// generation is a pure function of `(root_seed, home, round)`.
    fn rebuild<F>(
        &mut self,
        home: usize,
        rounds: u64,
        cfg: &FleetdConfig,
        gen: &F,
    ) -> Box<ThresholdStream>
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        self.rebuilds += 1;
        obs::counter_add("fleetd.store.rebuilds", 1);
        let mut stream = cfg.fresh_stream();
        let seed = home_seed(cfg.root_seed, home);
        let mut chunk = Vec::new();
        for round in 0..rounds {
            gen(seed, round, &mut chunk);
            stream.feed(&chunk);
        }
        Box::new(stream)
    }

    fn quarantine(&mut self, local: usize, err: StoreError) {
        obs::counter_add("fleetd.store.quarantined", 1);
        self.cold.remove(self.home(local));
        self.set(local, Slot::Quarantined(Box::new(err)));
    }

    /// Frames `cp` at `write_gen` and puts it in the store, retrying a
    /// transient error immediately up to [`MAX_STORE_RETRIES`] times. A
    /// home whose frame cannot be written even after retries is
    /// quarantined with the write error. Returns whether the write
    /// landed.
    fn write(&mut self, local: usize, write_gen: u64, cp: &WindowCheckpoint<MeanVariance>) -> bool {
        let home = self.home(local);
        let mut frame = store::frame_checkpoint(home as u64, write_gen, cp);
        let mut attempt = 0;
        let err = loop {
            match self.cold.put_owned(home, write_gen, &mut frame) {
                Ok(()) => return true,
                Err(e) if e.is_transient() && attempt < MAX_STORE_RETRIES => {
                    attempt += 1;
                    self.retries += 1;
                    obs::counter_add("fleetd.store.retries", 1);
                }
                Err(e) => break e,
            }
        };
        self.quarantine(local, err);
        false
    }

    /// Takes home `local`'s live stream for the admission of `round`:
    /// out of its slot, restored from its frame (the decoded vectors
    /// move into the stream), rebuilt, or started fresh. The slot is
    /// left cold. `None` iff the home is, or ended up, quarantined.
    fn take_stream<F>(
        &mut self,
        local: usize,
        round: u64,
        cfg: &FleetdConfig,
        gen: &F,
    ) -> Option<Box<ThresholdStream>>
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        if let Slot::Quarantined(_) = self.slots[local] {
            return None;
        }
        let home = self.home(local);
        match self.set(local, Slot::Cold) {
            Slot::Resident(stream) => return Some(stream),
            Slot::Rebuild => return Some(self.rebuild(home, round, cfg, gen)),
            Slot::Cold | Slot::Quarantined(_) => {}
        }
        // Every branch below drops the stored record, so read it with
        // `take`; the explicit remove on the error branch covers a failed
        // `take`.
        let err = match self.cold.take(home) {
            Ok(Some(bytes)) => {
                match store::validate_frame(&bytes, home, round, cfg.detector.window) {
                    Ok(cp) => {
                        self.rehydrations += 1;
                        let (detector, spec) = (cfg.detector.clone(), cfg.spec);
                        let stream = ThresholdStream::from_compact_owned(detector, spec, cp);
                        return Some(Box::new(stream));
                    }
                    Err(err) => err,
                }
            }
            // Rounds are sequential from 0 and every home is fed every
            // round, so a missing frame after round 0 is a lost record.
            Ok(None) if round == 0 => return Some(Box::new(cfg.fresh_stream())),
            Ok(None) => StoreError::Missing { home },
            Err(err) => err,
        };
        match cfg.recovery {
            RecoveryPolicy::Rebuild => {
                self.cold.remove(home);
                Some(self.rebuild(home, round, cfg, gen))
            }
            RecoveryPolicy::Quarantine => {
                self.quarantine(local, err);
                None
            }
        }
    }

    /// Evicts home `local`, whose slot is cold: consumes its stream into
    /// a frame at `write_gen` and puts it in the store. A home whose
    /// write fails has lost its durable copy *and* its live stream.
    fn evict(&mut self, local: usize, stream: ThresholdStream, write_gen: u64) {
        if self.write(local, write_gen, &stream.into_compact()) {
            self.evictions += 1;
        }
    }

    /// Write-syncs every resident home's frame at `write_gen` (durable
    /// mode only): after this, the store holds a current frame for
    /// every non-quarantined home, which is what makes the round
    /// recoverable.
    fn sync_resident(&mut self, write_gen: u64) {
        for local in 0..self.slots.len() {
            if let Slot::Resident(stream) = &self.slots[local] {
                let cp = stream.compact_checkpoint();
                self.write(local, write_gen, &cp);
            }
        }
    }

    /// Feeds this round's chunk to every non-quarantined home of the
    /// shard in one pass per home, highest index first: take the home's
    /// stream, feed it, then keep it resident while fewer than the
    /// shard's cap of homes are, or evict it straight away. Walking
    /// downwards leaves the highest-index homes that end the round live
    /// resident, however many were quarantined on the way. In durable
    /// mode the kept homes are then write-synced.
    fn admit_round<F>(&mut self, round: u64, cfg: &FleetdConfig, gen: &F)
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        let write_gen = round + 1;
        let cap = cfg.shard_cap().unwrap_or(usize::MAX);
        let mut kept = 0;
        let mut chunk = Vec::new();
        for local in (0..self.slots.len()).rev() {
            let Some(mut stream) = self.take_stream(local, round, cfg, gen) else {
                continue;
            };
            let seed = home_seed(cfg.root_seed, self.home(local));
            gen(seed, round, &mut chunk);
            self.samples += stream.feed(&chunk).items as u64;
            if kept < cap {
                kept += 1;
                self.set(local, Slot::Resident(stream));
            } else {
                self.evict(local, *stream, write_gen);
            }
        }
        if cfg.durable_root().is_some() {
            self.sync_resident(write_gen);
        }
    }

    /// Checks the frame of every cold home, and of every home awaiting a
    /// rebuild, at `expected_gen`. A home whose record is unrecoverable
    /// is marked for rebuild or quarantined, per the policy. Returns
    /// `(frames that validated, homes that failed)`.
    fn validate(&mut self, expected_gen: u64, cfg: &FleetdConfig) -> (usize, usize) {
        let (mut valid, mut failed) = (0, 0);
        for local in 0..self.slots.len() {
            let absent_ok = match self.slots[local] {
                Slot::Resident(_) | Slot::Quarantined(_) => continue,
                Slot::Cold => expected_gen == 0,
                Slot::Rebuild => false,
            };
            let home = self.home(local);
            let verdict = match self.load(home, expected_gen, cfg) {
                Ok(None) if !absent_ok => Err(StoreError::Missing { home }),
                verdict => verdict,
            };
            match (verdict, cfg.recovery) {
                (Ok(cp), _) => {
                    valid += cp.is_some() as usize;
                    self.set(local, Slot::Cold);
                    continue;
                }
                (Err(_), RecoveryPolicy::Rebuild) => {
                    self.cold.remove(home);
                    self.set(local, Slot::Rebuild);
                }
                (Err(err), RecoveryPolicy::Quarantine) => self.quarantine(local, err),
            }
            failed += 1;
        }
        (valid, failed)
    }

    /// [`validate`](Self::validate)s the shard at `expected_gen`, then
    /// rebuilds every home awaiting a rebuild into resident state rather
    /// than re-writing its frame: store-fault decisions are
    /// deterministic per (home, generation), so a re-put at the same
    /// generation would be corrupted identically. Degraded mode holds
    /// the home in memory — possibly above the residency cap — until the
    /// next round evicts it at a fresh generation. Returns
    /// `(rebuilt, newly_quarantined)`.
    fn scrub<F>(&mut self, expected_gen: u64, cfg: &FleetdConfig, gen: &F) -> (usize, usize)
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        let (_, failed) = self.validate(expected_gen, cfg);
        let mut rebuilt = 0;
        for local in 0..self.slots.len() {
            if let Slot::Rebuild = self.slots[local] {
                let stream = self.rebuild(self.home(local), expected_gen, cfg, gen);
                self.set(local, Slot::Resident(stream));
                rebuilt += 1;
            }
        }
        // Under `Rebuild` every home that failed was just rebuilt, under
        // `Quarantine` every one was quarantined.
        (rebuilt, failed - rebuilt)
    }

    /// Home `local`'s finalized series, without mutating the shard:
    /// `None` if it is quarantined, awaiting a rebuild, or was never
    /// admitted. A cold home is decoded into a transient stream; an
    /// unreadable or invalid frame is the error.
    fn finalize(
        &self,
        local: usize,
        expected_gen: u64,
        cfg: &FleetdConfig,
    ) -> Result<Option<LabelSeries>, StoreError> {
        match &self.slots[local] {
            Slot::Resident(stream) => Ok(Some(stream.finalize())),
            Slot::Rebuild | Slot::Quarantined(_) => Ok(None),
            Slot::Cold => Ok(self.load(self.home(local), expected_gen, cfg)?.map(|cp| {
                ThresholdStream::from_compact_owned(cfg.detector.clone(), cfg.spec, cp).finalize()
            })),
        }
    }

    /// `home`'s stored checkpoint, validated at `expected_gen`, or `None`
    /// if it has no frame.
    fn load(
        &self,
        home: usize,
        expected_gen: u64,
        cfg: &FleetdConfig,
    ) -> Result<Option<WindowCheckpoint<MeanVariance>>, StoreError> {
        let Some(bytes) = self.cold.get(home)? else {
            return Ok(None);
        };
        store::validate_frame(&bytes, home, expected_gen, cfg.detector.window).map(Some)
    }
}

/// A long-lived, sharded fleet of streaming occupancy detectors — see
/// the [crate docs](crate) and `docs/FLEET.md` for the architecture and
/// the recovery lifecycle.
///
/// # Examples
///
/// Admit three rounds to a small capped fleet and check the digest
/// against an always-resident run:
///
/// ```
/// use fleetd::{synthetic_chunk, FleetService, FleetdConfig};
///
/// let capped = FleetdConfig { resident_cap: Some(8), ..FleetdConfig::default() };
/// let mut a = FleetService::new(capped, 100);
/// let mut b = FleetService::new(FleetdConfig::default(), 100);
/// for round in 0..3 {
///     a.admit_round(round, 30);
///     b.admit_round(round, 30);
/// }
/// assert!(a.memory().cold_homes > 0);
/// assert_eq!(a.digest(), b.digest()); // eviction is invisible to output
/// ```
#[derive(Debug)]
pub struct FleetService {
    cfg: FleetdConfig,
    homes: usize,
    shards: Vec<Shard>,
    rounds: u64,
}

impl FleetService {
    /// Creates a service managing homes `0..homes`. No stream state is
    /// allocated until a home's first admitted chunk.
    ///
    /// A durable config **initializes a fresh fleet**: any existing
    /// state under the root directory is removed and a zero-round
    /// manifest committed. Use [`recover`](Self::recover) to resume an
    /// interrupted fleet instead.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` is zero, or if a durable root cannot be
    /// created and written.
    pub fn new(cfg: FleetdConfig, homes: usize) -> FleetService {
        assert!(cfg.shards > 0, "a fleet needs at least one shard");
        if let Some(root) = cfg.durable_root() {
            if root.exists() {
                std::fs::remove_dir_all(root).expect("stale fleet root must be removable");
            }
        }
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(i, homes, &cfg).expect("fleet store must be writable"))
            .collect();
        let svc = FleetService {
            cfg,
            homes,
            shards,
            rounds: 0,
        };
        svc.commit_manifest();
        svc
    }

    /// Reopens a durable fleet from its manifest and per-shard frames,
    /// validating every home's record at the committed generation.
    ///
    /// Frames that fail validation (torn, bit-flipped, stale, or from a
    /// round whose manifest commit never landed) follow
    /// `cfg.recovery`: rebuild scheduling or quarantine, itemized in
    /// the returned [`RecoveryReport`]. The recovered service continues
    /// with `admit_round(rounds(), ..)` and produces output
    /// byte-identical to a never-interrupted run.
    ///
    /// # Errors
    ///
    /// [`RecoverError`] if the config is not durable, the manifest is
    /// missing or invalid, a shard store cannot be opened, or the
    /// manifest disagrees with the config on a field it records (see
    /// [`Manifest`]).
    pub fn recover(cfg: FleetdConfig) -> Result<(FleetService, RecoveryReport), RecoverError> {
        let _span = obs::span("fleetd.recover");
        let root = cfg.durable_root().ok_or(RecoverError::NotDurable)?.clone();
        let manifest = Manifest::read(&root)
            .map_err(RecoverError::Manifest)?
            .ok_or_else(|| RecoverError::Manifest("no manifest file".into()))?;
        let config = cfg.manifest(0, 0, Vec::new());
        for (field, found, want) in [
            ("shards", manifest.shards, config.shards),
            ("root_seed", manifest.root_seed, config.root_seed),
            ("window", manifest.window, config.window),
            ("fill", manifest.fill, config.fill),
            ("start", manifest.start, config.start),
            ("resolution", manifest.resolution, config.resolution),
        ] {
            if found != want {
                return Err(RecoverError::ConfigMismatch {
                    field,
                    manifest: found,
                    config: want,
                });
            }
        }
        if manifest.shard_samples.len() != cfg.shards {
            return Err(RecoverError::Manifest(format!(
                "manifest has {} shard sample counters for {} shards",
                manifest.shard_samples.len(),
                cfg.shards
            )));
        }
        let homes = manifest.homes as usize;
        let rounds = manifest.rounds;
        let mut shards = (0..cfg.shards)
            .map(|i| Shard::new(i, homes, &cfg))
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| RecoverError::Io(e.to_string()))?;
        for (shard, &samples) in shards.iter_mut().zip(&manifest.shard_samples) {
            shard.samples = samples;
        }
        // Validate every home's frame at the committed generation, in
        // parallel by shard; the verdicts are pure functions of the
        // stored bytes, so the report is thread-count independent.
        let checked = rayon::parallel_map(shards, |mut shard| {
            let counts = shard.validate(rounds, &cfg);
            (shard, counts)
        });
        let mut report = RecoveryReport::default();
        let mut failed = 0;
        let shards = checked
            .into_iter()
            .map(|(shard, (valid, bad))| {
                report.recovered += valid;
                failed += bad;
                shard
            })
            .collect();
        if cfg.recovery == RecoveryPolicy::Rebuild {
            report.scheduled_rebuilds = failed;
        }
        let svc = FleetService {
            cfg,
            homes,
            shards,
            rounds,
        };
        report.quarantined = svc.quarantined();
        obs::gauge_set("fleetd.recovered_homes", report.recovered as f64);
        Ok((svc, report))
    }

    /// The service's configuration.
    pub fn config(&self) -> &FleetdConfig {
        &self.cfg
    }

    /// Homes managed (resident + cold + never-admitted + quarantined).
    pub fn homes(&self) -> usize {
        self.homes
    }

    /// Admission rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Admits one round of [`synthetic_chunk`](crate::synthetic_chunk)
    /// readings (`samples_per_home` each), shards in parallel.
    pub fn admit_round(&mut self, round: u64, samples_per_home: usize) {
        self.admit_round_with(round, &|seed, round, out| {
            crate::gen::synthetic_chunk(seed, round, samples_per_home, out)
        });
    }

    /// Admits one round with a caller-supplied chunk generator, run as
    /// `gen(home_seed, round, &mut chunk)` per home. Shards run in
    /// parallel; within a shard homes are fed in index order, so fleet
    /// state after the round is independent of thread count. Rounds are
    /// sequential from 0 — in degraded mode the generator is also what
    /// replays a lost home's completed rounds, so it must be the same
    /// function every round.
    ///
    /// # Panics
    ///
    /// Panics if `round` is not [`rounds`](Self::rounds), the next round:
    /// every frame is written, and every cold frame is expected, at the
    /// generation the round counter gives, so a skipped or repeated
    /// round would fail every cold home as stale.
    pub fn admit_round_with<F>(&mut self, round: u64, gen: &F)
    where
        F: Fn(u64, u64, &mut Vec<Sample>) + Sync,
    {
        assert!(
            round == self.rounds,
            "round {round} admitted out of order: {} rounds are complete, so the next is round {}",
            self.rounds,
            self.rounds
        );
        let _span = obs::span("fleetd.admit");
        let cfg = &self.cfg;
        self.shards = rayon::parallel_map(std::mem::take(&mut self.shards), |mut shard| {
            shard.admit_round(round, cfg, gen);
            shard
        });
        self.finish_round();
    }

    /// Validates every cold home's frame at the current round counter,
    /// rebuilding or quarantining anything unrecoverable per the
    /// recovery policy. Returns `(rebuilt, newly_quarantined)`. Run
    /// this before digesting a fleet whose final round may have written
    /// corrupted frames (injected store faults), and after a
    /// [`recover`](Self::recover) that scheduled rebuilds if no further
    /// rounds will be admitted.
    pub fn scrub_with<F>(&mut self, gen: &F) -> (usize, usize)
    where
        F: Fn(u64, u64, &mut Vec<Sample>) + Sync,
    {
        let _span = obs::span("fleetd.scrub");
        let (cfg, rounds) = (&self.cfg, self.rounds);
        let results = rayon::parallel_map(std::mem::take(&mut self.shards), |mut shard| {
            let counts = shard.scrub(rounds, cfg, gen);
            (shard, counts)
        });
        let (mut rebuilt, mut quarantined) = (0, 0);
        for (shard, (r, q)) in results {
            rebuilt += r;
            quarantined += q;
            self.shards.push(shard);
        }
        (rebuilt, quarantined)
    }

    /// [`scrub_with`](Self::scrub_with) over the default
    /// [`synthetic_chunk`](crate::synthetic_chunk) generator at
    /// `samples_per_home` per round (must match what
    /// [`admit_round`](Self::admit_round) was called with).
    pub fn scrub(&mut self, samples_per_home: usize) -> (usize, usize) {
        self.scrub_with(&|seed, round, out| {
            crate::gen::synthetic_chunk(seed, round, samples_per_home, out)
        })
    }

    fn commit_manifest(&self) {
        let Some(root) = self.cfg.durable_root() else {
            return;
        };
        let samples = self.shards.iter().map(|s| s.samples).collect();
        self.cfg
            .manifest(self.homes, self.rounds, samples)
            .write(root)
            .expect("fleet manifest must be writable");
    }

    fn finish_round(&mut self) {
        self.rounds += 1;
        self.commit_manifest();
        obs::counter_add("fleetd.rounds", 1);
        obs::gauge_set("fleetd.samples", self.samples() as f64);
        obs::gauge_set("fleetd.evictions", self.evictions() as f64);
        obs::gauge_set("fleetd.rehydrations", self.rehydrations() as f64);
        obs::gauge_set("fleetd.quarantined_homes", self.quarantined_count() as f64);
        // Walking every slot costs ~3.4 ms a round at 3x10^5 homes (one
        // core of a 2-vCPU Xeon) and feeds nothing but these gauges,
        // which record nothing while the registry is off.
        if obs::is_enabled() {
            let mem = self.memory();
            obs::gauge_set("fleetd.resident_homes", mem.resident_homes as f64);
            obs::gauge_set("fleetd.resident_bytes", mem.resident_bytes as f64);
            obs::gauge_set("fleetd.cold_bytes", mem.cold_bytes as f64);
        }
    }

    /// Evicts every resident home to its checkpoint frame — the
    /// steady-state floor of the memory model. Frames are written at
    /// the current round counter, so a following
    /// [`recover`](Self::recover) sees them as current.
    pub fn evict_all(&mut self) {
        for shard in &mut self.shards {
            for local in 0..shard.slots.len() {
                if let Slot::Resident(_) = shard.slots[local] {
                    if let Slot::Resident(stream) = shard.set(local, Slot::Cold) {
                        shard.evict(local, *stream, self.rounds);
                    }
                }
            }
        }
    }

    /// Measures both memory tiers. Resident streams are measured by
    /// [`StreamState::state_bytes`]; cold homes by stored frame length
    /// (in durable mode resident homes also have a synced frame, which
    /// is not double-counted here — it is disk, not memory). The
    /// per-home bookkeeping, a 16 B slot and the store's entry, is not
    /// counted.
    pub fn memory(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for shard in &self.shards {
            for (local, slot) in shard.slots.iter().enumerate() {
                match slot {
                    Slot::Resident(stream) => {
                        stats.resident_homes += 1;
                        stats.resident_bytes += stream.state_bytes();
                    }
                    Slot::Cold => {
                        if let Some(len) = shard.cold.stored_len(shard.home(local)) {
                            stats.cold_homes += 1;
                            stats.cold_bytes += len;
                        }
                    }
                    Slot::Rebuild | Slot::Quarantined(_) => {}
                }
            }
        }
        stats
    }

    /// Samples admitted across the fleet so far.
    pub fn samples(&self) -> u64 {
        self.shards.iter().map(|s| s.samples).sum()
    }

    /// Checkpoints evicted so far (a home can be evicted many times).
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    /// Cold checkpoints decoded back to live streams so far.
    pub fn rehydrations(&self) -> u64 {
        self.shards.iter().map(|s| s.rehydrations).sum()
    }

    /// Store writes retried after a transient error so far.
    pub fn store_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.retries).sum()
    }

    /// Homes rebuilt in degraded mode so far.
    pub fn store_rebuilds(&self) -> u64 {
        self.shards.iter().map(|s| s.rebuilds).sum()
    }

    /// Quarantined homes with their typed errors, in home order — the
    /// storage analogue of the supervisor's quarantine report, and
    /// deterministic at any thread count.
    pub fn quarantined(&self) -> Vec<(usize, StoreError)> {
        let shards = self.cfg.shards;
        (0..self.homes)
            .filter_map(
                |home| match &self.shards[home % shards].slots[home / shards] {
                    Slot::Quarantined(err) => Some((home, (**err).clone())),
                    _ => None,
                },
            )
            .collect()
    }

    /// Number of quarantined homes.
    pub fn quarantined_count(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined).sum()
    }

    /// Finalizes one home's occupancy series without mutating the fleet
    /// (`None` if the home was never admitted a chunk, is quarantined
    /// or awaits a rebuild, or its frame fails validation).
    pub fn finalize_home(&self, home: usize) -> Option<LabelSeries> {
        if home >= self.homes {
            return None;
        }
        let (shard, local) = (&self.shards[home % self.cfg.shards], home / self.cfg.shards);
        shard.finalize(local, self.rounds, &self.cfg).ok().flatten()
    }

    /// Finalizes every admitted, non-quarantined home (in parallel,
    /// shard by shard) and folds the outputs into a [`FleetDigest`] in
    /// home-index order. Panics on a cold frame that fails validation:
    /// [`scrub`](Self::scrub) first if store faults may have corrupted
    /// frames since the last admission.
    pub fn digest(&self) -> FleetDigest {
        let _span = obs::span("fleetd.digest");
        let (cfg, rounds) = (&self.cfg, self.rounds);
        // Per shard, by slot: each home's hash and positive labels.
        let per_shard = rayon::parallel_map(self.shards.iter().collect(), |shard: &Shard| {
            (0..shard.slots.len())
                .map(|local| {
                    let home = shard.home(local);
                    let series = shard.finalize(local, rounds, cfg).unwrap_or_else(|e| {
                        panic!("cold frame for home {home} unrecoverable ({e}); scrub first")
                    })?;
                    let h = fnv_u64(fnv_u64(FNV_OFFSET, home as u64), series.len() as u64);
                    Some(fnv_labels(h, series.labels()))
                })
                .collect::<Vec<_>>()
        });
        // Home `local * shards + i` is slot `local` of shard `i`, so
        // walking slots across shards visits homes in index order.
        let (mut digest, mut homes, mut positives) = (FNV_OFFSET, 0, 0);
        for local in 0..self.homes.div_ceil(cfg.shards) {
            for (i, slots) in per_shard.iter().enumerate() {
                if let Some(&Some((h, p))) = slots.get(local) {
                    digest = fnv_u64(digest, (local * cfg.shards + i) as u64);
                    digest = fnv_u64(digest, h);
                    homes += 1;
                    positives += p;
                }
            }
        }
        FleetDigest {
            homes,
            samples: self.samples(),
            positives,
            digest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::StoreFault;

    fn run(cfg: FleetdConfig, homes: usize, rounds: u64) -> FleetService {
        let mut svc = FleetService::new(cfg, homes);
        for round in 0..rounds {
            svc.admit_round(round, 30);
        }
        svc
    }

    #[test]
    fn parallel_equals_serial() {
        // The serial reference is the one-thread run. `RAYON_NUM_THREADS`
        // is process-global, so no other test here sets it.
        let prior = std::env::var("RAYON_NUM_THREADS").ok();
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = run(FleetdConfig::default(), 333, 3);
        for threads in ["2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let parallel = run(FleetdConfig::default(), 333, 3);
            assert_eq!(parallel.digest(), serial.digest(), "{threads} threads");
            assert_eq!(parallel.memory(), serial.memory(), "{threads} threads");
        }
        match prior {
            Some(n) => std::env::set_var("RAYON_NUM_THREADS", n),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }

    #[test]
    fn capped_fleet_evicts_and_stays_bounded() {
        let cfg = FleetdConfig {
            resident_cap: Some(64),
            ..FleetdConfig::default()
        };
        let svc = run(cfg, 500, 3);
        // Pinned: how the service keeps its homes must never change
        // what the memory model, the lifecycle counters or the digest
        // report.
        assert_eq!(
            svc.memory(),
            MemoryStats {
                resident_homes: 64,
                cold_homes: 436,
                resident_bytes: 24_576,
                cold_bytes: 63_220,
            }
        );
        assert_eq!((svc.evictions(), svc.rehydrations()), (1_308, 872));
        assert_eq!(svc.digest().digest, 575_564_107_855_263_640);
    }

    /// The digest's definition: FNV-1a one label byte at a time.
    fn byte_fold(h: u64, labels: &[bool]) -> u64 {
        labels.iter().fold(h, |h, &b| fnv_byte(h, b as u8))
    }

    #[test]
    fn run_fold_equals_byte_fold() {
        // Even and odd states, the offset basis among them (odd).
        let states = [
            FNV_OFFSET,
            FNV_OFFSET ^ 1,
            0,
            1,
            u64::MAX,
            0x9e37_79b9_7f4a_7c14,
        ];
        for h in states {
            for n in 0..1_024 {
                for label in [false, true] {
                    let run = vec![label; n];
                    assert_eq!(
                        fnv_run(h, label, n),
                        byte_fold(h, &run),
                        "state {h:#x}, {n} x {label}"
                    );
                }
            }
        }
        let alternating: Vec<bool> = (0..1_001).map(|i| i % 2 == 0).collect();
        // Runs of 1, 2, ..., 45 samples, alternating labels.
        let growing: Vec<bool> = (1..46).flat_map(|n| vec![n % 2 == 1; n]).collect();
        let series = [
            vec![],
            vec![true; 1_000],
            vec![false; 1_000],
            alternating,
            growing,
        ];
        for h in states {
            for labels in &series {
                let positives = labels.iter().filter(|&&b| b).count() as u64;
                assert_eq!(
                    fnv_labels(h, labels),
                    (byte_fold(h, labels), positives),
                    "state {h:#x}, {} labels",
                    labels.len()
                );
            }
        }
    }

    #[test]
    fn slot_is_16_bytes() {
        // Unboxed, `Resident(ThresholdStream)` would make every slot
        // 136 B: 40.8 MB at 3x10^5 homes, most of them cold.
        assert!(
            std::mem::size_of::<Slot>() <= 16,
            "{} B",
            std::mem::size_of::<Slot>()
        );
    }

    #[test]
    fn eviction_is_invisible_to_output() {
        let capped = FleetdConfig {
            resident_cap: Some(32),
            ..FleetdConfig::default()
        };
        let a = run(capped, 300, 4);
        let b = run(FleetdConfig::default(), 300, 4);
        assert_eq!(a.digest(), b.digest());
        for home in [0, 1, 63, 64, 150, 299] {
            assert_eq!(a.finalize_home(home), b.finalize_home(home), "home {home}");
        }
    }

    #[test]
    fn digest_tracks_every_home() {
        let svc = run(FleetdConfig::default(), 130, 2);
        let d = svc.digest();
        assert_eq!(d.homes, 130);
        assert_eq!(d.samples, 130 * 2 * 30);
        assert!(svc.finalize_home(130).is_none());
    }

    #[test]
    fn evict_all_reaches_cold_floor() {
        let mut svc = run(FleetdConfig::default(), 100, 2);
        let before = svc.digest();
        svc.evict_all();
        let mem = svc.memory();
        assert_eq!(mem.resident_homes, 0);
        assert_eq!(mem.cold_homes, 100);
        assert!(mem.resident_bytes == 0 && mem.cold_bytes > 0);
        assert_eq!(svc.digest(), before, "evict_all must not change output");
    }

    /// Admits six rounds to a capped 3-shard fleet and checks after each
    /// that every shard keeps exactly its highest-index live homes
    /// resident, and that every other live home's stored frame is the
    /// uncapped reference stream's frame at that generation, as the
    /// configured store faults would have written it. With `scrub`, a
    /// scrub after every other round rebuilds that round's corrupt frames
    /// into resident state above the cap, which the next round must evict
    /// again; the other rounds' corrupt frames are met mid-round. Returns
    /// the service and the homes its scrubs rebuilt.
    fn admit_and_check_residency(
        store_faults: FaultPlan,
        recovery: RecoveryPolicy,
        scrub: bool,
    ) -> (FleetService, usize) {
        const HOMES: usize = 100;
        const SAMPLES: usize = 30;
        let cfg = FleetdConfig {
            shards: 3,
            // 4 per shard: the cap is not a multiple of the shard count.
            resident_cap: Some(10),
            store_faults,
            recovery,
            ..FleetdConfig::default()
        };
        let cap = cfg.shard_cap().expect("capped");
        let injector = StoreFaultInjector::new(
            &cfg.store_faults,
            derive_seed(cfg.root_seed, "store-faults"),
        );
        let mut reference: Vec<ThresholdStream> = (0..HOMES).map(|_| cfg.fresh_stream()).collect();
        let mut svc = FleetService::new(cfg.clone(), HOMES);
        let mut chunk = Vec::new();
        let mut scrub_rebuilt = 0;
        for round in 0..6 {
            svc.admit_round(round, SAMPLES);
            for (home, stream) in reference.iter_mut().enumerate() {
                let seed = home_seed(cfg.root_seed, home);
                crate::gen::synthetic_chunk(seed, round, SAMPLES, &mut chunk);
                stream.feed(&chunk);
            }
            for (i, shard) in svc.shards.iter().enumerate() {
                let homes_where = |pred: fn(&Slot) -> bool| -> Vec<usize> {
                    let slots = shard.slots.iter().enumerate();
                    slots
                        .filter(|(_, slot)| pred(slot))
                        .map(|(local, _)| shard.home(local))
                        .collect()
                };
                let live = homes_where(|slot| !matches!(slot, Slot::Quarantined(_)));
                let (cold, resident) = live.split_at(live.len().saturating_sub(cap));
                let ctx = format!("shard {i} round {round}");
                assert_eq!(
                    homes_where(|slot| matches!(slot, Slot::Resident(_))),
                    resident,
                    "{ctx}: resident homes"
                );
                assert_eq!(
                    homes_where(|slot| matches!(slot, Slot::Cold)),
                    cold,
                    "{ctx}: cold slots"
                );
                let stored: Vec<usize> = homes_where(|_| true)
                    .into_iter()
                    .filter(|&home| shard.cold.stored_len(home).is_some())
                    .collect();
                assert_eq!(stored, cold, "{ctx}: stored frames");
                for &home in cold {
                    let mut want = store::frame_checkpoint(
                        home as u64,
                        round + 1,
                        &reference[home].compact_checkpoint(),
                    );
                    injector.corrupt_frame(home as u64, round + 1, &mut want);
                    assert_eq!(
                        shard.cold.get(home).unwrap(),
                        Some(want),
                        "{ctx}: home {home}'s frame"
                    );
                }
            }
            if scrub && round % 2 == 1 {
                scrub_rebuilt += svc.scrub(SAMPLES).0;
            }
        }
        (svc, scrub_rebuilt)
    }

    fn residency_faults() -> FaultPlan {
        FaultPlan::for_store(vec![
            StoreFault::BitFlip { prob: 0.03 },
            StoreFault::TornWrite { prob: 0.02 },
            // Up to 8 failures against 4 retries: some writes never land.
            StoreFault::Transient {
                prob: 0.05,
                max_failures: 8,
            },
        ])
    }

    #[test]
    fn one_pass_keeps_the_highest_live_homes_resident() {
        let (svc, _) =
            admit_and_check_residency(FaultPlan::default(), RecoveryPolicy::Rebuild, false);
        assert!(svc.evictions() > 0 && svc.rehydrations() > 0);
        assert_eq!(svc.quarantined_count(), 0);
    }

    #[test]
    fn one_pass_residency_holds_through_mid_round_quarantines() {
        let (svc, _) =
            admit_and_check_residency(residency_faults(), RecoveryPolicy::Quarantine, false);
        let quarantined = svc.quarantined();
        // Quarantined while being restored (a corrupt frame) and while
        // being evicted (a write that never landed).
        assert!(quarantined
            .iter()
            .any(|(_, e)| matches!(e, StoreError::Corrupt { .. })));
        assert!(quarantined.iter().any(|(_, e)| e.is_transient()));
        assert_eq!(svc.store_rebuilds(), 0);
    }

    #[test]
    fn one_pass_residency_holds_through_rebuilds() {
        let (svc, scrub_rebuilt) =
            admit_and_check_residency(residency_faults(), RecoveryPolicy::Rebuild, true);
        // Rebuilt by a scrub (above the cap until the next round), and
        // rebuilt mid-round from a corrupt frame.
        assert!(scrub_rebuilt > 0);
        assert!(svc.store_rebuilds() > scrub_rebuilt as u64);
    }

    #[test]
    #[should_panic(expected = "round 2 admitted out of order: 1 rounds are complete")]
    fn a_skipped_round_is_refused() {
        let mut svc = FleetService::new(FleetdConfig::default(), 10);
        svc.admit_round(0, 30);
        svc.admit_round(2, 30);
    }

    #[test]
    #[should_panic(expected = "round 0 admitted out of order: 1 rounds are complete")]
    fn a_repeated_round_is_refused() {
        let mut svc = FleetService::new(FleetdConfig::default(), 10);
        svc.admit_round(0, 30);
        svc.admit_round(0, 30);
    }

    #[test]
    fn recover_refuses_memory_configs_and_mismatches() {
        assert_eq!(
            FleetService::recover(FleetdConfig::default()).err(),
            Some(RecoverError::NotDurable)
        );
    }
}
