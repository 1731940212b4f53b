//! The sharded resident fleet service.
//!
//! A [`FleetService`] owns a fixed number of shards; each home belongs
//! to shard `home % shards` forever. A shard holds its homes in one of
//! two tiers: **resident** (a live [`ThresholdStream`] whose size is
//! measured by [`StreamState::state_bytes`]) or **cold** (a CRC-framed,
//! generation-stamped [`codec`](crate::codec) checkpoint held in the
//! shard's pluggable [`CheckpointStore`]). Admission rounds take each
//! home in one pass — restore it if cold, feed it its chunk, then keep
//! it resident or evict it on the spot — so memory is O(resident cap)
//! live streams plus O(homes) compact checkpoints, not O(homes) live
//! streams, during a round as well as between rounds.
//!
//! # Durability and recovery
//!
//! With [`StoreConfig::Durable`], every round additionally write-syncs
//! each resident home's frame and commits a fleet [`Manifest`], so a
//! crashed service can be [`recover`](FleetService::recover)ed from
//! disk and continue byte-identically to an uninterrupted run. Store
//! defects surface as typed [`StoreError`]s: transient write failures
//! are retried immediately, a bounded number of times
//! (`fleetd.store.retries`), and
//! unrecoverable records are either replayed from re-admitted readings
//! ([`RecoveryPolicy::Rebuild`], `fleetd.store.rebuilds`) or excluded
//! with their error preserved ([`RecoveryPolicy::Quarantine`],
//! `fleetd.store.quarantined`) — the storage-side mirror of the
//! supervisor's panic quarantine. `docs/FLEET.md` documents the full
//! lifecycle.

use crate::store::{
    self, shard_dir, CheckpointStore, DurableStore, FaultyStore, Manifest, MemoryStore, StoreError,
};
use faults::{FaultPlan, StoreFaultInjector};
use niom::ThresholdDetector;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use stream::{Sample, StreamFill, StreamSpec, StreamState, ThresholdStream};
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

    /// Builds shard `idx`'s store stack: the configured backend, fault-
    /// wrapped when the plan injects store faults.
    fn make_store(&self, idx: usize) -> std::io::Result<Box<dyn CheckpointStore>> {
        let base: Box<dyn CheckpointStore> = match &self.store {
            StoreConfig::Memory => Box::new(MemoryStore::new()),
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

/// Order-independent-free digest of every home's finalized occupancy
/// series: homes are folded in index order, so two services that
/// processed the same readings — at any thread count, with any eviction
/// history — produce the same digest iff every home's output is
/// byte-identical. Quarantined homes are excluded (and reduce
/// [`FleetDigest::homes`]).
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
        /// Disagreeing field (`"shards"`, `"root_seed"`).
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

/// One shard: the resident tier, the pluggable cold store, the
/// quarantine ledger, and lifecycle counters. A home is in exactly one
/// of: resident, cold (a store frame), scheduled-for-rebuild, or
/// quarantined.
#[derive(Debug)]
struct Shard {
    resident: BTreeMap<usize, ThresholdStream>,
    cold: Box<dyn CheckpointStore>,
    rebuild: BTreeSet<usize>,
    quarantined: BTreeMap<usize, StoreError>,
    samples: u64,
    evictions: u64,
    rehydrations: u64,
    rebuilds: u64,
    retries: u64,
}

impl Shard {
    fn new(cold: Box<dyn CheckpointStore>) -> Shard {
        Shard {
            resident: BTreeMap::new(),
            cold,
            rebuild: BTreeSet::new(),
            quarantined: BTreeMap::new(),
            samples: 0,
            evictions: 0,
            rehydrations: 0,
            rebuilds: 0,
            retries: 0,
        }
    }

    /// Re-derives `home`'s stream by replaying every completed round
    /// (`0..rounds`) through the admission generator — the degraded-
    /// mode rebuild. Byte-identical to the lost state because chunk
    /// generation is a pure function of `(root_seed, home, round)`.
    fn replay<F>(home: usize, rounds: u64, cfg: &FleetdConfig, gen: &F) -> ThresholdStream
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        let mut stream = ThresholdStream::new(cfg.detector.clone(), cfg.spec).with_fill(cfg.fill);
        let seed = home_seed(cfg.root_seed, home);
        let mut chunk = Vec::new();
        for round in 0..rounds {
            gen(seed, round, &mut chunk);
            stream.feed(&chunk);
        }
        stream
    }

    fn quarantine(&mut self, home: usize, err: StoreError) {
        obs::counter_add("fleetd.store.quarantined", 1);
        self.cold.remove(home);
        self.resident.remove(&home);
        self.rebuild.remove(&home);
        self.quarantined.insert(home, err);
    }

    /// Writes `frame`, retrying a transient error immediately up to
    /// [`MAX_STORE_RETRIES`] times.
    fn put_with_retry(
        cold: &mut Box<dyn CheckpointStore>,
        retries: &mut u64,
        home: usize,
        generation: u64,
        frame: &[u8],
    ) -> Result<(), StoreError> {
        let mut attempt = 0;
        loop {
            match cold.put(home, generation, frame) {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < MAX_STORE_RETRIES => {
                    attempt += 1;
                    *retries += 1;
                    obs::counter_add("fleetd.store.retries", 1);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes `home`'s live stream for the admission of `round`: out of
    /// the resident tier, restored from its frame (the decoded vectors
    /// move into the stream), rebuilt, or started fresh. `None` iff the
    /// home ended up quarantined.
    fn take_stream<F>(
        &mut self,
        home: usize,
        round: u64,
        cfg: &FleetdConfig,
        gen: &F,
    ) -> Option<ThresholdStream>
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        if let Some(stream) = self.resident.remove(&home) {
            return Some(stream);
        }
        if self.rebuild.remove(&home) {
            self.rebuilds += 1;
            obs::counter_add("fleetd.store.rebuilds", 1);
            return Some(Self::replay(home, round, cfg, gen));
        }
        // Every branch below drops the stored record, so read it with
        // `take`; the explicit removes on the error branches cover a
        // failed `take`.
        let verdict = match self.cold.take(home) {
            Ok(Some(bytes)) => {
                store::validate_frame(&bytes, home, round, cfg.detector.window).map(Some)
            }
            // Rounds are sequential from 0 and every home is fed every
            // round, so a missing frame after round 0 is a lost record.
            Ok(None) if round == 0 => Ok(None),
            Ok(None) => Err(StoreError::Missing { home }),
            Err(e) => Err(e),
        };
        match verdict {
            Ok(Some(cp)) => {
                self.rehydrations += 1;
                Some(ThresholdStream::from_compact_owned(
                    cfg.detector.clone(),
                    cfg.spec,
                    cp,
                ))
            }
            Ok(None) => {
                Some(ThresholdStream::new(cfg.detector.clone(), cfg.spec).with_fill(cfg.fill))
            }
            Err(err) => match cfg.recovery {
                RecoveryPolicy::Rebuild => {
                    self.rebuilds += 1;
                    obs::counter_add("fleetd.store.rebuilds", 1);
                    self.cold.remove(home);
                    Some(Self::replay(home, round, cfg, gen))
                }
                RecoveryPolicy::Quarantine => {
                    self.quarantine(home, err);
                    None
                }
            },
        }
    }

    /// Evicts `home`: consumes its stream into a frame at `write_gen`
    /// and puts it in the store. A home whose frame cannot be written
    /// even after retries has lost its durable copy *and* its live
    /// stream — it is quarantined with the write error.
    fn evict(&mut self, home: usize, stream: ThresholdStream, write_gen: u64) {
        let frame = store::frame_checkpoint(home as u64, write_gen, &stream.into_compact());
        match Self::put_with_retry(&mut self.cold, &mut self.retries, home, write_gen, &frame) {
            Ok(()) => self.evictions += 1,
            Err(err) => self.quarantine(home, err),
        }
    }

    /// Write-syncs every resident home's frame at `write_gen` (durable
    /// mode only): after this, the store holds a current frame for
    /// every non-quarantined home, which is what makes the round
    /// recoverable.
    fn sync_resident(&mut self, write_gen: u64) {
        let homes: Vec<usize> = self.resident.keys().copied().collect();
        for home in homes {
            let frame = store::frame_checkpoint(
                home as u64,
                write_gen,
                &self.resident[&home].compact_checkpoint(),
            );
            if let Err(err) =
                Self::put_with_retry(&mut self.cold, &mut self.retries, home, write_gen, &frame)
            {
                self.quarantine(home, err);
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
    fn admit_round<F>(&mut self, shard_homes: &[usize], round: u64, cfg: &FleetdConfig, gen: &F)
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        let write_gen = round + 1;
        let cap = cfg.shard_cap().unwrap_or(usize::MAX);
        let mut kept = 0;
        let mut chunk = Vec::new();
        for &home in shard_homes.iter().rev() {
            if self.quarantined.contains_key(&home) {
                continue;
            }
            let Some(mut stream) = self.take_stream(home, round, cfg, gen) else {
                continue;
            };
            gen(home_seed(cfg.root_seed, home), round, &mut chunk);
            self.samples += stream.feed(&chunk).items as u64;
            if kept < cap {
                kept += 1;
                self.resident.insert(home, stream);
            } else {
                self.evict(home, stream, write_gen);
            }
        }
        if cfg.durable_root().is_some() {
            self.sync_resident(write_gen);
        }
    }

    /// Validates every cold, non-quarantined home's frame at
    /// `expected_gen`, applying the recovery policy to anything
    /// unrecoverable (including homes scheduled for rebuild). Returns
    /// `(rebuilt, newly_quarantined)`.
    fn scrub<F>(
        &mut self,
        shard_homes: &[usize],
        expected_gen: u64,
        cfg: &FleetdConfig,
        gen: &F,
    ) -> (usize, usize)
    where
        F: Fn(u64, u64, &mut Vec<Sample>),
    {
        let (mut rebuilt, mut newly_quarantined) = (0, 0);
        for &home in shard_homes {
            if self.resident.contains_key(&home) || self.quarantined.contains_key(&home) {
                continue;
            }
            let verdict = match self.cold.get(home) {
                Ok(Some(bytes)) => {
                    store::validate_frame(&bytes, home, expected_gen, cfg.detector.window)
                        .map(|_| ())
                }
                Ok(None) if expected_gen == 0 && !self.rebuild.contains(&home) => Ok(()),
                Ok(None) => Err(StoreError::Missing { home }),
                Err(e) => Err(e),
            };
            let Err(err) = verdict else {
                self.rebuild.remove(&home);
                continue;
            };
            match cfg.recovery {
                RecoveryPolicy::Rebuild => {
                    // Rebuild into resident state rather than re-writing
                    // the frame: store-fault decisions are deterministic
                    // per (home, generation), so a re-put at the same
                    // generation would be corrupted identically. Degraded
                    // mode holds the home in memory — possibly above the
                    // residency cap — until the next round evicts it at a
                    // fresh generation.
                    let stream = Self::replay(home, expected_gen, cfg, gen);
                    self.cold.remove(home);
                    self.resident.insert(home, stream);
                    self.rebuild.remove(&home);
                    self.rebuilds += 1;
                    obs::counter_add("fleetd.store.rebuilds", 1);
                    rebuilt += 1;
                }
                RecoveryPolicy::Quarantine => {
                    self.quarantine(home, err);
                    newly_quarantined += 1;
                }
            }
        }
        (rebuilt, newly_quarantined)
    }

    /// `(index, finalized series)` for every non-quarantined home of
    /// the shard, resident or cold, in index order. Cold homes are
    /// decoded into a transient stream; the shard is not mutated.
    ///
    /// # Panics
    ///
    /// Panics if a cold frame fails validation at `expected_gen` —
    /// run [`FleetService::scrub`] (or recover) first when store faults
    /// may have corrupted frames since the last admission.
    fn finalize_homes(&self, expected_gen: u64, cfg: &FleetdConfig) -> Vec<(usize, LabelSeries)> {
        let mut out: Vec<(usize, LabelSeries)> = self
            .resident
            .iter()
            .map(|(&home, s)| (home, s.finalize()))
            .chain(
                self.cold
                    .contents()
                    .into_iter()
                    .filter(|(home, _)| {
                        !self.resident.contains_key(home) && !self.quarantined.contains_key(home)
                    })
                    .map(|(home, _)| {
                        let bytes = self
                            .cold
                            .get(home)
                            .expect("listed frame must be readable")
                            .expect("listed frame must exist");
                        let window = cfg.detector.window;
                        let cp = match store::validate_frame(&bytes, home, expected_gen, window) {
                            Ok(cp) => cp,
                            Err(e) => panic!(
                                "cold frame for home {home} unrecoverable ({e}); \
                                 scrub or recover the fleet before finalizing"
                            ),
                        };
                        let s =
                            ThresholdStream::from_compact_owned(cfg.detector.clone(), cfg.spec, cp);
                        (home, s.finalize())
                    }),
            )
            .collect();
        out.sort_unstable_by_key(|&(home, _)| home);
        out
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
            .map(|i| Shard::new(cfg.make_store(i).expect("fleet store must be writable")))
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
    /// manifest disagrees with the config's `shards`/`root_seed`.
    pub fn recover(cfg: FleetdConfig) -> Result<(FleetService, RecoveryReport), RecoverError> {
        let _span = obs::span("fleetd.recover");
        let root = cfg.durable_root().ok_or(RecoverError::NotDurable)?.clone();
        let manifest = Manifest::read(&root)
            .map_err(RecoverError::Manifest)?
            .ok_or_else(|| RecoverError::Manifest("no manifest file".into()))?;
        for (field, found, want) in [
            ("shards", manifest.shards, cfg.shards as u64),
            ("root_seed", manifest.root_seed, cfg.root_seed),
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
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let mut shard = Shard::new(
                cfg.make_store(i)
                    .map_err(|e| RecoverError::Io(e.to_string()))?,
            );
            shard.samples = manifest.shard_samples[i];
            shards.push(shard);
        }
        // Validate every home's frame at the committed generation, in
        // parallel by shard; the verdicts are pure functions of the
        // stored bytes, so the report is thread-count independent.
        let cfg_ref = &cfg;
        let shards = rayon::parallel_map(
            shards.into_iter().enumerate().collect(),
            |(i, mut shard)| {
                let shard_homes: Vec<usize> = (i..homes).step_by(cfg_ref.shards).collect();
                for home in shard_homes {
                    let verdict = match shard.cold.get(home) {
                        Ok(Some(bytes)) => {
                            store::validate_frame(&bytes, home, rounds, cfg_ref.detector.window)
                                .map(|_| ())
                        }
                        Ok(None) if rounds == 0 => Ok(()),
                        Ok(None) => Err(StoreError::Missing { home }),
                        Err(e) => Err(e),
                    };
                    let Err(err) = verdict else { continue };
                    match cfg_ref.recovery {
                        RecoveryPolicy::Rebuild => {
                            shard.cold.remove(home);
                            shard.rebuild.insert(home);
                        }
                        RecoveryPolicy::Quarantine => shard.quarantine(home, err),
                    }
                }
                shard
            },
        );
        let mut report = RecoveryReport::default();
        for shard in &shards {
            report.scheduled_rebuilds += shard.rebuild.len();
            report
                .quarantined
                .extend(shard.quarantined.iter().map(|(&h, e)| (h, e.clone())));
            report.recovered += shard.cold.contents().len();
        }
        report.quarantined.sort_unstable_by_key(|&(home, _)| home);
        obs::gauge_set("fleetd.recovered_homes", report.recovered as f64);
        Ok((
            FleetService {
                cfg,
                homes,
                shards,
                rounds,
            },
            report,
        ))
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
    pub fn admit_round_with<F>(&mut self, round: u64, gen: &F)
    where
        F: Fn(u64, u64, &mut Vec<Sample>) + Sync,
    {
        let _span = obs::span("fleetd.admit");
        let cfg = self.cfg.clone();
        let homes = self.homes;
        let taken = std::mem::take(&mut self.shards);
        self.shards =
            rayon::parallel_map(taken.into_iter().enumerate().collect(), |(i, mut shard)| {
                let shard_homes: Vec<usize> = (i..homes).step_by(cfg.shards).collect();
                shard.admit_round(&shard_homes, round, &cfg, gen);
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
        let cfg = self.cfg.clone();
        let homes = self.homes;
        let rounds = self.rounds;
        let taken = std::mem::take(&mut self.shards);
        let mut rebuilt = 0;
        let mut quarantined = 0;
        let results =
            rayon::parallel_map(taken.into_iter().enumerate().collect(), |(i, mut shard)| {
                let shard_homes: Vec<usize> = (i..homes).step_by(cfg.shards).collect();
                let counts = shard.scrub(&shard_homes, rounds, &cfg, gen);
                (shard, counts)
            });
        self.shards = results
            .into_iter()
            .map(|(shard, (r, q))| {
                rebuilt += r;
                quarantined += q;
                shard
            })
            .collect();
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
        Manifest {
            homes: self.homes as u64,
            shards: self.cfg.shards as u64,
            rounds: self.rounds,
            root_seed: self.cfg.root_seed,
            shard_samples: self.shards.iter().map(|s| s.samples).collect(),
        }
        .write(root)
        .expect("fleet manifest must be writable");
    }

    fn finish_round(&mut self) {
        self.rounds += 1;
        self.commit_manifest();
        obs::counter_add("fleetd.rounds", 1);
        obs::gauge_set(
            "fleetd.samples",
            self.shards.iter().map(|s| s.samples).sum::<u64>() as f64,
        );
        obs::gauge_set(
            "fleetd.evictions",
            self.shards.iter().map(|s| s.evictions).sum::<u64>() as f64,
        );
        obs::gauge_set(
            "fleetd.rehydrations",
            self.shards.iter().map(|s| s.rehydrations).sum::<u64>() as f64,
        );
        obs::gauge_set("fleetd.quarantined_homes", self.quarantined_count() as f64);
        // Walking both tiers costs 10-13 ms a round at 3x10^5 homes and
        // feeds nothing but these gauges, which record nothing while the
        // registry is off.
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
        let write_gen = self.rounds;
        for shard in &mut self.shards {
            for (home, stream) in std::mem::take(&mut shard.resident) {
                shard.evict(home, stream, write_gen);
            }
        }
    }

    /// Measures both memory tiers. Resident streams are measured by
    /// [`StreamState::state_bytes`]; cold homes by stored frame length
    /// (in durable mode resident homes also have a synced frame, which
    /// is not double-counted here — it is disk, not memory).
    pub fn memory(&self) -> MemoryStats {
        let mut stats = MemoryStats::default();
        for shard in &self.shards {
            stats.resident_homes += shard.resident.len();
            stats.resident_bytes += shard
                .resident
                .values()
                .map(|s| s.state_bytes())
                .sum::<usize>();
            for (home, len) in shard.cold.contents() {
                if !shard.resident.contains_key(&home) && !shard.quarantined.contains_key(&home) {
                    stats.cold_homes += 1;
                    stats.cold_bytes += len;
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
        let mut out: Vec<(usize, StoreError)> = self
            .shards
            .iter()
            .flat_map(|s| s.quarantined.iter().map(|(&h, e)| (h, e.clone())))
            .collect();
        out.sort_unstable_by_key(|&(home, _)| home);
        out
    }

    /// Number of quarantined homes.
    pub fn quarantined_count(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined.len()).sum()
    }

    /// Finalizes one home's occupancy series without mutating the fleet
    /// (`None` if the home was never admitted a chunk or is
    /// quarantined).
    pub fn finalize_home(&self, home: usize) -> Option<LabelSeries> {
        if home >= self.homes {
            return None;
        }
        let shard = &self.shards[home % self.cfg.shards];
        if shard.quarantined.contains_key(&home) {
            return None;
        }
        if let Some(s) = shard.resident.get(&home) {
            return Some(s.finalize());
        }
        let bytes = shard.cold.get(home).ok()??;
        let cp = store::validate_frame(&bytes, home, self.rounds, self.cfg.detector.window).ok()?;
        Some(
            ThresholdStream::from_compact_owned(self.cfg.detector.clone(), self.cfg.spec, cp)
                .finalize(),
        )
    }

    /// Finalizes every admitted, non-quarantined home (in parallel,
    /// shard by shard) and folds the outputs into a [`FleetDigest`] in
    /// home-index order.
    pub fn digest(&self) -> FleetDigest {
        let _span = obs::span("fleetd.digest");
        let cfg = &self.cfg;
        let rounds = self.rounds;
        let per_shard = rayon::parallel_map(self.shards.iter().collect(), |shard| {
            shard
                .finalize_homes(rounds, cfg)
                .into_iter()
                .map(|(home, series)| {
                    let mut h = FNV_OFFSET;
                    h = fnv_u64(h, home as u64);
                    h = fnv_u64(h, series.len() as u64);
                    for &b in series.labels() {
                        h = fnv_byte(h, b as u8);
                    }
                    let positives = series.labels().iter().filter(|&&b| b).count() as u64;
                    (home, h, positives)
                })
                .collect::<Vec<_>>()
        });
        let mut all: Vec<(usize, u64, u64)> = per_shard.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(home, _, _)| home);
        let mut digest = FNV_OFFSET;
        let mut positives = 0;
        for &(home, h, p) in &all {
            digest = fnv_u64(digest, home as u64);
            digest = fnv_u64(digest, h);
            positives += p;
        }
        FleetDigest {
            homes: all.len(),
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
        let mem = svc.memory();
        assert!(mem.resident_homes <= 64, "{mem:?}");
        assert_eq!(mem.resident_homes + mem.cold_homes, 500);
        assert!(svc.evictions() > 0);
        assert!(svc.rehydrations() > 0, "rounds 2+ must rehydrate");
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
        let mut reference: Vec<ThresholdStream> = (0..HOMES)
            .map(|_| ThresholdStream::new(cfg.detector.clone(), cfg.spec).with_fill(cfg.fill))
            .collect();
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
                let live: Vec<usize> = (i..svc.homes)
                    .step_by(svc.cfg.shards)
                    .filter(|home| !shard.quarantined.contains_key(home))
                    .collect();
                let (cold, resident) = live.split_at(live.len().saturating_sub(cap));
                let ctx = format!("shard {i} round {round}");
                assert_eq!(
                    shard.resident.keys().copied().collect::<Vec<_>>(),
                    resident,
                    "{ctx}: resident homes"
                );
                let stored: Vec<usize> = shard.cold.contents().iter().map(|&(h, _)| h).collect();
                assert_eq!(stored, cold, "{ctx}: cold homes");
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
    fn recover_refuses_memory_configs_and_mismatches() {
        assert_eq!(
            FleetService::recover(FleetdConfig::default()).err(),
            Some(RecoverError::NotDurable)
        );
    }
}
