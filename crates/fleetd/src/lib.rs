//! Long-lived, sharded resident fleet service over the streaming
//! occupancy detectors.
//!
//! The paper's architecture (Sec. II, Fig. 1) assumes an always-on
//! service sitting between a fleet of homes and the cloud — the smart
//! gateway mediating what leaves each house. Every experiment in this
//! workspace instead rebuilds the world per run and holds all homes in
//! memory at once. This crate is the missing resident process: a
//! [`FleetService`] owns a fixed array of [shards](FleetdConfig::shards),
//! each shard owns the compact per-home streaming state
//! ([`stream::ThresholdStream`] — the NIOM occupancy detector of
//! Sec. III-B running incrementally), readings are admitted in rounds of
//! chunks, and homes beyond the configured residency cap are evicted to
//! a compact serialized checkpoint and rehydrated on their next reading.
//!
//! # Determinism rules
//!
//! The service inherits the workspace's fleet determinism contract
//! (`docs/FLEET.md`):
//!
//! * Home → shard assignment is `home % shards`, a pure function of the
//!   configuration — never of thread count.
//! * Shards are data-parallel and independent: a round admits each
//!   shard's homes on one worker, in descending home order, so per-shard
//!   state and eviction decisions are identical at any
//!   `RAYON_NUM_THREADS`.
//! * Eviction is a per-shard policy (each shard keeps its share of
//!   [`FleetdConfig::resident_cap`] as its highest-index live homes and
//!   evicts every other home as soon as it has been fed) over
//!   checkpoints proven byte-identical on restore — so the digest of a
//!   capped fleet equals the digest of an always-resident one
//!   (`fleet.resident-evict-identical`).
//!
//! # Memory model
//!
//! Resident bytes are measured, not estimated:
//! [`StreamState::state_bytes`](stream::StreamState::state_bytes) sums
//! each resident home's struct plus owned heap; cold homes cost exactly
//! their encoded [`codec`] checkpoint length. [`FleetService::memory`]
//! reports both, and `fleet_scale` pins `bytes/home` as a conformance
//! claim (`fleet.resident-bytes-per-home`). Per-home bookkeeping is not
//! counted: a 16-byte slot per home, plus a 24-byte entry per home in
//! the in-memory store.
//!
//! # Durability and crash recovery
//!
//! The cold tier is a pluggable [`store::CheckpointStore`]: in-memory
//! by default ([`StoreConfig::Memory`]), or file-backed with atomic
//! writes, CRC32-framed generation-stamped records, and a per-round
//! committed manifest ([`StoreConfig::Durable`]) so a crashed service
//! [`recover`](FleetService::recover)s byte-identically. Storage
//! defects (modelled by [`faults::StoreFault`]) surface as typed
//! [`StoreError`]s and are retried, rebuilt in degraded mode, or
//! quarantined per [`RecoveryPolicy`] — see `docs/FLEET.md`.
//!
//! # Observability
//!
//! Admission and lifecycle emit `fleetd.*` counters/gauges into the
//! global [`obs`] registry, scrapeable as Prometheus text via
//! [`MetricsServer`] (or dumped with [`write_prometheus`]) — see
//! `docs/OBSERVABILITY.md` for the exposition format.

#![warn(missing_docs)]
// The frame CRC's carry-less-multiply kernel needs `unsafe` for its
// intrinsics; `crc::clmul` is the one module allowed it.
#![deny(unsafe_code)]

pub mod codec;
mod crc;
mod extrap;
mod gen;
mod metrics;
mod service;
pub mod store;

pub use extrap::{extrapolate, top_rung, Extrapolation, Observation};
pub use gen::synthetic_chunk;
pub use metrics::{write_prometheus, MetricsServer, ServeError};
pub use service::{
    FleetDigest, FleetService, FleetdConfig, MemoryStats, RecoverError, RecoveryPolicy,
    RecoveryReport, StoreConfig,
};
pub use store::{CheckpointStore, DurableStore, FaultyStore, MemoryStore, StoreError};
