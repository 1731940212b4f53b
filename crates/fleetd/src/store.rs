//! Pluggable, crash-recoverable checkpoint storage for the fleet.
//!
//! The service persists every evicted (and, in durable mode, every
//! round-synced) home as a **frame**: the compact
//! [`codec`] checkpoint wrapped in a magic-versioned
//! header carrying the home index, a **generation counter**, and a
//! CRC32 over the whole record. The frame layer is what makes storage
//! defects *detectable*:
//!
//! * a torn (truncated) write fails CRC or length validation,
//! * any single-byte flip fails CRC (or magic/length) validation,
//! * a silently lost write leaves the previous generation in place,
//!   which the generation counter exposes on load.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    4 bytes  "FDS1"
//! home     8        u64 home index
//! gen      8        u64 generation (rounds completed when written)
//! len      4        u32 payload byte length
//! crc      4        CRC32 (IEEE) over home‖gen‖len‖payload
//! payload  len      codec-encoded WindowCheckpoint ("FDC3", see codec)
//! ```
//!
//! Every eviction frames a checkpoint and every rehydration checks one,
//! so the bytes are kept cheap: [`frame_checkpoint`] encodes the payload
//! straight after the header, [`crc32`] folds the header fields and the
//! payload as two slices (carry-less multiplies on x86-64 CPUs that have
//! them, slicing-by-16 elsewhere), and [`decode_frame`] returns a
//! [`Frame`] that borrows its payload from the stored bytes. Neither
//! direction copies the payload.
//!
//! Frames and the round [`Manifest`] are parsed by the codec's cursor,
//! so every layout fails through the one [`DecodeError`], whose offset
//! counts from the start of the parsed buffer. [`validate_frame`] reports it as
//! [`StoreError::Corrupt`], adding the 28-byte header to a payload
//! offset so that it names a byte of the frame.
//!
//! [`CheckpointStore`] abstracts where frames live: [`MemoryStore`]
//! keeps them in process memory, in a vector indexed like the shard's
//! slots (`home / shards`), [`DurableStore`] keeps one file per home
//! with atomic temp-file+rename writes, and [`FaultyStore`] wraps any
//! store with the seeded [`faults::StoreFaultInjector`] defect model.
//! The service composes them per shard and hands each evicted frame's
//! buffer to the store ([`CheckpointStore::put_owned`]), so the memory
//! store keeps it without a copy. A durable fleet's round [`Manifest`]
//! (`FDM2`) records the configuration its frames were written under,
//! and is written with the same temp-file+rename step as a frame;
//! `docs/FLEET.md` documents the recovery lifecycle.

use crate::codec::{self, DecodeError, Reader};
use crate::crc;
use faults::StoreFaultInjector;
use niom::MeanVariance;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use stream::WindowCheckpoint;

pub use crate::crc::crc32;

/// First four bytes of every stored frame.
pub const FRAME_MAGIC: [u8; 4] = *b"FDS1";

/// Frame header bytes preceding the payload.
pub const FRAME_OVERHEAD: usize = 28;

/// Magic of the fleet manifest file ([`Manifest`]).
pub const MANIFEST_MAGIC: [u8; 4] = *b"FDM2";

/// File name of the manifest inside a durable fleet root.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Appends a frame header for a `payload_len`-byte payload to `out`,
/// with a zero placeholder where [`seal`] later writes the CRC.
fn write_header(out: &mut Vec<u8>, home: u64, generation: u64, payload_len: usize) {
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&home.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
}

/// CRC of a frame: `home‖gen‖len` from the header, then the payload.
fn frame_crc(header: &[u8], payload: &[u8]) -> u32 {
    !crc::update(crc::update(!0, &header[4..24]), payload)
}

/// Writes the CRC of a complete frame (header + payload) into its
/// header.
fn seal(frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_OVERHEAD);
    let crc = frame_crc(header, payload);
    header[24..28].copy_from_slice(&crc.to_le_bytes());
}

/// Wraps a codec payload in the CRC-framed, generation-stamped layout.
pub fn encode_frame(home: u64, generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    write_header(&mut out, home, generation, payload.len());
    out.extend_from_slice(payload);
    seal(&mut out);
    out
}

/// Encodes `cp` straight into a frame: byte-identical to
/// `encode_frame(home, generation, &codec::encode(cp))`, without the
/// intermediate payload buffer. The eviction path of the service.
pub fn frame_checkpoint(
    home: u64,
    generation: u64,
    cp: &WindowCheckpoint<MeanVariance>,
) -> Vec<u8> {
    let len = codec::encoded_len(cp);
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + len);
    write_header(&mut out, home, generation, len);
    codec::encode_into(cp, &mut out);
    seal(&mut out);
    out
}

/// A stored frame, parsed and CRC-checked where it lies: who it belongs
/// to, when it was written, and its codec payload, borrowed from the
/// stored bytes and not yet decoded (see [`validate_frame`] for the full
/// pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Home index the payload belongs to.
    pub home: u64,
    /// Generation counter: admission rounds completed when written.
    pub generation: u64,
    /// Codec-encoded checkpoint bytes.
    pub payload: &'a [u8],
}

/// Parses and CRC-validates a stored frame. The checks run in layout
/// order: the magic, the header fields, the payload length against the
/// buffer, trailing bytes, then the CRC over `home‖gen‖len‖payload`.
///
/// # Errors
///
/// [`DecodeError`] on truncation at any prefix length, wrong magic, any
/// single-byte corruption (caught by the CRC, the length field, or the
/// magic), or trailing bytes. Never panics on malformed input.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame<'_>, DecodeError> {
    let mut r = Reader::open(bytes, FRAME_MAGIC)?;
    let home = r.u64()?;
    let generation = r.u64()?;
    let len = r.u32()? as usize;
    let crc_at = r.at();
    let stored = r.u32()?;
    let payload = r.take(len)?;
    r.finish()?;
    let computed = frame_crc(bytes, payload);
    if computed != stored {
        return Err(DecodeError::CrcMismatch {
            offset: crc_at,
            stored,
            computed,
        });
    }
    Ok(Frame {
        home,
        generation,
        payload,
    })
}

/// Typed failure of a checkpoint-store operation — the storage-side
/// analogue of the supervisor's typed pipeline errors (PR 4): the
/// service retries [transient](StoreError::is_transient) errors a
/// bounded number of times and quarantines or rebuilds homes on the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Transient IO failure; a bounded retry may succeed.
    Transient {
        /// Operation that failed (`"put"`, `"get"`).
        op: &'static str,
        /// Home the operation targeted.
        home: usize,
        /// 1-based attempt number that failed.
        attempt: u32,
    },
    /// Permanent IO failure (filesystem error surfaced by the OS).
    Io {
        /// Operation that failed.
        op: &'static str,
        /// Home the operation targeted.
        home: usize,
        /// OS error description.
        detail: String,
    },
    /// The stored bytes are unrecoverable: frame or checkpoint
    /// validation failed at `offset`.
    Corrupt {
        /// Home whose record is corrupt.
        home: usize,
        /// Byte offset of the first validation failure.
        offset: usize,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The frame's generation counter doesn't match the fleet's round
    /// counter: a stale replay (`found < expected`) or a torn round
    /// whose manifest commit never landed (`found > expected`).
    StaleGeneration {
        /// Home whose frame is out of step.
        home: usize,
        /// Generation stamped in the frame.
        found: u64,
        /// Generation the manifest says the fleet is at.
        expected: u64,
    },
    /// The manifest lists the home but the store holds no frame for it.
    Missing {
        /// Home with no stored frame.
        home: usize,
    },
}

impl StoreError {
    /// `true` when a bounded retry of the same operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient { .. })
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Transient { op, home, attempt } => {
                write!(
                    f,
                    "transient {op} failure for home {home} (attempt {attempt})"
                )
            }
            StoreError::Io { op, home, detail } => {
                write!(f, "{op} failed for home {home}: {detail}")
            }
            StoreError::Corrupt {
                home,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "home {home} checkpoint corrupt at byte {offset}: {detail}"
                )
            }
            StoreError::StaleGeneration {
                home,
                found,
                expected,
            } => {
                write!(
                    f,
                    "home {home} frame at generation {found}, expected {expected}"
                )
            }
            StoreError::Missing { home } => write!(f, "home {home} has no stored frame"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Where a shard keeps the encoded frames of its non-resident homes.
///
/// Implementations store opaque frame bytes keyed by home index; all
/// framing, CRC, and generation semantics live above the trait (in
/// [`encode_frame`]/[`validate_frame`]) so that injected faults corrupt
/// exactly the bytes a real medium would hand back.
pub trait CheckpointStore: Send + Sync + std::fmt::Debug {
    /// Stores `frame` as the current record for `home`, replacing any
    /// previous one. `generation` is the counter stamped inside the
    /// frame, passed alongside so wrappers (fault injectors) can key
    /// per-write decisions without parsing the bytes.
    fn put(&mut self, home: usize, generation: u64, frame: &[u8]) -> Result<(), StoreError>;

    /// Current stored frame for `home`, or `None` if it has none.
    fn get(&self, home: usize) -> Result<Option<Vec<u8>>, StoreError>;

    /// Drops the record for `home` (no-op if absent).
    fn remove(&mut self, home: usize);

    /// Removes and returns the stored frame for `home` — the rehydration
    /// read, which drops the record whatever it holds. The default is
    /// [`get`](Self::get) then [`remove`](Self::remove); a failed read
    /// removes nothing.
    fn take(&mut self, home: usize) -> Result<Option<Vec<u8>>, StoreError> {
        let frame = self.get(home)?;
        self.remove(home);
        Ok(frame)
    }

    /// Stores the bytes of `frame` as [`put`](Self::put) does, taking
    /// them: on success `frame` is left empty, on error it is untouched,
    /// so the caller can retry with it. The default puts a copy and
    /// clears `frame`; a store that keeps frames in memory moves the
    /// buffer instead — the eviction path of the service.
    fn put_owned(
        &mut self,
        home: usize,
        generation: u64,
        frame: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.put(home, generation, frame)?;
        frame.clear();
        Ok(())
    }

    /// Byte length of the stored frame for `home`, or `None` if it has
    /// none.
    fn stored_len(&self, home: usize) -> Option<usize>;
}

/// In-process store: a vector of frames indexed by a home's place in
/// the store's layout, homes `offset, offset + stride, …`. The service
/// builds one per shard ([`for_shard`](Self::for_shard)), so the index
/// is the home's slot in its shard; [`new`](Self::new) takes any home
/// id. An entry is `None` when its home has no frame. A 0-byte frame (a
/// write torn at byte 0) is `Some`: it reads back as present and fails
/// validation as corrupt, never as missing. Survives nothing, costs no
/// IO, and is the default.
///
/// A home outside the layout has no frame, and putting one panics. The
/// vector grows to the highest home put and never shrinks, so a
/// [`new`](Self::new) store holding a few homes with large ids still
/// costs 24 B per id below them.
#[derive(Debug, Clone)]
pub struct MemoryStore {
    offset: usize,
    stride: usize,
    frames: Vec<Option<Vec<u8>>>,
}

impl Default for MemoryStore {
    fn default() -> MemoryStore {
        MemoryStore::new()
    }
}

impl MemoryStore {
    /// An empty in-memory store for any home id.
    pub fn new() -> MemoryStore {
        MemoryStore::for_shard(0, 1)
    }

    /// An empty in-memory store for shard `shard` of `shards`, which
    /// holds homes `shard, shard + shards, …`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn for_shard(shard: usize, shards: usize) -> MemoryStore {
        assert!(shards > 0, "a store layout needs a nonzero stride");
        MemoryStore {
            offset: shard,
            stride: shards,
            frames: Vec::new(),
        }
    }

    /// `home`'s index in `frames`, or `None` if it is not in the layout.
    fn index(&self, home: usize) -> Option<usize> {
        let d = home.checked_sub(self.offset)?;
        (d % self.stride == 0).then_some(d / self.stride)
    }

    fn entry(&self, home: usize) -> Option<&Vec<u8>> {
        self.frames.get(self.index(home)?)?.as_ref()
    }

    fn entry_mut(&mut self, home: usize) -> Option<&mut Option<Vec<u8>>> {
        let i = self.index(home)?;
        self.frames.get_mut(i)
    }

    fn insert(&mut self, home: usize, frame: Vec<u8>) {
        let Some(i) = self.index(home) else {
            panic!(
                "home {home} is not in this store's layout ({} + k * {})",
                self.offset, self.stride
            );
        };
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, || None);
        }
        self.frames[i] = Some(frame);
    }
}

impl CheckpointStore for MemoryStore {
    fn put(&mut self, home: usize, _generation: u64, frame: &[u8]) -> Result<(), StoreError> {
        self.insert(home, frame.to_vec());
        Ok(())
    }

    fn put_owned(
        &mut self,
        home: usize,
        _generation: u64,
        frame: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        self.insert(home, std::mem::take(frame));
        Ok(())
    }

    fn get(&self, home: usize) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.entry(home).cloned())
    }

    fn remove(&mut self, home: usize) {
        if let Some(entry) = self.entry_mut(home) {
            *entry = None;
        }
    }

    fn take(&mut self, home: usize) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.entry_mut(home).and_then(Option::take))
    }

    fn stored_len(&self, home: usize) -> Option<usize> {
        self.entry(home).map(Vec::len)
    }
}

/// File name of home `home`'s frame inside its shard directory.
pub fn home_file_name(home: usize) -> String {
    format!("home-{home}.ckpt")
}

/// Directory of shard `shard` inside a durable fleet root.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// Writes `bytes` to `dir/name` through a temp file in the same
/// directory renamed into place, so a crash mid-write can tear at most
/// the temp file, never the record. Frames and the manifest are written
/// this way.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".tmp-{name}"));
    fs::write(&tmp, bytes)?;
    fs::rename(tmp, dir.join(name))
}

/// Full path of home `home`'s frame file under a durable fleet root
/// with `shards` shards — the layout [`DurableStore`]-backed services
/// use, exposed so tests and experiments can corrupt records offline.
pub fn durable_home_path(root: &Path, shards: usize, home: usize) -> PathBuf {
    shard_dir(root, home % shards).join(home_file_name(home))
}

/// File-backed durable store: one frame file per home inside a
/// directory, written atomically (temp file + rename in the same
/// directory) so a crash mid-write can tear at most the temp file,
/// never a committed record.
///
/// Durability model: atomicity is against *process* crashes. Writes are
/// not fsynced — a power failure can still lose recently renamed
/// frames, which the generation counter then reports as stale on
/// recovery rather than silently serving.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    index: BTreeMap<usize, usize>,
}

impl DurableStore {
    /// Opens (creating if needed) the store rooted at `dir`, indexing
    /// any `home-<n>.ckpt` files already present.
    pub fn open(dir: PathBuf) -> std::io::Result<DurableStore> {
        fs::create_dir_all(&dir)?;
        let mut index = BTreeMap::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(home) = name
                .to_str()
                .and_then(|n| n.strip_prefix("home-"))
                .and_then(|n| n.strip_suffix(".ckpt"))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            index.insert(home, entry.metadata()?.len() as usize);
        }
        Ok(DurableStore { dir, index })
    }

    /// Directory the store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn io_err(op: &'static str, home: usize, e: std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            home,
            detail: e.to_string(),
        }
    }
}

impl CheckpointStore for DurableStore {
    fn put(&mut self, home: usize, _generation: u64, frame: &[u8]) -> Result<(), StoreError> {
        write_atomic(&self.dir, &home_file_name(home), frame)
            .map_err(|e| Self::io_err("put", home, e))?;
        self.index.insert(home, frame.len());
        Ok(())
    }

    fn get(&self, home: usize) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.dir.join(home_file_name(home))) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Self::io_err("get", home, e)),
        }
    }

    fn remove(&mut self, home: usize) {
        let _ = fs::remove_file(self.dir.join(home_file_name(home)));
        self.index.remove(&home);
    }

    fn stored_len(&self, home: usize) -> Option<usize> {
        self.index.get(&home).copied()
    }
}

/// Wraps any store with the seeded [`StoreFaultInjector`] defect model:
/// writes can fail transiently (first `k` attempts per `(home,
/// generation)`), be silently dropped (stale replay), or land torn /
/// bit-flipped. Reads and the rest of the trait pass straight through —
/// the corrupted bytes themselves are what reads later surface.
#[derive(Debug)]
pub struct FaultyStore {
    inner: Box<dyn CheckpointStore>,
    injector: StoreFaultInjector,
    /// Per home, the generation last put and the attempts made at it. A
    /// home's generation never decreases, so this counts attempts per
    /// `(home, generation)` while holding one entry per home.
    attempts: BTreeMap<usize, (u64, u32)>,
}

impl FaultyStore {
    /// Wraps `inner` with fault decisions drawn from `injector`.
    pub fn new(inner: Box<dyn CheckpointStore>, injector: StoreFaultInjector) -> FaultyStore {
        FaultyStore {
            inner,
            injector,
            attempts: BTreeMap::new(),
        }
    }
}

impl CheckpointStore for FaultyStore {
    fn put(&mut self, home: usize, generation: u64, frame: &[u8]) -> Result<(), StoreError> {
        let failures = self
            .injector
            .transient_put_failures(home as u64, generation);
        let entry = self.attempts.entry(home).or_insert((generation, 0));
        if entry.0 != generation {
            *entry = (generation, 0);
        }
        entry.1 += 1;
        if entry.1 <= failures {
            return Err(StoreError::Transient {
                op: "put",
                home,
                attempt: entry.1,
            });
        }
        if self.injector.stale_replay(home as u64, generation) {
            // The write is acknowledged but never lands; the previous
            // generation's frame survives in its place.
            return Ok(());
        }
        let mut corrupted = frame.to_vec();
        self.injector
            .corrupt_frame(home as u64, generation, &mut corrupted);
        self.inner.put(home, generation, &corrupted)
    }

    fn get(&self, home: usize) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.get(home)
    }

    fn remove(&mut self, home: usize) {
        self.inner.remove(home);
    }

    fn take(&mut self, home: usize) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.take(home)
    }

    fn stored_len(&self, home: usize) -> Option<usize> {
        self.inner.stored_len(home)
    }
}

/// Fully validates a stored frame for `home` at `expected_generation`
/// and a detector of `window` samples: frame parse + CRC, ownership,
/// generation, codec decode of the payload, then that the open window
/// holds fewer than `window` samples. This is the single gate every
/// load in the service goes through, so every storage defect — and a
/// checkpoint written under a window its open samples cannot fit —
/// surfaces as a typed [`StoreError`] with a byte offset instead of a
/// panic in the codec or the stream restore.
pub fn validate_frame(
    bytes: &[u8],
    home: usize,
    expected_generation: u64,
    window: usize,
) -> Result<WindowCheckpoint<MeanVariance>, StoreError> {
    let frame = decode_frame(bytes).map_err(|e| StoreError::Corrupt {
        home,
        offset: e.offset(),
        detail: e.to_string(),
    })?;
    if frame.home != home as u64 {
        return Err(StoreError::Corrupt {
            home,
            offset: 4,
            detail: format!("frame belongs to home {}", frame.home),
        });
    }
    if frame.generation != expected_generation {
        return Err(StoreError::StaleGeneration {
            home,
            found: frame.generation,
            expected: expected_generation,
        });
    }
    let cp = codec::decode(frame.payload).map_err(|e| StoreError::Corrupt {
        home,
        offset: FRAME_OVERHEAD + e.offset(),
        detail: format!("payload: {e}"),
    })?;
    if cp.open.len() >= window {
        return Err(StoreError::Corrupt {
            home,
            offset: FRAME_OVERHEAD + codec::OPEN_COUNT_OFFSET,
            detail: format!(
                "open window of {} samples cannot belong to a window of {window}",
                cp.open.len()
            ),
        });
    }
    Ok(cp)
}

/// The fleet-level commit record of a durable run: written atomically
/// at the end of every round, read back by
/// [`FleetService::recover`](crate::FleetService::recover). A frame is
/// current iff its generation equals the manifest's round counter.
///
/// Besides the counters, it records every configuration field a stored
/// frame's meaning depends on: the shard count and root seed, the NIOM
/// window, the gap-fill policy and the trace geometry. `recover`
/// refuses a config that disagrees with any of them. The detector's
/// thresholds are not recorded: frames keep each closed window's
/// variance, not a `σ > threshold` flag, so a recovered fleet may be
/// re-tuned.
///
/// Layout: `"FDM2"` magic, then `homes`, `shards`, `rounds`,
/// `root_seed`, `window`, `fill`, `start` and `resolution` as
/// little-endian u64, a u32 count of per-shard sample counters followed
/// by the counters, and a trailing CRC32 over everything after the
/// magic. An `"FDM1"` manifest, which lacked the four configuration
/// words, fails as [`DecodeError::BadMagic`]; there is no decoder for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Homes the fleet manages (`0..homes`).
    pub homes: u64,
    /// Shard count (part of the fleet's deterministic identity).
    pub shards: u64,
    /// Admission rounds committed.
    pub rounds: u64,
    /// Root seed of the per-home seed derivation.
    pub root_seed: u64,
    /// NIOM window in samples (`detector.window`).
    pub window: u64,
    /// Gap-fill policy: 0 for `StreamFill::Zero`, 1 for `StreamFill::Hold`.
    pub fill: u64,
    /// Timestamp of the first sample, in seconds (`spec.start`).
    pub start: u64,
    /// Sampling resolution in seconds (`spec.resolution`).
    pub resolution: u64,
    /// Per-shard admitted-sample counters, index order.
    pub shard_samples: Vec<u64>,
}

impl Manifest {
    fn words(&self) -> [u64; 8] {
        [
            self.homes,
            self.shards,
            self.rounds,
            self.root_seed,
            self.window,
            self.fill,
            self.start,
            self.resolution,
        ]
    }

    /// Serializes the manifest (magic + fields + CRC32).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        for v in self.words() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.shard_samples.len() as u32).to_le_bytes());
        for &s in &self.shard_samples {
            out.extend_from_slice(&s.to_le_bytes());
        }
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and CRC-validates a manifest buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation, wrong magic (an `FDM1` manifest
    /// included), CRC mismatch, or trailing bytes; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, DecodeError> {
        let mut r = Reader::open(bytes, MANIFEST_MAGIC)?;
        // Fields are read in layout order, as written by `encode`.
        let manifest = Manifest {
            homes: r.u64()?,
            shards: r.u64()?,
            rounds: r.u64()?,
            root_seed: r.u64()?,
            window: r.u64()?,
            fill: r.u64()?,
            start: r.u64()?,
            resolution: r.u64()?,
            shard_samples: r.counted(8, Reader::u64)?,
        };
        let crc_at = r.at();
        let stored = r.u32()?;
        r.finish()?;
        let computed = crc32(&bytes[4..crc_at]);
        if computed != stored {
            return Err(DecodeError::CrcMismatch {
                offset: crc_at,
                stored,
                computed,
            });
        }
        Ok(manifest)
    }

    /// Atomically writes the manifest under `root` (temp + rename).
    pub fn write(&self, root: &Path) -> std::io::Result<()> {
        fs::create_dir_all(root)?;
        write_atomic(root, MANIFEST_FILE, &self.encode())
    }

    /// Reads the manifest under `root`: `Ok(None)` when no manifest
    /// file exists, `Err` describing any IO or validation failure.
    pub fn read(root: &Path) -> Result<Option<Manifest>, String> {
        let bytes = match fs::read(root.join(MANIFEST_FILE)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("manifest read failed: {e}")),
        };
        Manifest::decode(&bytes)
            .map(Some)
            .map_err(|e| format!("manifest invalid: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultPlan, StoreFault};
    use stream::FillCheckpoint;

    /// The detector window the test payloads are validated against.
    const WINDOW: usize = 15;

    fn payload() -> Vec<u8> {
        codec::encode(&WindowCheckpoint {
            fill: FillCheckpoint::HoldLast(211.5),
            open: vec![120.0, 0.0, 950.25],
            closed: Vec::new(),
        })
    }

    fn golden_checkpoint() -> WindowCheckpoint<MeanVariance> {
        WindowCheckpoint {
            fill: FillCheckpoint::HoldLast(211.5),
            open: vec![120.0, -0.5],
            closed: vec![
                MeanVariance {
                    mean: 1.0,
                    variance: 2.0,
                },
                MeanVariance {
                    mean: 300.25,
                    variance: 0.0,
                },
            ],
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn golden_frame_bytes() {
        // Any change to the FDS1 frame or FDC3 codec layout, or to the
        // CRC, changes these bytes. The CRC field (bytes 24..28,
        // `bdf724d1`) agrees with zlib's crc32 over home‖gen‖len‖payload.
        const GOLDEN: &str = concat!(
            "464453310500000000000000090000000000000045000000bdf724d146444333",
            "030000000000706a40020000000000000000005e40000000000000e0bf020000",
            "00000000000000f03f00000000000000400000000000c4724000000000000000",
            "00",
        );
        let frame = frame_checkpoint(5, 9, &golden_checkpoint());
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let cp = validate_frame(&frame, 5, 9, WINDOW).unwrap();
        assert_eq!(cp, golden_checkpoint());
    }

    #[test]
    fn previous_codec_versions_are_corrupt() {
        // The same checkpoint as `golden_frame_bytes`, framed by the FDC2
        // codec (40-byte summaries per closed window). Like an FDC1
        // payload, it sits in a valid frame and is refused at the codec
        // magic, right after the frame header, so recovery rebuilds or
        // quarantines the home like any other corrupt record.
        const FDC2_FRAME: &str = concat!(
            "46445331050000000000000009000000000000007500000080bc1edd46444332",
            "030000000000706a40020000000000000000005e40000000000000e0bf020000",
            "00000000000000f03f0000000000000040000000000000084000000000000010",
            "4000000000000014400000000000c47240000000000000000000000000000000",
            "000000000000c472400000000000c47240",
        );
        let fdc2 = unhex(FDC2_FRAME);
        assert!(
            decode_frame(&fdc2).is_ok(),
            "the FDC2 frame itself is intact"
        );
        let mut fdc1 = payload();
        fdc1[..4].copy_from_slice(b"FDC1");
        for frame in [fdc2, encode_frame(5, 9, &fdc1)] {
            match validate_frame(&frame, 5, 9, WINDOW) {
                Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, FRAME_OVERHEAD),
                other => panic!("expected corrupt payload, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_window_must_fit_the_detector_window() {
        // Three open samples fit any window of four or more; under a
        // window of three or fewer the frame is corrupt at its
        // open-count field, not a panic in the stream restore.
        let frame = encode_frame(5, 9, &payload());
        assert!(validate_frame(&frame, 5, 9, 4).is_ok());
        for window in [1, 2, 3] {
            match validate_frame(&frame, 5, 9, window) {
                Err(StoreError::Corrupt { offset, detail, .. }) => {
                    assert_eq!(offset, 41);
                    assert!(detail.contains("cannot belong"), "{detail}");
                }
                other => panic!("window {window}: expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn sigma_boundary_survives_the_frame() {
        // Window 0 (100, 320, 100, 320) has variance 12 100, so σ is
        // exactly the 110 W threshold: not flagged, since σ must exceed
        // it. Window 1 (100, 320.5, ...) has σ = 110.25: flagged. Both
        // means sit within the 100 W margin of the baseline, so σ alone
        // decides. Batch detect, the stream, and a stream restored from
        // an FDC3 frame (after both windows closed, and mid-window) must
        // agree on both.
        use niom::{OccupancyDetector, ThresholdDetector};
        use stream::{dense_samples, StreamSpec, StreamState, ThresholdStream};
        use timeseries::{PowerTrace, Resolution, Summary, Timestamp};

        let detector = ThresholdDetector {
            night_prior: None,
            min_run_windows: 1,
            ..ThresholdDetector::with_window(4)
        };
        let watts = [100.0, 320.0, 100.0, 320.0, 100.0, 320.5, 100.0, 320.5];
        assert_eq!(
            Summary::of(&watts[..4]).stddev(),
            detector.sigma_threshold_watts
        );
        assert_eq!(Summary::of(&watts[4..]).stddev(), 110.25);
        let trace = PowerTrace::new(Timestamp::ZERO, Resolution::ONE_MINUTE, watts.to_vec())
            .expect("finite trace");
        let batch = detector.detect(&trace);
        assert_eq!(
            batch.labels(),
            [false, false, false, false, true, true, true, true]
        );

        let spec = StreamSpec::of_trace(&trace);
        let samples = dense_samples(&watts);
        for split in [6, 8] {
            let mut head = ThresholdStream::new(detector.clone(), spec);
            head.feed(&samples[..split]);
            let frame = frame_checkpoint(0, 1, &head.compact_checkpoint());
            head.feed(&samples[split..]);
            assert_eq!(head.finalize(), batch, "stream, split {split}");
            let cp = validate_frame(&frame, 0, 1, detector.window).expect("intact frame");
            let mut restored = ThresholdStream::from_compact_owned(detector.clone(), spec, cp);
            restored.feed(&samples[split..]);
            assert_eq!(restored.finalize(), batch, "restored, split {split}");
        }
    }

    /// `(home, stored length)` for every home below 16 that has a frame.
    fn listing(store: &dyn CheckpointStore) -> Vec<(usize, usize)> {
        (0..16)
            .filter_map(|home| Some((home, store.stored_len(home)?)))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fleetd-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn frame_round_trips() {
        let p = payload();
        let bytes = encode_frame(17, 3, &p);
        assert_eq!(bytes.len(), FRAME_OVERHEAD + p.len());
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.home, 17);
        assert_eq!(frame.generation, 3);
        assert_eq!(frame.payload, p);
        let cp = validate_frame(&bytes, 17, 3, WINDOW).unwrap();
        assert_eq!(crate::codec::encode(&cp), p);
    }

    /// Asserts that `err`, from parsing `bytes`, names a byte of them: a
    /// stored CRC where that CRC lies, surplus bytes where they begin,
    /// and anything else at or before the end.
    fn assert_names_a_byte(bytes: &[u8], err: DecodeError) {
        assert!(
            err.offset() <= bytes.len(),
            "{err} in {} bytes",
            bytes.len()
        );
        match err {
            DecodeError::CrcMismatch { offset, stored, .. } => {
                assert_eq!(bytes[offset..offset + 4], stored.to_le_bytes(), "{err}")
            }
            DecodeError::TrailingBytes { offset, trailing } => {
                assert_eq!(offset + trailing, bytes.len(), "{err}")
            }
            _ => {}
        }
    }

    #[test]
    fn every_prefix_truncation_errors_cleanly() {
        let bytes = encode_frame(5, 9, &payload());
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("prefix must fail");
            assert_names_a_byte(&bytes[..cut], err);
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let bytes = encode_frame(5, 9, &payload());
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << bit;
                let err = decode_frame(&bad).expect_err("a flip must fail");
                assert_names_a_byte(&bad, err);
            }
        }
    }

    #[test]
    fn offsets_name_where_a_record_went_bad() {
        // Surplus bytes after a frame's 53-byte payload begin at byte 81,
        // not at the end of the header.
        let cp = WindowCheckpoint {
            fill: FillCheckpoint::Zero,
            open: vec![1.0, 2.0, 3.0, 4.0],
            closed: Vec::new(),
        };
        let mut frame = frame_checkpoint(5, 9, &cp);
        assert_eq!(frame.len(), FRAME_OVERHEAD + 53);
        frame.extend_from_slice(&[0; 3]);
        match validate_frame(&frame, 5, 9, WINDOW) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 81),
            other => panic!("expected corrupt frame, got {other:?}"),
        }
        // A 2-shard manifest is 92 bytes with its CRC at byte 88.
        let bytes = manifest(2).encode();
        assert_eq!(bytes.len(), 92);
        let mut flipped = bytes.clone();
        flipped[90] ^= 1;
        assert!(matches!(
            Manifest::decode(&flipped),
            Err(DecodeError::CrcMismatch { offset: 88, .. })
        ));
        let mut long = bytes;
        long.push(0);
        assert_eq!(
            Manifest::decode(&long),
            Err(DecodeError::TrailingBytes {
                offset: 92,
                trailing: 1
            })
        );
    }

    #[test]
    fn validate_frame_checks_ownership_and_generation() {
        let bytes = encode_frame(5, 9, &payload());
        assert!(matches!(
            validate_frame(&bytes, 6, 9, WINDOW),
            Err(StoreError::Corrupt {
                home: 6,
                offset: 4,
                ..
            })
        ));
        assert!(matches!(
            validate_frame(&bytes, 5, 10, WINDOW),
            Err(StoreError::StaleGeneration {
                home: 5,
                found: 9,
                expected: 10
            })
        ));
        // A valid frame around an invalid payload reports the payload
        // offset past the frame header.
        let bad_payload = encode_frame(5, 9, b"NOPE");
        match validate_frame(&bad_payload, 5, 9, WINDOW) {
            Err(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, FRAME_OVERHEAD),
            other => panic!("expected payload corruption, got {other:?}"),
        }
    }

    #[test]
    fn memory_store_round_trips_and_lists() {
        let mut store = MemoryStore::new();
        let frame = encode_frame(2, 1, &payload());
        store.put(2, 1, &frame).unwrap();
        store.put(7, 1, &encode_frame(7, 1, &payload())).unwrap();
        assert_eq!(store.get(2).unwrap().as_deref(), Some(&frame[..]));
        assert_eq!(store.get(3).unwrap(), None);
        assert_eq!(listing(&store), vec![(2, frame.len()), (7, frame.len())]);
        store.remove(2);
        assert_eq!(store.get(2).unwrap(), None);
        assert_eq!(store.take(7).unwrap(), Some(encode_frame(7, 1, &payload())));
        assert_eq!(store.take(7).unwrap(), None);
        assert!(listing(&store).is_empty());
    }

    #[test]
    fn memory_store_holds_one_shards_homes() {
        let mut store = MemoryStore::for_shard(2, 4);
        store.put(10, 1, b"ten").unwrap();
        // A write torn at byte 0 leaves a present, empty frame.
        store.put(2, 1, &[]).unwrap();
        assert_eq!(listing(&store), vec![(2, 0), (10, 3)]);
        assert_eq!(store.get(2).unwrap(), Some(Vec::new()));
        assert_eq!(store.stored_len(2), Some(0));
        for foreign in [0, 1, 3, 9, 11, 14] {
            store.remove(foreign);
            assert_eq!(store.get(foreign).unwrap(), None, "home {foreign}");
            assert_eq!(store.take(foreign).unwrap(), None, "home {foreign}");
            assert_eq!(store.stored_len(foreign), None, "home {foreign}");
        }
        assert_eq!(listing(&store), vec![(2, 0), (10, 3)]);
    }

    #[test]
    #[should_panic(expected = "not in this store's layout")]
    fn memory_store_refuses_another_shards_home() {
        let _ = MemoryStore::for_shard(2, 4).put(3, 1, b"x");
    }

    #[test]
    fn durable_store_persists_across_reopen() {
        let dir = tmp_dir("reopen");
        let frame = encode_frame(11, 4, &payload());
        {
            let mut store = DurableStore::open(dir.clone()).unwrap();
            store.put(11, 4, &frame).unwrap();
            store.put(3, 4, &encode_frame(3, 4, &payload())).unwrap();
            store.remove(3);
            store.put(8, 4, &frame).unwrap();
            assert_eq!(store.take(8).unwrap().as_deref(), Some(&frame[..]));
        }
        let store = DurableStore::open(dir.clone()).unwrap();
        assert_eq!(store.get(11).unwrap().as_deref(), Some(&frame[..]));
        assert_eq!(store.get(3).unwrap(), None);
        assert_eq!(listing(&store), vec![(11, frame.len())]);
        // No stray temp files survive a clean write.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with(".tmp")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_store_injects_deterministically() {
        let plan = FaultPlan::for_store(vec![
            StoreFault::Transient {
                prob: 0.6,
                max_failures: 2,
            },
            StoreFault::BitFlip { prob: 0.4 },
        ]);
        let run = || -> (u32, Vec<Option<Vec<u8>>>) {
            let inj = faults::StoreFaultInjector::new(&plan, 5);
            let mut store = FaultyStore::new(Box::new(MemoryStore::new()), inj);
            let mut retries = 0;
            for home in 0..30 {
                let frame = encode_frame(home as u64, 1, &payload());
                loop {
                    match store.put(home, 1, &frame) {
                        Ok(()) => break,
                        Err(e) => {
                            assert!(e.is_transient());
                            retries += 1;
                        }
                    }
                }
            }
            let stored = (0..30).map(|h| store.get(h).unwrap()).collect();
            (retries, stored)
        };
        let (retries_a, stored_a) = run();
        let (retries_b, stored_b) = run();
        assert_eq!(retries_a, retries_b);
        assert_eq!(stored_a, stored_b);
        assert!(retries_a > 0, "0.6 transient over 30 writes must fire");
        let flipped = stored_a
            .iter()
            .filter(|f| decode_frame(f.as_ref().unwrap()).is_err())
            .count();
        assert!(flipped > 0, "0.4 bit flip over 30 writes must corrupt");
    }

    #[test]
    fn faulty_store_keeps_one_attempt_count_per_home() {
        let plan = FaultPlan::for_store(vec![StoreFault::Transient {
            prob: 0.5,
            max_failures: 2,
        }]);
        let inj = faults::StoreFaultInjector::new(&plan, 3);
        let mut store = FaultyStore::new(Box::new(MemoryStore::new()), inj);
        let mut retries = 0;
        for generation in 1..=20 {
            for home in 0..10 {
                let frame = encode_frame(home as u64, generation, &payload());
                while store.put(home, generation, &frame).is_err() {
                    retries += 1;
                }
            }
        }
        assert!(retries > 0, "0.5 transient over 200 writes must fire");
        assert_eq!(store.attempts.len(), 10);
    }

    #[test]
    fn stale_replay_keeps_previous_generation() {
        let plan = FaultPlan::for_store(vec![StoreFault::StaleReplay { prob: 1.0 }]);
        let inj = faults::StoreFaultInjector::new(&plan, 1);
        let mut store = FaultyStore::new(Box::new(MemoryStore::new()), inj);
        // Generation-0 write also gets dropped under prob 1.0, so seed
        // the inner store through a fault-free wrapper first.
        let gen0 = encode_frame(4, 0, &payload());
        store.inner.put(4, 0, &gen0).unwrap();
        store.put(4, 1, &encode_frame(4, 1, &payload())).unwrap();
        let bytes = store.get(4).unwrap().unwrap();
        assert_eq!(bytes, gen0, "dropped write must leave generation 0");
        assert!(matches!(
            validate_frame(&bytes, 4, 1, WINDOW),
            Err(StoreError::StaleGeneration {
                found: 0,
                expected: 1,
                ..
            })
        ));
    }

    fn manifest(shards: u64) -> Manifest {
        Manifest {
            homes: 600,
            shards,
            rounds: 4,
            root_seed: 7,
            window: 15,
            fill: 1,
            start: 86_400,
            resolution: 60,
            shard_samples: (0..shards).map(|i| 1000 + i).collect(),
        }
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let m = manifest(16);
        let bytes = m.encode();
        assert_eq!(&bytes[..4], b"FDM2");
        assert_eq!(bytes.len(), 72 + 16 * 8 + 4);
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        // Every word sits where the layout says, so no two fields can
        // swap unnoticed.
        for (at, want) in [(36, 15u64), (44, 1), (52, 86_400), (60, 60)] {
            assert_eq!(bytes[at..at + 8], want.to_le_bytes(), "word at {at}");
        }
        for cut in 0..bytes.len() {
            let err = Manifest::decode(&bytes[..cut]).expect_err("prefix must fail");
            assert_names_a_byte(&bytes[..cut], err);
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let err = Manifest::decode(&bad).expect_err("a flip must fail");
            assert_names_a_byte(&bad, err);
        }

        // An intact FDM1 manifest (no configuration words, valid CRC) is
        // refused at its magic; there is no decoder for it.
        let mut fdm1 = b"FDM1".to_vec();
        for v in [600u64, 16, 4, 7] {
            fdm1.extend_from_slice(&v.to_le_bytes());
        }
        fdm1.extend_from_slice(&0u32.to_le_bytes());
        let crc = crc32(&fdm1[4..]);
        fdm1.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(Manifest::decode(&fdm1), Err(DecodeError::BadMagic));

        let root = tmp_dir("manifest");
        assert_eq!(Manifest::read(&root), Ok(None));
        m.write(&root).unwrap();
        assert_eq!(Manifest::read(&root), Ok(Some(m)));
        let _ = fs::remove_dir_all(&root);
    }
}
