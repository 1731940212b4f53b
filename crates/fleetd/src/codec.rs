//! Compact binary codec for evicted per-home checkpoints, and the one
//! reader every stored layout of `fleetd` is parsed with.
//!
//! An evicted home is exactly one encoded
//! [`stream::WindowCheckpoint`] of its [`stream::ThresholdStream`]: the
//! fill automaton (one tagged scalar), the open-window samples, and one
//! 16-byte [`MeanVariance`] per closed window — the mean and variance the
//! threshold detector classifies a window by, and nothing else. Window
//! `i` always starts at sample `i × window`, so neither the window starts
//! nor the open window's start are stored. The format is little-endian,
//! fixed-width (no varints, no compression: an encoding's length depends
//! on its open-sample and closed-window counts alone, never on the
//! wattages), versioned by a 4-byte magic, and round-trips exactly
//! (`decode(encode(cp)) == cp`, including NaN payloads bit-for-bit) —
//! the property the eviction identity claim leans on.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   4 bytes  "FDC3"
//! fill    1 + 8    tag (0 passthrough, 1 zero, 2 hold-pending, 3 hold-last)
//!                  + u64 count or f64 watts payload (zero if unused)
//! open    4 + 8n   u32 count + f64 samples
//! closed  4 + 16n  u32 count + f64 mean, f64 variance
//! ```
//!
//! Earlier versions are not decoded. `"FDC2"` stored each closed window
//! as a 40-byte summary (mean, variance, range, min, max); `"FDC1"` also
//! stored a u64 start per closed window and the open window's start.
//! Either fails with [`DecodeError::BadMagic`], which the store reports as
//! corrupt and the service's recovery policy then handles.
//!
//! The checkpoint, the store's frame ([`crate::store::decode_frame`]) and
//! its manifest ([`crate::store::Manifest::decode`]) are parsed by one
//! bounds-checked little-endian cursor, which checks the magic, caps
//! every reservation by the bytes left and refuses trailing bytes. All
//! three fail through [`DecodeError`].

use niom::MeanVariance;
use stream::{FillCheckpoint, WindowCheckpoint};

/// First four bytes of every encoded checkpoint.
pub const MAGIC: [u8; 4] = *b"FDC3";

/// Byte offset of the open-window count: after the magic and the fill
/// tag and payload.
pub(crate) const OPEN_COUNT_OFFSET: usize = 4 + 9;

/// Encoded bytes per closed window.
const RECORD_BYTES: usize = 16;

/// Why stored bytes failed to parse: an encoded checkpoint ([`decode`]),
/// a store frame ([`decode_frame`](crate::store::decode_frame)) or a
/// fleet manifest ([`Manifest::decode`](crate::store::Manifest::decode)).
///
/// Every variant names the byte it is anchored at (see
/// [`DecodeError::offset`]), counted from the start of the parsed buffer,
/// so recovery logs can say *where* a stored record went bad, not just
/// that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a field.
    Truncated {
        /// Byte position of the field that could not be read.
        offset: usize,
    },
    /// The buffer doesn't start with its layout's magic (byte 0 of every
    /// layout).
    BadMagic,
    /// Unknown fill-automaton tag.
    BadFillTag {
        /// The unrecognized tag byte.
        tag: u8,
        /// Byte position of the tag.
        offset: usize,
    },
    /// The stored CRC32 doesn't match the bytes it covers.
    CrcMismatch {
        /// Byte position of the stored CRC.
        offset: usize,
        /// CRC stored in the record.
        stored: u32,
        /// CRC computed over the record's contents.
        computed: u32,
    },
    /// Bytes remain after a complete record.
    TrailingBytes {
        /// Byte position where the record ended and the surplus begins.
        offset: usize,
        /// Number of surplus bytes.
        trailing: usize,
    },
}

impl DecodeError {
    /// Byte offset the error is anchored at: the field that could not be
    /// read, the magic (0), the bad tag, the stored CRC, or where surplus
    /// bytes begin.
    pub fn offset(&self) -> usize {
        match *self {
            DecodeError::BadMagic => 0,
            DecodeError::Truncated { offset }
            | DecodeError::BadFillTag { offset, .. }
            | DecodeError::CrcMismatch { offset, .. }
            | DecodeError::TrailingBytes { offset, .. } => offset,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::Truncated { offset } => write!(f, "truncated at byte {offset}"),
            DecodeError::BadMagic => write!(f, "magic mismatch at byte 0"),
            DecodeError::BadFillTag { tag, offset } => {
                write!(f, "unknown fill tag {tag} at byte {offset}")
            }
            DecodeError::CrcMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "crc mismatch at byte {offset} (stored {stored:#010x}, computed {computed:#010x})"
            ),
            DecodeError::TrailingBytes { offset, trailing } => {
                write!(f, "{trailing} trailing bytes at byte {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a checkpoint into the compact binary layout.
///
/// # Examples
///
/// ```
/// use niom::MeanVariance;
/// use stream::{FillCheckpoint, WindowCheckpoint};
///
/// let cp = WindowCheckpoint {
///     fill: FillCheckpoint::Passthrough,
///     open: vec![120.0, 350.5],
///     closed: vec![MeanVariance { mean: 210.0, variance: 12_100.0 }],
/// };
/// let bytes = fleetd::codec::encode(&cp);
/// assert_eq!(bytes.len(), 21 + 2 * 8 + 16);
/// assert_eq!(fleetd::codec::decode(&bytes).unwrap(), cp);
/// ```
pub fn encode(cp: &WindowCheckpoint<MeanVariance>) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(cp));
    encode_into(cp, &mut out);
    out
}

/// Appends the encoding of `cp` to `out` — what [`encode`] returns,
/// written in place (the store frames checkpoints this way, straight
/// after the frame header).
pub fn encode_into(cp: &WindowCheckpoint<MeanVariance>, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    let (tag, payload): (u8, u64) = match cp.fill {
        FillCheckpoint::Passthrough => (0, 0),
        FillCheckpoint::Zero => (1, 0),
        FillCheckpoint::HoldPending(n) => (2, n),
        FillCheckpoint::HoldLast(w) => (3, w.to_bits()),
    };
    out.push(tag);
    out.extend_from_slice(&payload.to_le_bytes());
    out.extend_from_slice(&(cp.open.len() as u32).to_le_bytes());
    for &x in &cp.open {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.extend_from_slice(&(cp.closed.len() as u32).to_le_bytes());
    for r in &cp.closed {
        out.extend_from_slice(&r.mean.to_le_bytes());
        out.extend_from_slice(&r.variance.to_le_bytes());
    }
}

/// Exact byte length [`encode`] produces for `cp` — the cold-store cost
/// of evicting this home.
pub fn encoded_len(cp: &WindowCheckpoint<MeanVariance>) -> usize {
    OPEN_COUNT_OFFSET + 4 + 8 * cp.open.len() + 4 + RECORD_BYTES * cp.closed.len()
}

/// The bounds-checked little-endian cursor over one stored record: the
/// checkpoint here, the frame and the manifest in [`crate::store`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf`, which must open with `magic`.
    pub(crate) fn open(buf: &'a [u8], magic: [u8; 4]) -> Result<Reader<'a>, DecodeError> {
        let mut r = Reader { buf, at: 0 };
        if r.take(4)? != magic {
            return Err(DecodeError::BadMagic);
        }
        Ok(r)
    }

    /// Offset of the next byte to read.
    pub(crate) fn at(&self) -> usize {
        self.at
    }

    /// The next `n` bytes, or `Truncated` at the current offset.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(DecodeError::Truncated { offset: self.at })?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A u32 count, then that many `size`-byte items read by `item`. The
    /// reservation is capped by the bytes left, so a corrupt count
    /// cannot reserve more than the buffer could hold.
    pub(crate) fn counted<T>(
        &mut self,
        size: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min((self.buf.len() - self.at) / size));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Ends the record: any bytes left over are `TrailingBytes` at the
    /// current offset.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() - self.at {
            0 => Ok(()),
            trailing => Err(DecodeError::TrailingBytes {
                offset: self.at,
                trailing,
            }),
        }
    }
}

/// Deserializes a buffer produced by [`encode`].
///
/// # Errors
///
/// [`DecodeError`] on truncation, magic mismatch, an unknown fill tag,
/// or trailing bytes. Never panics on malformed input.
pub fn decode(bytes: &[u8]) -> Result<WindowCheckpoint<MeanVariance>, DecodeError> {
    let mut r = Reader::open(bytes, MAGIC)?;
    let tag_at = r.at();
    let tag = r.u8()?;
    let payload = r.u64()?;
    let fill = match tag {
        0 => FillCheckpoint::Passthrough,
        1 => FillCheckpoint::Zero,
        2 => FillCheckpoint::HoldPending(payload),
        3 => FillCheckpoint::HoldLast(f64::from_bits(payload)),
        tag => {
            return Err(DecodeError::BadFillTag {
                tag,
                offset: tag_at,
            })
        }
    };
    let open = r.counted(8, Reader::f64)?;
    let closed = r.counted(RECORD_BYTES, |r| {
        Ok(MeanVariance {
            mean: r.f64()?,
            variance: r.f64()?,
        })
    })?;
    r.finish()?;
    Ok(WindowCheckpoint { fill, open, closed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> WindowCheckpoint<MeanVariance> {
        WindowCheckpoint {
            fill: FillCheckpoint::HoldLast(432.5),
            open: vec![120.0, f64::NAN, 0.0, -1.5],
            closed: vec![
                MeanVariance {
                    mean: 1.0,
                    variance: 2.0,
                },
                MeanVariance {
                    mean: f64::MIN,
                    variance: f64::INFINITY,
                },
            ],
        }
    }

    fn bit_eq(a: &WindowCheckpoint<MeanVariance>, b: &WindowCheckpoint<MeanVariance>) -> bool {
        // PartialEq is false under NaN; compare payload bits instead.
        encode(a) == encode(b)
    }

    #[test]
    fn round_trips_exactly() {
        for fill in [
            FillCheckpoint::Passthrough,
            FillCheckpoint::Zero,
            FillCheckpoint::HoldPending(7),
            FillCheckpoint::HoldLast(99.25),
        ] {
            let cp = WindowCheckpoint {
                fill,
                ..sample_checkpoint()
            };
            let bytes = encode(&cp);
            assert_eq!(bytes.len(), encoded_len(&cp));
            assert!(bit_eq(&decode(&bytes).unwrap(), &cp), "{fill:?}");
        }
    }

    #[test]
    fn empty_checkpoint_is_21_bytes() {
        let cp = WindowCheckpoint {
            fill: FillCheckpoint::Zero,
            open: Vec::new(),
            closed: Vec::new(),
        };
        assert_eq!(encode(&cp).len(), 21);
    }

    #[test]
    fn malformed_buffers_error_not_panic() {
        let good = encode(&sample_checkpoint());
        assert_eq!(decode(&[]), Err(DecodeError::Truncated { offset: 0 }));
        assert_eq!(decode(b"NOPE"), Err(DecodeError::BadMagic));
        for cut in 0..good.len() {
            let err = decode(&good[..cut]).expect_err("every prefix must fail");
            assert!(err.offset() <= cut, "cut {cut}: {err}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(DecodeError::TrailingBytes {
                offset: good.len(),
                trailing: 1
            })
        );
        let mut bad_tag = good.clone();
        bad_tag[4] = 9;
        assert_eq!(
            decode(&bad_tag),
            Err(DecodeError::BadFillTag { tag: 9, offset: 4 })
        );
    }

    #[test]
    fn huge_declared_lengths_do_not_preallocate() {
        // A 4 GiB open-window count on a 17-byte buffer must fail fast
        // (Truncated), not try to reserve 32 GiB.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(0);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::Truncated {
                offset: bytes.len()
            })
        );
    }
}
