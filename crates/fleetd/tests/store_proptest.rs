//! Property tests for the durable checkpoint frame (`fleetd::store`):
//! encode/decode is a bijection, truncation at every prefix length
//! errors cleanly, and — unlike the raw codec — ANY single-byte flip is
//! detected by the CRC32 frame, never silently round-tripping to a
//! different record. Framing a checkpoint directly equals framing its
//! encoded payload.

use fleetd::codec;
use fleetd::store::{self, FrameError, FRAME_OVERHEAD};
use proptest::prelude::*;
use stream::{FillCheckpoint, WindowCheckpoint};
use timeseries::Summary;

proptest! {
    #[test]
    fn frame_round_trips(
        home in 0u64..1_000_000,
        generation in 0u64..1_000_000,
        payload in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let bytes = store::encode_frame(home, generation, &payload);
        prop_assert_eq!(bytes.len(), FRAME_OVERHEAD + payload.len());
        let frame = store::decode_frame(&bytes).unwrap();
        prop_assert_eq!(frame.home, home);
        prop_assert_eq!(frame.generation, generation);
        prop_assert_eq!(frame.payload, payload);
    }

    #[test]
    fn frame_checkpoint_equals_encode_frame(
        home in 0u64..1_000_000,
        generation in 0u64..1_000_000,
        fill_sel in (0u8..4, 0u64..1_000, -5e3..5e3f64),
        open in proptest::collection::vec(-1e4..1e4f64, 0..16),
        closed_raw in proptest::collection::vec((-1e4..1e4f64, 0.0..1e6f64), 0..48),
    ) {
        let (tag, n, w) = fill_sel;
        let fill = match tag {
            0 => FillCheckpoint::Passthrough,
            1 => FillCheckpoint::Zero,
            2 => FillCheckpoint::HoldPending(n),
            _ => FillCheckpoint::HoldLast(w),
        };
        let closed = closed_raw
            .into_iter()
            .map(|(mean, variance)| Summary {
                mean,
                variance,
                range: variance.sqrt(),
                min: mean - variance.sqrt(),
                max: mean,
            })
            .collect();
        let cp = WindowCheckpoint { fill, open, closed };
        let bytes = store::frame_checkpoint(home, generation, &cp);
        prop_assert_eq!(&bytes, &store::encode_frame(home, generation, &codec::encode(&cp)));
        let back = store::validate_frame(&bytes, home as usize, generation).unwrap();
        prop_assert_eq!(back, cp);
    }

    #[test]
    fn every_prefix_truncation_errors(
        home in 0u64..1_000_000,
        generation in 0u64..1_000_000,
        payload in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let bytes = store::encode_frame(home, generation, &payload);
        for cut in 0..bytes.len() {
            let err = store::decode_frame(&bytes[..cut]).expect_err("prefix must fail");
            prop_assert!(err.offset() <= cut, "cut {}: {}", cut, err);
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected(
        home in 0u64..1_000_000,
        generation in 0u64..1_000_000,
        payload in proptest::collection::vec(0u8..=255, 0..96),
        flip in 1u8..=255,
    ) {
        // Exhaustive over positions: the magic covers bytes 0..4, the
        // CRC covers the header fields and the payload, and the length
        // field is checked against the buffer — so no flipped byte may
        // yield Ok, anywhere in the frame.
        let mut bytes = store::encode_frame(home, generation, &payload);
        for at in 0..bytes.len() {
            bytes[at] ^= flip;
            prop_assert!(
                store::decode_frame(&bytes).is_err(),
                "flip {:#04x} at byte {} went undetected",
                flip,
                at
            );
            bytes[at] ^= flip;
        }
        prop_assert!(store::decode_frame(&bytes).is_ok(), "restore must be clean");
    }

    #[test]
    fn trailing_bytes_are_rejected(
        home in 0u64..1_000,
        generation in 0u64..1_000,
        payload in proptest::collection::vec(0u8..=255, 0..64),
        junk in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let mut bytes = store::encode_frame(home, generation, &payload);
        let end = bytes.len();
        bytes.extend_from_slice(&junk);
        let junk_len = junk.len();
        prop_assert_eq!(
            store::decode_frame(&bytes).unwrap_err(),
            FrameError::TrailingBytes { trailing: junk_len }
        );
        prop_assert!(store::decode_frame(&bytes[..end]).is_ok());
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = store::decode_frame(&bytes); // Err or Ok, never a panic
    }
}
