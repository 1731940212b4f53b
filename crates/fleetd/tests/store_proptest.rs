//! Property tests for the durable checkpoint frame (`fleetd::store`):
//! encode/decode is a bijection, truncation at every prefix length
//! errors cleanly, and — unlike the raw codec — ANY single-byte flip is
//! detected by the CRC32 frame, never silently round-tripping to a
//! different record. Framing a checkpoint directly equals framing its
//! encoded payload, and a frame's length is a function of the sample
//! count and gap mask alone, never of the wattages.

mod support;

use fleetd::codec::{self, DecodeError};
use fleetd::store::{self, FRAME_OVERHEAD};
use niom::ThresholdDetector;
use proptest::prelude::*;
use stream::{Sample, StreamFill, StreamSpec, StreamState, ThresholdStream};
use support::{bits, checkpoint, field};
use timeseries::{Resolution, Timestamp};

/// A detector window longer than any generated open window.
const WINDOW: usize = 64;

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
        fill_sel in (0u8..4, 0u64..1_000, field()),
        open in proptest::collection::vec(field(), 0..16),
        closed in proptest::collection::vec((field(), field()), 0..48),
    ) {
        let cp = checkpoint(fill_sel, open, closed);
        let bytes = store::frame_checkpoint(home, generation, &cp);
        prop_assert_eq!(&bytes, &store::encode_frame(home, generation, &codec::encode(&cp)));
        let back = store::validate_frame(&bytes, home as usize, generation, WINDOW).unwrap();
        prop_assert_eq!(bits(&back), bits(&cp));
    }

    #[test]
    fn every_prefix_truncation_errors(
        home in 0u64..1_000_000,
        generation in 0u64..1_000_000,
        fill_sel in (0u8..4, 0u64..1_000, field()),
        open in proptest::collection::vec(field(), 0..8),
        closed in proptest::collection::vec((field(), field()), 0..6),
    ) {
        let cp = checkpoint(fill_sel, open, closed);
        let bytes = store::frame_checkpoint(home, generation, &cp);
        for cut in 0..bytes.len() {
            let err = store::decode_frame(&bytes[..cut]).expect_err("prefix must fail");
            prop_assert!(err.offset() <= cut, "cut {}: {}", cut, err);
            prop_assert!(
                store::validate_frame(&bytes[..cut], home as usize, generation, WINDOW).is_err()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected(
        home in 0u64..1_000_000,
        generation in 0u64..1_000_000,
        fill_sel in (0u8..4, 0u64..1_000, field()),
        open in proptest::collection::vec(field(), 0..8),
        closed in proptest::collection::vec((field(), field()), 0..6),
        flip in 1u8..=255,
    ) {
        // Exhaustive over positions: the magic covers bytes 0..4, the
        // CRC covers the header fields and the payload, and the length
        // field is checked against the buffer — so no flipped byte may
        // yield Ok, anywhere in the frame.
        let cp = checkpoint(fill_sel, open, closed);
        let mut bytes = store::frame_checkpoint(home, generation, &cp);
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
        let back = store::validate_frame(&bytes, home as usize, generation, WINDOW);
        prop_assert_eq!(bits(&back.unwrap()), bits(&cp), "restore must be clean");
    }

    #[test]
    fn frame_length_depends_on_the_gap_mask_not_the_wattages(
        fill in 0u8..3,
        mask in proptest::collection::vec(0u8..4, 0..160),
        watts_a in proptest::collection::vec(0.0..6e3f64, 160..161),
        watts_b in proptest::collection::vec(0.0..6e3f64, 160..161),
        split_frac in 0.0..1.0f64,
    ) {
        // What an observer of the store sees of a home is its frame
        // lengths. Two homes with the same fill policy and the same gap
        // mask (a zero draw marks a transport gap) but unrelated
        // readings must write equally long frames at every eviction.
        let fill = [None, Some(StreamFill::Zero), Some(StreamFill::Hold)][fill as usize];
        let spec = StreamSpec::new(Timestamp::ZERO, Resolution::ONE_MINUTE);
        let split = (mask.len() as f64 * split_frac) as usize;
        let frame_lens = |watts: &[f64]| -> [usize; 2] {
            let samples: Vec<Sample> = mask
                .iter()
                .zip(watts)
                .map(|(&m, &w)| if m == 0 { Sample::gap() } else { Sample::valid(w) })
                .collect();
            let mut s = ThresholdStream::new(ThresholdDetector::default(), spec);
            if let Some(fill) = fill {
                s = s.with_fill(fill);
            }
            s.feed(&samples[..split]);
            let head = store::frame_checkpoint(3, 1, &s.compact_checkpoint()).len();
            s.feed(&samples[split..]);
            [head, store::frame_checkpoint(3, 2, &s.into_compact()).len()]
        };
        prop_assert_eq!(frame_lens(&watts_a), frame_lens(&watts_b));
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
            DecodeError::TrailingBytes { offset: end, trailing: junk_len }
        );
        prop_assert!(store::decode_frame(&bytes[..end]).is_ok());
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = store::decode_frame(&bytes); // Err or Ok, never a panic
    }
}
