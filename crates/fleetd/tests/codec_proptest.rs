//! Property tests for the checkpoint codec: encode/decode is an exact
//! bijection on valid checkpoints — bit for bit, NaN payloads, ±∞ and
//! subnormals included — and decode never panics on mangled bytes.

mod support;

use fleetd::codec;
use proptest::prelude::*;
use support::{bits, checkpoint, field};

proptest! {
    #[test]
    fn encode_decode_round_trips(
        fill_sel in (0u8..4, 0u64..1_000, field()),
        open in proptest::collection::vec(field(), 0..32),
        closed in proptest::collection::vec((field(), field()), 0..64),
    ) {
        let cp = checkpoint(fill_sel, open, closed);
        let bytes = codec::encode(&cp);
        prop_assert_eq!(bytes.len(), codec::encoded_len(&cp));
        prop_assert_eq!(bytes.len(), 21 + 8 * cp.open.len() + 16 * cp.closed.len());
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(bits(&back), bits(&cp));
    }

    #[test]
    fn every_prefix_truncation_errors(
        fill_sel in (0u8..4, 0u64..1_000, field()),
        open in proptest::collection::vec(field(), 0..16),
        closed in proptest::collection::vec((field(), field()), 0..8),
    ) {
        // Exhaustive, not sampled: a checkpoint cut at ANY prefix
        // length must decode to a clean error — no cut point may parse
        // as a different valid checkpoint, and none may panic.
        let cp = checkpoint(fill_sel, open, closed);
        let bytes = codec::encode(&cp);
        for cut in 0..bytes.len() {
            let err = codec::decode(&bytes[..cut]).expect_err("prefix must fail");
            prop_assert!(err.offset() <= cut, "cut {}: {}", cut, err);
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = codec::decode(&bytes); // Err or Ok, never a panic
    }

    #[test]
    fn single_byte_corruption_never_panics(
        fill_sel in (0u8..4, 0u64..1_000, field()),
        open in proptest::collection::vec(field(), 0..16),
        closed in proptest::collection::vec((field(), field()), 0..8),
        at_frac in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let cp = checkpoint(fill_sel, open, closed);
        let mut bytes = codec::encode(&cp);
        let at = ((bytes.len() as f64) * at_frac) as usize % bytes.len();
        bytes[at] ^= flip;
        // The raw codec has no checksum, so a payload flip may decode
        // differently — it must never panic. Detection of every flip is
        // the CRC frame layer's guarantee (store_proptest.rs).
        let _ = codec::decode(&bytes);
    }
}
