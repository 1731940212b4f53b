//! Property tests for the checkpoint codec: encode/decode is an exact
//! bijection on valid checkpoints, and decode never panics on mangled
//! bytes.

use fleetd::codec;
use proptest::prelude::*;
use stream::{FillCheckpoint, WindowCheckpoint};
use timeseries::Summary;

fn build_checkpoint(
    fill_sel: (u8, u64, f64),
    open: Vec<f64>,
    closed_raw: Vec<(f64, f64, f64)>,
) -> WindowCheckpoint {
    let (tag, n, w) = fill_sel;
    let fill = match tag % 4 {
        0 => FillCheckpoint::Passthrough,
        1 => FillCheckpoint::Zero,
        2 => FillCheckpoint::HoldPending(n),
        _ => FillCheckpoint::HoldLast(w),
    };
    let closed = closed_raw
        .into_iter()
        .map(|(mean, variance, spread)| Summary {
            mean,
            variance,
            range: spread.abs(),
            min: mean - spread.abs() / 2.0,
            max: mean + spread.abs() / 2.0,
        })
        .collect();
    WindowCheckpoint { fill, open, closed }
}

proptest! {
    #[test]
    fn encode_decode_round_trips(
        fill_sel in (0u8..4, 0u64..1_000, -5e3..5e3f64),
        open in proptest::collection::vec(-1e4..1e4f64, 0..32),
        closed_raw in proptest::collection::vec(
            (-1e4..1e4f64, 0.0..1e6f64, 0.0..1e4f64),
            0..64,
        ),
    ) {
        let cp = build_checkpoint(fill_sel, open, closed_raw);
        let bytes = codec::encode(&cp);
        prop_assert_eq!(bytes.len(), codec::encoded_len(&cp));
        let back = codec::decode(&bytes).unwrap();
        prop_assert_eq!(back, cp);
    }

    #[test]
    fn every_prefix_truncation_errors(
        fill_sel in (0u8..4, 0u64..1_000, -5e3..5e3f64),
        open in proptest::collection::vec(-1e4..1e4f64, 0..16),
        closed_raw in proptest::collection::vec(
            (-1e4..1e4f64, 0.0..1e6f64, 0.0..1e4f64),
            0..8,
        ),
    ) {
        // Exhaustive, not sampled: a checkpoint cut at ANY prefix
        // length must decode to a clean error — no cut point may parse
        // as a different valid checkpoint, and none may panic.
        let cp = build_checkpoint(fill_sel, open, closed_raw);
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
        fill_sel in (0u8..4, 0u64..1_000, -5e3..5e3f64),
        open in proptest::collection::vec(-1e4..1e4f64, 0..16),
        at_frac in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let cp = build_checkpoint(fill_sel, open, Vec::new());
        let mut bytes = codec::encode(&cp);
        let at = ((bytes.len() as f64) * at_frac) as usize % bytes.len();
        bytes[at] ^= flip;
        // The raw codec has no checksum, so a payload flip may decode
        // differently — it must never panic. Detection of every flip is
        // the CRC frame layer's guarantee (store_proptest.rs).
        let _ = codec::decode(&bytes);
    }
}
