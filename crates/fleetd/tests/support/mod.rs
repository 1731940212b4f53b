//! Checkpoint generators shared by the codec and frame property tests.

use niom::MeanVariance;
use proptest::prelude::*;
use stream::{FillCheckpoint, WindowCheckpoint};

/// A stored `f64`: mostly ordinary wattages, often a value a lossy codec
/// would mangle — NaN with and without a payload, ±∞, subnormals, -0.
pub fn field() -> Union<f64> {
    prop_oneof![
        6 => -1e6..1e6f64,
        1 => Just(f64::NAN),
        1 => Just(f64::from_bits(0x7ff4_dead_beef_0001)),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::from_bits(1)),
        1 => Just(-f64::MIN_POSITIVE / 3.0),
        1 => Just(-0.0),
    ]
}

/// Builds a checkpoint from drawn parts: a fill tag (mod 4) with its
/// count and wattage, the open samples, and `(mean, variance)` per closed
/// window.
pub fn checkpoint(
    (tag, n, w): (u8, u64, f64),
    open: Vec<f64>,
    closed: Vec<(f64, f64)>,
) -> WindowCheckpoint<MeanVariance> {
    let fill = match tag % 4 {
        0 => FillCheckpoint::Passthrough,
        1 => FillCheckpoint::Zero,
        2 => FillCheckpoint::HoldPending(n),
        _ => FillCheckpoint::HoldLast(w),
    };
    let closed = closed
        .into_iter()
        .map(|(mean, variance)| MeanVariance { mean, variance })
        .collect();
    WindowCheckpoint { fill, open, closed }
}

/// Every stored value of `cp` as raw bits, in field order: equal bits
/// mean a bit-exact round trip, NaN payloads included (`PartialEq` on
/// the checkpoint is false for any NaN).
pub fn bits(cp: &WindowCheckpoint<MeanVariance>) -> Vec<u64> {
    let fill = match cp.fill {
        FillCheckpoint::Passthrough => [0, 0],
        FillCheckpoint::Zero => [1, 0],
        FillCheckpoint::HoldPending(n) => [2, n],
        FillCheckpoint::HoldLast(w) => [3, w.to_bits()],
    };
    let mut out = fill.to_vec();
    out.push(cp.open.len() as u64);
    out.extend(cp.open.iter().map(|x| x.to_bits()));
    out.push(cp.closed.len() as u64);
    out.extend(
        cp.closed
            .iter()
            .flat_map(|r| [r.mean.to_bits(), r.variance.to_bits()]),
    );
    out
}
