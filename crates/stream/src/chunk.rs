//! Chunk payloads and the causal gap-fill state shared by the power
//! streams.

use faults::{FaultyTrace, GapFill};
use serde::{Deserialize, Serialize};
use timeseries::{PowerTrace, Resolution, Timestamp};

/// One meter reading as a streaming source would deliver it: a wattage
/// and a gap flag (the sample was lost or corrupted in transit).
///
/// Non-finite wattages are treated as gaps regardless of the flag, exactly
/// as [`FaultyTrace::from_raw`] marks them in the batch fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Observed aggregate power, watts. Ignored by gap fill when `gap`.
    pub watts: f64,
    /// Whether this slot is a gap (missing/corrupted sample).
    pub gap: bool,
}

impl Sample {
    /// A valid reading.
    pub fn valid(watts: f64) -> Sample {
        Sample { watts, gap: false }
    }

    /// A missing slot.
    pub fn gap() -> Sample {
        Sample {
            watts: f64::NAN,
            gap: true,
        }
    }
}

/// Converts clean trace samples into a dense [`Sample`] buffer (no gaps).
pub fn dense_samples(values: &[f64]) -> Vec<Sample> {
    values.iter().map(|&w| Sample::valid(w)).collect()
}

/// Converts a gap-marked [`FaultyTrace`] into the [`Sample`] buffer whose
/// streamed ingestion (under the matching [`StreamFill`]) reproduces
/// `trace.fill(policy)` byte for byte.
pub fn faulty_samples(trace: &FaultyTrace) -> Vec<Sample> {
    trace
        .raw_values()
        .iter()
        .zip(trace.gaps())
        .map(|(&watts, &gap)| Sample { watts, gap })
        .collect()
}

/// Trace geometry a power stream needs to label its output — the sample
/// values themselves arrive through [`feed`](crate::StreamState::feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Timestamp of the first sample.
    pub start: Timestamp,
    /// Sampling resolution.
    pub resolution: Resolution,
}

impl StreamSpec {
    /// Spec with an explicit origin and resolution.
    pub fn new(start: Timestamp, resolution: Resolution) -> StreamSpec {
        StreamSpec { start, resolution }
    }

    /// The geometry of an existing trace (for differential testing).
    pub fn of_trace(trace: &PowerTrace) -> StreamSpec {
        StreamSpec {
            start: trace.start(),
            resolution: trace.resolution(),
        }
    }

    /// The geometry of a gap-marked trace.
    pub fn of_faulty(trace: &FaultyTrace) -> StreamSpec {
        StreamSpec {
            start: trace.start(),
            resolution: trace.resolution(),
        }
    }
}

/// Causal gap-fill policies available to streaming ingestion.
///
/// These mirror [`GapFill`] except for `Linear`, which interpolates toward
/// the *next* valid sample and therefore has no causal streaming form —
/// buffer and use the batch fault layer if linear fill is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamFill {
    /// Gaps read as 0 W ([`GapFill::Zero`]).
    Zero,
    /// Gaps repeat the last valid sample; leading gaps are back-filled with
    /// the first valid sample once it arrives ([`GapFill::Hold`] — the
    /// back-fill is the one place Hold looks "ahead", so those samples are
    /// withheld until the first valid reading and flushed then, or at
    /// finalize as 0 W if the trace never produces one).
    Hold,
}

impl StreamFill {
    /// The batch policy this streaming fill reproduces.
    pub fn batch(self) -> GapFill {
        match self {
            StreamFill::Zero => GapFill::Zero,
            StreamFill::Hold => GapFill::Hold,
        }
    }
}

/// The causal gap-fill automaton, and its position in a
/// [`WindowCheckpoint`](crate::WindowCheckpoint): the incremental
/// counterpart of [`FaultyTrace::fill`]. The only mutable fill state is a
/// count of withheld leading gaps or the last valid wattage (see
/// [`StreamFill::Hold`]), so a checkpoint stores this one tagged scalar
/// and resumes byte-identically.
///
/// Inside a stream it resolves each incoming sample to the value the
/// batch fill would put in that slot, emitting once per resolved sample
/// (possibly several times on the sample that ends a leading-gap run
/// under Hold, and zero times while such a run is open).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FillCheckpoint {
    /// No fill policy: samples are forwarded verbatim (clean-trace
    /// ingestion; gap flags are resolved as 0 W so the stream stays
    /// total, but feeding gaps without a fill policy has no batch
    /// counterpart).
    Passthrough,
    /// [`StreamFill::Zero`]: gaps read as 0 W (no mutable state).
    Zero,
    /// [`StreamFill::Hold`] with an open leading-gap run of this many
    /// withheld samples.
    HoldPending(u64),
    /// [`StreamFill::Hold`] after the first valid sample, carrying the
    /// last valid (unclamped) wattage.
    HoldLast(f64),
}

impl FillCheckpoint {
    pub(crate) fn new(fill: Option<StreamFill>) -> FillCheckpoint {
        match fill {
            None => FillCheckpoint::Passthrough,
            Some(StreamFill::Zero) => FillCheckpoint::Zero,
            Some(StreamFill::Hold) => FillCheckpoint::HoldPending(0),
        }
    }

    /// Whether `sample` counts as a gap under this fill (non-finite values
    /// are gaps whenever a fill policy is active, as in
    /// [`FaultyTrace::from_raw`]).
    pub(crate) fn is_gap(&self, sample: &Sample) -> bool {
        match self {
            FillCheckpoint::Passthrough => sample.gap,
            _ => sample.gap || !sample.watts.is_finite(),
        }
    }

    pub(crate) fn push(&mut self, sample: Sample, emit: &mut impl FnMut(f64)) {
        let gap = self.is_gap(&sample);
        match *self {
            FillCheckpoint::Passthrough => emit(if gap { 0.0 } else { sample.watts }),
            FillCheckpoint::Zero => emit(if gap { 0.0 } else { sample.watts.max(0.0) }),
            FillCheckpoint::HoldPending(n) => {
                if gap {
                    *self = FillCheckpoint::HoldPending(n + 1);
                } else {
                    // Batch Hold seeds `last` with the first valid value, so
                    // the leading gaps all read as that value.
                    for _ in 0..=n {
                        emit(sample.watts.max(0.0));
                    }
                    *self = FillCheckpoint::HoldLast(sample.watts);
                }
            }
            FillCheckpoint::HoldLast(last) => {
                if gap {
                    emit(last.max(0.0));
                } else {
                    emit(sample.watts.max(0.0));
                    *self = FillCheckpoint::HoldLast(sample.watts);
                }
            }
        }
    }

    /// Samples withheld by an open leading-gap run, and the value batch
    /// fill would give them if the stream ended now (no valid sample ever:
    /// `first_valid().unwrap_or(0.0)`).
    pub(crate) fn flush(&self) -> (usize, f64) {
        match *self {
            FillCheckpoint::HoldPending(n) => (n as usize, 0.0),
            _ => (0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(fill: Option<StreamFill>, samples: &[Sample]) -> Vec<f64> {
        let mut state = FillCheckpoint::new(fill);
        let mut out = Vec::new();
        for &s in samples {
            state.push(s, &mut |v| out.push(v));
        }
        let (pending, pad) = state.flush();
        out.extend(std::iter::repeat_n(pad, pending));
        out
    }

    fn batch(policy: GapFill, raw: Vec<f64>) -> Vec<f64> {
        FaultyTrace::from_raw(Timestamp::ZERO, Resolution::ONE_MINUTE, raw)
            .fill(policy)
            .samples()
            .to_vec()
    }

    #[test]
    fn zero_and_hold_match_batch_fill() {
        let raw = vec![
            f64::NAN,
            f64::NAN,
            120.0,
            f64::INFINITY,
            -30.0,
            f64::NAN,
            250.0,
        ];
        let faulty = FaultyTrace::from_raw(Timestamp::ZERO, Resolution::ONE_MINUTE, raw.clone());
        let samples = faulty_samples(&faulty);
        for fill in [StreamFill::Zero, StreamFill::Hold] {
            assert_eq!(
                resolve(Some(fill), &samples),
                batch(fill.batch(), raw.clone()),
                "{fill:?}"
            );
        }
    }

    #[test]
    fn all_gap_trace_resolves_to_zeros() {
        let raw = vec![f64::NAN; 5];
        for fill in [StreamFill::Zero, StreamFill::Hold] {
            let faulty =
                FaultyTrace::from_raw(Timestamp::ZERO, Resolution::ONE_MINUTE, raw.clone());
            assert_eq!(
                resolve(Some(fill), &faulty_samples(&faulty)),
                batch(fill.batch(), raw.clone())
            );
        }
    }

    #[test]
    fn passthrough_forwards_verbatim() {
        let vals = [0.0, 42.5, 1_000.0];
        assert_eq!(resolve(None, &dense_samples(&vals)), vals.to_vec());
    }
}
