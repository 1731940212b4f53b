//! Streaming NIOM occupancy detectors.
//!
//! All three detectors reduce the trace to non-overlapping window
//! records before doing anything global (baseline percentile, EM,
//! logistic scoring), so the streaming layer folds incoming samples into
//! one record per closed window as they arrive — O(len / window)
//! retained state, plus an open window of fewer than `window` samples —
//! and runs the detector's window-level entry point at finalize. Each
//! detector keeps only what it reads
//! ([`WindowedDetector::Record`](niom::WindowedDetector::Record)):
//!
//! | stream | record | bytes |
//! |---|---|---|
//! | [`ThresholdStream`] | [`MeanVariance`](niom::MeanVariance): mean, variance | 16 |
//! | [`HmmStream`] | the `f64` mean | 8 |
//! | [`LogisticStream`] | the whole `Summary`: mean, variance, range, min, max | 40 |
//!
//! A record is a projection of the same `Summary::of` over the same
//! values the batch `detect` projects, so the output is byte-identical
//! to it.

use crate::chunk::{Sample, StreamFill, StreamSpec};
use crate::ingest::{WindowBuf, WindowCheckpoint};
use crate::{FeedReport, StreamState};
use niom::{HmmDetector, LogisticDetector, ThresholdDetector, WindowedDetector};
use timeseries::LabelSeries;

/// A streaming windowed NIOM detector: byte-identical to the batch
/// `detect` of `D` for any chunking of the same samples.
#[derive(Debug, Clone, PartialEq)]
pub struct NiomStream<D: WindowedDetector> {
    detector: D,
    spec: StreamSpec,
    ingest: WindowBuf<D::Record>,
}

/// Streaming [`ThresholdDetector`]; keeps a 16-byte
/// [`MeanVariance`](niom::MeanVariance) per closed window.
pub type ThresholdStream = NiomStream<ThresholdDetector>;

/// Streaming [`HmmDetector`]: window means accumulate incrementally; EM +
/// Viterbi (which need every window) run at finalize, exactly as the
/// batch path does after its own window pass.
pub type HmmStream = NiomStream<HmmDetector>;

/// Streaming [`LogisticDetector`]: applies a pre-trained model over
/// incrementally accumulated window summaries.
pub type LogisticStream = NiomStream<LogisticDetector>;

impl<D: WindowedDetector> NiomStream<D> {
    /// Starts a stream for clean (gap-free) sample chunks.
    ///
    /// # Panics
    ///
    /// Panics if the detector's window is zero.
    pub fn new(detector: D, spec: StreamSpec) -> Self {
        let window = detector.window();
        NiomStream {
            detector,
            spec,
            ingest: WindowBuf::new(None, window),
        }
    }

    /// Resolves gap-marked (or non-finite) samples with `fill` before
    /// they reach the detector, matching the batch `FaultyTrace::fill`
    /// semantics. Must be called before any `feed`.
    ///
    /// # Panics
    ///
    /// Panics if samples were already fed.
    pub fn with_fill(mut self, fill: StreamFill) -> Self {
        assert!(self.ingest.len() == 0, "set the fill policy before feeding");
        self.ingest = WindowBuf::new(Some(fill), self.detector.window());
        self
    }

    /// Snapshots the stream's mutable ingestion state as a
    /// [`WindowCheckpoint`] — everything beyond the (immutable) detector
    /// and [`StreamSpec`], in a serialization-friendly shape. Copies the
    /// window history; [`into_compact`](Self::into_compact) moves it.
    pub fn compact_checkpoint(&self) -> WindowCheckpoint<D::Record> {
        self.ingest.clone().into_compact()
    }

    /// Consumes the stream into its compact checkpoint (what
    /// [`compact_checkpoint`](Self::compact_checkpoint) returns) without
    /// copying the closed-window history. The eviction path of the
    /// resident fleet service (`crates/fleetd`).
    pub fn into_compact(self) -> WindowCheckpoint<D::Record> {
        self.ingest.into_compact()
    }

    /// Rebuilds a stream from a compact checkpoint taken by
    /// [`compact_checkpoint`](Self::compact_checkpoint) on a stream with
    /// the same detector configuration. Feeding the remaining samples
    /// yields byte-identical output to the never-checkpointed stream.
    /// Copies the checkpoint;
    /// [`from_compact_owned`](Self::from_compact_owned) moves it.
    ///
    /// # Panics
    ///
    /// Panics if the detector's window is zero or the checkpoint's open
    /// window doesn't fit it.
    pub fn from_compact(detector: D, spec: StreamSpec, cp: &WindowCheckpoint<D::Record>) -> Self {
        Self::from_compact_owned(detector, spec, cp.clone())
    }

    /// [`from_compact`](Self::from_compact) that moves the checkpoint's
    /// vectors into the stream instead of copying them. The rehydration
    /// path of the resident fleet service.
    ///
    /// # Panics
    ///
    /// As [`from_compact`](Self::from_compact).
    pub fn from_compact_owned(
        detector: D,
        spec: StreamSpec,
        cp: WindowCheckpoint<D::Record>,
    ) -> Self {
        let window = detector.window();
        NiomStream {
            detector,
            spec,
            ingest: WindowBuf::from_compact(window, cp),
        }
    }
}

impl<D: WindowedDetector + Clone> StreamState for NiomStream<D> {
    type Item = Sample;
    type Output = LabelSeries;

    fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        self.ingest.feed(chunk)
    }

    fn items(&self) -> usize {
        self.ingest.len()
    }

    fn finalize(&self) -> LabelSeries {
        obs::time("stream.finalize", || {
            let (windows, len) = self.ingest.windows_and_len();
            self.detector
                .detect_from_windows(self.spec.start, self.spec.resolution, len, &windows)
        })
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.ingest.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::dense_samples;
    use crate::feed_chunked;
    use niom::{MeanVariance, OccupancyDetector};
    use timeseries::{PowerTrace, Resolution, Timestamp};

    fn bursty_trace(len: usize) -> PowerTrace {
        PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            let base = 120.0 + 40.0 * ((i as f64) * 0.21).sin().abs();
            if (i / 60) % 5 == 3 && i % 13 < 4 {
                base + 1_400.0
            } else {
                base
            }
        })
    }

    #[test]
    fn threshold_stream_matches_batch_at_many_chunkings() {
        let trace = bursty_trace(2_000);
        let detector = ThresholdDetector::default();
        let batch = detector.detect(&trace);
        let samples = dense_samples(trace.samples());
        for chunk_len in [1, 7, 15, 256, 2_000, 5_000] {
            let mut s = ThresholdStream::new(detector.clone(), StreamSpec::of_trace(&trace));
            let report = feed_chunked(&mut s, &samples, chunk_len);
            assert_eq!(report.items, trace.len());
            assert_eq!(s.finalize(), batch, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn hmm_stream_matches_batch() {
        let trace = bursty_trace(3 * 1_440);
        let detector = HmmDetector::default();
        let batch = detector.detect(&trace);
        let mut s = HmmStream::new(detector, StreamSpec::of_trace(&trace));
        feed_chunked(&mut s, &dense_samples(trace.samples()), 97);
        assert_eq!(s.finalize(), batch);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let trace = bursty_trace(1_000);
        let detector = ThresholdDetector::default();
        let samples = dense_samples(trace.samples());
        let mut s = ThresholdStream::new(detector.clone(), StreamSpec::of_trace(&trace));
        s.feed(&samples[..400]);
        let snap = s.checkpoint();
        s.feed(&samples[400..]);
        let full = s.finalize();
        s.restore(&snap);
        s.feed(&samples[400..]);
        assert_eq!(s.finalize(), full);
    }

    #[test]
    fn compact_checkpoint_resumes_identically() {
        let trace = bursty_trace(1_003); // not window-aligned: open window in-flight
        let detector = ThresholdDetector::default();
        let samples = dense_samples(trace.samples());
        let mut s = ThresholdStream::new(detector.clone(), StreamSpec::of_trace(&trace));
        s.feed(&samples[..700]);
        let cp = s.compact_checkpoint();
        s.feed(&samples[700..]);
        let full = s.finalize();

        let mut resumed =
            ThresholdStream::from_compact(detector.clone(), StreamSpec::of_trace(&trace), &cp);
        assert_eq!(resumed.items(), 700, "restore must land mid-trace");
        resumed.feed(&samples[700..]);
        assert_eq!(resumed.finalize(), full);

        // The owning forms: the consumed stream yields the same
        // checkpoint, and restoring by move resumes identically.
        let spec = StreamSpec::of_trace(&trace);
        let mut head = ThresholdStream::new(detector.clone(), spec);
        head.feed(&samples[..700]);
        let moved = head.into_compact();
        assert_eq!(moved, cp);
        let mut owned = ThresholdStream::from_compact_owned(detector.clone(), spec, moved);
        assert_eq!(
            owned,
            ThresholdStream::from_compact(detector.clone(), spec, &cp)
        );
        owned.feed(&samples[700..]);
        assert_eq!(owned.finalize(), full);

        // A decoded checkpoint's vectors are exactly full; restoring one
        // gives the open window back its `window` capacity and keeps the
        // history as is, so resident bytes do not depend on the path.
        let window = detector.window;
        let restored = ThresholdStream::from_compact_owned(detector, spec, cp.clone());
        assert_eq!(
            restored.state_bytes(),
            std::mem::size_of::<ThresholdStream>()
                + window * 8
                + cp.closed.len() * std::mem::size_of::<MeanVariance>()
        );
    }

    #[test]
    fn compact_checkpoint_survives_hold_fill_gaps() {
        let trace = bursty_trace(600);
        let samples: Vec<Sample> = trace
            .samples()
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                // Leading gap run exercises HoldPending; a mid-trace run
                // exercises HoldLast.
                if i < 40 || (300..330).contains(&i) {
                    Sample::gap()
                } else {
                    Sample::valid(w)
                }
            })
            .collect();
        let detector = ThresholdDetector::default();
        let spec = StreamSpec::of_trace(&trace);
        let mut whole = ThresholdStream::new(detector.clone(), spec).with_fill(StreamFill::Hold);
        whole.feed(&samples);

        for split in [0usize, 10, 40, 315, 600] {
            let mut head = ThresholdStream::new(detector.clone(), spec).with_fill(StreamFill::Hold);
            head.feed(&samples[..split]);
            let cp = head.compact_checkpoint();
            let mut resumed = ThresholdStream::from_compact(detector.clone(), spec, &cp);
            resumed.feed(&samples[split..]);
            assert_eq!(resumed.finalize(), whole.finalize(), "split {split}");
        }
    }

    #[test]
    fn state_bytes_tracks_ingested_windows() {
        let trace = bursty_trace(1_500);
        let detector = ThresholdDetector::default();
        let mut s = ThresholdStream::new(detector, StreamSpec::of_trace(&trace));
        let empty = s.state_bytes();
        assert!(empty >= std::mem::size_of::<ThresholdStream>());
        s.feed(&dense_samples(trace.samples()));
        let full = s.state_bytes();
        // 100 closed windows, one record each, must show up in the
        // measure.
        let record = std::mem::size_of::<MeanVariance>();
        assert!(full >= empty + 100 * record, "{empty} -> {full}");
        // And the measure is sublinear in the trace: far below raw f64s.
        assert!(full < empty + 1_500 * 8, "{empty} -> {full}");
    }

    #[test]
    fn empty_stream_finalizes_to_empty_series() {
        let s = ThresholdStream::new(
            ThresholdDetector::default(),
            StreamSpec::new(Timestamp::ZERO, Resolution::ONE_MINUTE),
        );
        assert!(s.finalize().is_empty());
        assert!(s.try_finalize().is_err());
    }
}
