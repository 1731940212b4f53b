//! Shared ingestion plumbing for the power streams: gap-fill routing plus
//! either a raw-sample buffer (buffer-and-replay pipelines) or an
//! incremental window-record accumulator (the NIOM detectors).
//!
//! The window accumulator closes window `i` at sample `i × window`, so it
//! keeps each closed window as the one [`WindowRecord`] its detector
//! reads (16 bytes for the threshold detector) and derives every start
//! (and the open window's) from the closed-window count; its
//! [`WindowCheckpoint`] has the same shape.

use crate::chunk::{FillCheckpoint, Sample, StreamFill};
use crate::FeedReport;
use niom::WindowRecord;
use timeseries::Summary;

/// Compact snapshot of a windowed NIOM stream's mutable state — the
/// eviction/rehydration target of the resident fleet service
/// (`crates/fleetd`, `docs/FLEET.md`).
///
/// A [`crate::NiomStream`] is detector configuration plus this: each
/// closed window keeps only its detector's record `R` (window `i` starts
/// at sample `i × window`, so no start is stored), the open window keeps
/// at most `window - 1` raw samples and starts at
/// `closed.len() × window`, and the fill automaton is one tagged scalar.
/// Restoring via `from_compact` resumes to byte-identical output —
/// asserted by the streaming equivalence tests and the
/// `fleet.resident-evict-identical` conformance claim.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCheckpoint<R> {
    /// The fill automaton's position.
    pub fill: FillCheckpoint,
    /// Raw samples of the open (not yet full) window.
    pub open: Vec<f64>,
    /// Record of every closed window, in trace order.
    pub closed: Vec<R>,
}

/// Records the obs counters every power-stream `feed` emits.
pub(crate) fn record_power_chunk(items: usize, gaps: usize) {
    obs::counter_add("stream.chunks", 1);
    obs::counter_add("stream.samples", items as u64);
    obs::counter_add("stream.gap_samples", gaps as u64);
}

/// Gap fill + raw resolved-sample buffer, for pipelines that must replay
/// the whole trace through the batch code at finalize.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SampleBuf {
    fill: FillCheckpoint,
    samples: Vec<f64>,
}

impl SampleBuf {
    pub(crate) fn new(fill: Option<StreamFill>) -> SampleBuf {
        SampleBuf {
            fill: FillCheckpoint::new(fill),
            samples: Vec::new(),
        }
    }

    pub(crate) fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        let mut gaps = 0;
        let samples = &mut self.samples;
        let fill = &mut self.fill;
        for &s in chunk {
            if fill.is_gap(&s) {
                gaps += 1;
            }
            fill.push(s, &mut |v| samples.push(v));
        }
        record_power_chunk(chunk.len(), gaps);
        FeedReport {
            items: chunk.len(),
            gaps,
        }
    }

    /// Samples ingested, counting any withheld by an open leading-gap run.
    pub(crate) fn len(&self) -> usize {
        self.samples.len() + self.fill.flush().0
    }

    /// Heap bytes held by the raw-sample buffer (capacity, not length).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<f64>()
    }

    /// The resolved sample vector the batch fill would have produced for
    /// the prefix ingested so far.
    pub(crate) fn resolved(&self) -> Vec<f64> {
        let (pending, pad) = self.fill.flush();
        // An open leading-gap run means nothing was emitted yet, so the
        // flushed pad values are the whole (prefix of the) trace.
        let mut out = Vec::with_capacity(self.samples.len() + pending);
        out.extend(std::iter::repeat_n(pad, pending));
        out.extend_from_slice(&self.samples);
        out
    }
}

/// Gap fill + incremental non-overlapping window records, replicating
/// `WindowStats` projected onto `R` over the resolved samples: closed
/// windows keep only their record (closed window `i` starts at sample
/// `i × window`), the open window keeps raw samples (at most `window` of
/// them), and the trailing partial window is summarized on demand.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowBuf<R> {
    fill: FillCheckpoint,
    window: usize,
    open: Vec<f64>,
    closed: Vec<R>,
}

impl<R: WindowRecord> WindowBuf<R> {
    pub(crate) fn new(fill: Option<StreamFill>, window: usize) -> WindowBuf<R> {
        assert!(window > 0, "window must be non-empty");
        WindowBuf {
            fill: FillCheckpoint::new(fill),
            window,
            open: Vec::with_capacity(window),
            closed: Vec::new(),
        }
    }

    fn push_resolved(&mut self, x: f64) {
        self.open.push(x);
        if self.open.len() == self.window {
            self.closed.push(R::of(&Summary::of(&self.open)));
            self.open.clear();
        }
    }

    pub(crate) fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        let mut gaps = 0;
        // The fill is Copy: run a local copy so its emit closure can
        // borrow `self` for the window pushes, then store it back.
        let mut fill = self.fill;
        for &s in chunk {
            if fill.is_gap(&s) {
                gaps += 1;
            }
            fill.push(s, &mut |v| self.push_resolved(v));
        }
        self.fill = fill;
        record_power_chunk(chunk.len(), gaps);
        FeedReport {
            items: chunk.len(),
            gaps,
        }
    }

    /// Samples ingested, counting any withheld by an open leading-gap run.
    pub(crate) fn len(&self) -> usize {
        self.closed.len() * self.window + self.open.len() + self.fill.flush().0
    }

    /// Heap bytes held by the window accumulator (capacities, not
    /// lengths).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.open.capacity() * std::mem::size_of::<f64>()
            + self.closed.capacity() * std::mem::size_of::<R>()
    }

    /// Turns the accumulator into its [`WindowCheckpoint`], moving the
    /// closed-window history rather than copying it.
    pub(crate) fn into_compact(self) -> WindowCheckpoint<R> {
        WindowCheckpoint {
            fill: self.fill,
            open: self.open,
            closed: self.closed,
        }
    }

    /// Rebuilds the accumulator from a checkpoint taken by
    /// [`into_compact`](WindowBuf::into_compact) on an identically
    /// configured stream (same `window`). The closed-window history is
    /// moved in; the open window gets its full `window` capacity back,
    /// as in a live accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or the checkpoint's open window is
    /// already full (it can never hold `window` samples).
    pub(crate) fn from_compact(window: usize, cp: WindowCheckpoint<R>) -> WindowBuf<R> {
        assert!(window > 0, "window must be non-empty");
        assert!(
            cp.open.len() < window,
            "open window of {} samples cannot belong to a window of {window}",
            cp.open.len()
        );
        let mut open = cp.open;
        open.reserve_exact(window - open.len());
        WindowBuf {
            fill: cp.fill,
            window,
            open,
            closed: cp.closed,
        }
    }

    /// The records `WindowStats` projected onto `R` would yield over the
    /// resolved prefix (window `i` starts at sample `i × window`), plus
    /// that prefix's length.
    pub(crate) fn windows_and_len(&self) -> (Vec<R>, usize) {
        let w = self.window;
        // An open leading-gap run resolves to `pending` pad values after
        // the open window, as batch fill would if the trace ended now.
        let (pending, pad) = self.fill.flush();
        let mut padded = Vec::new();
        let tail: &[f64] = if pending == 0 {
            &self.open
        } else {
            padded.extend_from_slice(&self.open);
            padded.extend(std::iter::repeat_n(pad, pending));
            &padded
        };
        let mut windows = Vec::with_capacity(self.closed.len() + tail.len().div_ceil(w));
        windows.extend_from_slice(&self.closed);
        windows.extend(tail.chunks(w).map(|part| R::of(&Summary::of(part))));
        (windows, self.closed.len() * w + tail.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::dense_samples;
    use niom::MeanVariance;
    use timeseries::{PowerTrace, Resolution, Timestamp, WindowStats};

    #[test]
    fn window_buf_matches_window_stats() {
        for len in [0usize, 1, 14, 15, 16, 44, 45, 100] {
            let values: Vec<f64> = (0..len)
                .map(|i| (i as f64 * 1.7).sin() * 300.0 + 400.0)
                .collect();
            let trace =
                PowerTrace::new(Timestamp::ZERO, Resolution::ONE_MINUTE, values.clone()).unwrap();
            let batch: Vec<Summary> = WindowStats::new(&trace, 15).map(|(_, s)| s).collect();
            let mut buf = WindowBuf::<Summary>::new(None, 15);
            buf.feed(&dense_samples(&values));
            let (windows, n) = buf.windows_and_len();
            assert_eq!(n, len);
            assert_eq!(windows, batch, "len {len}");
            // No start is stored: a restored buffer must still yield
            // every window `WindowStats` does, in order.
            let restored = WindowBuf::from_compact(15, buf.clone().into_compact());
            assert_eq!(
                restored.windows_and_len(),
                (batch, len),
                "restored len {len}"
            );
        }
    }

    #[test]
    fn pending_gap_run_flushes_into_windows() {
        // 9 leading gaps under Hold, window 4: two full pad windows and a
        // one-sample tail, exactly what batch fill of an all-gap trace
        // gives.
        let mut buf = WindowBuf::<Summary>::new(Some(StreamFill::Hold), 4);
        buf.feed(&[Sample::gap(); 9]);
        let (windows, n) = buf.windows_and_len();
        assert_eq!(n, 9);
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|&s| s == Summary::of(&[0.0])));
    }

    #[test]
    fn window_buf_compact_round_trips_mid_stream() {
        let values: Vec<f64> = (0..53)
            .map(|i| (i as f64 * 0.9).cos() * 250.0 + 300.0)
            .collect();
        let samples = dense_samples(&values);
        for (fill, split) in [
            (None, 0usize),
            (None, 22),
            (Some(StreamFill::Zero), 30),
            (Some(StreamFill::Hold), 7),
            (Some(StreamFill::Hold), 53),
        ] {
            let mut whole = WindowBuf::<MeanVariance>::new(fill, 15);
            whole.feed(&samples);

            let mut head = WindowBuf::new(fill, 15);
            head.feed(&samples[..split]);
            let cp = head.clone().into_compact();
            let mut resumed = WindowBuf::from_compact(15, cp);
            assert_eq!(resumed, head, "restore must be exact ({fill:?}/{split})");
            assert_eq!(resumed.open.capacity(), 15, "a live open window's capacity");
            resumed.feed(&samples[split..]);
            assert_eq!(
                resumed.windows_and_len(),
                whole.windows_and_len(),
                "{fill:?}/{split}"
            );
        }
    }

    #[test]
    fn compact_checkpoint_preserves_open_hold_run() {
        let mut buf = WindowBuf::<MeanVariance>::new(Some(StreamFill::Hold), 4);
        buf.feed(&[Sample::gap(), Sample::gap(), Sample::gap()]);
        let cp = buf.clone().into_compact();
        assert_eq!(cp.fill, FillCheckpoint::HoldPending(3));
        assert!(cp.open.is_empty() && cp.closed.is_empty());
        let mut resumed = WindowBuf::from_compact(4, cp);
        resumed.feed(&[Sample::valid(80.0)]);
        buf.feed(&[Sample::valid(80.0)]);
        assert_eq!(resumed.windows_and_len(), buf.windows_and_len());
    }

    #[test]
    #[should_panic(expected = "cannot belong")]
    fn overfull_open_window_is_rejected() {
        let cp = WindowCheckpoint::<MeanVariance> {
            fill: FillCheckpoint::Passthrough,
            open: vec![1.0, 2.0, 3.0],
            closed: Vec::new(),
        };
        let _ = WindowBuf::from_compact(3, cp);
    }

    #[test]
    fn sample_buf_resolves_like_batch() {
        let mut buf = SampleBuf::new(Some(StreamFill::Hold));
        buf.feed(&[Sample::gap(), Sample::gap()]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.resolved(), vec![0.0, 0.0]);
        buf.feed(&[Sample::valid(75.0), Sample::gap()]);
        assert_eq!(buf.resolved(), vec![75.0, 75.0, 75.0, 75.0]);
    }
}
