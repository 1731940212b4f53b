//! Streaming NILM disaggregators.
//!
//! [`FhmmStream`] is genuinely incremental whenever the model decodes with
//! exact factorial Viterbi: it advances a [`FhmmFilter`] one observation
//! per sample (two joint-width scratch rows of non-output state) and
//! backtracks at finalize. Models that fall back to ICM — and
//! [`PowerPlayStream`], whose model-driven validation is global — buffer
//! the resolved samples and replay the batch decoder at finalize; that is
//! the only path that stays byte-identical.

use crate::chunk::{Sample, StreamFill, StreamSpec};
use crate::ingest::{record_power_chunk, SampleBuf};
use crate::{FeedReport, StreamState};
use nilm::{DeviceEstimate, Disaggregator, Fhmm, FhmmFilter, PowerPlay};
use std::borrow::Cow;
use timeseries::{PipelineError, PowerTrace};

use crate::chunk::FillCheckpoint;

/// Streaming FHMM disaggregation over a borrowed model.
#[derive(Debug, Clone)]
pub struct FhmmStream<'a> {
    fhmm: &'a Fhmm,
    spec: StreamSpec,
    mode: FhmmMode<'a>,
}

#[derive(Debug, Clone)]
enum FhmmMode<'a> {
    /// Exact joint Viterbi advanced per sample.
    Exact {
        fill: FillCheckpoint,
        filter: FhmmFilter<'a>,
    },
    /// ICM needs the whole trace: buffer and replay at finalize.
    Buffered(SampleBuf),
}

impl<'a> FhmmStream<'a> {
    /// Starts a stream over `fhmm` for clean (gap-free) sample chunks.
    pub fn new(fhmm: &'a Fhmm, spec: StreamSpec) -> FhmmStream<'a> {
        FhmmStream {
            fhmm,
            spec,
            mode: match fhmm.filter() {
                Some(filter) => FhmmMode::Exact {
                    fill: FillCheckpoint::new(None),
                    filter,
                },
                None => FhmmMode::Buffered(SampleBuf::new(None)),
            },
        }
    }

    /// Resolves gap-marked samples with `fill` before decoding. Must be
    /// called before any `feed`.
    ///
    /// # Panics
    ///
    /// Panics if samples were already fed.
    pub fn with_fill(mut self, fill: StreamFill) -> FhmmStream<'a> {
        assert!(self.items() == 0, "set the fill policy before feeding");
        self.mode = match self.fhmm.filter() {
            Some(filter) => FhmmMode::Exact {
                fill: FillCheckpoint::new(Some(fill)),
                filter,
            },
            None => FhmmMode::Buffered(SampleBuf::new(Some(fill))),
        };
        self
    }

    /// Whether this stream decodes incrementally (exact Viterbi) rather
    /// than buffering for ICM.
    pub fn incremental(&self) -> bool {
        matches!(self.mode, FhmmMode::Exact { .. })
    }
}

impl StreamState for FhmmStream<'_> {
    type Item = Sample;
    type Output = Vec<DeviceEstimate>;

    fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        match &mut self.mode {
            FhmmMode::Exact { fill, filter } => {
                let mut gaps = 0;
                for &s in chunk {
                    if fill.is_gap(&s) {
                        gaps += 1;
                    }
                    fill.push(s, &mut |v| filter.push(v));
                }
                record_power_chunk(chunk.len(), gaps);
                FeedReport {
                    items: chunk.len(),
                    gaps,
                }
            }
            FhmmMode::Buffered(buf) => buf.feed(chunk),
        }
    }

    fn items(&self) -> usize {
        match &self.mode {
            FhmmMode::Exact { fill, filter } => filter.len() + fill.flush().0,
            FhmmMode::Buffered(buf) => buf.len(),
        }
    }

    fn finalize(&self) -> Vec<DeviceEstimate> {
        obs::time("stream.finalize", || match &self.mode {
            FhmmMode::Exact { fill, filter } => {
                // Only a held gap run needs a scratch copy to pad; the
                // backpointer table is not copied otherwise.
                let (pending, pad) = fill.flush();
                let mut filter = Cow::Borrowed(filter);
                for _ in 0..pending {
                    filter.to_mut().push(pad);
                }
                self.fhmm.estimates_from_paths(
                    self.spec.start,
                    self.spec.resolution,
                    filter.len(),
                    &filter.paths(),
                )
            }
            FhmmMode::Buffered(buf) => {
                let trace = PowerTrace::new(self.spec.start, self.spec.resolution, buf.resolved())
                    .expect("resolved stream samples form a valid trace");
                self.fhmm.disaggregate(&trace)
            }
        })
    }

    /// Counts the heap the decode holds: every resolved sample in
    /// `Buffered` (ICM) mode, the filter's backpointer table (`4 × k` bytes
    /// per sample) and score rows in `Exact` mode.
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.mode {
                FhmmMode::Exact { filter, .. } => filter.heap_bytes(),
                FhmmMode::Buffered(buf) => buf.heap_bytes(),
            }
    }

    fn try_finalize(&self) -> Result<Vec<DeviceEstimate>, PipelineError> {
        if self.items() == 0 {
            return Err(PipelineError::EmptyInput {
                stage: "stream.finalize",
            });
        }
        match &self.mode {
            // The exact filter is total over finite resolved samples.
            FhmmMode::Exact { .. } => Ok(self.finalize()),
            FhmmMode::Buffered(buf) => {
                let trace = PowerTrace::new(self.spec.start, self.spec.resolution, buf.resolved())?;
                self.fhmm.try_disaggregate(&trace)
            }
        }
    }
}

/// Streaming PowerPlay: buffers resolved samples and replays the batch
/// model-driven tracker at finalize (its validation/repair passes look at
/// the whole activation history, so there is no incremental form that
/// stays byte-identical).
#[derive(Debug, Clone)]
pub struct PowerPlayStream<'a> {
    powerplay: &'a PowerPlay,
    spec: StreamSpec,
    buf: SampleBuf,
}

impl<'a> PowerPlayStream<'a> {
    /// Starts a stream over `powerplay` for clean sample chunks.
    pub fn new(powerplay: &'a PowerPlay, spec: StreamSpec) -> PowerPlayStream<'a> {
        PowerPlayStream {
            powerplay,
            spec,
            buf: SampleBuf::new(None),
        }
    }

    /// Resolves gap-marked samples with `fill`. Must be called before any
    /// `feed`.
    ///
    /// # Panics
    ///
    /// Panics if samples were already fed.
    pub fn with_fill(mut self, fill: StreamFill) -> PowerPlayStream<'a> {
        assert!(self.buf.len() == 0, "set the fill policy before feeding");
        self.buf = SampleBuf::new(Some(fill));
        self
    }
}

impl StreamState for PowerPlayStream<'_> {
    type Item = Sample;
    type Output = Vec<DeviceEstimate>;

    fn feed(&mut self, chunk: &[Sample]) -> FeedReport {
        self.buf.feed(chunk)
    }

    fn items(&self) -> usize {
        self.buf.len()
    }

    fn finalize(&self) -> Vec<DeviceEstimate> {
        obs::time("stream.finalize", || {
            let trace = PowerTrace::new(self.spec.start, self.spec.resolution, self.buf.resolved())
                .expect("resolved stream samples form a valid trace");
            self.powerplay.disaggregate(&trace)
        })
    }

    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buf.heap_bytes()
    }

    fn try_finalize(&self) -> Result<Vec<DeviceEstimate>, PipelineError> {
        if self.items() == 0 {
            return Err(PipelineError::EmptyInput {
                stage: "stream.finalize",
            });
        }
        let trace = PowerTrace::new(self.spec.start, self.spec.resolution, self.buf.resolved())?;
        self.powerplay.try_disaggregate(&trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::dense_samples;
    use crate::feed_chunked;
    use nilm::{train_device_hmm, FhmmConfig};
    use timeseries::{Resolution, Timestamp};

    fn two_device_setup() -> (Vec<nilm::DeviceHmm>, PowerTrace) {
        let a = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 600, |i| {
            if i % 40 < 15 {
                150.0
            } else {
                0.0
            }
        });
        let b = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 600, |i| {
            if i % 90 < 30 {
                1_000.0
            } else {
                0.0
            }
        });
        let meter = a.checked_add(&b).unwrap();
        let models = vec![train_device_hmm("a", &a, 2), train_device_hmm("b", &b, 2)];
        (models, meter)
    }

    #[test]
    fn exact_stream_matches_batch() {
        let (models, meter) = two_device_setup();
        let fhmm = Fhmm::new(models);
        let batch = fhmm.disaggregate(&meter);
        for chunk_len in [1, 7, 60, 600] {
            let mut s = FhmmStream::new(&fhmm, StreamSpec::of_trace(&meter));
            assert!(s.incremental());
            feed_chunked(&mut s, &dense_samples(meter.samples()), chunk_len);
            assert_eq!(s.finalize(), batch, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn icm_stream_matches_batch() {
        let (models, meter) = two_device_setup();
        let fhmm = Fhmm::with_config(
            models,
            FhmmConfig {
                max_exact_states: 1,
                ..FhmmConfig::default()
            },
        );
        let batch = fhmm.disaggregate(&meter);
        let mut s = FhmmStream::new(&fhmm, StreamSpec::of_trace(&meter));
        assert!(!s.incremental());
        feed_chunked(&mut s, &dense_samples(meter.samples()), 41);
        assert_eq!(s.finalize(), batch);
    }

    #[test]
    fn mid_stream_finalize_matches_batch_prefix() {
        let (models, meter) = two_device_setup();
        let fhmm = Fhmm::new(models);
        let samples = dense_samples(meter.samples());
        let mut s = FhmmStream::new(&fhmm, StreamSpec::of_trace(&meter));
        s.feed(&samples[..250]);
        let prefix = PowerTrace::new(
            meter.start(),
            meter.resolution(),
            meter.samples()[..250].to_vec(),
        )
        .unwrap();
        assert_eq!(s.finalize(), fhmm.disaggregate(&prefix));
    }

    #[test]
    fn fhmm_state_bytes_track_buffered_samples_and_backpointers() {
        let (models, meter) = two_device_setup();
        let day = PowerTrace::from_fn(meter.start(), meter.resolution(), 1_440, |i| {
            meter.samples()[i % meter.len()]
        });
        let samples = dense_samples(day.samples());
        let icm = Fhmm::with_config(
            models.clone(),
            FhmmConfig {
                max_exact_states: 1,
                ..FhmmConfig::default()
            },
        );
        let exact = Fhmm::new(models);
        let k = exact.joint_states();
        for (fhmm, per_sample) in [(&icm, 8), (&exact, 4 * k)] {
            let mut s = FhmmStream::new(fhmm, StreamSpec::of_trace(&day));
            let empty = s.state_bytes();
            assert!(empty >= std::mem::size_of::<FhmmStream>());
            feed_chunked(&mut s, &samples, 60);
            let full = s.state_bytes();
            assert!(
                full >= empty + 1_440 * per_sample,
                "incremental {}: {empty} -> {full}",
                s.incremental()
            );
        }
    }
}
