//! The occupancy-detector interface, and the per-window records the
//! windowed detectors decide from.

use timeseries::{
    LabelSeries, PipelineError, PowerTrace, Resolution, Summary, Timestamp, WindowStats,
};

/// An occupancy-detection attack: maps a smart-meter trace to an inferred
/// binary occupancy series with the same geometry.
///
/// Implementations must return a series aligned with the input (same start,
/// resolution, and length) so it can be scored directly against ground
/// truth with [`LabelSeries::confusion`].
pub trait OccupancyDetector {
    /// Infers occupancy from a meter trace.
    fn detect(&self, meter: &PowerTrace) -> LabelSeries;

    /// The checked entry point for possibly-degraded feeds: validates the
    /// input (empty or non-finite traces become typed errors instead of
    /// implementation-defined behaviour) and guards the alignment
    /// contract on the way out.
    ///
    /// # Errors
    ///
    /// [`PipelineError::EmptyInput`] on a zero-length trace,
    /// [`PipelineError::Trace`] when the trace fails validation, and
    /// [`PipelineError::Degenerate`] if the implementation breaks the
    /// alignment contract.
    fn try_detect(&self, meter: &PowerTrace) -> Result<LabelSeries, PipelineError> {
        if meter.is_empty() {
            return Err(PipelineError::EmptyInput {
                stage: "niom.detect",
            });
        }
        meter.validate()?;
        let out = self.detect(meter);
        if out.len() != meter.len() {
            return Err(PipelineError::Degenerate {
                stage: "niom.detect",
                reason: format!(
                    "{} returned {} labels for {} samples",
                    self.name(),
                    out.len(),
                    meter.len()
                ),
            });
        }
        Ok(out)
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// What a windowed detector keeps of one window: a projection of the
/// window's [`Summary`]. Batch detection projects the summaries
/// [`WindowStats`] yields and a stream projects the summaries it folds
/// from the same samples, so both read bit-identical fields.
pub trait WindowRecord: Copy + PartialEq + std::fmt::Debug {
    /// Keeps the fields of `summary` the detector reads.
    fn of(summary: &Summary) -> Self;
}

/// The window mean alone: what [`HmmDetector`](crate::HmmDetector)
/// reads.
impl WindowRecord for f64 {
    fn of(summary: &Summary) -> f64 {
        summary.mean
    }
}

/// The whole summary: what
/// [`LogisticDetector`](crate::LogisticDetector) reads (mean, σ and
/// range).
impl WindowRecord for Summary {
    fn of(summary: &Summary) -> Summary {
        *summary
    }
}

/// An occupancy detector that reduces the trace to one record per
/// non-overlapping window before it decides anything (baseline
/// percentile, EM, logistic scoring).
pub trait WindowedDetector {
    /// What the detector keeps per window.
    type Record: WindowRecord;

    /// Window length in samples.
    fn window(&self) -> usize;

    /// Runs detection over per-window records.
    ///
    /// `windows` must be exactly what [`records`](Self::records) yields
    /// for a `len`-sample trace: one record per window in trace order,
    /// trailing partial window included, so window `i` covers samples
    /// `i × window` up to the next window or `len`. Batch
    /// [`detect`](OccupancyDetector::detect) is a thin wrapper over
    /// this; the streaming layer calls it with records it accumulated
    /// chunk by chunk, which keeps the two paths byte-identical.
    fn detect_from_windows(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        windows: &[Self::Record],
    ) -> LabelSeries;

    /// The per-window records of `meter`.
    fn records(&self, meter: &PowerTrace) -> Vec<Self::Record> {
        WindowStats::new(meter, self.window())
            .map(|(_, summary)| Self::Record::of(&summary))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{Resolution, Timestamp};

    /// Trivial detector used to exercise the trait object surface.
    struct AlwaysHome;

    impl OccupancyDetector for AlwaysHome {
        fn detect(&self, meter: &PowerTrace) -> LabelSeries {
            LabelSeries::like_trace(meter, true)
        }
        fn name(&self) -> &str {
            "always-home"
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let d: Box<dyn OccupancyDetector> = Box::new(AlwaysHome);
        let meter = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 10);
        let out = d.detect(&meter);
        assert_eq!(out.len(), 10);
        assert_eq!(d.name(), "always-home");
    }

    #[test]
    fn try_detect_rejects_empty_and_passes_valid() {
        let d = AlwaysHome;
        let empty = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        assert_eq!(
            d.try_detect(&empty),
            Err(PipelineError::EmptyInput {
                stage: "niom.detect"
            })
        );
        let meter = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 5);
        assert_eq!(d.try_detect(&meter).unwrap().len(), 5);
    }

    /// A detector that violates the alignment contract.
    struct Broken;

    impl OccupancyDetector for Broken {
        fn detect(&self, _meter: &PowerTrace) -> LabelSeries {
            LabelSeries::new(Timestamp::ZERO, Resolution::ONE_MINUTE, vec![true])
        }
        fn name(&self) -> &str {
            "broken"
        }
    }

    #[test]
    fn try_detect_catches_misaligned_output() {
        let meter = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 5);
        match Broken.try_detect(&meter) {
            Err(PipelineError::Degenerate { stage, reason }) => {
                assert_eq!(stage, "niom.detect");
                assert!(reason.contains("broken"));
            }
            other => panic!("expected Degenerate, got {other:?}"),
        }
    }
}
