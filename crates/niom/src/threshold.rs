//! Threshold-based NIOM (Chen et al., BuildSys'13).

use crate::detector::{OccupancyDetector, WindowRecord, WindowedDetector};
use serde::{Deserialize, Serialize};
use timeseries::{LabelSeries, PowerTrace, Resolution, Summary, Timestamp, WindowStats};

/// What [`ThresholdDetector`] keeps of a window: its mean and population
/// variance, 16 bytes. The detector reads σ as `variance.sqrt()` when it
/// classifies the window, as [`Summary::stddev`] does, so σ is never
/// stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanVariance {
    /// Arithmetic mean, watts.
    pub mean: f64,
    /// Population variance, watts².
    pub variance: f64,
}

impl MeanVariance {
    /// Population standard deviation, watts.
    pub fn stddev(&self) -> f64 {
        self.variance.sqrt()
    }
}

impl WindowRecord for MeanVariance {
    fn of(summary: &Summary) -> MeanVariance {
        MeanVariance {
            mean: summary.mean,
            variance: summary.variance,
        }
    }
}

/// The statistical threshold detector.
///
/// The trace is split into non-overlapping windows; each window's mean and
/// standard deviation are compared against thresholds *calibrated from the
/// trace itself*: the baseline is a low percentile of windowed means (the
/// background-only level — a fridge cycles whether or not anyone is home),
/// and a window is declared occupied when its mean rises materially above
/// that baseline **or** its σ shows interactive burstiness. Short flickers
/// are removed with a run-length smoother.
///
/// Defaults follow the paper's setting: 15-minute windows on 1-minute data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdDetector {
    /// Window length in samples.
    pub window: usize,
    /// Percentile (0–100) of window means used as the background baseline.
    pub baseline_percentile: f64,
    /// Watts above baseline that flags a window occupied by level.
    pub mean_margin_watts: f64,
    /// σ (watts) that flags a window occupied by burstiness.
    pub sigma_threshold_watts: f64,
    /// Minimum run length, in windows, kept by the smoother.
    pub min_run_windows: usize,
    /// Hours `(from, to)` (wrapping midnight) assumed occupied regardless
    /// of power — the standard NIOM sleep prior: occupants are home but
    /// inactive overnight, which power alone cannot reveal. `None` disables
    /// the prior.
    pub night_prior: Option<(u8, u8)>,
}

impl Default for ThresholdDetector {
    fn default() -> Self {
        ThresholdDetector {
            window: 15,
            baseline_percentile: 10.0,
            mean_margin_watts: 100.0,
            sigma_threshold_watts: 110.0,
            min_run_windows: 2,
            night_prior: Some((22, 7)),
        }
    }
}

impl ThresholdDetector {
    /// Creates a detector with a custom window length and the default
    /// thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        ThresholdDetector {
            window,
            ..ThresholdDetector::default()
        }
    }

    /// The background baseline (watts) this detector would calibrate on
    /// `meter`: the configured percentile of window means.
    pub fn baseline_watts(&self, meter: &PowerTrace) -> f64 {
        let means: Vec<f64> = WindowStats::new(meter, self.window)
            .map(|(_, s)| s.mean)
            .collect();
        self.baseline_from_window_means(&means)
    }

    /// The baseline computed from window means given in trace order (the
    /// same values [`baseline_watts`](Self::baseline_watts) derives itself);
    /// exposed so incremental callers that already hold window records
    /// reuse the exact batch arithmetic.
    pub fn baseline_from_window_means(&self, means_in_order: &[f64]) -> f64 {
        if means_in_order.is_empty() {
            return 0.0;
        }
        let mut means = means_in_order.to_vec();
        means.sort_by(|a, b| a.total_cmp(b));
        let rank = (self.baseline_percentile / 100.0 * (means.len() - 1) as f64).round() as usize;
        means[rank.min(means.len() - 1)]
    }

    fn classify_window(&self, record: &MeanVariance, baseline: f64) -> bool {
        record.mean > baseline + self.mean_margin_watts
            || record.stddev() > self.sigma_threshold_watts
    }
}

impl WindowedDetector for ThresholdDetector {
    type Record = MeanVariance;

    fn window(&self) -> usize {
        self.window
    }

    fn detect_from_windows(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        windows: &[MeanVariance],
    ) -> LabelSeries {
        let means: Vec<f64> = windows.iter().map(|r| r.mean).collect();
        let baseline = self.baseline_from_window_means(&means);
        let flags: Vec<bool> = windows
            .iter()
            .map(|r| self.classify_window(r, baseline))
            .collect();
        // Smooth at window granularity.
        let smoothed = smooth_bool_runs(&flags, self.min_run_windows);
        let mut labels = vec![false; len];
        for (window, &flag) in labels.chunks_mut(self.window).zip(&smoothed) {
            window.fill(flag);
        }
        if let Some((from, to)) = self.night_prior {
            apply_night_prior(&mut labels, start, resolution, from, to);
        }
        LabelSeries::new(start, resolution, labels)
    }
}

impl OccupancyDetector for ThresholdDetector {
    fn detect(&self, meter: &PowerTrace) -> LabelSeries {
        let _span = obs::span("niom.threshold.detect");
        obs::counter_add("niom.threshold.samples", meter.len() as u64);
        let windows = self.records(meter);
        self.detect_from_windows(meter.start(), meter.resolution(), meter.len(), &windows)
    }

    fn name(&self) -> &str {
        "niom-threshold"
    }
}

/// Marks every sample whose hour of day falls in the wrapping interval
/// `[from, to)` as occupied. Sample `i` sits at `start + i * resolution`,
/// matching `PowerTrace::timestamp` — callers only need the grid, not the
/// trace itself.
pub(crate) fn apply_night_prior(
    labels: &mut [bool],
    start: Timestamp,
    resolution: Resolution,
    from: u8,
    to: u8,
) {
    for (i, slot) in labels.iter_mut().enumerate() {
        let at = start + i as u64 * resolution.as_secs() as u64;
        let hour = at.hour_of_day() as u8;
        let in_night = if from <= to {
            (from..to).contains(&hour)
        } else {
            hour >= from || hour < to
        };
        if in_night {
            *slot = true;
        }
    }
}

/// Run-length smoothing over a plain bool slice (interior runs shorter than
/// `min_run` are flipped).
fn smooth_bool_runs(flags: &[bool], min_run: usize) -> Vec<bool> {
    if min_run <= 1 || flags.is_empty() {
        return flags.to_vec();
    }
    let mut out = flags.to_vec();
    let mut i = 0;
    while i < out.len() {
        let val = out[i];
        let mut j = i;
        while j < out.len() && out[j] == val {
            j += 1;
        }
        if j - i < min_run && i != 0 && j != out.len() {
            for slot in &mut out[i..j] {
                *slot = !val;
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{Resolution, Timestamp};

    /// A synthetic day: background 100 W with fridge-ish wiggle; occupied
    /// evening block with bursts.
    fn synthetic_day() -> (PowerTrace, LabelSeries) {
        let trace = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, |i| {
            let background = 100.0 + 30.0 * ((i as f64) * 0.2).sin();
            // Occupied 17:00–23:00 (minutes 1020..1380).
            if (1_020..1_380).contains(&i) {
                let burst = if i % 20 < 5 { 1_500.0 } else { 250.0 };
                background + burst
            } else {
                background
            }
        });
        let truth = LabelSeries::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, |i| {
            (1_020..1_380).contains(&i)
        });
        (trace, truth)
    }

    fn no_prior() -> ThresholdDetector {
        ThresholdDetector {
            night_prior: None,
            ..ThresholdDetector::default()
        }
    }

    #[test]
    fn detects_synthetic_occupancy() {
        let (trace, truth) = synthetic_day();
        let detector = no_prior();
        let inferred = detector.detect(&trace);
        let c = truth.confusion(&inferred).unwrap();
        assert!(c.accuracy() > 0.95, "accuracy {}", c.accuracy());
        assert!(c.mcc() > 0.85, "mcc {}", c.mcc());
    }

    #[test]
    fn flat_trace_reads_empty() {
        let flat = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, 120.0);
        let inferred = no_prior().detect(&flat);
        assert_eq!(inferred.positive_rate(), 0.0);
    }

    #[test]
    fn night_prior_marks_sleep_hours() {
        let flat = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, 120.0);
        let inferred = ThresholdDetector::default().detect(&flat);
        // 22:00-07:00 = 9 hours marked occupied by the prior.
        assert!((inferred.positive_rate() - 9.0 / 24.0).abs() < 0.01);
        assert!(inferred.at(Timestamp::from_dhms(0, 3, 0, 0)).unwrap());
        assert!(inferred.at(Timestamp::from_dhms(0, 23, 0, 0)).unwrap());
        assert!(!inferred.at(Timestamp::from_dhms(0, 12, 0, 0)).unwrap());
    }

    #[test]
    fn baseline_tracks_background_level() {
        let (trace, _) = synthetic_day();
        let b = ThresholdDetector::default().baseline_watts(&trace);
        assert!(b > 60.0 && b < 160.0, "baseline {b}");
    }

    #[test]
    fn output_aligned_with_input() {
        let (trace, _) = synthetic_day();
        let inferred = ThresholdDetector::with_window(30).detect(&trace);
        assert_eq!(inferred.len(), trace.len());
        assert_eq!(inferred.resolution(), trace.resolution());
        assert_eq!(inferred.start(), trace.start());
    }

    #[test]
    fn empty_trace_ok() {
        let empty = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        let inferred = no_prior().detect(&empty);
        assert!(inferred.is_empty());
        assert_eq!(ThresholdDetector::default().baseline_watts(&empty), 0.0);
    }

    #[test]
    fn smoothing_kills_flicker() {
        let flags = vec![false, false, true, false, false, false];
        assert_eq!(
            smooth_bool_runs(&flags, 2),
            vec![false, false, false, false, false, false]
        );
        // min_run 1 is identity.
        assert_eq!(smooth_bool_runs(&flags, 1), flags);
    }

    #[test]
    fn detector_name() {
        assert_eq!(ThresholdDetector::default().name(), "niom-threshold");
    }
}
