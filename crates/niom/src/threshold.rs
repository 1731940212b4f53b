//! Threshold-based NIOM (Chen et al., BuildSys'13).
//!
//! Labels are laid down a block at a time: each window's flag fills its
//! samples, and the night prior decides once per hour of samples and
//! fills whole spans of night hours. A finalize over `len` samples in
//! `w`-sample windows thus costs O(`len / w` + hours) decisions, plus
//! the fills themselves; no step divides a timestamp per sample. The
//! baseline is one order statistic, found by selection rather than by
//! sorting the window means.

use crate::detector::{OccupancyDetector, WindowRecord, WindowedDetector};
use serde::{Deserialize, Serialize};
use timeseries::time::SECS_PER_HOUR;
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
        self.baseline_of(&mut means_in_order.to_vec())
    }

    /// [`baseline_from_window_means`](Self::baseline_from_window_means)
    /// selecting in place, so `means` is left reordered.
    fn baseline_of(&self, means: &mut [f64]) -> f64 {
        if means.is_empty() {
            return 0.0;
        }
        let n = means.len();
        let rank = (self.baseline_percentile / 100.0 * (n - 1) as f64).round() as usize;
        order_statistic(means, rank.min(n - 1))
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
        let mut means: Vec<f64> = windows.iter().map(|r| r.mean).collect();
        let baseline = self.baseline_of(&mut means);
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

/// The value at `rank` of `values` sorted by [`f64::total_cmp`], found by
/// selection; `values` is left partly reordered. Equal under `total_cmp`
/// means equal bits, so this is bit for bit the sorted copy's element.
///
/// # Panics
///
/// Panics if `rank >= values.len()`.
pub(crate) fn order_statistic(values: &mut [f64], rank: usize) -> f64 {
    *values.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// Whether `hour` falls in the wrapping interval `[from, to)`; empty when
/// `from == to`.
fn in_night(hour: u8, from: u8, to: u8) -> bool {
    if from <= to {
        (from..to).contains(&hour)
    } else {
        hour >= from || hour < to
    }
}

/// Marks every sample whose hour of day falls in the wrapping interval
/// `[from, to)` as occupied. Sample `i` sits at `start + i * resolution`,
/// matching `PowerTrace::timestamp` — callers only need the grid, not the
/// trace itself. The samples of one hour share its hour of day, so the
/// prior is decided once per hour, never per sample, and each span of
/// hours it treats alike (at most a day) costs one timestamp division
/// and, at night, one fill.
pub(crate) fn apply_night_prior(
    labels: &mut [bool],
    start: Timestamp,
    resolution: Resolution,
    from: u8,
    to: u8,
) {
    let res = u64::from(resolution.as_secs());
    let mut i = 0;
    while i < labels.len() {
        let at = start + i as u64 * res;
        let night = in_night(at.hour_of_day() as u8, from, to);
        // Hours since the epoch: `at`'s, then the ones the prior treats
        // alike, up to a day.
        let first = at.as_secs() / SECS_PER_HOUR;
        let mut next = first + 1;
        while next < first + 24 && in_night((next % 24) as u8, from, to) == night {
            next += 1;
        }
        // First sample index at or past the span's end.
        let end = (next * SECS_PER_HOUR - start.as_secs()).div_ceil(res) as usize;
        let end = end.min(labels.len());
        if night {
            labels[i..end].fill(true);
        }
        i = end;
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
    use proptest::prelude::*;
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

    /// The night prior's definition: each sample's own hour of day.
    fn night_prior_per_sample(
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

    /// Sleep intervals that wrap midnight, are empty, or hold one hour.
    const PRIORS: [(u8, u8); 4] = [(22, 7), (0, 0), (5, 5), (23, 0)];
    /// Coarser and finer than the hour, and not dividing it (420 s).
    const RESOLUTIONS: [u32; 5] = [60, 420, 900, 3_600, 7_200];

    /// The span-wise prior equals the per-sample one on `labels` at
    /// every resolution and prior above.
    fn check_night_prior(labels: &[bool], start: Timestamp) {
        for secs in RESOLUTIONS {
            let resolution = Resolution::from_secs(secs);
            for (from, to) in PRIORS {
                let mut by_span = labels.to_vec();
                apply_night_prior(&mut by_span, start, resolution, from, to);
                let mut by_sample = labels.to_vec();
                night_prior_per_sample(&mut by_sample, start, resolution, from, to);
                assert_eq!(
                    by_span,
                    by_sample,
                    "start {start:?}, {secs} s, ({from}, {to}), {} samples",
                    labels.len()
                );
            }
        }
    }

    #[test]
    fn night_prior_by_spans_at_hour_edges() {
        for start in [0, 1, 3_599, 3_600, 22 * 3_600 - 1, 86_399, 86_400 + 1_800] {
            for len in [0, 1, 2, 59, 60, 61, 1_440, 4_999] {
                check_night_prior(&vec![false; len], Timestamp::from_secs(start));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn night_prior_by_spans_equals_per_sample(
            hour in 0u64..24 * 7,
            // On the hour half the time, anywhere inside it otherwise.
            offset in prop_oneof![Just(0u64), 1u64..3_600],
            // Labels already set must stay set.
            labels in prop::collection::vec(any::<bool>(), 0..5_000),
        ) {
            check_night_prior(&labels, Timestamp::from_secs(hour * 3_600 + offset));
        }
    }

    /// The baseline's former definition: the configured rank of a sorted
    /// copy of the window means.
    fn sorted_copy_baseline(means: &[f64], percentile: f64) -> f64 {
        if means.is_empty() {
            return 0.0;
        }
        let mut sorted = means.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = (percentile / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Window means with ties and both zeros, which `total_cmp` orders
    /// -0 before +0.
    fn tied_means() -> impl Strategy<Value = Vec<f64>> {
        let mean = prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(120.0f64),
            Just(-3.5f64),
            -50.0f64..500.0,
        ];
        prop::collection::vec(mean, 0..64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn selected_baseline_equals_the_sorted_copy_at_every_rank(means in tied_means()) {
            let mut sorted = means.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            for (rank, want) in sorted.iter().enumerate() {
                let got = order_statistic(&mut means.clone(), rank);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "rank {}", rank);
            }
            let n = means.len().max(2);
            let percentiles = (0..n).map(|r| r as f64 * 100.0 / (n - 1) as f64);
            for percentile in percentiles.chain([-10.0, 12.5, 250.0]) {
                let detector = ThresholdDetector {
                    baseline_percentile: percentile,
                    ..ThresholdDetector::default()
                };
                prop_assert_eq!(
                    detector.baseline_from_window_means(&means).to_bits(),
                    sorted_copy_baseline(&means, percentile).to_bits(),
                    "percentile {}",
                    percentile
                );
            }
        }
    }
}
