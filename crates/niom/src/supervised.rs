//! A supervised occupancy detector: logistic regression over window
//! features, trained on labelled homes and applied to unseen ones.
//!
//! The unsupervised detectors calibrate per-trace; this one models the
//! *transferable* part of the occupancy side channel — what a company with
//! a few instrumented training homes (exactly the NILM-startup scenario of
//! the paper's Figure 3) can learn once and apply to every customer.

use crate::detector::{OccupancyDetector, WindowedDetector};
use crate::threshold::{apply_night_prior, order_statistic};
use serde::{Deserialize, Serialize};
use timeseries::{LabelSeries, PowerTrace, Resolution, Summary, Timestamp, WindowStats};

/// Number of features per window.
const N_FEATURES: usize = 4;

/// Logistic-regression occupancy detector over windowed features.
///
/// Features per window (standardized using training statistics):
/// log-mean power, log-σ, log-range, and the mean's margin over the
/// trace's own baseline percentile — the last feature is what makes the
/// model transfer across homes with different background loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticDetector {
    /// Window length in samples.
    pub window: usize,
    weights: [f64; N_FEATURES],
    bias: f64,
    feat_mean: [f64; N_FEATURES],
    feat_std: [f64; N_FEATURES],
    /// Sleep prior, as in the unsupervised detectors.
    pub night_prior: Option<(u8, u8)>,
}

fn features(summary: &Summary, baseline: f64) -> [f64; N_FEATURES] {
    [
        (summary.mean + 1.0).ln(),
        (summary.stddev() + 1.0).ln(),
        (summary.range + 1.0).ln(),
        (summary.mean - baseline).max(0.0).ln_1p(),
    ]
}

fn baseline_watts(trace: &PowerTrace, window: usize) -> f64 {
    baseline_of(
        WindowStats::new(trace, window)
            .map(|(_, s)| s.mean)
            .collect(),
    )
}

/// The window mean at rank `len / 10` (by `total_cmp`), 0 when there are
/// none.
fn baseline_of(mut means: Vec<f64>) -> f64 {
    if means.is_empty() {
        return 0.0;
    }
    let rank = means.len() / 10;
    order_statistic(&mut means, rank)
}

impl LogisticDetector {
    /// Trains on labelled homes: `(meter, ground-truth occupancy)` pairs.
    ///
    /// Plain batch gradient descent — the problem is 4-dimensional and
    /// convex, nothing fancier is warranted.
    ///
    /// # Panics
    ///
    /// Panics if `homes` is empty or any pair is misaligned.
    pub fn train(homes: &[(&PowerTrace, &LabelSeries)], window: usize) -> Self {
        assert!(!homes.is_empty(), "need training homes");
        // Collect window examples.
        let mut xs: Vec<[f64; N_FEATURES]> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for (meter, occupancy) in homes {
            assert_eq!(meter.len(), occupancy.len(), "misaligned training pair");
            let baseline = baseline_watts(meter, window);
            let summaries = WindowStats::new(meter, window).map(|(_, summary)| summary);
            for (labels, summary) in occupancy.labels().chunks(window).zip(summaries) {
                let occupied = labels.iter().filter(|&&b| b).count() * 2 >= labels.len();
                xs.push(features(&summary, baseline));
                ys.push(if occupied { 1.0 } else { 0.0 });
            }
        }
        // Standardize.
        let n = xs.len() as f64;
        let mut feat_mean = [0.0; N_FEATURES];
        let mut feat_std = [0.0; N_FEATURES];
        for x in &xs {
            for k in 0..N_FEATURES {
                feat_mean[k] += x[k];
            }
        }
        for m in &mut feat_mean {
            *m /= n;
        }
        for x in &xs {
            for k in 0..N_FEATURES {
                feat_std[k] += (x[k] - feat_mean[k]).powi(2);
            }
        }
        for s in &mut feat_std {
            *s = (*s / n).sqrt().max(1e-6);
        }
        for x in &mut xs {
            for k in 0..N_FEATURES {
                x[k] = (x[k] - feat_mean[k]) / feat_std[k];
            }
        }
        // Gradient descent on logistic loss.
        let mut weights = [0.0; N_FEATURES];
        let mut bias = 0.0;
        let lr = 0.5;
        for _ in 0..300 {
            let mut grad_w = [0.0; N_FEATURES];
            let mut grad_b = 0.0;
            for (x, &y) in xs.iter().zip(&ys) {
                let z: f64 = bias + weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - y;
                for k in 0..N_FEATURES {
                    grad_w[k] += err * x[k];
                }
                grad_b += err;
            }
            for k in 0..N_FEATURES {
                weights[k] -= lr * grad_w[k] / n;
            }
            bias -= lr * grad_b / n;
        }
        LogisticDetector {
            window,
            weights,
            bias,
            feat_mean,
            feat_std,
            night_prior: Some((22, 7)),
        }
    }

    /// The learned weights (for inspection).
    pub fn weights(&self) -> (&[f64; N_FEATURES], f64) {
        (&self.weights, self.bias)
    }
}

impl WindowedDetector for LogisticDetector {
    /// The whole summary: the features read the mean, σ and range.
    type Record = Summary;

    fn window(&self) -> usize {
        self.window
    }

    /// Applies the trained model over the window summaries.
    fn detect_from_windows(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        windows: &[Summary],
    ) -> LabelSeries {
        let baseline = baseline_of(windows.iter().map(|s| s.mean).collect());
        let mut labels = vec![false; len];
        for (window, summary) in labels.chunks_mut(self.window).zip(windows) {
            let mut x = features(summary, baseline);
            for (k, v) in x.iter_mut().enumerate() {
                *v = (*v - self.feat_mean[k]) / self.feat_std[k];
            }
            let z: f64 = self.bias + self.weights.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>();
            window.fill(z > 0.0);
        }
        if let Some((from, to)) = self.night_prior {
            apply_night_prior(&mut labels, start, resolution, from, to);
        }
        LabelSeries::new(start, resolution, labels)
    }
}

impl OccupancyDetector for LogisticDetector {
    fn detect(&self, meter: &PowerTrace) -> LabelSeries {
        let _span = obs::span("niom.logistic.detect");
        obs::counter_add("niom.logistic.samples", meter.len() as u64);
        let windows = self.records(meter);
        self.detect_from_windows(meter.start(), meter.resolution(), meter.len(), &windows)
    }

    fn name(&self) -> &str {
        "niom-logistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{Resolution, Timestamp};

    /// Synthetic home: occupied evenings with bursts over a noisy base.
    fn home(seed_phase: f64, days: usize) -> (PowerTrace, LabelSeries) {
        let len = days * 1440;
        let meter = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            let minute = i % 1440;
            let base = 120.0 + 40.0 * ((i as f64 + seed_phase) * 0.21).sin();
            if (1_020..1_320).contains(&minute) || (390..480).contains(&minute) {
                base + if (i as f64 + seed_phase) as usize % 17 < 4 {
                    1_300.0
                } else {
                    180.0
                }
            } else {
                base
            }
        });
        let truth = LabelSeries::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            let minute = i % 1440;
            (1_020..1_320).contains(&minute)
                || (390..480).contains(&minute)
                || !(480..1_020).contains(&minute)
        });
        (meter, truth)
    }

    #[test]
    fn transfers_to_unseen_home() {
        let (m1, o1) = home(0.0, 4);
        let (m2, o2) = home(511.0, 4);
        let model = LogisticDetector::train(&[(&m1, &o1), (&m2, &o2)], 15);
        // A home it has never seen, with a different phase.
        let (m3, o3) = home(901.0, 4);
        let inferred = model.detect(&m3);
        let c = o3.confusion(&inferred).unwrap();
        assert!(c.accuracy() > 0.8, "accuracy {:.3}", c.accuracy());
        assert!(c.mcc() > 0.5, "mcc {:.3}", c.mcc());
    }

    #[test]
    fn learned_weights_point_the_right_way() {
        let (m, o) = home(0.0, 4);
        let model = LogisticDetector::train(&[(&m, &o)], 15);
        let (w, _) = model.weights();
        // Burstiness (σ) must contribute positively to "occupied".
        assert!(w[1] > 0.0, "sigma weight {w:?}");
    }

    #[test]
    fn name_and_serde() {
        let (m, o) = home(0.0, 2);
        let model = LogisticDetector::train(&[(&m, &o)], 15);
        assert_eq!(model.name(), "niom-logistic");
        let json = serde_json::to_string(&model).unwrap();
        let back: LogisticDetector = serde_json::from_str(&json).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    #[should_panic(expected = "need training homes")]
    fn empty_training_rejected() {
        LogisticDetector::train(&[], 15);
    }

    #[test]
    fn selected_baseline_equals_the_sorted_copy_at_every_length() {
        assert_eq!(baseline_of(Vec::new()), 0.0);
        // Ties and both zeros, which `total_cmp` orders -0 before +0;
        // lengths 1..=100 put the `len / 10` rank on 0..=10.
        let pool = [
            0.0, -0.0, 120.0, -0.0, 7.5, 0.0, 120.0, -3.0, 0.0, 55.0, -0.0,
        ];
        for len in 1..=100 {
            for shift in 0..pool.len() {
                let means: Vec<f64> = (0..len)
                    .map(|i| pool[(i * 7 + shift) % pool.len()])
                    .collect();
                let mut sorted = means.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                assert_eq!(
                    baseline_of(means).to_bits(),
                    sorted[len / 10].to_bits(),
                    "length {len}, shift {shift}"
                );
            }
        }
    }
}
