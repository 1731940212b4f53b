//! HMM-based NIOM (Kleiminger et al., BuildSys'13 style).
//!
//! A two-state hidden Markov model with Gaussian emissions over windowed
//! mean power. The model is trained *unsupervised* on the trace under
//! attack (Baum–Welch), then decoded with Viterbi; the state with the
//! higher emission mean is declared "occupied". Temporal transition priors
//! give this detector better robustness to brief quiet periods than pure
//! thresholding.

use crate::detector::{OccupancyDetector, WindowedDetector};
use serde::{Deserialize, Serialize};
use timeseries::{LabelSeries, PowerTrace, Resolution, Timestamp};

/// The two-state Gaussian-emission HMM occupancy detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmmDetector {
    /// Window length in samples over which mean power is computed.
    pub window: usize,
    /// Number of Baum–Welch refinement iterations.
    pub em_iterations: usize,
    /// Floor applied to emission variances, watts² (keeps EM stable when a
    /// state captures near-constant samples).
    pub variance_floor: f64,
    /// Sleep prior: hours `(from, to)` (wrapping midnight) assumed occupied
    /// regardless of power. `None` disables the prior.
    pub night_prior: Option<(u8, u8)>,
}

impl Default for HmmDetector {
    fn default() -> Self {
        HmmDetector {
            window: 15,
            em_iterations: 12,
            variance_floor: 25.0,
            night_prior: Some((22, 7)),
        }
    }
}

/// Internal: parameters of a 2-state Gaussian HMM.
#[derive(Debug, Clone)]
struct Hmm2 {
    /// Initial state log-probabilities.
    log_pi: [f64; 2],
    /// Transition log-probabilities `log_a[from][to]`.
    log_a: [[f64; 2]; 2],
    /// Emission means.
    mu: [f64; 2],
    /// Emission variances.
    var: [f64; 2],
}

impl Hmm2 {
    fn log_emission(&self, state: usize, x: f64) -> f64 {
        let d = x - self.mu[state];
        -0.5 * (d * d / self.var[state] + self.var[state].ln() + (2.0 * std::f64::consts::PI).ln())
    }

    /// Forward-backward in log space; returns per-step posterior
    /// `gamma[t][state]` and pairwise `xi[t][from][to]` expectations.
    #[allow(clippy::type_complexity)]
    fn forward_backward(&self, xs: &[f64]) -> (Vec<[f64; 2]>, Vec<[[f64; 2]; 2]>) {
        let n = xs.len();
        let mut alpha = vec![[f64::NEG_INFINITY; 2]; n];
        let mut beta = vec![[0.0f64; 2]; n];
        for (s, a) in alpha[0].iter_mut().enumerate() {
            *a = self.log_pi[s] + self.log_emission(s, xs[0]);
        }
        for t in 1..n {
            for s in 0..2 {
                let a = alpha[t - 1][0] + self.log_a[0][s];
                let b = alpha[t - 1][1] + self.log_a[1][s];
                alpha[t][s] = log_sum_exp(a, b) + self.log_emission(s, xs[t]);
            }
        }
        for t in (0..n.saturating_sub(1)).rev() {
            for s in 0..2 {
                let a = self.log_a[s][0] + self.log_emission(0, xs[t + 1]) + beta[t + 1][0];
                let b = self.log_a[s][1] + self.log_emission(1, xs[t + 1]) + beta[t + 1][1];
                beta[t][s] = log_sum_exp(a, b);
            }
        }
        let log_z = log_sum_exp(alpha[n - 1][0], alpha[n - 1][1]);
        let mut gamma = vec![[0.0f64; 2]; n];
        for t in 0..n {
            for s in 0..2 {
                gamma[t][s] = (alpha[t][s] + beta[t][s] - log_z).exp();
            }
            let norm: f64 = gamma[t][0] + gamma[t][1];
            if norm > 0.0 {
                gamma[t][0] /= norm;
                gamma[t][1] /= norm;
            }
        }
        let mut xi = vec![[[0.0f64; 2]; 2]; n.saturating_sub(1)];
        for t in 0..n.saturating_sub(1) {
            let mut total = f64::NEG_INFINITY;
            let mut raw = [[0.0f64; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    let v = alpha[t][i]
                        + self.log_a[i][j]
                        + self.log_emission(j, xs[t + 1])
                        + beta[t + 1][j];
                    raw[i][j] = v;
                    total = log_sum_exp(total, v);
                }
            }
            for i in 0..2 {
                for j in 0..2 {
                    xi[t][i][j] = (raw[i][j] - total).exp();
                }
            }
        }
        (gamma, xi)
    }

    /// Viterbi decode: most likely state sequence.
    fn viterbi(&self, xs: &[f64]) -> Vec<usize> {
        let n = xs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut delta = vec![[f64::NEG_INFINITY; 2]; n];
        let mut back = vec![[0usize; 2]; n];
        for (s, d) in delta[0].iter_mut().enumerate() {
            *d = self.log_pi[s] + self.log_emission(s, xs[0]);
        }
        for t in 1..n {
            for s in 0..2 {
                let via0 = delta[t - 1][0] + self.log_a[0][s];
                let via1 = delta[t - 1][1] + self.log_a[1][s];
                let (best, from) = if via0 >= via1 { (via0, 0) } else { (via1, 1) };
                delta[t][s] = best + self.log_emission(s, xs[t]);
                back[t][s] = from;
            }
        }
        let mut path = vec![0usize; n];
        path[n - 1] = if delta[n - 1][0] >= delta[n - 1][1] {
            0
        } else {
            1
        };
        for t in (0..n - 1).rev() {
            path[t] = back[t + 1][path[t + 1]];
        }
        path
    }
}

fn log_sum_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

impl HmmDetector {
    /// The percentile-split initial model the EM refinement starts from.
    fn init_hmm(&self, xs: &[f64]) -> Hmm2 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let lo = sorted[sorted.len() / 5];
        let hi = sorted[sorted.len() * 4 / 5];
        let spread = ((hi - lo) / 2.0).max(self.variance_floor.sqrt());
        Hmm2 {
            log_pi: [0.5f64.ln(), 0.5f64.ln()],
            log_a: [[0.9f64.ln(), 0.1f64.ln()], [0.1f64.ln(), 0.9f64.ln()]],
            mu: [lo, hi.max(lo + 1.0)],
            var: [spread * spread, spread * spread],
        }
    }

    /// One EM M-step.
    fn m_step(&self, hmm: &mut Hmm2, xs: &[f64], gamma: &[[f64; 2]], xi: &[[[f64; 2]; 2]]) {
        for s in 0..2 {
            let weight: f64 = gamma.iter().map(|g| g[s]).sum();
            if weight <= f64::MIN_POSITIVE {
                continue;
            }
            let mean = gamma.iter().zip(xs).map(|(g, &x)| g[s] * x).sum::<f64>() / weight;
            let var = gamma
                .iter()
                .zip(xs)
                .map(|(g, &x)| g[s] * (x - mean).powi(2))
                .sum::<f64>()
                / weight;
            hmm.mu[s] = mean;
            hmm.var[s] = var.max(self.variance_floor);
            hmm.log_pi[s] = gamma[0][s].max(1e-12).ln();
        }
        for i in 0..2 {
            let denom: f64 = xi.iter().map(|x| x[i][0] + x[i][1]).sum();
            if denom <= f64::MIN_POSITIVE {
                continue;
            }
            for j in 0..2 {
                let num: f64 = xi.iter().map(|x| x[i][j]).sum();
                hmm.log_a[i][j] = (num / denom).max(1e-12).ln();
            }
        }
    }

    /// Expands a decoded window-state path over a `len`-sample trace into
    /// sample labels and applies the night prior.
    fn labels_from_path(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        path: &[usize],
        occupied_state: usize,
    ) -> LabelSeries {
        let mut labels = vec![false; len];
        for (window, &state) in labels.chunks_mut(self.window).zip(path) {
            window.fill(state == occupied_state);
        }
        if let Some((from, to)) = self.night_prior {
            crate::threshold::apply_night_prior(&mut labels, start, resolution, from, to);
        }
        LabelSeries::new(start, resolution, labels)
    }

    /// Fits the 2-state HMM to the window means `xs` and returns it.
    fn fit(&self, xs: &[f64]) -> Hmm2 {
        let mut hmm = self.init_hmm(xs);
        for _ in 0..self.em_iterations {
            let (gamma, xi) = hmm.forward_backward(xs);
            self.m_step(&mut hmm, xs, &gamma, &xi);
        }
        hmm
    }
}

impl WindowedDetector for HmmDetector {
    /// The window mean.
    type Record = f64;

    fn window(&self) -> usize {
        self.window
    }

    /// Runs fit + Viterbi + labelling over the window means.
    fn detect_from_windows(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        means: &[f64],
    ) -> LabelSeries {
        if len == 0 {
            return LabelSeries::new(start, resolution, Vec::new());
        }
        if means.len() < 4 {
            // Too little data for EM; fall back to "all unoccupied".
            return LabelSeries::new(start, resolution, vec![false; len]);
        }
        let hmm = self.fit(means);
        let path = hmm.viterbi(means);
        let occupied_state = if hmm.mu[0] >= hmm.mu[1] { 0 } else { 1 };
        self.labels_from_path(start, resolution, len, &path, occupied_state)
    }
}

impl OccupancyDetector for HmmDetector {
    fn detect(&self, meter: &PowerTrace) -> LabelSeries {
        if meter.is_empty() {
            return LabelSeries::like_trace(meter, false);
        }
        let _span = obs::span("niom.hmm.detect");
        obs::counter_add("niom.hmm.samples", meter.len() as u64);
        let windows = self.records(meter);
        self.detect_from_windows(meter.start(), meter.resolution(), meter.len(), &windows)
    }

    fn name(&self) -> &str {
        "niom-hmm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timeseries::{Resolution, Timestamp};

    fn synthetic(days: usize) -> (PowerTrace, LabelSeries) {
        let len = days * 1_440;
        let trace = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            let minute = i % 1_440;
            let background = 110.0 + 25.0 * ((i as f64) * 0.15).sin();
            // Occupied mornings (6–8) and evenings (17–23).
            let occupied = (360..480).contains(&minute) || (1_020..1_380).contains(&minute);
            if occupied {
                background + 400.0 + if i % 17 < 4 { 1_200.0 } else { 0.0 }
            } else {
                background
            }
        });
        let truth = LabelSeries::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            let minute = i % 1_440;
            (360..480).contains(&minute) || (1_020..1_380).contains(&minute)
        });
        (trace, truth)
    }

    fn no_prior() -> HmmDetector {
        HmmDetector {
            night_prior: None,
            ..HmmDetector::default()
        }
    }

    #[test]
    fn hmm_detects_occupancy() {
        let (trace, truth) = synthetic(3);
        let inferred = no_prior().detect(&trace);
        let c = truth.confusion(&inferred).unwrap();
        assert!(c.accuracy() > 0.9, "accuracy {}", c.accuracy());
        assert!(c.mcc() > 0.75, "mcc {}", c.mcc());
    }

    #[test]
    fn flat_trace_single_state() {
        let flat = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, 100.0);
        let inferred = no_prior().detect(&flat);
        // All one label — either works, but positive rate must be 0 or 1.
        let r = inferred.positive_rate();
        assert!(r == 0.0 || r == 1.0, "rate {r}");
    }

    #[test]
    fn tiny_trace_falls_back() {
        let t = PowerTrace::constant(Timestamp::ZERO, Resolution::ONE_MINUTE, 20, 100.0);
        let inferred = no_prior().detect(&t);
        assert_eq!(inferred.positive_rate(), 0.0);
        let empty = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        assert!(no_prior().detect(&empty).is_empty());
    }

    #[test]
    fn log_sum_exp_edge_cases() {
        assert_eq!(log_sum_exp(f64::NEG_INFINITY, 1.0), 1.0);
        assert_eq!(log_sum_exp(1.0, f64::NEG_INFINITY), 1.0);
        let v = log_sum_exp(0.0, 0.0);
        assert!((v - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn viterbi_prefers_persistent_states() {
        let hmm = Hmm2 {
            log_pi: [0.5f64.ln(), 0.5f64.ln()],
            log_a: [[0.95f64.ln(), 0.05f64.ln()], [0.05f64.ln(), 0.95f64.ln()]],
            mu: [0.0, 10.0],
            var: [4.0, 4.0],
        };
        // One outlier inside a low-state run gets absorbed.
        let xs = [0.0, 0.5, 6.0, 0.2, -0.1, 0.4];
        let path = hmm.viterbi(&xs);
        assert_eq!(path, vec![0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn detector_name() {
        assert_eq!(HmmDetector::default().name(), "niom-hmm");
    }
}
