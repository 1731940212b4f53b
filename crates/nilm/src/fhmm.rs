//! The Factorial-HMM disaggregation baseline (Kolter & Johnson, REDD).
//!
//! Each device is an independent Markov chain (learned by [`crate::train`])
//! and the meter observes the *sum* of all chains' emissions plus Gaussian
//! noise. Inference recovers the most likely joint state path:
//!
//! * **exact factorial Viterbi** over the joint product state space when it
//!   is small enough, or
//! * **iterated conditional modes (ICM)**: per-device Viterbi against the
//!   residual left by the other devices' current estimates, swept until
//!   convergence — the standard approximation for large device sets.
//!
//! Hot-path layout (see `docs/KERNELS.md`): both decoders run one Viterbi
//! step over flat tables — emission means, initial log-probs, and
//! log-transitions stored *from-major* (`log_a[from * k + to]`), so one
//! predecessor's transitions to every target are a contiguous row. The
//! step walks predecessors in ascending order and folds each into
//! per-target `best`/`arg` lanes with branch-free selects; it is compiled
//! for AVX-512F and AVX2 and picked once per [`Fhmm`] by runtime CPU
//! detection, with the per-target scalar scan as the portable fallback
//! and the test oracle. Every variant returns bit-identical scores and
//! backpointers. The variant is dispatched once per run of observations
//! (a whole trace, or one chunk of a stream), and two swapped scratch
//! rows replace per-step allocation. Backpointers are `u16`, so a chain
//! or joint space decodes exactly only up to 65,536 states. The joint
//! tables depend only on the models, so they are built once per [`Fhmm`]
//! and shared by every subsequent decode; they include each device's
//! wattage per joint state, so estimates render straight from the joint
//! path.
//!
//! Decoding reuses one private scratch per thread — score rows,
//! backpointer table, and the ICM residual/explained buffers — grown on
//! demand and never shrunk, so repeated decodes on a thread (fleet
//! workers, per-day figure loops, stream finalizes) stop allocating after
//! the first.

use crate::estimate::{DeviceEstimate, Disaggregator};
use crate::train::DeviceHmm;
use std::cell::RefCell;
use std::sync::OnceLock;
use timeseries::{PowerTrace, Resolution, Timestamp};

/// Tuning parameters of the FHMM disaggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FhmmConfig {
    /// Std-dev of the aggregate observation noise, watts.
    pub noise_sd_watts: f64,
    /// Largest joint state count for which exact factorial Viterbi is used.
    pub max_exact_states: usize,
    /// ICM sweeps when the joint space is too large for exact inference.
    pub icm_sweeps: usize,
}

impl Default for FhmmConfig {
    fn default() -> Self {
        FhmmConfig {
            noise_sd_watts: 40.0,
            max_exact_states: 512,
            icm_sweeps: 4,
        }
    }
}

/// Decode scratch: two swapped score rows, the backpointer table, and the
/// ICM residual/explained buffers. Decoders size the buffers on entry and
/// never shrink their capacity, so one scratch serves decodes of any state
/// count and trace length.
#[derive(Debug, Default)]
struct Scratch {
    delta: Vec<f64>,
    next: Vec<f64>,
    back: Vec<u16>,
    residual: Vec<f64>,
    explained: Vec<f64>,
}

/// Most states a Viterbi step can index: backpointers are `u16`.
const MAX_STATES: usize = 1 << 16;

thread_local! {
    /// The scratch every decode on this thread borrows.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Flat Viterbi tables over `k` states: per-state emission means
/// (`totals`), initial log-probs, and the log-transition matrix stored
/// from-major, `log_a[from * k + to]`, so predecessor `from`'s transitions
/// to every target are one contiguous row. The joint product space and a
/// single device chain both take this shape, so one step serves exact
/// decoding and ICM.
#[derive(Debug, Clone)]
struct Tables {
    k: usize,
    totals: Vec<f64>,
    log_init: Vec<f64>,
    log_a: Vec<f64>,
}

impl Tables {
    fn from_hmm(dev: &DeviceHmm) -> Self {
        Tables {
            k: dev.n_states(),
            totals: dev.state_watts.clone(),
            log_init: dev.log_init.clone(),
            log_a: dev.log_trans.concat(),
        }
    }
}

/// The exact decoder's joint product space, built once per [`Fhmm`]: its
/// flat tables, the digit table that unpacks a joint state into
/// per-device states, and the wattage table estimates render from.
#[derive(Debug, Clone)]
struct Joint {
    tables: Tables,
    /// `digits[j * devices + d]` is device `d`'s state in joint state `j`.
    digits: Vec<usize>,
    /// `watts[d * k + j]` is device `d`'s wattage in joint state `j`.
    watts: Vec<f64>,
}

/// The factorial HMM over a set of learned device models.
#[derive(Debug, Clone)]
pub struct Fhmm {
    devices: Vec<DeviceHmm>,
    chains: Vec<Tables>,
    config: FhmmConfig,
    joint: OnceLock<Joint>,
    /// The Viterbi step variant, chosen once for this CPU.
    isa: Isa,
}

impl Fhmm {
    /// Creates an FHMM from learned device models with default tuning.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<DeviceHmm>) -> Self {
        Fhmm::with_config(devices, FhmmConfig::default())
    }

    /// Creates an FHMM with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty, any device has more than 65,536
    /// states (ICM runs the Viterbi step over each device's chain, and
    /// its `u16` backpointers index at most that many), or the noise
    /// std-dev is not positive.
    pub fn with_config(devices: Vec<DeviceHmm>, config: FhmmConfig) -> Self {
        assert!(!devices.is_empty(), "FHMM needs at least one device");
        assert!(
            devices.iter().all(|d| d.n_states() <= MAX_STATES),
            "a device chain holds at most {MAX_STATES} states"
        );
        assert!(
            config.noise_sd_watts.is_finite() && config.noise_sd_watts > 0.0,
            "noise std-dev must be positive"
        );
        let chains = devices.iter().map(Tables::from_hmm).collect();
        Fhmm {
            devices,
            chains,
            config,
            joint: OnceLock::new(),
            isa: Isa::detect(),
        }
    }

    /// The total joint state count, saturating at `usize::MAX`.
    pub fn joint_states(&self) -> usize {
        self.devices
            .iter()
            .fold(1, |k: usize, d| k.saturating_mul(d.n_states()))
    }

    fn inv_two_var(&self) -> f64 {
        0.5 / (self.config.noise_sd_watts * self.config.noise_sd_watts)
    }

    /// Decodes per-device state paths for `meter`.
    pub fn decode(&self, meter: &PowerTrace) -> Vec<Vec<usize>> {
        if meter.is_empty() {
            return vec![Vec::new(); self.devices.len()];
        }
        if self.exact_capable() {
            return self.unpack_paths(&self.decode_joint(meter.samples()));
        }
        obs::counter_add("nilm.fhmm.samples", meter.len() as u64);
        obs::time("nilm.fhmm.decode_icm", || {
            SCRATCH.with(|scratch| self.decode_icm(meter.samples(), &mut scratch.borrow_mut()))
        })
    }

    /// Exact factorial Viterbi: the most likely joint state path for `xs`.
    fn decode_joint(&self, xs: &[f64]) -> Vec<usize> {
        if xs.is_empty() {
            return Vec::new();
        }
        obs::counter_add("nilm.fhmm.samples", xs.len() as u64);
        obs::time("nilm.fhmm.decode_exact", || {
            let tables = &self.joint().tables;
            SCRATCH.with(|scratch| {
                viterbi(
                    self.isa,
                    tables,
                    xs,
                    self.inv_two_var(),
                    &mut scratch.borrow_mut(),
                )
            })
        })
    }

    /// Builds (or fetches) the joint tables for exact decoding.
    fn joint(&self) -> &Joint {
        self.joint.get_or_init(|| {
            let k = self.joint_states();
            let devices = self.devices.len();
            // Device 0 is the fastest-varying digit of a joint state.
            let mut digits = Vec::with_capacity(k * devices);
            for j in 0..k {
                let mut rest = j;
                for dev in &self.devices {
                    digits.push(rest % dev.n_states());
                    rest /= dev.n_states();
                }
            }
            let factored: Vec<&[usize]> = digits.chunks(devices).collect();
            let watts = (0..devices)
                .flat_map(|d| {
                    factored
                        .iter()
                        .map(move |states| self.devices[d].state_watts[states[d]])
                })
                .collect();
            let totals: Vec<f64> = factored
                .iter()
                .map(|states| {
                    states
                        .iter()
                        .zip(&self.devices)
                        .map(|(&s, d)| d.state_watts[s])
                        .sum()
                })
                .collect();
            let log_init: Vec<f64> = factored
                .iter()
                .map(|states| {
                    states
                        .iter()
                        .zip(&self.devices)
                        .map(|(&s, d)| d.log_init[s])
                        .sum()
                })
                .collect();
            // Joint log-transitions factorize as a sum over devices.
            let mut log_a = Vec::with_capacity(k * k);
            for from in &factored {
                for to in &factored {
                    log_a.push(
                        from.iter()
                            .zip(*to)
                            .zip(&self.devices)
                            .map(|((&f, &t), d)| d.log_trans[f][t])
                            .sum(),
                    );
                }
            }
            Joint {
                tables: Tables {
                    k,
                    totals,
                    log_init,
                    log_a,
                },
                digits,
                watts,
            }
        })
    }

    /// Iterated conditional modes: strictly Gauss-Seidel device sweeps,
    /// flexible chains first, each a single-chain Viterbi against the
    /// residual the other devices leave; stops after the first sweep that
    /// changes no path.
    fn decode_icm(&self, xs: &[f64], scratch: &mut Scratch) -> Vec<Vec<usize>> {
        let n = xs.len();
        // Start everything in its lowest state.
        let mut paths: Vec<Vec<usize>> = self.devices.iter().map(|_| vec![0usize; n]).collect();
        let mut explained = std::mem::take(&mut scratch.explained);
        explained.clear();
        explained.resize(n, 0.0);
        for (dev, path) in self.devices.iter().zip(&paths) {
            for (e, &s) in explained.iter_mut().zip(path) {
                *e += dev.state_watts[s];
            }
        }

        // Sweep flexible chains (more states) first so slack/background
        // chains absorb unmodelled load before specific appliances claim it.
        let mut order: Vec<usize> = (0..self.devices.len()).collect();
        order.sort_by_key(|&d| std::cmp::Reverse(self.devices[d].n_states()));

        let mut residual = std::mem::take(&mut scratch.residual);
        residual.clear();
        residual.resize(n, 0.0);

        let inv_two_var = self.inv_two_var();
        for _ in 0..self.config.icm_sweeps {
            let mut changed = false;
            for &d in &order {
                let dev = &self.devices[d];
                fill_residual(&mut residual, xs, &explained, &dev.state_watts, &paths[d]);
                let new_path = viterbi(self.isa, &self.chains[d], &residual, inv_two_var, scratch);
                if new_path != paths[d] {
                    changed = true;
                    for ((e, &new), &old) in explained.iter_mut().zip(&new_path).zip(&paths[d]) {
                        *e += dev.state_watts[new] - dev.state_watts[old];
                    }
                    paths[d] = new_path;
                }
            }
            if !changed {
                break;
            }
        }
        scratch.explained = explained;
        scratch.residual = residual;
        paths
    }

    /// Unpacks a joint-state path into per-device state paths.
    fn unpack_paths(&self, joint_path: &[usize]) -> Vec<Vec<usize>> {
        let digits = &self.joint().digits;
        let devices = self.devices.len();
        (0..devices)
            .map(|d| {
                joint_path
                    .iter()
                    .map(|&j| digits[j * devices + d])
                    .collect()
            })
            .collect()
    }

    /// Renders a joint-state path into [`DeviceEstimate`]s: device `d`
    /// reads its wattage in each sample's joint state off the joint
    /// tables.
    fn render(
        &self,
        start: Timestamp,
        resolution: Resolution,
        joint_path: &[usize],
    ) -> Vec<DeviceEstimate> {
        let joint = self.joint();
        let k = joint.tables.k;
        self.devices
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                let watts = &joint.watts[d * k..(d + 1) * k];
                DeviceEstimate {
                    name: dev.name.clone(),
                    trace: PowerTrace::from_fn(start, resolution, joint_path.len(), |t| {
                        watts[joint_path[t]]
                    }),
                }
            })
            .collect()
    }

    /// Whether this model decodes with exact factorial Viterbi (as opposed
    /// to the ICM approximation, which needs the whole trace at once):
    /// its joint space has at most `max_exact_states` states, and at most
    /// the 65,536 a `u16` backpointer can index.
    pub fn exact_capable(&self) -> bool {
        self.joint_states() <= self.config.max_exact_states.min(MAX_STATES)
    }

    /// Number of device models in the factorial ensemble.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Starts an incremental exact-Viterbi forward pass over this model, or
    /// `None` when the joint space is too large for exact decoding (ICM is
    /// a whole-trace algorithm; callers must buffer and use
    /// [`Disaggregator::disaggregate`] instead).
    ///
    /// Extending the filter by every sample of a trace, in chunks of any
    /// length, and then calling [`FhmmFilter::paths`] or
    /// [`FhmmFilter::estimates`] reproduces [`Fhmm::decode`] or
    /// [`Disaggregator::disaggregate`] bit for bit: the filter runs the
    /// same Viterbi steps as the internal exact decoder, merely spread
    /// across `extend` calls.
    pub fn filter(&self) -> Option<FhmmFilter<'_>> {
        if !self.exact_capable() {
            return None;
        }
        Some(FhmmFilter {
            fhmm: self,
            inv_two_var: self.inv_two_var(),
            delta: Vec::new(),
            next: Vec::new(),
            back: Vec::new(),
            n: 0,
        })
    }
}

/// The `t = 0` score row: `log_init[j] + emit(j, x)`.
fn init_row(tables: &Tables, x: f64, inv_two_var: f64, delta: &mut Vec<f64>) {
    delta.clear();
    delta.extend(
        tables
            .totals
            .iter()
            .zip(&tables.log_init)
            .map(|(&total, &init)| {
                let d = x - total;
                init + (-d * d * inv_two_var)
            }),
    );
}

/// The Viterbi step and its instruction-set variants. [`Isa`] is opaque
/// outside this module, so only the runtime feature checks here can
/// select a SIMD variant.
mod kernel {
    use super::Tables;

    /// Instruction set of the Viterbi step, detected once per
    /// [`Fhmm`](super::Fhmm).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Isa(Kind);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        /// The per-target scalar scan: portable fallback and test oracle.
        Scalar,
        /// The lane step compiled with AVX2.
        #[cfg(target_arch = "x86_64")]
        Avx2,
        /// The lane step compiled with AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    impl Isa {
        /// The scalar scan, on any CPU.
        pub(super) const SCALAR: Isa = Isa(Kind::Scalar);

        /// The widest variant this CPU supports.
        pub(super) fn detect() -> Isa {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return Isa(Kind::Avx512);
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Isa(Kind::Avx2);
                }
            }
            Isa::SCALAR
        }

        /// Every variant this CPU supports.
        #[cfg(test)]
        pub(super) fn supported() -> Vec<Isa> {
            #[allow(unused_mut)]
            let mut isas = vec![Isa::SCALAR];
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    isas.push(Isa(Kind::Avx2));
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    isas.push(Isa(Kind::Avx512));
                }
            }
            isas
        }
    }

    /// One Viterbi step per observation of `xs`, through the variant
    /// `isa` selects: the ISA is matched once, and the loop over `xs`
    /// runs inside the selected variant. Step `t` turns the score row
    /// `delta` into `next` and the backpointer row
    /// `back[t * k..(t + 1) * k]`, then swaps the two rows, so `delta`
    /// ends as the last observation's score row. For every target `j`:
    /// `next[j] = max_i (delta[i] + log_a[i][j]) + emit(j, x)` and
    /// `back[j]` = the maximizing `i`, where a scan from `-inf` with
    /// `arg = 0` takes a predecessor only on strict `>`, so the first
    /// maximum wins. Every variant evaluates the same additions and
    /// comparisons in the same order per target, so they agree bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics unless `back` holds one `k`-wide row per observation and
    /// both score rows are `k` wide.
    pub(super) fn steps(
        isa: Isa,
        tables: &Tables,
        delta: &mut Vec<f64>,
        next: &mut Vec<f64>,
        xs: &[f64],
        inv_two_var: f64,
        back: &mut [u16],
    ) {
        let k = tables.k;
        assert!(
            back.len() == xs.len() * k && delta.len() == k && next.len() == k,
            "one backpointer row per observation, k-wide score rows"
        );
        match isa.0 {
            Kind::Scalar => {
                for (t, &x) in xs.iter().enumerate() {
                    let back_t = &mut back[t * k..(t + 1) * k];
                    step_scalar(tables, delta, x, inv_two_var, next, back_t);
                    std::mem::swap(delta, next);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2` is only built in `Isa::detect` and
            // `Isa::supported`, right after `is_x86_feature_detected!("avx2")`
            // returned true.
            Kind::Avx2 => unsafe { steps_avx2(tables, delta, next, xs, inv_two_var, back) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx512` is only built in `Isa::detect` and
            // `Isa::supported`, right after
            // `is_x86_feature_detected!("avx512f")` returned true.
            Kind::Avx512 => unsafe { steps_avx512(tables, delta, next, xs, inv_two_var, back) },
        }
    }

    /// The portable step and the oracle the lane step is tested against: per
    /// target `j`, a branchy scan over predecessors `i = 0..k`.
    pub(super) fn step_scalar(
        tables: &Tables,
        delta: &[f64],
        x: f64,
        inv_two_var: f64,
        next: &mut [f64],
        back: &mut [u16],
    ) {
        let k = tables.k;
        for (j, (slot, ptr)) in next.iter_mut().zip(back.iter_mut()).enumerate() {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0u16;
            for (i, &d) in delta.iter().enumerate() {
                let v = d + tables.log_a[i * k + j];
                if v > best {
                    best = v;
                    // `k <= MAX_STATES`, so `i` fits.
                    arg = i as u16;
                }
            }
            let d = x - tables.totals[j];
            *slot = best + (-d * d * inv_two_var);
            *ptr = arg;
        }
    }

    /// [`steps_lanes`] compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The caller must have checked `is_x86_feature_detected!("avx2")`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn steps_avx2(
        tables: &Tables,
        delta: &mut Vec<f64>,
        next: &mut Vec<f64>,
        xs: &[f64],
        inv_two_var: f64,
        back: &mut [u16],
    ) {
        steps_lanes(tables, delta, next, xs, inv_two_var, back);
    }

    /// [`steps_lanes`] compiled with AVX-512F.
    ///
    /// # Safety
    ///
    /// The caller must have checked `is_x86_feature_detected!("avx512f")`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn steps_avx512(
        tables: &Tables,
        delta: &mut Vec<f64>,
        next: &mut Vec<f64>,
        xs: &[f64],
        inv_two_var: f64,
        back: &mut [u16],
    ) {
        steps_lanes(tables, delta, next, xs, inv_two_var, back);
    }

    /// [`step_lanes`] once per observation, swapping the score rows. The
    /// loop lives here, not in [`steps`], so that it is compiled inside
    /// each `#[target_feature]` variant with the step inlined into it.
    #[inline(always)]
    fn steps_lanes(
        tables: &Tables,
        delta: &mut Vec<f64>,
        next: &mut Vec<f64>,
        xs: &[f64],
        inv_two_var: f64,
        back: &mut [u16],
    ) {
        let k = tables.k;
        for (t, &x) in xs.iter().enumerate() {
            let back_t = &mut back[t * k..(t + 1) * k];
            step_lanes(tables, delta, x, inv_two_var, next, back_t);
            std::mem::swap(delta, next);
        }
    }

    /// Targets per register tile of [`step_lanes`]: a tile's `best`/`arg`
    /// lanes stay in vector registers for the whole predecessor walk.
    const TILE: usize = 16;

    /// The vectorizable step: predecessors `i` in ascending order, each
    /// folded into every target's `best`/`arg` lane at once by [`relax`].
    /// Targets go in register tiles of [`TILE`]; a ragged tail keeps its
    /// scores in `next` and its `arg` lanes in a stack tile instead. The
    /// `arg` lanes are `u32` and narrow to `u16` on store. Per target this
    /// is the scalar scan's exact sequence of additions and strict-`>`
    /// comparisons.
    #[inline(always)]
    fn step_lanes(
        tables: &Tables,
        delta: &[f64],
        x: f64,
        inv_two_var: f64,
        next: &mut [f64],
        back: &mut [u16],
    ) {
        let k = tables.k;
        let mut j0 = 0;
        while j0 + TILE <= k {
            let mut best = [f64::NEG_INFINITY; TILE];
            let mut arg = [0u32; TILE];
            for (i, &d) in delta.iter().enumerate() {
                let row = &tables.log_a[i * k + j0..i * k + j0 + TILE];
                relax(&mut best, &mut arg, d, row, i as u32);
            }
            next[j0..j0 + TILE].copy_from_slice(&best);
            narrow(&mut back[j0..j0 + TILE], &arg);
            j0 += TILE;
        }
        if j0 < k {
            let best = &mut next[j0..k];
            let mut tile = [0u32; TILE];
            let arg = &mut tile[..k - j0];
            best.fill(f64::NEG_INFINITY);
            for (i, &d) in delta.iter().enumerate() {
                let row = &tables.log_a[i * k + j0..(i + 1) * k];
                relax(best, arg, d, row, i as u32);
            }
            narrow(&mut back[j0..k], arg);
        }
        for (slot, &total) in next.iter_mut().zip(&tables.totals) {
            let d = x - total;
            *slot += -d * d * inv_two_var;
        }
    }

    /// Stores `u32` predecessor lanes as `u16` backpointers; every lane
    /// holds a state index below `k <= MAX_STATES`, so none truncates.
    #[inline(always)]
    fn narrow(back: &mut [u16], arg: &[u32]) {
        for (b, &a) in back.iter_mut().zip(arg) {
            *b = a as u16;
        }
    }

    /// Folds predecessor `i` (score `d`, transitions `row` to each lane's
    /// target) into the lanes with branch-free selects: a lane takes `i` only
    /// when `d + row[lane]` is strictly greater than its best so far.
    #[inline(always)]
    fn relax(best: &mut [f64], arg: &mut [u32], d: f64, row: &[f64], i: u32) {
        for ((b, a), &t) in best.iter_mut().zip(arg.iter_mut()).zip(row) {
            let v = d + t;
            let take = v > *b;
            *b = if take { v } else { *b };
            *a = if take { i } else { *a };
        }
    }
}

use kernel::{steps, Isa};

/// Last-max argmax over a score row — the semantics of
/// `iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))` that the decoder
/// has always used for the final step.
fn final_arg(delta: &[f64]) -> usize {
    delta
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
        .unwrap_or(0)
}

/// Walks the backpointers of an `n`-step decode back from the final
/// score row.
fn backtrack(delta: &[f64], back: &[u16], k: usize, n: usize) -> Vec<usize> {
    let mut path = vec![0usize; n];
    path[n - 1] = final_arg(delta);
    for t in (0..n - 1).rev() {
        path[t] = usize::from(back[(t + 1) * k + path[t + 1]]);
    }
    path
}

/// Whole-trace Viterbi over any [`Tables`] (joint space or one device
/// chain against a residual), in the thread's decode scratch.
fn viterbi(
    isa: Isa,
    tables: &Tables,
    xs: &[f64],
    inv_two_var: f64,
    scratch: &mut Scratch,
) -> Vec<usize> {
    let k = tables.k;
    let Some((&first, rest)) = xs.split_first() else {
        return Vec::new();
    };
    let Scratch {
        delta, next, back, ..
    } = scratch;
    init_row(tables, first, inv_two_var, delta);
    next.clear();
    next.resize(k, f64::NEG_INFINITY);
    back.clear();
    back.resize(xs.len() * k, 0);
    steps(isa, tables, delta, next, rest, inv_two_var, &mut back[k..]);
    backtrack(delta, back, k, xs.len())
}

/// Incremental forward pass of the exact factorial Viterbi decoder: the
/// same recurrence as the batch decoder, one chunk of observations per
/// [`FhmmFilter::extend`]. Constant non-output state (two `k`-wide scratch
/// rows); the backpointer table grows one `u16` row per sample, exactly
/// like the batch decoder's. Cloning the filter checkpoints the decode
/// mid-trace.
#[derive(Debug, Clone)]
pub struct FhmmFilter<'a> {
    fhmm: &'a Fhmm,
    inv_two_var: f64,
    delta: Vec<f64>,
    next: Vec<f64>,
    back: Vec<u16>,
    n: usize,
}

impl FhmmFilter<'_> {
    /// Advances the decode by a chunk of aggregate observations (watts),
    /// dispatching the Viterbi step once for the whole chunk. Any split
    /// of a trace into chunks decodes identically.
    pub fn extend(&mut self, xs: &[f64]) {
        let Some((&first, rest)) = xs.split_first() else {
            return;
        };
        let tables = &self.fhmm.joint().tables;
        let k = tables.k;
        // Row 0 of the backpointer table is never read; keep it zeroed to
        // mirror the batch decoder's layout.
        self.back.resize((self.n + xs.len()) * k, 0);
        let stepped = if self.n == 0 {
            init_row(tables, first, self.inv_two_var, &mut self.delta);
            self.next.clear();
            self.next.resize(k, f64::NEG_INFINITY);
            rest
        } else {
            xs
        };
        let rows = self.back.len() - stepped.len() * k;
        steps(
            self.fhmm.isa,
            tables,
            &mut self.delta,
            &mut self.next,
            stepped,
            self.inv_two_var,
            &mut self.back[rows..],
        );
        self.n += xs.len();
    }

    /// Number of observations fed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no observation has been fed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes the filter owns (capacities, not lengths): the
    /// backpointer table, which grows by `2 × k` bytes per sample, plus
    /// the two score rows.
    pub fn heap_bytes(&self) -> usize {
        self.back.capacity() * std::mem::size_of::<u16>()
            + (self.delta.capacity() + self.next.capacity()) * std::mem::size_of::<f64>()
    }

    /// Backtracks the decode so far into the joint state path.
    fn joint_path(&self) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        let k = self.fhmm.joint().tables.k;
        backtrack(&self.delta, &self.back, k, self.n)
    }

    /// Backtracks the decode so far into per-device state paths —
    /// byte-identical to what [`Fhmm::decode`] returns for the same
    /// observation prefix. Does not consume the filter; feeding may
    /// continue afterwards.
    pub fn paths(&self) -> Vec<Vec<usize>> {
        self.fhmm.unpack_paths(&self.joint_path())
    }

    /// Renders the decode so far into per-device estimates whose traces
    /// start at `start` — byte-identical to what
    /// [`Disaggregator::disaggregate`] returns for the same observation
    /// prefix. Backtracks once into the joint path and reads each
    /// device's wattage per joint state off the joint tables. Does not
    /// consume the filter.
    pub fn estimates(&self, start: Timestamp, resolution: Resolution) -> Vec<DeviceEstimate> {
        self.fhmm.render(start, resolution, &self.joint_path())
    }
}

/// Minimum trace length before the residual fill fans out to threads;
/// below this the serial loop wins on overhead.
const PAR_RESIDUAL_MIN: usize = 8_192;
/// Chunk length for the parallel residual fill. Fixed (not thread-count
/// derived) so the work decomposition is identical on every machine.
const PAR_RESIDUAL_CHUNK: usize = 4_096;

/// Computes `residual[t] = xs[t] - (explained[t] - watts[path[t]])` — the
/// meter signal with every *other* device's current explanation removed.
fn fill_residual(
    residual: &mut [f64],
    xs: &[f64],
    explained: &[f64],
    watts: &[f64],
    path: &[usize],
) {
    let n = residual.len();
    if n >= PAR_RESIDUAL_MIN && rayon::current_num_threads() > 1 {
        let chunks: Vec<Vec<f64>> =
            rayon::parallel_map((0..n).step_by(PAR_RESIDUAL_CHUNK).collect(), |start| {
                let end = (start + PAR_RESIDUAL_CHUNK).min(n);
                (start..end)
                    .map(|t| xs[t] - (explained[t] - watts[path[t]]))
                    .collect()
            });
        let mut at = 0;
        for chunk in chunks {
            residual[at..at + chunk.len()].copy_from_slice(&chunk);
            at += chunk.len();
        }
    } else {
        for t in 0..n {
            residual[t] = xs[t] - (explained[t] - watts[path[t]]);
        }
    }
}

impl Disaggregator for Fhmm {
    fn disaggregate(&self, meter: &PowerTrace) -> Vec<DeviceEstimate> {
        let (start, resolution) = (meter.start(), meter.resolution());
        if self.exact_capable() {
            return self.render(start, resolution, &self.decode_joint(meter.samples()));
        }
        self.devices
            .iter()
            .zip(self.decode(meter))
            .map(|(dev, path)| DeviceEstimate {
                name: dev.name.clone(),
                trace: PowerTrace::from_fn(start, resolution, path.len(), |t| {
                    dev.state_watts[path[t]]
                }),
            })
            .collect()
    }

    fn name(&self) -> &str {
        "fhmm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::evaluate_disaggregation;
    use crate::train::train_device_hmm;
    use proptest::prelude::*;
    use rand::Rng;
    use timeseries::rng::{normal, seeded_rng};
    use timeseries::{Resolution, Timestamp};

    fn square_wave(period: usize, on_len: usize, watts: f64, len: usize) -> PowerTrace {
        PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
            if i % period < on_len {
                watts
            } else {
                0.0
            }
        })
    }

    /// A noisy two-device meter, deterministic per seed.
    fn noisy_meter(seed: u64, len: usize) -> (PowerTrace, PowerTrace, PowerTrace) {
        let a_truth = square_wave(40, 15, 150.0, len);
        let b_truth = square_wave(90, 30, 1_000.0, len);
        let mut rng = seeded_rng(seed);
        let meter = a_truth
            .checked_add(&b_truth)
            .unwrap()
            .map(|w| (w + normal(&mut rng, 0.0, 25.0)).max(0.0));
        (a_truth, b_truth, meter)
    }

    fn two_device_fhmm(config: FhmmConfig) -> Fhmm {
        let (a_truth, b_truth, _) = noisy_meter(0, 600);
        Fhmm::with_config(
            vec![
                train_device_hmm("a", &a_truth, 2),
                train_device_hmm("b", &b_truth, 2),
            ],
            config,
        )
    }

    /// The same model decoding through the scalar step.
    fn scalar_oracle(fhmm: &Fhmm) -> Fhmm {
        Fhmm {
            isa: Isa::SCALAR,
            ..fhmm.clone()
        }
    }

    #[test]
    fn exact_two_device_separation() {
        // Two devices with different magnitudes and periods.
        let a_truth = square_wave(40, 15, 150.0, 600);
        let b_truth = square_wave(90, 30, 1_000.0, 600);
        let meter = a_truth.checked_add(&b_truth).unwrap();

        let a = train_device_hmm("a", &a_truth, 2);
        let b = train_device_hmm("b", &b_truth, 2);
        let fhmm = Fhmm::new(vec![a, b]);
        assert_eq!(fhmm.joint_states(), 4);

        let estimates = fhmm.disaggregate(&meter);
        let truth = vec![("a".to_string(), a_truth), ("b".to_string(), b_truth)];
        let scores = evaluate_disaggregation(&truth, &estimates).unwrap();
        for s in &scores {
            assert!(s.error_factor < 0.05, "{}: {}", s.device, s.error_factor);
        }
    }

    #[test]
    fn icm_matches_exact_on_small_problem() {
        let a_truth = square_wave(50, 20, 200.0, 400);
        let b_truth = square_wave(70, 25, 1_200.0, 400);
        let meter = a_truth.checked_add(&b_truth).unwrap();
        let models = vec![
            train_device_hmm("a", &a_truth, 2),
            train_device_hmm("b", &b_truth, 2),
        ];
        let exact = Fhmm::with_config(
            models.clone(),
            FhmmConfig {
                max_exact_states: 256,
                ..FhmmConfig::default()
            },
        );
        let icm = Fhmm::with_config(
            models,
            FhmmConfig {
                max_exact_states: 1,
                icm_sweeps: 6,
                ..FhmmConfig::default()
            },
        );
        let e1 = exact.disaggregate(&meter);
        let e2 = icm.disaggregate(&meter);
        // ICM should find (nearly) the same explanation here.
        for (a, b) in e1.iter().zip(&e2) {
            let diff: f64 = a
                .trace
                .samples()
                .iter()
                .zip(b.trace.samples())
                .map(|(x, y)| (x - y).abs())
                .sum();
            let total: f64 = a.trace.samples().iter().sum();
            assert!(diff / total.max(1.0) < 0.1, "{}: diff {diff}", a.name);
        }
    }

    #[test]
    fn confuses_similar_small_loads_under_noise() {
        // Two near-identical small loads + noise: FHMM has trouble — this
        // is the PowerPlay advantage the paper's Figure 2 shows.
        let a_truth = square_wave(50, 20, 100.0, 800);
        let b_truth = square_wave(64, 24, 110.0, 800);
        let mut rng = seeded_rng(1);
        let meter = a_truth
            .checked_add(&b_truth)
            .unwrap()
            .map(|w| (w + normal(&mut rng, 0.0, 40.0)).max(0.0));
        let fhmm = Fhmm::new(vec![
            train_device_hmm("a", &a_truth, 2),
            train_device_hmm("b", &b_truth, 2),
        ]);
        let estimates = fhmm.disaggregate(&meter);
        let truth = vec![("a".to_string(), a_truth), ("b".to_string(), b_truth)];
        let scores = evaluate_disaggregation(&truth, &estimates).unwrap();
        let worst = scores.iter().map(|s| s.error_factor).fold(0.0, f64::max);
        assert!(worst > 0.15, "expected confusion, worst error {worst}");
    }

    #[test]
    fn empty_meter() {
        let t = square_wave(10, 5, 100.0, 50);
        let fhmm = Fhmm::new(vec![train_device_hmm("a", &t, 2)]);
        let meter = PowerTrace::zeros(Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        let estimates = fhmm.disaggregate(&meter);
        assert_eq!(estimates.len(), 1);
        assert!(estimates[0].trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_set_rejected() {
        Fhmm::new(vec![]);
    }

    #[test]
    fn chain_tables_are_from_major() {
        let t = square_wave(30, 10, 500.0, 300);
        let dev = train_device_hmm("d", &t, 3);
        let chain = Tables::from_hmm(&dev);
        for from in 0..dev.n_states() {
            for to in 0..dev.n_states() {
                assert_eq!(chain.log_a[from * chain.k + to], dev.log_trans[from][to]);
            }
        }
    }

    #[test]
    fn digit_table_unpacks_like_div_mod() {
        let device = |states: usize| DeviceHmm {
            name: format!("{states}-state"),
            state_watts: (0..states).map(|s| s as f64 * 100.0).collect(),
            log_trans: vec![vec![-(states as f64).ln(); states]; states],
            log_init: vec![-(states as f64).ln(); states],
        };
        let fhmm = Fhmm::new(vec![device(2), device(3), device(2)]);
        let k = fhmm.joint_states();
        assert_eq!(k, 12);
        let joint: Vec<usize> = (0..k).rev().collect();
        let paths = fhmm.unpack_paths(&joint);
        for (t, &j) in joint.iter().enumerate() {
            let mut rest = j;
            for (path, dev) in paths.iter().zip(&fhmm.devices) {
                assert_eq!(path[t], rest % dev.n_states());
                rest /= dev.n_states();
            }
        }
    }

    #[test]
    fn parallel_residual_fill_matches_serial() {
        let n = PAR_RESIDUAL_MIN + 1_234;
        let xs: Vec<f64> = (0..n).map(|t| (t % 977) as f64).collect();
        let explained: Vec<f64> = (0..n).map(|t| (t % 311) as f64 * 0.5).collect();
        let watts = vec![0.0, 120.0, 950.0];
        let path: Vec<usize> = (0..n).map(|t| t % watts.len()).collect();

        let mut parallel = vec![0.0; n];
        fill_residual(&mut parallel, &xs, &explained, &watts, &path);
        let serial: Vec<f64> = (0..n)
            .map(|t| xs[t] - (explained[t] - watts[path[t]]))
            .collect();
        assert_eq!(parallel, serial);
    }

    /// Random `k`-state tables built from fewer prototype states, so that
    /// duplicated states force exact ties. Transitions and initial
    /// log-probs include `-inf` (zero probability) and both signed zeros.
    fn random_tables(seed: u64, k: usize) -> Tables {
        let mut rng = seeded_rng(seed);
        let protos = (k * 2 / 3).max(1);
        let log_p = |rng: &mut timeseries::rng::SeededRng| match rng.gen_range(0..10u32) {
            0 | 1 => f64::NEG_INFINITY,
            2 => 0.0,
            3 => -0.0,
            _ => -rng.gen_range(0.0f64..6.0),
        };
        let proto_total: Vec<f64> = (0..protos)
            .map(|p| (p * 150) as f64 + rng.gen_range(0.0..100.0))
            .collect();
        let proto_init: Vec<f64> = (0..protos).map(|_| log_p(&mut rng)).collect();
        let proto_a: Vec<f64> = (0..protos * protos).map(|_| log_p(&mut rng)).collect();
        let kind: Vec<usize> = (0..k).map(|_| rng.gen_range(0..protos)).collect();
        Tables {
            k,
            totals: kind.iter().map(|&p| proto_total[p]).collect(),
            log_init: kind.iter().map(|&p| proto_init[p]).collect(),
            log_a: (0..k * k)
                .map(|ij| proto_a[kind[ij / k] * protos + kind[ij % k]])
                .collect(),
        }
    }

    /// Steps random models through the scalar oracle, the dispatched
    /// `steps` and every variant the host supports, one observation per
    /// call, demanding identical score bits and backpointers at every
    /// step; then runs each variant once over all the observations and
    /// demands the oracle's rows again. Also checks that the inputs did
    /// reach ties, `-inf` transitions and zero scores.
    #[test]
    fn step_variants_match_scalar_oracle_f64() {
        let inv_two_var = 0.5 / (40.0 * 40.0);
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let variants = || std::iter::once(Isa::detect()).chain(Isa::supported());
        let (mut ties, mut neg_inf, mut zeros) = (false, false, false);
        for k in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64] {
            for seed in 0..4u64 {
                let tables = random_tables(seed * 1_000 + k as u64, k);
                ties |= (1..k).any(|j| tables.totals[..j].contains(&tables.totals[j]));
                neg_inf |= tables.log_a.contains(&f64::NEG_INFINITY);
                let mut rng = seeded_rng(seed + 77);
                let draw = |rng: &mut timeseries::rng::SeededRng| {
                    if rng.gen_bool(0.5) {
                        // Exactly a state total: the emission term is -0.
                        tables.totals[rng.gen_range(0..k)]
                    } else {
                        rng.gen_range(0.0..1_500.0)
                    }
                };
                let mut delta = Vec::new();
                init_row(&tables, draw(&mut rng), inv_two_var, &mut delta);
                let first = delta.clone();
                let (mut xs, mut want_backs) = (Vec::new(), Vec::new());
                for t in 1..12 {
                    let x = draw(&mut rng);
                    let mut want = vec![f64::NEG_INFINITY; k];
                    let mut want_back = vec![0u16; k];
                    kernel::step_scalar(&tables, &delta, x, inv_two_var, &mut want, &mut want_back);
                    for isa in variants() {
                        let mut got = delta.clone();
                        let mut next = vec![f64::NEG_INFINITY; k];
                        let mut got_back = vec![u16::MAX; k];
                        steps(
                            isa,
                            &tables,
                            &mut got,
                            &mut next,
                            &[x],
                            inv_two_var,
                            &mut got_back,
                        );
                        let ctx = format!("{isa:?} k={k} seed={seed} t={t}");
                        assert_eq!(bits(&got), bits(&want), "scores, {ctx}");
                        assert_eq!(got_back, want_back, "backpointers, {ctx}");
                    }
                    zeros |= want.contains(&0.0);
                    xs.push(x);
                    want_backs.extend(want_back);
                    delta = want;
                }
                for isa in variants() {
                    let mut got = first.clone();
                    let mut next = vec![f64::NEG_INFINITY; k];
                    let mut got_backs = vec![u16::MAX; xs.len() * k];
                    steps(
                        isa,
                        &tables,
                        &mut got,
                        &mut next,
                        &xs,
                        inv_two_var,
                        &mut got_backs,
                    );
                    let ctx = format!("{isa:?} k={k} seed={seed}, {} steps", xs.len());
                    assert_eq!(bits(&got), bits(&delta), "scores, {ctx}");
                    assert_eq!(got_backs, want_backs, "backpointers, {ctx}");
                }
            }
        }
        assert!(ties && neg_inf && zeros, "{ties} {neg_inf} {zeros}");
    }

    /// `oracle.decode(meter)` on a freshly spawned thread, whose decode
    /// scratch starts cold — so comparing it against a decode on this
    /// thread also checks that a warm scratch changes nothing.
    fn cold_decode(oracle: &Fhmm, meter: &PowerTrace) -> Vec<Vec<usize>> {
        std::thread::scope(|s| s.spawn(|| oracle.decode(meter)).join().unwrap())
    }

    fn prop_models() -> &'static [Fhmm; 2] {
        static MODELS: OnceLock<[Fhmm; 2]> = OnceLock::new();
        MODELS.get_or_init(|| {
            [
                two_device_fhmm(FhmmConfig::default()),
                two_device_fhmm(FhmmConfig {
                    max_exact_states: 1,
                    ..FhmmConfig::default()
                }),
            ]
        })
    }

    proptest! {
        /// Exact and ICM decodes of ragged-length meters with arbitrary
        /// (model-mismatched) watts equal the scalar oracle.
        #[test]
        fn decode_matches_scalar_oracle(
            xs in prop::collection::vec(
                prop::collection::vec(0.0f64..3_000.0, 1..80), 1..7),
        ) {
            for fhmm in prop_models() {
                let oracle = scalar_oracle(fhmm);
                for x in &xs {
                    let meter =
                        PowerTrace::new(Timestamp::ZERO, Resolution::ONE_MINUTE, x.clone()).unwrap();
                    prop_assert_eq!(fhmm.decode(&meter), cold_decode(&oracle, &meter));
                }
            }
        }
    }

    #[test]
    fn icm_matches_scalar_oracle_on_noisy_meters() {
        let fhmm = two_device_fhmm(FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        });
        assert!(!fhmm.exact_capable());
        let oracle = scalar_oracle(&fhmm);
        for seed in 0..4 {
            let meter = noisy_meter(seed, 250).2;
            assert_eq!(fhmm.decode(&meter), cold_decode(&oracle, &meter));
        }
    }

    #[test]
    fn filter_and_its_checkpoint_reproduce_the_decode() {
        // Chunked filter extends must reproduce the batch decode, and so
        // must a clone resumed mid-trace (the stream layer relies on both).
        let fhmm = two_device_fhmm(FhmmConfig::default());
        let meter = noisy_meter(7, 180).2;
        let decoded = fhmm.decode(&meter);
        let mut filter = fhmm.filter().unwrap();
        filter.extend(&meter.samples()[..91]);
        let mut restored = filter.clone();
        filter.extend(&meter.samples()[91..]);
        assert_eq!(filter.paths(), decoded);
        restored.extend(&meter.samples()[91..]);
        assert_eq!(restored.paths(), decoded, "resumed");
    }

    /// A device whose states draw `step` watts apiece, staying put with
    /// probability 0.9 and otherwise moving to any other state alike.
    fn ladder_device(name: &str, states: usize, step: f64) -> DeviceHmm {
        let (stay, uniform) = (0.9f64.ln(), -(states as f64).ln());
        let move_to = (0.1 / (states - 1).max(1) as f64).ln();
        DeviceHmm {
            name: name.to_string(),
            state_watts: (0..states).map(|s| s as f64 * step).collect(),
            log_trans: (0..states)
                .map(|from| {
                    (0..states)
                        .map(|to| if to == from { stay } else { move_to })
                        .collect()
                })
                .collect(),
            log_init: vec![uniform; states],
        }
    }

    /// The `pipeline` benchmark's model (four two-state appliances, 16
    /// joint states) on one noisy day, and a 7 × 7 × 6 = 294-state model,
    /// more than a `u8` backpointer can index, on a meter that walks its
    /// devices through every state.
    fn chunking_cases() -> [(Fhmm, PowerTrace); 2] {
        let appliance = |name: &str, watts: f64, stay_off: f64, stay_on: f64| DeviceHmm {
            name: name.to_string(),
            state_watts: vec![0.0, watts],
            log_trans: vec![
                vec![stay_off.ln(), (1.0 - stay_off).ln()],
                vec![(1.0 - stay_on).ln(), stay_on.ln()],
            ],
            log_init: vec![0.9f64.ln(), 0.1f64.ln()],
        };
        let pipeline = Fhmm::new(vec![
            appliance("fridge", 150.0, 0.92, 0.88),
            appliance("tv", 120.0, 0.96, 0.93),
            appliance("heater", 1_000.0, 0.97, 0.94),
            appliance("oven", 2_200.0, 0.995, 0.90),
        ]);
        let mut rng = seeded_rng(24);
        let day = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440, |t| {
            let on = |period: usize, len: usize| (t % period < len) as u8 as f64;
            let watts = 150.0 * on(40, 15) + 120.0 * on(300, 90) + 1_000.0 * on(170, 30);
            (watts + 2_200.0 * on(700, 45) + normal(&mut rng, 0.0, 30.0)).max(0.0)
        });
        let wide = Fhmm::new(vec![
            ladder_device("small", 7, 45.0),
            ladder_device("medium", 7, 330.0),
            ladder_device("large", 6, 2_400.0),
        ]);
        let walk = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 150, |t| {
            let state = |period: usize, states: usize| ((t / period) % states) as f64;
            45.0 * state(3, 7) + 330.0 * state(5, 7) + 2_400.0 * state(11, 6)
        });
        [(pipeline, day), (wide, walk)]
    }

    #[test]
    fn filter_extends_reproduce_decode_and_disaggregate_at_every_chunking() {
        for (fhmm, meter) in chunking_cases() {
            let (k, n) = (fhmm.joint_states(), meter.len());
            let decoded = fhmm.decode(&meter);
            let estimates = fhmm.disaggregate(&meter);
            // The joint renderer draws what the per-device paths name.
            for ((est, path), dev) in estimates.iter().zip(&decoded).zip(&fhmm.devices) {
                let want: Vec<f64> = path.iter().map(|&s| dev.state_watts[s]).collect();
                assert_eq!(est.trace.samples(), &want[..], "k={k} {}", est.name);
            }
            if k > 256 {
                // A backpointer names the previous sample's joint state;
                // some must not fit a byte.
                let joint = |t: usize| {
                    decoded
                        .iter()
                        .zip(&fhmm.devices)
                        .rev()
                        .fold(0, |j, (path, dev)| j * dev.n_states() + path[t])
                };
                assert!((0..n - 1).any(|t| joint(t) > 255), "k={k}: no wide state");
            }
            for chunk in [1, 7, 63, 64, 65, n] {
                let mut filter = fhmm.filter().unwrap();
                for xs in meter.samples().chunks(chunk) {
                    filter.extend(xs);
                }
                assert_eq!(filter.len(), n);
                assert_eq!(filter.paths(), decoded, "k={k} chunk={chunk}");
                assert_eq!(
                    filter.estimates(meter.start(), meter.resolution()),
                    estimates,
                    "k={k} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn a_joint_space_past_u16_decodes_by_icm_without_joint_tables() {
        let binary = |d: usize| ladder_device(&format!("d{d}"), 2, 100.0 * (d + 1) as f64);
        let wide = FhmmConfig {
            max_exact_states: usize::MAX,
            ..FhmmConfig::default()
        };
        let sixteen = Fhmm::with_config((0..16).map(binary).collect(), wide);
        assert_eq!(sixteen.joint_states(), MAX_STATES);
        assert!(sixteen.exact_capable());
        let past_usize = Fhmm::with_config((0..64).map(binary).collect(), wide);
        assert_eq!(past_usize.joint_states(), usize::MAX);
        assert!(!past_usize.exact_capable());
        let fhmm = Fhmm::with_config((0..17).map(binary).collect(), wide);
        assert_eq!(fhmm.joint_states(), MAX_STATES * 2);
        assert!(!fhmm.exact_capable());
        assert!(fhmm.filter().is_none());
        let meter = square_wave(12, 5, 300.0, 40);
        let paths = fhmm.decode(&meter);
        assert_eq!(paths.len(), 17);
        assert!(paths.iter().all(|p| p.len() == meter.len()));
        let estimates = fhmm.disaggregate(&meter);
        assert!(estimates.iter().all(|e| e.trace.len() == meter.len()));
        assert!(fhmm.joint.get().is_none(), "built the joint tables");
    }

    #[test]
    #[should_panic(expected = "a device chain holds at most 65536 states")]
    fn a_chain_past_u16_is_refused() {
        let states = MAX_STATES + 1;
        Fhmm::new(vec![DeviceHmm {
            name: "wide".to_string(),
            state_watts: vec![0.0; states],
            log_trans: Vec::new(),
            log_init: vec![0.0; states],
        }]);
    }
}
