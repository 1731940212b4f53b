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
//! backpointers. Two swapped scratch rows replace per-step allocation,
//! and backpointers are `u32`. The joint tables depend only on the
//! models, so they are built once per [`Fhmm`] and shared by every
//! subsequent decode.
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
    back: Vec<u32>,
    residual: Vec<f64>,
    explained: Vec<f64>,
}

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
/// flat tables plus the digit table that unpacks a joint state into
/// per-device states.
#[derive(Debug, Clone)]
struct Joint {
    tables: Tables,
    /// `digits[j * devices + d]` is device `d`'s state in joint state `j`.
    digits: Vec<usize>,
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
    /// Panics if `devices` is empty or the noise std-dev is not positive.
    pub fn with_config(devices: Vec<DeviceHmm>, config: FhmmConfig) -> Self {
        assert!(!devices.is_empty(), "FHMM needs at least one device");
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

    /// The total joint state count.
    pub fn joint_states(&self) -> usize {
        self.devices.iter().map(|d| d.n_states()).product()
    }

    fn inv_two_var(&self) -> f64 {
        0.5 / (self.config.noise_sd_watts * self.config.noise_sd_watts)
    }

    /// Decodes per-device state paths for `meter`.
    pub fn decode(&self, meter: &PowerTrace) -> Vec<Vec<usize>> {
        if meter.is_empty() {
            return vec![Vec::new(); self.devices.len()];
        }
        obs::counter_add("nilm.fhmm.samples", meter.len() as u64);
        SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            if self.exact_capable() {
                obs::time("nilm.fhmm.decode_exact", || {
                    let tables = &self.joint().tables;
                    let joint = viterbi(
                        self.isa,
                        tables,
                        meter.samples(),
                        self.inv_two_var(),
                        scratch,
                    );
                    self.unpack_paths(&joint)
                })
            } else {
                obs::time("nilm.fhmm.decode_icm", || {
                    self.decode_icm(meter.samples(), scratch)
                })
            }
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

    /// Whether this model decodes with exact factorial Viterbi (as opposed
    /// to the ICM approximation, which needs the whole trace at once).
    pub fn exact_capable(&self) -> bool {
        self.joint_states() <= self.config.max_exact_states
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
    /// Pushing every sample of a trace and then calling
    /// [`FhmmFilter::paths`] reproduces the batch decode bit for bit: the
    /// filter runs the same Viterbi step as the internal exact decoder,
    /// merely spread across `push` calls.
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

    /// Renders per-device state paths into [`DeviceEstimate`]s exactly as
    /// [`Disaggregator::disaggregate`] does after decoding.
    ///
    /// # Panics
    ///
    /// Panics if `paths` does not hold one path per device, or any path is
    /// shorter than `len`.
    pub fn estimates_from_paths(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
        paths: &[Vec<usize>],
    ) -> Vec<DeviceEstimate> {
        assert_eq!(paths.len(), self.devices.len(), "one path per device");
        self.devices
            .iter()
            .zip(paths)
            .map(|(dev, path)| DeviceEstimate {
                name: dev.name.clone(),
                trace: PowerTrace::from_fn(start, resolution, len, |t| dev.state_watts[path[t]]),
            })
            .collect()
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

    /// One Viterbi step through the variant `isa` selects. For every target
    /// `j`: `next[j] = max_i (delta[i] + log_a[i][j]) + emit(j, x)` and
    /// `back[j]` = the maximizing `i`, where a scan from `-inf` with
    /// `arg = 0` takes a predecessor only on strict `>`, so the first maximum
    /// wins. Every variant evaluates the same additions and comparisons in
    /// the same order per target, so they agree bit for bit.
    pub(super) fn step(
        isa: Isa,
        tables: &Tables,
        delta: &[f64],
        x: f64,
        inv_two_var: f64,
        next: &mut [f64],
        back: &mut [u32],
    ) {
        match isa.0 {
            Kind::Scalar => step_scalar(tables, delta, x, inv_two_var, next, back),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx2` is only built in `Isa::detect` and
            // `Isa::supported`, right after `is_x86_feature_detected!("avx2")`
            // returned true.
            Kind::Avx2 => unsafe { step_avx2(tables, delta, x, inv_two_var, next, back) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx512` is only built in `Isa::detect` and
            // `Isa::supported`, right after
            // `is_x86_feature_detected!("avx512f")` returned true.
            Kind::Avx512 => unsafe { step_avx512(tables, delta, x, inv_two_var, next, back) },
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
        back: &mut [u32],
    ) {
        let k = tables.k;
        for (j, (slot, ptr)) in next.iter_mut().zip(back.iter_mut()).enumerate() {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0u32;
            for (i, &d) in delta.iter().enumerate() {
                let v = d + tables.log_a[i * k + j];
                if v > best {
                    best = v;
                    arg = i as u32;
                }
            }
            let d = x - tables.totals[j];
            *slot = best + (-d * d * inv_two_var);
            *ptr = arg;
        }
    }

    /// [`step_lanes`] compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The caller must have checked `is_x86_feature_detected!("avx2")`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn step_avx2(
        tables: &Tables,
        delta: &[f64],
        x: f64,
        inv_two_var: f64,
        next: &mut [f64],
        back: &mut [u32],
    ) {
        step_lanes(tables, delta, x, inv_two_var, next, back);
    }

    /// [`step_lanes`] compiled with AVX-512F.
    ///
    /// # Safety
    ///
    /// The caller must have checked `is_x86_feature_detected!("avx512f")`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn step_avx512(
        tables: &Tables,
        delta: &[f64],
        x: f64,
        inv_two_var: f64,
        next: &mut [f64],
        back: &mut [u32],
    ) {
        step_lanes(tables, delta, x, inv_two_var, next, back);
    }

    /// Targets per register tile of [`step_lanes`]: a tile's `best`/`arg`
    /// lanes stay in vector registers for the whole predecessor walk.
    const TILE: usize = 16;

    /// The vectorizable step: predecessors `i` in ascending order, each
    /// folded into every target's `best`/`arg` lane at once by [`relax`].
    /// Targets go in register tiles of [`TILE`]; a ragged tail keeps its
    /// lanes in `next`/`back` instead. Per target this is the scalar scan's
    /// exact sequence of additions and strict-`>` comparisons.
    #[inline(always)]
    fn step_lanes(
        tables: &Tables,
        delta: &[f64],
        x: f64,
        inv_two_var: f64,
        next: &mut [f64],
        back: &mut [u32],
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
            back[j0..j0 + TILE].copy_from_slice(&arg);
            j0 += TILE;
        }
        if j0 < k {
            let (best, arg) = (&mut next[j0..k], &mut back[j0..k]);
            best.fill(f64::NEG_INFINITY);
            arg.fill(0);
            for (i, &d) in delta.iter().enumerate() {
                let row = &tables.log_a[i * k + j0..(i + 1) * k];
                relax(best, arg, d, row, i as u32);
            }
        }
        for (slot, &total) in next.iter_mut().zip(&tables.totals) {
            let d = x - total;
            *slot += -d * d * inv_two_var;
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

use kernel::{step, Isa};

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
fn backtrack(delta: &[f64], back: &[u32], k: usize, n: usize) -> Vec<usize> {
    let mut path = vec![0usize; n];
    path[n - 1] = final_arg(delta);
    for t in (0..n - 1).rev() {
        path[t] = back[(t + 1) * k + path[t + 1]] as usize;
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
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let Scratch {
        delta, next, back, ..
    } = scratch;
    init_row(tables, xs[0], inv_two_var, delta);
    next.clear();
    next.resize(k, f64::NEG_INFINITY);
    back.clear();
    back.resize(n * k, 0);
    for (t, &x) in xs.iter().enumerate().skip(1) {
        let back_t = &mut back[t * k..(t + 1) * k];
        step(isa, tables, delta, x, inv_two_var, next, back_t);
        std::mem::swap(delta, next);
    }
    backtrack(delta, back, k, n)
}

/// Incremental forward pass of the exact factorial Viterbi decoder: the
/// same recurrence as the batch decoder, one observation per
/// [`FhmmFilter::push`]. Constant non-output state (two `k`-wide scratch
/// rows); the backpointer table grows one row per sample, exactly like the
/// batch decoder's. Cloning the filter checkpoints the decode mid-trace.
#[derive(Debug, Clone)]
pub struct FhmmFilter<'a> {
    fhmm: &'a Fhmm,
    inv_two_var: f64,
    delta: Vec<f64>,
    next: Vec<f64>,
    back: Vec<u32>,
    n: usize,
}

impl FhmmFilter<'_> {
    /// Advances the decode by one aggregate observation (watts).
    pub fn push(&mut self, x: f64) {
        let tables = &self.fhmm.joint().tables;
        let (k, n) = (tables.k, self.n);
        // Row 0 of the backpointer table is never read; keep it zeroed to
        // mirror the batch decoder's layout.
        self.back.resize((n + 1) * k, 0);
        if n == 0 {
            init_row(tables, x, self.inv_two_var, &mut self.delta);
            self.next.clear();
            self.next.resize(k, f64::NEG_INFINITY);
        } else {
            step(
                self.fhmm.isa,
                tables,
                &self.delta,
                x,
                self.inv_two_var,
                &mut self.next,
                &mut self.back[n * k..],
            );
            std::mem::swap(&mut self.delta, &mut self.next);
        }
        self.n += 1;
    }

    /// Number of observations pushed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no observation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Heap bytes the filter owns (capacities, not lengths): the
    /// backpointer table, which grows by `4 × k` bytes per sample, plus
    /// the two score rows.
    pub fn heap_bytes(&self) -> usize {
        self.back.capacity() * std::mem::size_of::<u32>()
            + (self.delta.capacity() + self.next.capacity()) * std::mem::size_of::<f64>()
    }

    /// Backtracks the decode so far into per-device state paths —
    /// byte-identical to what the batch decoder returns for the same
    /// observation prefix. Does not consume the filter; feeding may
    /// continue afterwards.
    pub fn paths(&self) -> Vec<Vec<usize>> {
        let n = self.n;
        if n == 0 {
            return vec![Vec::new(); self.fhmm.devices.len()];
        }
        let k = self.fhmm.joint().tables.k;
        let joint = backtrack(&self.delta, &self.back, k, n);
        self.fhmm.unpack_paths(&joint)
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
        let paths = self.decode(meter);
        self.estimates_from_paths(meter.start(), meter.resolution(), meter.len(), &paths)
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

    /// Steps random models through the scalar oracle, the dispatched step
    /// and every variant the host supports, demanding identical score
    /// bits and backpointers at every step. Also checks that the inputs
    /// did reach ties, `-inf` transitions and zero scores.
    #[test]
    fn step_variants_match_scalar_oracle_f64() {
        let inv_two_var = 0.5 / (40.0 * 40.0);
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
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
                for t in 1..12 {
                    let x = draw(&mut rng);
                    let mut want = vec![f64::NEG_INFINITY; k];
                    let mut want_back = vec![0u32; k];
                    kernel::step_scalar(&tables, &delta, x, inv_two_var, &mut want, &mut want_back);
                    let dispatched = std::iter::once(Isa::detect());
                    for isa in dispatched.chain(Isa::supported()) {
                        let mut got = vec![f64::NEG_INFINITY; k];
                        let mut got_back = vec![u32::MAX; k];
                        step(
                            isa,
                            &tables,
                            &delta,
                            x,
                            inv_two_var,
                            &mut got,
                            &mut got_back,
                        );
                        let ctx = format!("{isa:?} k={k} seed={seed} t={t}");
                        assert_eq!(bits(&got), bits(&want), "scores, {ctx}");
                        assert_eq!(got_back, want_back, "backpointers, {ctx}");
                    }
                    zeros |= want.contains(&0.0);
                    delta = want;
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
        // Chunked filter pushes must reproduce the batch decode, and so
        // must a clone resumed mid-trace (the stream layer relies on both).
        let fhmm = two_device_fhmm(FhmmConfig::default());
        let meter = noisy_meter(7, 180).2;
        let decoded = fhmm.decode(&meter);
        let mut filter = fhmm.filter().unwrap();
        let mut checkpoint = None;
        for (t, &x) in meter.samples().iter().enumerate() {
            filter.push(x);
            if t == 90 {
                checkpoint = Some(filter.clone());
            }
        }
        assert_eq!(filter.paths(), decoded);
        let mut restored = checkpoint.unwrap();
        for &x in &meter.samples()[91..] {
            restored.push(x);
        }
        assert_eq!(restored.paths(), decoded, "resumed");
    }
}
