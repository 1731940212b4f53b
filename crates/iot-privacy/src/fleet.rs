//! Fleet-scale scenario execution.
//!
//! The paper evaluates attacks and defenses home-by-home; real questions
//! ("what does CHPr cost across a utility's service area?") need the same
//! pipeline over *many* independent homes. This module runs a fleet of
//! [`EnergyScenario`]s concurrently and aggregates their reports.
//!
//! # Determinism
//!
//! Every home gets its own seed derived from the fleet root seed via
//! `derive_seed(root, "home:<index>")`, so no RNG state is shared between
//! homes, and results are collected in home-index order. The parallel
//! schedule therefore cannot influence any value: [`run_fleet`] is
//! bit-identical to [`run_fleet_serial`] at any thread count (covered by a
//! regression test that compares serialized JSON byte-for-byte).
//!
//! # Supervision
//!
//! At fleet scale a single pathological home (corrupt feed, degenerate
//! trace, a bug in one code path) must not abort the whole run.
//! [`run_fleet_supervised`] isolates each home behind
//! [`std::panic::catch_unwind`], retries a bounded number of times on a
//! reseeded RNG stream (`derive_seed(home_seed, "retry:<k>")`), and
//! quarantines homes that keep failing. The quarantine set depends only on
//! `(home index, attempt)` — never on threads or wall clock — so it too is
//! byte-identical across `RAYON_NUM_THREADS` settings; see
//! `docs/ROBUSTNESS.md`.

use crate::scenario::{EnergyScenario, ScenarioReport};
use crate::streaming::StreamingScenario;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use timeseries::rng::derive_seed;

/// Errors from fleet execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// A fleet run was requested with zero homes.
    EmptyFleet,
    /// Every home in a supervised run was quarantined, so there is
    /// nothing to summarize.
    AllHomesQuarantined {
        /// How many homes were requested (and quarantined).
        homes: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::EmptyFleet => write!(f, "fleet needs at least one home"),
            FleetError::AllHomesQuarantined { homes } => {
                write!(f, "all {homes} homes were quarantined")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Order statistics of one metric across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StatSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

impl StatSummary {
    /// Summarizes a non-empty set of values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> StatSummary {
        assert!(!values.is_empty(), "cannot summarize zero values");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        StatSummary {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
        }
    }
}

/// Nearest-rank quantile of an ascending-sorted slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate statistics over every home's [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Number of homes simulated.
    pub homes: usize,
    /// Attack accuracy on raw meters.
    pub undefended_accuracy: StatSummary,
    /// Attack MCC on raw meters.
    pub undefended_mcc: StatSummary,
    /// Attack accuracy after the defense.
    pub defended_accuracy: StatSummary,
    /// Attack MCC after the defense.
    pub defended_mcc: StatSummary,
    /// Defense cost: extra energy drawn, kWh.
    pub extra_energy_kwh: StatSummary,
    /// Defense cost: absolute billing error fraction.
    pub billing_error_frac: StatSummary,
}

impl FleetSummary {
    /// Summarizes a non-empty batch of reports.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn of(reports: &[ScenarioReport]) -> FleetSummary {
        assert!(!reports.is_empty(), "cannot summarize an empty fleet");
        let pick = |f: &dyn Fn(&ScenarioReport) -> f64| -> StatSummary {
            StatSummary::of(&reports.iter().map(f).collect::<Vec<_>>())
        };
        FleetSummary {
            homes: reports.len(),
            undefended_accuracy: pick(&|r| r.undefended.accuracy),
            undefended_mcc: pick(&|r| r.undefended.mcc),
            defended_accuracy: pick(&|r| r.defended.accuracy),
            defended_mcc: pick(&|r| r.defended.mcc),
            extra_energy_kwh: pick(&|r| r.cost.extra_energy_kwh),
            billing_error_frac: pick(&|r| r.cost.billing_error_frac.abs()),
        }
    }
}

/// Every home's report plus the fleet-level summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-home reports, in home-index order.
    pub reports: Vec<ScenarioReport>,
    /// Aggregate statistics.
    pub summary: FleetSummary,
}

/// The derived seed for home `index` under `root`
/// (`derive_seed(root, "home:<index>")`, see [`timeseries::rng::home_seed`]).
pub fn home_seed(root: u64, index: usize) -> u64 {
    timeseries::rng::home_seed(root, index)
}

/// Runs `homes` independent scenarios concurrently.
///
/// `build` receives each home's derived seed and constructs that home's
/// scenario; it runs on worker threads, so it must be `Sync` and should
/// not share mutable state.
///
/// When the [`obs`] layer is enabled, records the `fleet.run`
/// span, the per-home `fleet.home` timing distribution (whose snapshot
/// summary gives mean/p50/p95 seconds per home), and the `fleet.homes`
/// counter; each home additionally records its own `scenario.*` stage
/// spans. Observation never feeds back into results, so metrics-enabled
/// runs stay byte-identical to the serial reference.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero.
///
/// # Examples
///
/// ```
/// use iot_privacy::scenario::EnergyScenario;
///
/// let fleet = iot_privacy::run_fleet(2, 7, |seed| EnergyScenario::new(seed).days(1)).unwrap();
/// assert_eq!(fleet.reports.len(), 2);
/// assert_eq!(fleet.summary.homes, 2);
/// // Same seeds, same order, one thread — identical result.
/// let serial =
///     iot_privacy::run_fleet_serial(2, 7, |seed| EnergyScenario::new(seed).days(1)).unwrap();
/// assert_eq!(fleet, serial);
/// ```
pub fn run_fleet<F>(homes: usize, root_seed: u64, build: F) -> Result<FleetResult, FleetError>
where
    F: Fn(u64) -> EnergyScenario + Sync,
{
    if homes == 0 {
        return Err(FleetError::EmptyFleet);
    }
    let _span = obs::span("fleet.run");
    obs::counter_add("fleet.homes", homes as u64);
    let reports = rayon::parallel_map((0..homes).collect(), |i| {
        obs::time("fleet.home", || build(home_seed(root_seed, i)).run())
    });
    let summary = FleetSummary::of(&reports);
    Ok(FleetResult { reports, summary })
}

/// Reference serial implementation of [`run_fleet`]: same seeds, same
/// order, one thread. Exists so tests (and sceptics) can verify that the
/// parallel engine changes nothing but wall-clock time.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero.
pub fn run_fleet_serial<F>(
    homes: usize,
    root_seed: u64,
    build: F,
) -> Result<FleetResult, FleetError>
where
    F: Fn(u64) -> EnergyScenario,
{
    if homes == 0 {
        return Err(FleetError::EmptyFleet);
    }
    // Instrumented identically to [`run_fleet`] so the deterministic
    // metric sections (counters/gauges) of the two engines also match.
    let _span = obs::span("fleet.run");
    obs::counter_add("fleet.homes", homes as u64);
    let reports: Vec<ScenarioReport> = (0..homes)
        .map(|i| obs::time("fleet.home", || build(home_seed(root_seed, i)).run()))
        .collect();
    let summary = FleetSummary::of(&reports);
    Ok(FleetResult { reports, summary })
}

/// Supervisor tuning for [`run_fleet_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Retries after a home's first failed attempt before it is
    /// quarantined (so each home runs at most `1 + max_retries` times).
    pub max_retries: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_retries: 2 }
    }
}

/// One attempt at one home, handed to the supervised build closure.
///
/// `seed` already encodes the retry: attempt 0 gets the plain
/// [`home_seed`], attempt `k > 0` gets
/// `derive_seed(home_seed, "retry:<k>")`, so a retried home resamples its
/// randomness instead of deterministically re-hitting a seed-dependent
/// failure — while the whole schedule stays a pure function of
/// `(home, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeAttempt {
    /// Home index within the fleet, `0..homes`.
    pub home: usize,
    /// Attempt number, `0..=max_retries`.
    pub attempt: u32,
    /// The derived seed for this `(home, attempt)` pair.
    pub seed: u64,
}

/// A home the supervisor gave up on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedHome {
    /// Home index within the fleet.
    pub home: usize,
    /// Attempts made (always `1 + max_retries`).
    pub attempts: u32,
    /// The last attempt's panic message.
    pub last_error: String,
}

/// A supervised fleet run: surviving reports plus the quarantine ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisedFleetResult {
    /// Homes requested.
    pub homes: usize,
    /// Reports of surviving homes, in home-index order.
    pub reports: Vec<ScenarioReport>,
    /// Aggregate statistics over the surviving homes.
    pub summary: FleetSummary,
    /// Homes that exhausted their retries, in home-index order.
    pub quarantined: Vec<QuarantinedHome>,
    /// Total retry attempts across the fleet (excludes first attempts).
    pub retries: u64,
}

impl SupervisedFleetResult {
    /// Fraction of requested homes that ended quarantined.
    pub fn quarantine_fraction(&self) -> f64 {
        self.quarantined.len() as f64 / self.homes as f64
    }
}

thread_local! {
    /// `true` while this thread is inside a supervised home attempt —
    /// silences the default panic hook so expected, caught panics don't
    /// spam stderr at fleet scale.
    static IN_SUPERVISED_ATTEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays out of the way
/// everywhere except inside supervised attempts. Panics outside the
/// supervisor keep the previous hook's behaviour.
fn install_supervisor_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SUPERVISED_ATTEMPT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a caught panic payload for the quarantine ledger.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-home supervision loop: run, catch, retry on a reseeded stream,
/// quarantine when retries are exhausted. Pure function of
/// `(home, root_seed, config, run_attempt)`. Generic over how an attempt
/// produces its report so the batch ([`run_fleet_supervised`]) and
/// streaming ([`run_fleet_streaming`]) engines share one loop.
fn supervise_home<F>(
    home: usize,
    root_seed: u64,
    config: SupervisorConfig,
    run_attempt: &F,
) -> (Result<ScenarioReport, QuarantinedHome>, u64)
where
    F: Fn(HomeAttempt) -> ScenarioReport,
{
    let base = home_seed(root_seed, home);
    let mut retries = 0u64;
    let mut last_error = String::new();
    for attempt in 0..=config.max_retries {
        let seed = if attempt == 0 {
            base
        } else {
            derive_seed(base, &format!("retry:{attempt}"))
        };
        let attempt_ctx = HomeAttempt {
            home,
            attempt,
            seed,
        };
        let outcome = IN_SUPERVISED_ATTEMPT.with(|flag| {
            flag.set(true);
            let r = catch_unwind(AssertUnwindSafe(|| run_attempt(attempt_ctx)));
            flag.set(false);
            r
        });
        match outcome {
            Ok(report) => return (Ok(report), retries),
            Err(payload) => {
                last_error = panic_message(payload);
                if attempt < config.max_retries {
                    retries += 1;
                }
            }
        }
    }
    (
        Err(QuarantinedHome {
            home,
            attempts: 1 + config.max_retries,
            last_error,
        }),
        retries,
    )
}

/// Runs `homes` scenarios concurrently with per-home panic isolation.
///
/// Like [`run_fleet`], but each home executes behind
/// [`std::panic::catch_unwind`]: a panicking home is retried up to
/// `config.max_retries` times on a reseeded RNG stream and then
/// quarantined, never aborting the remaining homes. The quarantine set is
/// deterministic — a pure function of `(homes, root_seed, config, build)`
/// — and is reported in home-index order, byte-identical across thread
/// counts.
///
/// When the [`obs`] layer is enabled, additionally records the
/// `fleet.retries` and `fleet.quarantined` counters.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
///
/// # Examples
///
/// ```
/// use iot_privacy::fleet::SupervisorConfig;
/// use iot_privacy::scenario::EnergyScenario;
///
/// // Home 1 always panics; the rest of the fleet completes.
/// let fleet = iot_privacy::run_fleet_supervised(
///     3,
///     7,
///     SupervisorConfig::default(),
///     |attempt| {
///         if attempt.home == 1 {
///             panic!("corrupt feed");
///         }
///         EnergyScenario::new(attempt.seed).days(1)
///     },
/// )
/// .unwrap();
/// assert_eq!(fleet.reports.len(), 2);
/// assert_eq!(fleet.quarantined.len(), 1);
/// assert_eq!(fleet.quarantined[0].home, 1);
/// assert_eq!(fleet.quarantined[0].last_error, "corrupt feed");
/// ```
pub fn run_fleet_supervised<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    build: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> EnergyScenario + Sync,
{
    supervised_engine(homes, root_seed, config, |attempt| build(attempt).run())
}

/// The parallel supervised engine shared by the batch and streaming entry
/// points: `run_attempt` executes one `(home, attempt)` and may panic.
fn supervised_engine<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    run_attempt: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> ScenarioReport + Sync,
{
    if homes == 0 {
        return Err(FleetError::EmptyFleet);
    }
    install_supervisor_panic_hook();
    let _span = obs::span("fleet.run");
    obs::counter_add("fleet.homes", homes as u64);
    let outcomes = rayon::parallel_map((0..homes).collect(), |i| {
        obs::time("fleet.home", || {
            supervise_home(i, root_seed, config, &run_attempt)
        })
    });
    assemble_supervised(homes, outcomes)
}

/// Reference serial implementation of [`run_fleet_supervised`]: same
/// seeds, same attempt schedule, one thread.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
pub fn run_fleet_supervised_serial<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    build: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> EnergyScenario,
{
    supervised_engine_serial(homes, root_seed, config, |attempt| build(attempt).run())
}

/// Serial counterpart of [`supervised_engine`]: same seeds, same attempt
/// schedule, one thread.
fn supervised_engine_serial<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    run_attempt: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> ScenarioReport,
{
    if homes == 0 {
        return Err(FleetError::EmptyFleet);
    }
    install_supervisor_panic_hook();
    let _span = obs::span("fleet.run");
    obs::counter_add("fleet.homes", homes as u64);
    let outcomes: Vec<_> = (0..homes)
        .map(|i| {
            obs::time("fleet.home", || {
                supervise_home(i, root_seed, config, &run_attempt)
            })
        })
        .collect();
    assemble_supervised(homes, outcomes)
}

/// Runs an arbitrary per-home attempt closure under the supervisor.
///
/// The generalization behind [`run_fleet_supervised`] and
/// [`run_fleet_streaming`]: `run_attempt` receives each `(home, attempt)`
/// context and produces that home's report however it likes — rebuild a
/// scenario, or admit pre-simulated readings through the streaming layer
/// (the shape the `stream_throughput` experiment times). Panic isolation,
/// the retry schedule, and the quarantine ledger are identical to the
/// scenario-building entry points.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
pub fn run_fleet_supervised_with<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    run_attempt: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> ScenarioReport + Sync,
{
    supervised_engine(homes, root_seed, config, run_attempt)
}

/// Reference serial implementation of [`run_fleet_supervised_with`]: same
/// seeds, same attempt schedule, one thread.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
pub fn run_fleet_supervised_with_serial<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    run_attempt: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> ScenarioReport,
{
    supervised_engine_serial(homes, root_seed, config, run_attempt)
}

/// Runs `homes` [`StreamingScenario`]s concurrently under the supervisor.
///
/// The streaming analogue of [`run_fleet_supervised`]: each home's meter
/// flows through the `stream` crate's chunked ingestion layer instead of
/// the batch entry points, behind the same panic isolation, retry
/// schedule, and quarantine ledger. Because every streaming pipeline is
/// batch-equivalent, the result is byte-identical to
/// [`run_fleet_supervised`] over the matching batch scenarios — the
/// `stream_throughput` experiment and `tests/stream_equivalence.rs` both
/// assert exactly that.
///
/// When the [`obs`] layer is enabled, the per-home streams additionally
/// record the `stream.chunks` / `stream.samples` counters and the
/// `stream.finalize` timing under the usual `fleet.*` spans.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
///
/// # Examples
///
/// ```
/// use iot_privacy::fleet::SupervisorConfig;
/// use iot_privacy::streaming::StreamingScenario;
///
/// let fleet = iot_privacy::run_fleet_streaming(
///     2,
///     7,
///     SupervisorConfig::default(),
///     |attempt| StreamingScenario::new(attempt.seed).days(1).chunk_len(60),
/// )
/// .unwrap();
/// assert_eq!(fleet.reports.len(), 2);
/// ```
pub fn run_fleet_streaming<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    build: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> StreamingScenario + Sync,
{
    supervised_engine(homes, root_seed, config, |attempt| build(attempt).run())
}

/// Reference serial implementation of [`run_fleet_streaming`]: same
/// seeds, same attempt schedule, one thread.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
pub fn run_fleet_streaming_serial<F>(
    homes: usize,
    root_seed: u64,
    config: SupervisorConfig,
    build: F,
) -> Result<SupervisedFleetResult, FleetError>
where
    F: Fn(HomeAttempt) -> StreamingScenario,
{
    supervised_engine_serial(homes, root_seed, config, |attempt| build(attempt).run())
}

/// Folds per-home outcomes (already in home-index order) into the final
/// result; shared by the parallel and serial supervised engines.
fn assemble_supervised(
    homes: usize,
    outcomes: Vec<(Result<ScenarioReport, QuarantinedHome>, u64)>,
) -> Result<SupervisedFleetResult, FleetError> {
    let mut reports = Vec::with_capacity(homes);
    let mut quarantined = Vec::new();
    let mut retries = 0u64;
    for (outcome, home_retries) in outcomes {
        retries += home_retries;
        match outcome {
            Ok(report) => reports.push(report),
            Err(q) => quarantined.push(q),
        }
    }
    obs::counter_add("fleet.retries", retries);
    obs::counter_add("fleet.quarantined", quarantined.len() as u64);
    if reports.is_empty() {
        return Err(FleetError::AllHomesQuarantined { homes });
    }
    let summary = FleetSummary::of(&reports);
    Ok(SupervisedFleetResult {
        homes,
        reports,
        summary,
        quarantined,
        retries,
    })
}

/// Order-preserving parallel map over independent work items — the same
/// engine [`run_fleet`] uses, exposed for experiment binaries whose sweep
/// points are independent (each owns its RNG or needs none).
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    rayon::parallel_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = StatSummary::of(&[3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 5.0);
        let one = StatSummary::of(&[7.5]);
        assert_eq!((one.mean, one.p50, one.p95), (7.5, 7.5, 7.5));
    }

    #[test]
    fn home_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> = (0..100).map(|i| home_seed(42, i)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(home_seed(1, 0), home_seed(2, 0));
    }

    #[test]
    fn fleet_matches_serial_reference() {
        let build = |seed: u64| EnergyScenario::new(seed).days(1);
        let parallel = run_fleet(6, 9, build).unwrap();
        let serial = run_fleet_serial(6, 9, build).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn summary_covers_all_homes() {
        let result = run_fleet(4, 11, |seed| EnergyScenario::new(seed).days(1)).unwrap();
        assert_eq!(result.reports.len(), 4);
        assert_eq!(result.summary.homes, 4);
        // Accuracy is a rate; the summary must stay in range.
        assert!(result.summary.undefended_accuracy.mean >= 0.0);
        assert!(result.summary.undefended_accuracy.p95 <= 1.0);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0u64..50).collect(), |i| i * 3);
        assert_eq!(out, (0u64..50).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_homes_rejected_with_typed_error() {
        assert_eq!(
            run_fleet(0, 1, EnergyScenario::new).unwrap_err(),
            FleetError::EmptyFleet
        );
        assert_eq!(
            run_fleet_serial(0, 1, EnergyScenario::new).unwrap_err(),
            FleetError::EmptyFleet
        );
        let cfg = SupervisorConfig::default();
        assert_eq!(
            run_fleet_supervised(0, 1, cfg, |a| EnergyScenario::new(a.seed)).unwrap_err(),
            FleetError::EmptyFleet
        );
        assert_eq!(
            FleetError::EmptyFleet.to_string(),
            "fleet needs at least one home"
        );
    }

    /// A build closure where homes 2 and 5 panic on every attempt
    /// (persistent faults) and home 3 panics only on its first attempt
    /// (transient fault — the reseeded retry clears it).
    fn flaky_build(attempt: HomeAttempt) -> EnergyScenario {
        if attempt.home == 2 || attempt.home == 5 {
            panic!("persistent fault in home {}", attempt.home);
        }
        if attempt.home == 3 && attempt.attempt == 0 {
            panic!("transient fault");
        }
        EnergyScenario::new(attempt.seed).days(1)
    }

    #[test]
    fn supervisor_quarantines_persistent_and_retries_transient() {
        let cfg = SupervisorConfig::default();
        let result = run_fleet_supervised(8, 13, cfg, flaky_build).unwrap();
        assert_eq!(result.homes, 8);
        assert_eq!(result.reports.len(), 6);
        assert_eq!(result.summary.homes, 6);
        let quarantined: Vec<usize> = result.quarantined.iter().map(|q| q.home).collect();
        assert_eq!(quarantined, vec![2, 5]);
        for q in &result.quarantined {
            assert_eq!(q.attempts, 1 + cfg.max_retries);
            assert!(q.last_error.contains("persistent fault"));
        }
        // Two persistent homes burn max_retries each; the transient home
        // burns one.
        assert_eq!(result.retries, 2 * cfg.max_retries as u64 + 1);
        assert!((result.quarantine_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn supervised_matches_serial_reference() {
        let cfg = SupervisorConfig::default();
        let parallel = run_fleet_supervised(8, 13, cfg, flaky_build).unwrap();
        let serial = run_fleet_supervised_serial(8, 13, cfg, flaky_build).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn retry_reseeds_the_home() {
        // A retried home must see a different seed on each attempt, and a
        // clean home must see exactly the plain home seed.
        let cfg = SupervisorConfig { max_retries: 2 };
        let seen = std::sync::Mutex::new(Vec::new());
        let _ = run_fleet_supervised_serial(1, 17, cfg, |attempt| {
            seen.lock().unwrap().push(attempt.seed);
            if attempt.attempt < 2 {
                panic!("retry me");
            }
            EnergyScenario::new(attempt.seed).days(1)
        })
        .unwrap();
        let seeds = seen.into_inner().unwrap();
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], home_seed(17, 0));
        assert_ne!(seeds[1], seeds[0]);
        assert_ne!(seeds[2], seeds[1]);
        assert_ne!(seeds[2], seeds[0]);
    }

    #[test]
    fn all_homes_quarantined_is_a_typed_error() {
        let cfg = SupervisorConfig { max_retries: 0 };
        let err = run_fleet_supervised(3, 19, cfg, |_| -> EnergyScenario {
            panic!("everything is broken");
        })
        .unwrap_err();
        assert_eq!(err, FleetError::AllHomesQuarantined { homes: 3 });
        assert_eq!(err.to_string(), "all 3 homes were quarantined");
    }

    #[test]
    fn streaming_fleet_matches_batch_fleet() {
        let cfg = SupervisorConfig::default();
        let batch =
            run_fleet_supervised(4, 29, cfg, |a| EnergyScenario::new(a.seed).days(2)).unwrap();
        for chunk_len in [60, 1_440] {
            let streamed = run_fleet_streaming(4, 29, cfg, |a| {
                StreamingScenario::new(a.seed).days(2).chunk_len(chunk_len)
            })
            .unwrap();
            assert_eq!(streamed, batch, "chunk_len {chunk_len}");
        }
        let serial = run_fleet_streaming_serial(4, 29, cfg, |a| {
            StreamingScenario::new(a.seed).days(2).chunk_len(60)
        })
        .unwrap();
        assert_eq!(serial, batch);
    }

    #[test]
    fn supervised_with_closure_matches_scenario_builder() {
        let cfg = SupervisorConfig::default();
        let built =
            run_fleet_supervised(4, 31, cfg, |a| EnergyScenario::new(a.seed).days(1)).unwrap();
        let with =
            run_fleet_supervised_with(4, 31, cfg, |a| EnergyScenario::new(a.seed).days(1).run())
                .unwrap();
        assert_eq!(with, built);
        let serial = run_fleet_supervised_with_serial(4, 31, cfg, |a| {
            EnergyScenario::new(a.seed).days(1).run()
        })
        .unwrap();
        assert_eq!(serial, built);
    }

    #[test]
    fn supervised_without_faults_matches_unsupervised() {
        let cfg = SupervisorConfig::default();
        let supervised =
            run_fleet_supervised(4, 23, cfg, |a| EnergyScenario::new(a.seed).days(1)).unwrap();
        let plain = run_fleet(4, 23, |seed| EnergyScenario::new(seed).days(1)).unwrap();
        assert!(supervised.quarantined.is_empty());
        assert_eq!(supervised.retries, 0);
        assert_eq!(supervised.reports, plain.reports);
        assert_eq!(supervised.summary, plain.summary);
    }
}
