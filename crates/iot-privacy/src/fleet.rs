//! Fleet-scale scenario execution.
//!
//! The paper evaluates attacks and defenses home-by-home; real questions
//! ("what does CHPr cost across a utility's service area?") need the same
//! pipeline over *many* independent homes. [`run_fleet`] runs a fleet of
//! homes concurrently and aggregates their reports.
//!
//! # Determinism
//!
//! Every home gets its own seed derived from the fleet root seed via
//! `derive_seed(root, "home:<index>")`, so no RNG state is shared between
//! homes, and results are collected in home-index order. The parallel
//! schedule therefore cannot influence any value: [`run_fleet`] is
//! bit-identical at any thread count. At `RAYON_NUM_THREADS=1` the pool
//! maps the homes serially on the calling thread, which is the reference
//! `crates/iot-privacy/tests/fleet_determinism.rs` compares every other
//! thread count against, byte for byte.
//!
//! # Supervision
//!
//! At fleet scale a single pathological home (corrupt feed, degenerate
//! trace, a bug in one code path) must not abort the whole run.
//! [`run_fleet`] isolates each home behind [`std::panic::catch_unwind`],
//! retries it twice on a reseeded RNG stream
//! (`derive_seed(home_seed, "retry:<k>")`), and quarantines homes that
//! keep failing. The quarantine set depends only on `(home index,
//! attempt)` — never on threads or wall clock — so it too is
//! byte-identical across `RAYON_NUM_THREADS` settings; see
//! `docs/ROBUSTNESS.md`.

use crate::scenario::ScenarioReport;
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
    /// Every home of the run was quarantined, so there is nothing to
    /// summarize.
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

/// Every surviving home's report, the fleet-level summary, and the
/// supervisor's quarantine ledger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
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

/// The derived seed for home `index` under `root`
/// (`derive_seed(root, "home:<index>")`, see [`timeseries::rng::home_seed`]).
pub fn home_seed(root: u64, index: usize) -> u64 {
    timeseries::rng::home_seed(root, index)
}

/// Retries after a home's first failed attempt before it is quarantined,
/// so each home runs at most `1 + MAX_RETRIES` times.
const MAX_RETRIES: u32 = 2;

/// One attempt at one home, handed to the [`run_fleet`] closure.
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
    /// Attempt number: 0 for the first run, 1 and 2 for the retries.
    pub attempt: u32,
    /// The derived seed for this `(home, attempt)` pair.
    pub seed: u64,
}

/// A home the supervisor gave up on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedHome {
    /// Home index within the fleet.
    pub home: usize,
    /// Attempts made (always 3: the first plus two retries).
    pub attempts: u32,
    /// The last attempt's panic message.
    pub last_error: String,
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
/// `(home, root_seed, run_attempt)`.
fn supervise_home<F>(
    home: usize,
    root_seed: u64,
    run_attempt: &F,
) -> (Result<ScenarioReport, QuarantinedHome>, u64)
where
    F: Fn(HomeAttempt) -> ScenarioReport,
{
    let base = home_seed(root_seed, home);
    let mut retries = 0u64;
    let mut last_error = String::new();
    for attempt in 0..=MAX_RETRIES {
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
                if attempt < MAX_RETRIES {
                    retries += 1;
                }
            }
        }
    }
    (
        Err(QuarantinedHome {
            home,
            attempts: 1 + MAX_RETRIES,
            last_error,
        }),
        retries,
    )
}

/// Runs `homes` independent homes concurrently, each behind the
/// supervisor.
///
/// `run` receives each `(home, attempt)` context and produces that home's
/// report however it likes: build and run an
/// [`EnergyScenario`](crate::scenario::EnergyScenario), stream a
/// [`StreamingScenario`](crate::streaming::StreamingScenario), or admit
/// pre-simulated readings. It runs on worker threads, so it must be
/// `Sync` and should not share mutable state. Each attempt executes
/// behind [`std::panic::catch_unwind`]: a panicking home is retried twice
/// on a reseeded RNG stream and then quarantined, never aborting the
/// remaining homes. Reports and the quarantine ledger come back in
/// home-index order and are a pure function of `(homes, root_seed, run)`,
/// byte-identical across `RAYON_NUM_THREADS` settings.
///
/// When the [`obs`] layer is enabled, records the `fleet.run` span, the
/// per-home `fleet.home` timing distribution, and the `fleet.homes`,
/// `fleet.retries` and `fleet.quarantined` counters; each home
/// additionally records its own `scenario.*` stage spans. Observation
/// never feeds back into results.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] if `homes` is zero, and
/// [`FleetError::AllHomesQuarantined`] if no home survived.
///
/// # Examples
///
/// ```
/// use iot_privacy::scenario::EnergyScenario;
/// use iot_privacy::streaming::StreamingScenario;
///
/// // Home 1 always panics; the rest of the fleet completes.
/// let fleet = iot_privacy::run_fleet(3, 7, |attempt| {
///     if attempt.home == 1 {
///         panic!("corrupt feed");
///     }
///     EnergyScenario::new(attempt.seed).days(1).run()
/// })
/// .unwrap();
/// assert_eq!(fleet.reports.len(), 2);
/// assert_eq!(fleet.quarantined[0].home, 1);
/// assert_eq!(fleet.quarantined[0].last_error, "corrupt feed");
///
/// // Streaming the same homes in hour-long chunks changes no byte.
/// let batch = iot_privacy::run_fleet(2, 7, |a| EnergyScenario::new(a.seed).days(1).run());
/// let streamed = iot_privacy::run_fleet(2, 7, |a| {
///     StreamingScenario::new(a.seed).days(1).chunk_len(60).run()
/// });
/// assert_eq!(streamed, batch);
/// ```
pub fn run_fleet(
    homes: usize,
    root_seed: u64,
    run: impl Fn(HomeAttempt) -> ScenarioReport + Sync,
) -> Result<FleetResult, FleetError> {
    if homes == 0 {
        return Err(FleetError::EmptyFleet);
    }
    install_supervisor_panic_hook();
    let _span = obs::span("fleet.run");
    obs::counter_add("fleet.homes", homes as u64);
    let outcomes = rayon::parallel_map((0..homes).collect(), |i| {
        obs::time("fleet.home", || supervise_home(i, root_seed, &run))
    });
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
    Ok(FleetResult {
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
    use crate::scenario::EnergyScenario;
    use crate::streaming::StreamingScenario;

    fn day(attempt: HomeAttempt) -> ScenarioReport {
        EnergyScenario::new(attempt.seed).days(1).run()
    }

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
    fn summary_covers_all_homes() {
        let result = run_fleet(4, 11, day).unwrap();
        assert_eq!(result.homes, 4);
        assert_eq!(result.reports.len(), 4);
        assert_eq!(result.summary.homes, 4);
        assert!(result.quarantined.is_empty());
        assert_eq!(result.retries, 0);
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
        assert_eq!(run_fleet(0, 1, day).unwrap_err(), FleetError::EmptyFleet);
        assert_eq!(
            FleetError::EmptyFleet.to_string(),
            "fleet needs at least one home"
        );
    }

    /// A run closure where homes 2 and 5 panic on every attempt
    /// (persistent faults) and home 3 panics only on its first attempt
    /// (transient fault — the reseeded retry clears it).
    fn flaky(attempt: HomeAttempt) -> ScenarioReport {
        if attempt.home == 2 || attempt.home == 5 {
            panic!("persistent fault in home {}", attempt.home);
        }
        if attempt.home == 3 && attempt.attempt == 0 {
            panic!("transient fault");
        }
        day(attempt)
    }

    #[test]
    fn supervisor_quarantines_persistent_and_retries_transient() {
        let result = run_fleet(8, 13, flaky).unwrap();
        assert_eq!(result.homes, 8);
        assert_eq!(result.reports.len(), 6);
        assert_eq!(result.summary.homes, 6);
        let quarantined: Vec<usize> = result.quarantined.iter().map(|q| q.home).collect();
        assert_eq!(quarantined, vec![2, 5]);
        for q in &result.quarantined {
            assert_eq!(q.attempts, 1 + MAX_RETRIES);
            assert!(q.last_error.contains("persistent fault"));
        }
        // Two persistent homes burn MAX_RETRIES each; the transient home
        // burns one.
        assert_eq!(result.retries, 2 * MAX_RETRIES as u64 + 1);
    }

    #[test]
    fn retry_reseeds_the_home() {
        // A retried home must see a different seed on each attempt, and a
        // clean home must see exactly the plain home seed.
        let seen = std::sync::Mutex::new(Vec::new());
        let _ = run_fleet(1, 17, |attempt| {
            seen.lock().unwrap().push(attempt.seed);
            if attempt.attempt < MAX_RETRIES {
                panic!("retry me");
            }
            day(attempt)
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
        let err = run_fleet(3, 19, |_| -> ScenarioReport {
            panic!("everything is broken");
        })
        .unwrap_err();
        assert_eq!(err, FleetError::AllHomesQuarantined { homes: 3 });
        assert_eq!(err.to_string(), "all 3 homes were quarantined");
    }

    #[test]
    fn streaming_fleet_matches_batch_fleet() {
        let batch = run_fleet(4, 29, |a| EnergyScenario::new(a.seed).days(2).run()).unwrap();
        for chunk_len in [60, 1_440] {
            let streamed = run_fleet(4, 29, |a| {
                StreamingScenario::new(a.seed)
                    .days(2)
                    .chunk_len(chunk_len)
                    .run()
            })
            .unwrap();
            assert_eq!(streamed, batch, "chunk_len {chunk_len}");
        }
    }
}
