//! The unified facade of the *Private Memoirs of IoT Devices* suite.
//!
//! This crate re-exports every subsystem of the reproduction behind one
//! dependency, and adds the [`scenario`] pipeline used by the examples and
//! the experiment harness, plus the [`fleet`] engine that runs many
//! scenarios concurrently with per-home seed derivation:
//!
//! | module | contents |
//! |---|---|
//! | [`timeseries`] | power traces, labels, windowed statistics |
//! | [`loads`] | appliance load models and the standard catalogue |
//! | [`homesim`] | occupant/home/meter simulation |
//! | [`niom`] | occupancy-detection attacks |
//! | [`nilm`] | PowerPlay and FHMM disaggregation attacks |
//! | [`solar`] | solar simulation, SunSpot/Weatherman/SunDance |
//! | [`defense`] | CHPr, battery levelling, obfuscation, privacy knob |
//! | [`privatemeter`] | verifiable billing and differential privacy |
//! | [`netsim`] | IoT traffic, fingerprinting, the smart gateway |
//! | [`stream`] | incremental, batch-equivalent chunked inference |
//! | [`obs`] | spans, counters, deterministic JSON metrics reports |
//!
//! Two downstream crates sit *above* this facade and are therefore not
//! re-exported here: `bench` (the experiment library behind the
//! per-figure binaries, `bench::experiments`) and `conformance` (the
//! paper-claims harness and its `check_claims` binary; see
//! `docs/CLAIMS.md`).
//!
//! # Examples
//!
//! ```
//! use iot_privacy::scenario::EnergyScenario;
//!
//! // Simulate a home, attack it, defend it, attack again.
//! let report = EnergyScenario::new(7).days(3).run();
//! assert!(report.undefended.mcc > report.defended.mcc);
//! ```
//!
//! Every pipeline stage is instrumented with the [`obs`] layer (disabled
//! by default; see `docs/OBSERVABILITY.md`):
//!
//! ```
//! use iot_privacy::{obs, scenario::EnergyScenario};
//!
//! obs::enable();
//! obs::reset();
//! let _report = EnergyScenario::new(7).days(1).run();
//! let metrics = obs::snapshot();
//! assert!(metrics.timing("scenario.simulate").is_some());
//! assert!(metrics.counter("homesim.simulate.homes") >= Some(1));
//! obs::disable();
//! ```

#![warn(missing_docs)]

pub use defense;
pub use homesim;
pub use loads;
pub use netsim;
pub use nilm;
pub use niom;
pub use obs;
pub use privatemeter;
pub use solar;
pub use stream;
pub use timeseries;

pub mod fleet;
pub mod scenario;
pub mod streaming;

pub use fleet::{
    run_fleet, FleetError, FleetResult, FleetSummary, HomeAttempt, QuarantinedHome, StatSummary,
};
pub use scenario::{AttackScore, EnergyScenario, ScenarioReport};
pub use streaming::StreamingScenario;
