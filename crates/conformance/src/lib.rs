//! Paper-claims conformance harness.
//!
//! Every quantitative claim the suite reproduces from the paper is one
//! entry in the declarative [`registry`]: a stable id, the owning
//! experiment, a [`registry::Metric`] over that experiment's JSON output
//! (a dotted path to a number or boolean, or a derived function), and a
//! [`registry::Band`] the metric must fall in. The paper anchor (figure
//! or section) and the cost tier are facts of the experiment, stated once
//! in [`bench::experiments::ExperimentSpec`]. The [`runner`] executes
//! experiments *in-process* through the library entry points in
//! [`bench::experiments`] — no subprocesses — shares each experiment run
//! across all claims that read it, and in seed-sweep mode (`--seeds N`)
//! reruns every experiment over `N` decorrelated seeds and checks the
//! mean ± 95% confidence interval against the band instead of a single
//! draw.
//!
//! The `check_claims` binary drives the runner, additionally compares
//! every deterministic experiment's canonical output — with or without
//! claims — against the checked-in `results/*.json` golden snapshots
//! (see [`golden`]), and exits non-zero on any out-of-band claim or
//! snapshot drift, naming the claim id and paper anchor in a diffable
//! failure report. The rendered claim table is kept in sync with
//! `docs/CLAIMS.md` by a test (generate it with
//! `check_claims --claims-md docs/CLAIMS.md`).

#![warn(missing_docs)]

pub mod golden;
pub mod registry;
pub mod report;
pub mod runner;

pub use registry::{Band, Claim, Metric};
pub use report::{ClaimOutcome, ConformanceReport, GoldenOutcome};
pub use runner::{run, run_claims, Options};
