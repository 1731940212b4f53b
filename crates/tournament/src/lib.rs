//! Co-evolving attack×defense tournament (ROADMAP item 3).
//!
//! The paper evaluates static attacks against static defenses one-vs-one
//! (Figs. 2/6). This crate turns that into a *scenario generator*: every
//! registered attacker is pitted against every registered defense, and
//! the adaptive attackers retrain their occupancy model on **defended**
//! traces over K co-evolution rounds — the threat model of Yilmaz &
//! Siraj (arXiv 2010.12640), where an attacker that sees the defense's
//! output defeats naive obfuscation. The defense side gains a
//! differential-privacy knob ([`iot_privacy::defense::DpNoise`]) whose guarantee is
//! the one thing retraining cannot beat (Wang et al., arXiv 2011.06205).
//!
//! The tournament reproduces both claims inside the fleet machinery:
//!
//! * **Adaptive beats static** against every non-DP defense — the
//!   retrained logistic attacker recovers occupancy signal that the
//!   threshold attack loses to CHPr-style masking.
//! * **DP degrades gracefully** — the adaptive attacker's MCC falls
//!   monotonically as ε shrinks, at a billing-fidelity cost that rises
//!   monotonically.
//!
//! # Structure
//!
//! * [`TrainingArena`] — the attacker's instrumented training homes
//!   (the NILM-startup setting of the paper's Figure 3).
//! * [`Attacker`] — the fit interface; [`StaticThreshold`],
//!   [`StaticLogistic`], and [`AdaptiveTuned`] implement it.
//! * [`registry`] — the named attacker and defense line-ups, including
//!   the DP ε-ladder ([`registry::DP_EPSILONS`]).
//! * [`matrix`] — [`run_matrix`] evaluates the full
//!   cross product through `iot_privacy::run_fleet`, so per-home
//!   panic isolation, retries, and quarantine compose with the
//!   tournament (one designated home panics persistently in the
//!   canonical configuration and must be quarantined in every cell).
//!
//! # Determinism
//!
//! Every number is a pure function of [`MatrixConfig::seed`]. Per-round
//! defense randomness uses `derive_seed(fit_seed, "round:<k>:home:<i>")`;
//! per-cell evaluation fleets derive their root from the defense key
//! only, so all attackers of one column see byte-identical defended
//! traces. The matrix JSON is byte-identical across runs and
//! `RAYON_NUM_THREADS` settings — proven by this crate's test suite.

#![warn(missing_docs)]

pub mod arena;
pub mod attacker;
pub mod matrix;
pub mod registry;

pub use arena::TrainingArena;
pub use attacker::{
    AdaptiveTuned, Attacker, DeployedModel, FittedAttack, StaticLogistic, StaticThreshold,
};
pub use matrix::{run_matrix, MatrixCell, MatrixConfig, MatrixResult};
pub use registry::{attackers, defenses, DefenseSpec, DP_EPSILONS};
