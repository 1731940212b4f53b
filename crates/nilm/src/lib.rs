//! Non-Intrusive Load Monitoring (NILM): disaggregating a home's total
//! power into per-appliance usage.
//!
//! Two disaggregators reproduce the comparison of the paper's Figure 2:
//!
//! * [`PowerPlay`] — the paper's model-driven tracker. Detailed load models
//!   are known *a priori*; the tracker claims step edges in the aggregate
//!   for specific devices and then lets each claimed device's **virtual
//!   power meter** play its model forward in time. Because the playback is
//!   the model (not the noisy meter), PowerPlay is robust to meter noise.
//! * [`Fhmm`] — the conventional baseline: a Factorial Hidden Markov Model
//!   (Kolter & Johnson's REDD formulation). Per-device HMMs are *learned
//!   from sub-metered training data*, then joint inference (exact factorial
//!   Viterbi for small state spaces, iterated conditional modes for large)
//!   explains the aggregate.
//!
//! Both implement [`Disaggregator`]; [`evaluate_disaggregation`] computes
//! the paper's normalized *disaggregation error factor* per device (0 =
//! perfect, 1 = as bad as predicting zero).
//!
//! # Examples
//!
//! ```
//! use homesim::{Home, HomeConfig};
//! use loads::Catalogue;
//! use nilm::{Disaggregator, PowerPlay};
//!
//! let catalogue = Catalogue::figure2();
//! let home = Home::simulate(&HomeConfig::new(2).days(2).catalogue(catalogue.clone()));
//! let tracker = PowerPlay::from_catalogue(&catalogue);
//! let estimates = tracker.disaggregate(&home.meter);
//! assert_eq!(estimates.len(), 5);
//! ```

pub mod estimate;
pub mod events;
pub mod fhmm;
pub mod hart;
pub mod powerplay;
pub mod train;

pub use estimate::{evaluate_disaggregation, DeviceEstimate, DeviceScore, Disaggregator};
pub use events::{extract_events, profile, UsageEvent, UsageProfile};
pub use fhmm::{Fhmm, FhmmConfig, FhmmFilter};
pub use hart::HartNilm;
pub use powerplay::{PowerPlay, PowerPlayConfig};
pub use train::{train_device_hmm, DeviceHmm};
