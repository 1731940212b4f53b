//! Non-Intrusive Occupancy Monitoring (NIOM).
//!
//! NIOM learns *when a home is occupied* purely from its smart-meter trace
//! — the first privacy attack of the paper (Figure 1, and the attack that
//! the CHPr defense of Figure 6 must defeat). The intuition: occupants
//! operate interactive appliances, raising both the level and the
//! burstiness of total power; an empty home shows only background loads.
//!
//! Two detectors are provided:
//!
//! * [`ThresholdDetector`] — the Chen et al. (BuildSys'13) style
//!   statistical detector: per-window mean/σ thresholds calibrated
//!   from the trace itself.
//! * [`HmmDetector`] — a two-state Gaussian hidden Markov model trained
//!   unsupervised with Baum–Welch and decoded with Viterbi, in the style of
//!   Kleiminger et al. (BuildSys'13).
//!
//! Both implement [`OccupancyDetector`], the interface the defense
//! evaluations attack through. They and the supervised
//! [`LogisticDetector`] also implement [`WindowedDetector`]: each reduces
//! the trace to one [`WindowRecord`] per window (a projection of the
//! window's `Summary` holding only the fields it reads) and decides from
//! those records alone, which is what lets the streaming layer keep one
//! record per closed window instead of the samples.
//!
//! # Examples
//!
//! ```
//! use homesim::{Home, HomeConfig};
//! use niom::{OccupancyDetector, ThresholdDetector};
//!
//! let home = Home::simulate(&HomeConfig::new(11).days(3));
//! let inferred = ThresholdDetector::default().detect(&home.meter);
//! let score = home.occupancy.confusion(&inferred)?;
//! assert!(score.accuracy() > 0.6); // well above chance
//! # Ok::<(), timeseries::TraceError>(())
//! ```

pub mod detector;
pub mod eval;
pub mod hmm;
pub mod supervised;
pub mod threshold;

pub use detector::{OccupancyDetector, WindowRecord, WindowedDetector};
pub use eval::{evaluate, Evaluation};
pub use hmm::HmmDetector;
pub use supervised::LogisticDetector;
pub use threshold::{MeanVariance, ThresholdDetector};
