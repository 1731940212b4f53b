//! The canonical appliance catalogue.
//!
//! Canonical parameter values follow the empirical characterization of
//! residential loads in Barker et al. (IGCC'13) and the device set of the
//! paper's Figure 2: toaster, fridge, freezer, dryer, and HRV, plus the
//! other appliances the intro's activity-inference examples need
//! (microwave, cooktop, TV, lighting, laundry).

use crate::composite::{CompositeLoad, Phase};
use crate::cyclical::CyclicalLoad;
use crate::inductive::InductiveLoad;
use crate::model::LoadModel;
use crate::nonlinear::NonLinearLoad;
use crate::resistive::ResistiveLoad;
use crate::signature::LoadSignature;
use crate::synth::render_always_on;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};
use timeseries::{PowerTrace, Resolution, Timestamp};

/// Whether a device is driven by occupants or runs regardless of occupancy.
///
/// NIOM's core intuition is that *interactive* loads fire only when someone
/// is home while *background* loads do not care — this enum is that
/// distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApplianceCategory {
    /// Manually operated: contributes occupancy side-channel signal.
    Interactive,
    /// Autonomous (fridge, freezer, HRV): background noise NIOM must filter.
    Background,
}

/// Occupant-usage priors for an interactive appliance, consumed by the home
/// simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsagePrior {
    /// Mean activations per fully-occupied day.
    pub events_per_day: f64,
    /// Uniform activation-duration range, seconds.
    pub duration_secs: (u64, u64),
    /// Hours of day `(start, end)` in which activations may occur; an event
    /// picks one window uniformly, then a uniform time inside it.
    pub preferred_hours: Vec<(u8, u8)>,
}

impl UsagePrior {
    /// Creates a usage prior.
    ///
    /// # Panics
    ///
    /// Panics if `events_per_day` is negative, the duration range is empty
    /// or inverted, or any window is empty or exceeds 24 h.
    pub fn new(
        events_per_day: f64,
        duration_secs: (u64, u64),
        preferred_hours: Vec<(u8, u8)>,
    ) -> Self {
        assert!(events_per_day >= 0.0, "events per day must be non-negative");
        assert!(
            duration_secs.0 > 0 && duration_secs.0 <= duration_secs.1,
            "duration range must be non-empty and ordered"
        );
        assert!(
            !preferred_hours.is_empty(),
            "need at least one usage window"
        );
        for &(s, e) in &preferred_hours {
            assert!(s < e && e <= 24, "invalid usage window {s}..{e}");
        }
        UsagePrior {
            events_per_day,
            duration_secs,
            preferred_hours,
        }
    }
}

/// Always-on renders per resolution: the samples of the longest horizon
/// rendered so far.
type AlwaysOnMemo = Mutex<Vec<(Resolution, Arc<[f64]>)>>;

/// One appliance: its electrical model, behaviour category, usage prior,
/// and the a-priori signature PowerPlay tracks it with.
///
/// An appliance also memoises its always-on renders
/// ([`Appliance::render_always_on`]) in a memo its clones share: per
/// resolution, the samples of the longest horizon rendered so far. The
/// memo therefore never holds more than one device trace per resolution,
/// as long as the longest horizon asked for at it. It is left out of
/// `Debug`.
#[derive(Clone)]
pub struct Appliance {
    name: String,
    category: ApplianceCategory,
    model: Arc<dyn LoadModel>,
    usage: Option<UsagePrior>,
    signature: LoadSignature,
    always_on: Arc<AlwaysOnMemo>,
}

impl std::fmt::Debug for Appliance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Appliance")
            .field("name", &self.name)
            .field("category", &self.category)
            .field("model", &self.model)
            .field("usage", &self.usage)
            .field("signature", &self.signature)
            .finish_non_exhaustive()
    }
}

impl Appliance {
    /// Creates an appliance from its parts.
    ///
    /// # Panics
    ///
    /// Panics if an interactive appliance has no usage prior.
    pub fn new(
        name: impl Into<String>,
        category: ApplianceCategory,
        model: Arc<dyn LoadModel>,
        usage: Option<UsagePrior>,
        signature: LoadSignature,
    ) -> Self {
        let name = name.into();
        if category == ApplianceCategory::Interactive {
            assert!(
                usage.is_some(),
                "interactive appliance {name} needs a usage prior"
            );
        }
        Appliance {
            name,
            category,
            model,
            usage,
            signature,
            always_on: Arc::default(),
        }
    }

    /// The appliance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interactive or background.
    pub fn category(&self) -> ApplianceCategory {
        self.category
    }

    /// The electrical load model.
    pub fn model(&self) -> &Arc<dyn LoadModel> {
        &self.model
    }

    /// The usage prior (None for background devices).
    pub fn usage(&self) -> Option<&UsagePrior> {
        self.usage.as_ref()
    }

    /// The a-priori tracking signature.
    pub fn signature(&self) -> &LoadSignature {
        &self.signature
    }

    /// Renders the model switched on at `start` and left on for `len`
    /// samples: bit for bit [`render_always_on`] of [`Appliance::model`].
    ///
    /// Sample `i` covers seconds `[i·res, (i+1)·res)` after switch-on
    /// whatever `start` is, so it depends only on the resolution. A
    /// horizon no longer than the memo's render at `resolution` is a
    /// prefix copy of it; a longer one renders outside the memo's lock
    /// and replaces it.
    pub fn render_always_on(
        &self,
        start: Timestamp,
        resolution: Resolution,
        len: usize,
    ) -> PowerTrace {
        // Every update replaces or pushes a whole entry, so a memo whose
        // lock a panicking thread poisoned still holds only full renders.
        let memo = || {
            self.always_on
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        let kept = memo()
            .iter()
            .find(|(r, samples)| *r == resolution && samples.len() >= len)
            .map(|(_, samples)| Arc::clone(samples));
        if let Some(samples) = kept {
            return PowerTrace::new(start, resolution, samples[..len].to_vec())
                .expect("the memo holds a rendered trace");
        }
        let trace = render_always_on(self.model.as_ref(), start, resolution, len);
        let mut memo = memo();
        match memo.iter_mut().find(|(r, _)| *r == resolution) {
            Some((_, samples)) if samples.len() >= len => {}
            Some((_, samples)) => *samples = trace.samples().into(),
            None => memo.push((resolution, trace.samples().into())),
        }
        trace
    }

    // ---- canonical devices -------------------------------------------------

    /// 1.5 kW two-slot toaster; short breakfast-time activations.
    pub fn toaster() -> Appliance {
        Appliance::new(
            "toaster",
            ApplianceCategory::Interactive,
            Arc::new(ResistiveLoad::new(1_500.0)),
            Some(UsagePrior::new(0.9, (120, 300), vec![(6, 10)])),
            LoadSignature::resistive("toaster", 1_500.0, (60, 360)),
        )
    }

    /// 1.1 kW microwave; brief meal-time activations.
    pub fn microwave() -> Appliance {
        Appliance::new(
            "microwave",
            ApplianceCategory::Interactive,
            Arc::new(ResistiveLoad::new(1_100.0)),
            Some(UsagePrior::new(
                1.8,
                (60, 420),
                vec![(7, 9), (11, 14), (17, 21)],
            )),
            LoadSignature::resistive("microwave", 1_100.0, (30, 600)),
        )
    }

    /// 1.2 kW electric kettle.
    pub fn kettle() -> Appliance {
        Appliance::new(
            "kettle",
            ApplianceCategory::Interactive,
            Arc::new(ResistiveLoad::new(1_200.0)),
            Some(UsagePrior::new(
                1.2,
                (120, 300),
                vec![(6, 10), (15, 17), (19, 22)],
            )),
            LoadSignature::resistive("kettle", 1_200.0, (60, 360)),
        )
    }

    /// 2 kW cooktop burner; dinner-time cooking.
    pub fn cooktop() -> Appliance {
        Appliance::new(
            "cooktop",
            ApplianceCategory::Interactive,
            Arc::new(ResistiveLoad::new(2_000.0)),
            Some(UsagePrior::new(0.8, (600, 2_400), vec![(17, 20)])),
            LoadSignature::resistive("cooktop", 2_000.0, (300, 3_600)),
        )
    }

    /// Refrigerator: 120 W compressor with a 500 W in-rush, 25-minute
    /// thermostat cycle at 40 % duty. Background.
    pub fn fridge() -> Appliance {
        let model = CyclicalLoad::new(InductiveLoad::new(120.0, 500.0, 4.0), 1_500.0, 0.4, 0.0);
        Appliance::new(
            "fridge",
            ApplianceCategory::Background,
            Arc::new(model),
            None,
            LoadSignature::cyclical("fridge", 120.0, 500.0, 1_500.0, 0.4),
        )
    }

    /// Chest freezer: 90 W compressor, 400 W in-rush, ~33-minute cycle at
    /// 35 % duty. Background.
    pub fn freezer() -> Appliance {
        let model = CyclicalLoad::new(InductiveLoad::new(90.0, 400.0, 4.0), 2_000.0, 0.35, 0.0);
        Appliance::new(
            "freezer",
            ApplianceCategory::Background,
            Arc::new(model),
            None,
            LoadSignature::cyclical("freezer", 90.0, 400.0, 2_000.0, 0.35),
        )
    }

    /// Clothes dryer: 45-minute program; 5 kW element cycling at 70 % duty
    /// over a 300 W drum motor.
    pub fn dryer() -> Appliance {
        let element = CyclicalLoad::new(InductiveLoad::new(5_000.0, 5_000.0, 1.0), 300.0, 0.7, 0.0);
        let model = CompositeLoad::new(vec![Phase::new(2_700.0, Box::new(element))])
            .with_overlay(Box::new(InductiveLoad::new(300.0, 900.0, 3.0)));
        Appliance::new(
            "dryer",
            ApplianceCategory::Interactive,
            Arc::new(model),
            Some(UsagePrior::new(0.35, (2_400, 3_000), vec![(9, 21)])),
            LoadSignature::composite("dryer", 5_300.0, 600.0, (1_800, 3_600)),
        )
    }

    /// Washing machine: fill/agitate/spin phases, ~35 minutes.
    pub fn washer() -> Appliance {
        let model = CompositeLoad::new(vec![
            Phase::new(300.0, Box::new(ResistiveLoad::new(80.0))), // fill
            Phase::new(1_200.0, Box::new(InductiveLoad::new(450.0, 1_200.0, 5.0))), // agitate
            Phase::new(600.0, Box::new(InductiveLoad::new(700.0, 1_500.0, 5.0))), // spin
        ]);
        Appliance::new(
            "washer",
            ApplianceCategory::Interactive,
            Arc::new(model),
            Some(UsagePrior::new(0.35, (1_800, 2_400), vec![(8, 20)])),
            LoadSignature::composite("washer", 450.0, 750.0, (1_200, 3_000)),
        )
    }

    /// Dishwasher: pre-rinse, heated wash, dry; ~1 hour.
    pub fn dishwasher() -> Appliance {
        let model = CompositeLoad::new(vec![
            Phase::new(600.0, Box::new(InductiveLoad::new(200.0, 600.0, 4.0))),
            Phase::new(1_800.0, Box::new(ResistiveLoad::new(1_800.0))),
            Phase::new(1_200.0, Box::new(ResistiveLoad::new(600.0))),
        ]);
        Appliance::new(
            "dishwasher",
            ApplianceCategory::Interactive,
            Arc::new(model),
            Some(UsagePrior::new(0.6, (3_000, 3_900), vec![(19, 23)])),
            LoadSignature::composite("dishwasher", 1_800.0, 400.0, (2_400, 4_200)),
        )
    }

    /// Heat-recovery ventilator: a variable-speed 100 W fan running
    /// continuously (draw wanders ±35 W with duct pressure). Background.
    pub fn hrv() -> Appliance {
        Appliance::new(
            "hrv",
            ApplianceCategory::Background,
            Arc::new(NonLinearLoad::new(100.0, 35.0)),
            None,
            LoadSignature {
                name: "hrv".into(),
                kind: crate::model::LoadKind::NonLinear,
                on_delta_watts: 100.0,
                spike_excess_watts: 0.0,
                cycle_period_secs: None,
                cycle_duty: None,
                duration_bounds_secs: (3_600, u64::MAX / 2),
            },
        )
    }

    /// Aggregate room lighting: 250 W of fixtures, evening-heavy.
    pub fn lighting() -> Appliance {
        Appliance::new(
            "lighting",
            ApplianceCategory::Interactive,
            Arc::new(ResistiveLoad::new(250.0)),
            Some(UsagePrior::new(
                3.0,
                (1_800, 10_800),
                vec![(6, 9), (17, 23)],
            )),
            LoadSignature::resistive("lighting", 250.0, (600, 14_400)),
        )
    }

    /// Television: 150 W ± 40 W non-linear draw, evenings.
    pub fn tv() -> Appliance {
        Appliance::new(
            "tv",
            ApplianceCategory::Interactive,
            Arc::new(NonLinearLoad::new(150.0, 40.0)),
            Some(UsagePrior::new(
                1.6,
                (1_800, 9_000),
                vec![(12, 14), (18, 23)],
            )),
            LoadSignature::resistive("tv", 150.0, (900, 10_800)),
        )
    }

    /// Desktop computer: 120 W ± 30 W.
    pub fn computer() -> Appliance {
        Appliance::new(
            "computer",
            ApplianceCategory::Interactive,
            Arc::new(NonLinearLoad::new(120.0, 30.0)),
            Some(UsagePrior::new(1.2, (3_600, 14_400), vec![(8, 23)])),
            LoadSignature::resistive("computer", 120.0, (1_800, 18_000)),
        )
    }
}

/// A named collection of appliances.
///
/// # Examples
///
/// ```
/// use loads::Catalogue;
///
/// let cat = Catalogue::standard();
/// assert!(cat.get("fridge").is_some());
/// assert!(cat.len() >= 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Catalogue {
    appliances: Vec<Appliance>,
}

impl Catalogue {
    /// Creates an empty catalogue.
    pub fn new() -> Self {
        Catalogue::default()
    }

    /// The full standard residential set used by the experiments.
    pub fn standard() -> Self {
        let mut c = Catalogue::new();
        for a in [
            Appliance::toaster(),
            Appliance::microwave(),
            Appliance::kettle(),
            Appliance::cooktop(),
            Appliance::fridge(),
            Appliance::freezer(),
            Appliance::dryer(),
            Appliance::washer(),
            Appliance::dishwasher(),
            Appliance::hrv(),
            Appliance::lighting(),
            Appliance::tv(),
            Appliance::computer(),
        ] {
            c.push(a);
        }
        c
    }

    /// The standard set from a process-wide cache. Cloning a cached
    /// catalogue only bumps the appliances' shared-model refcounts, so
    /// fleet-scale callers building thousands of `HomeConfig`s skip
    /// rebuilding the load models each time.
    pub fn standard_shared() -> Self {
        static CACHE: std::sync::OnceLock<Catalogue> = std::sync::OnceLock::new();
        CACHE.get_or_init(Catalogue::standard).clone()
    }

    /// The five tracked devices of the paper's Figure 2.
    pub fn figure2() -> Self {
        let mut c = Catalogue::new();
        for a in [
            Appliance::toaster(),
            Appliance::fridge(),
            Appliance::freezer(),
            Appliance::dryer(),
            Appliance::hrv(),
        ] {
            c.push(a);
        }
        c
    }

    /// Adds an appliance.
    ///
    /// # Panics
    ///
    /// Panics if an appliance with the same name already exists.
    pub fn push(&mut self, appliance: Appliance) {
        assert!(
            self.get(appliance.name()).is_none(),
            "duplicate appliance {}",
            appliance.name()
        );
        self.appliances.push(appliance);
    }

    /// Looks up an appliance by name.
    pub fn get(&self, name: &str) -> Option<&Appliance> {
        self.appliances.iter().find(|a| a.name() == name)
    }

    /// All appliances, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Appliance> {
        self.appliances.iter()
    }

    /// Appliances of one category.
    pub fn by_category(&self, cat: ApplianceCategory) -> impl Iterator<Item = &Appliance> {
        self.appliances.iter().filter(move |a| a.category() == cat)
    }

    /// Number of appliances.
    pub fn len(&self) -> usize {
        self.appliances.len()
    }

    /// `true` if the catalogue holds no appliances.
    pub fn is_empty(&self) -> bool {
        self.appliances.is_empty()
    }
}

impl FromIterator<Appliance> for Catalogue {
    fn from_iter<I: IntoIterator<Item = Appliance>>(iter: I) -> Self {
        let mut c = Catalogue::new();
        for a in iter {
            c.push(a);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LoadKind;

    #[test]
    fn standard_catalogue_complete() {
        let c = Catalogue::standard();
        assert_eq!(c.len(), 13);
        for name in ["toaster", "fridge", "freezer", "dryer", "hrv", "tv"] {
            assert!(c.get(name).is_some(), "missing {name}");
        }
        assert!(c.get("flux-capacitor").is_none());
    }

    #[test]
    fn figure2_set() {
        let c = Catalogue::figure2();
        let names: Vec<_> = c.iter().map(|a| a.name().to_string()).collect();
        assert_eq!(names, ["toaster", "fridge", "freezer", "dryer", "hrv"]);
    }

    #[test]
    fn categories_partition() {
        let c = Catalogue::standard();
        let interactive = c.by_category(ApplianceCategory::Interactive).count();
        let background = c.by_category(ApplianceCategory::Background).count();
        assert_eq!(interactive + background, c.len());
        assert_eq!(background, 3); // fridge, freezer, hrv
    }

    #[test]
    fn interactive_have_usage_priors() {
        for a in Catalogue::standard().by_category(ApplianceCategory::Interactive) {
            assert!(a.usage().is_some(), "{} lacks usage prior", a.name());
        }
    }

    #[test]
    fn background_models_are_autonomous_kinds() {
        let c = Catalogue::standard();
        assert_eq!(c.get("fridge").unwrap().model().kind(), LoadKind::Cyclical);
        assert_eq!(c.get("hrv").unwrap().model().kind(), LoadKind::NonLinear);
    }

    #[test]
    fn signatures_match_models() {
        let c = Catalogue::standard();
        let toaster = c.get("toaster").unwrap();
        assert!(
            (toaster.signature().on_delta_watts - toaster.model().nominal_watts()).abs() < 1e-9
        );
    }

    #[test]
    #[should_panic(expected = "duplicate appliance")]
    fn duplicates_rejected() {
        let mut c = Catalogue::new();
        c.push(Appliance::toaster());
        c.push(Appliance::toaster());
    }

    #[test]
    fn from_iterator() {
        let c: Catalogue = [Appliance::tv(), Appliance::fridge()].into_iter().collect();
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid usage window")]
    fn bad_window_rejected() {
        UsagePrior::new(1.0, (60, 120), vec![(22, 22)]);
    }
}
