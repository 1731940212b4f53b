//! Whole-home simulation: ties occupancy, activity, loads, and the meter
//! together.

use crate::activity::ActivityModel;
use crate::meter::SmartMeter;
use crate::occupancy::{OccupancyModel, Persona};
use loads::{render_activations, Activation, Appliance, ApplianceCategory, Catalogue};
use rand::Rng;
use timeseries::rng::{derive_seed, seeded_rng};
use timeseries::{LabelSeries, PowerTrace, Resolution, Timestamp};

/// Configuration of one simulated home.
///
/// The builder-style setters cover everything the experiments vary; the
/// root `seed` makes the whole simulation a pure function of the
/// configuration.
#[derive(Debug, Clone)]
pub struct HomeConfig {
    seed: u64,
    days: u64,
    resolution: Resolution,
    catalogue: Catalogue,
    occupancy: OccupancyModel,
    activity: ActivityModel,
    meter: SmartMeter,
}

impl HomeConfig {
    /// Creates a default configuration: 7 days at one-minute resolution,
    /// the standard catalogue, a worker household, and a mildly noisy
    /// meter.
    pub fn new(seed: u64) -> Self {
        HomeConfig {
            seed,
            days: 7,
            resolution: Resolution::ONE_MINUTE,
            catalogue: Catalogue::standard_shared(),
            occupancy: OccupancyModel::for_persona(Persona::Worker),
            activity: ActivityModel::default(),
            meter: SmartMeter::new(Resolution::ONE_MINUTE, 15.0),
        }
    }

    /// Sets the simulated horizon in days.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero.
    pub fn days(mut self, days: u64) -> Self {
        assert!(days > 0, "need at least one day");
        self.days = days;
        self
    }

    /// Sets the simulation (ground-truth) resolution.
    pub fn resolution(mut self, resolution: Resolution) -> Self {
        self.resolution = resolution;
        self
    }

    /// Sets the appliance catalogue.
    pub fn catalogue(mut self, catalogue: Catalogue) -> Self {
        self.catalogue = catalogue;
        self
    }

    /// Sets the occupancy model from a persona.
    pub fn persona(mut self, persona: Persona) -> Self {
        self.occupancy = OccupancyModel::for_persona(persona);
        self
    }

    /// Sets a fully custom occupancy model.
    pub fn occupancy(mut self, model: OccupancyModel) -> Self {
        self.occupancy = model;
        self
    }

    /// Sets the activity intensity multiplier (Home-A ≈ 0.6, Home-B ≈ 1.8).
    pub fn intensity(mut self, intensity: f64) -> Self {
        self.activity = ActivityModel::new(intensity);
        self
    }

    /// Sets the smart-meter model.
    pub fn meter(mut self, meter: SmartMeter) -> Self {
        self.meter = meter;
        self
    }

    /// The configured horizon, days.
    pub fn days_configured(&self) -> u64 {
        self.days
    }

    /// The configured simulation resolution.
    pub fn resolution_configured(&self) -> Resolution {
        self.resolution
    }
}

/// Ground truth for one device in a simulated home.
#[derive(Debug, Clone)]
pub struct DeviceTrace {
    /// Appliance name (matches the catalogue).
    pub name: String,
    /// The device's true power trace.
    pub trace: PowerTrace,
    /// The activations that produced it (empty for background devices).
    pub activations: Vec<Activation>,
}

/// A fully simulated home: meter reading plus every piece of ground truth
/// the paper's real deployments had to instrument for.
#[derive(Debug, Clone)]
pub struct Home {
    /// The noisy smart-meter reading (what attacks see).
    pub meter: PowerTrace,
    /// The true noiseless aggregate.
    pub aggregate: PowerTrace,
    /// Per-device ground truth.
    pub devices: Vec<DeviceTrace>,
    /// Ground-truth occupancy.
    pub occupancy: LabelSeries,
}

impl Home {
    /// Runs the simulation described by `config`.
    ///
    /// Deterministic: equal configurations produce equal homes. When the
    /// [`obs`] layer is enabled, records the `homesim.simulate` span and
    /// the `homesim.simulate.{homes,samples}` counters.
    pub fn simulate(config: &HomeConfig) -> Home {
        let _span = obs::span("homesim.simulate");
        let len = config.resolution.samples_in(config.days * 86_400);
        let start = Timestamp::ZERO;

        let mut occ_rng = seeded_rng(derive_seed(config.seed, "occupancy"));
        let occupancy = config
            .occupancy
            .generate(config.days, config.resolution, &mut occ_rng);

        let mut devices = Vec::with_capacity(config.catalogue.len());
        let mut aggregate = PowerTrace::zeros(start, config.resolution, len);

        for appliance in config.catalogue.iter() {
            let mut dev_rng = seeded_rng(derive_seed(
                config.seed,
                &format!("device:{}", appliance.name()),
            ));
            let (trace, activations) = match appliance.category() {
                ApplianceCategory::Background => {
                    let trace = render_background(appliance, start, config.resolution, len, || {
                        dev_rng.gen::<f64>()
                    });
                    (trace, Vec::new())
                }
                ApplianceCategory::Interactive => {
                    let acts =
                        config
                            .activity
                            .sample_appliance(appliance, &occupancy, &mut dev_rng);
                    let trace = render_activations(
                        appliance.model().as_ref(),
                        &acts,
                        start,
                        config.resolution,
                        len,
                    );
                    (trace, acts)
                }
            };
            aggregate
                .checked_add_assign(&trace)
                .expect("device traces share the home geometry");
            devices.push(DeviceTrace {
                name: appliance.name().to_string(),
                trace,
                activations,
            });
        }

        let mut meter_rng = seeded_rng(derive_seed(config.seed, "meter"));
        let meter = config
            .meter
            .read(&aggregate, &mut meter_rng)
            .expect("meter resolution divides simulation resolution");

        // Score ground truth at the meter resolution.
        let occupancy = if occupancy.resolution() == meter.resolution() {
            occupancy
        } else {
            occupancy
                .downsample(meter.resolution())
                .expect("meter resolution divides simulation resolution")
        };

        obs::counter_add("homesim.simulate.homes", 1);
        obs::counter_add("homesim.simulate.samples", meter.len() as u64);
        Home {
            meter,
            aggregate,
            devices,
            occupancy,
        }
    }

    /// Looks up one device's ground truth by name.
    pub fn device(&self, name: &str) -> Option<&DeviceTrace> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// The true aggregate minus all background devices — the interactive
    /// residual whose burstiness NIOM keys on.
    pub fn interactive_aggregate(&self) -> PowerTrace {
        let mut acc = self.aggregate.clone();
        for dev in &self.devices {
            if dev.activations.is_empty() && dev.trace.mean_watts() > 0.0 {
                acc.checked_sub_assign(&dev.trace)
                    .expect("aligned by construction");
            }
        }
        acc.clamp_non_negative()
    }
}

/// Renders a background device always-on. Cyclical loads get a random
/// initial phase and per-cycle duration jitter (±15 %), the way real
/// thermostat-driven compressors respond to door openings and ambient
/// temperature; other background models read no randomness and render
/// as-is, through the appliance's memo
/// ([`Appliance::render_always_on`]), so clones of one catalogue render
/// each such device once per resolution.
fn render_background(
    appliance: &Appliance,
    start: Timestamp,
    resolution: Resolution,
    len: usize,
    mut uniform: impl FnMut() -> f64,
) -> PowerTrace {
    if let (Some(period), Some(duty)) = (
        appliance.signature().cycle_period_secs,
        appliance.signature().cycle_duty,
    ) {
        let element = appliance
            .signature()
            .cyclical_element()
            .expect("cyclical signature reconstructs its element");
        let span_secs = len as u64 * resolution.as_secs() as u64;
        let mut activations = Vec::new();
        // Random initial phase: start somewhere inside a cycle.
        let mut t = -(uniform() * period);
        let jitter = |u: f64| 0.85 + 0.3 * u;
        while (t as i64) < span_secs as i64 {
            let on_secs = duty * period * jitter(uniform());
            let off_secs = (1.0 - duty) * period * jitter(uniform());
            if t + on_secs > 0.0 {
                let act_start = start + t.max(0.0) as u64;
                let dur = (t + on_secs - t.max(0.0)) as u64;
                if dur > 0 {
                    activations.push(loads::Activation::new(act_start, dur));
                }
            }
            t += on_secs + off_secs;
        }
        return render_activations(&element, &activations, start, resolution, len);
    }
    appliance.render_always_on(start, resolution, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_shape() {
        let home = Home::simulate(&HomeConfig::new(1).days(2));
        assert_eq!(home.meter.len(), 2 * 1440);
        assert_eq!(home.occupancy.len(), 2 * 1440);
        assert_eq!(home.devices.len(), 13);
        assert!(home.device("fridge").is_some());
        assert!(home.device("nope").is_none());
    }

    #[test]
    fn deterministic() {
        let a = Home::simulate(&HomeConfig::new(7).days(2));
        let b = Home::simulate(&HomeConfig::new(7).days(2));
        assert_eq!(a.meter, b.meter);
        assert_eq!(a.occupancy, b.occupancy);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Home::simulate(&HomeConfig::new(1).days(2));
        let b = Home::simulate(&HomeConfig::new(2).days(2));
        assert_ne!(a.meter, b.meter);
    }

    #[test]
    fn aggregate_is_sum_of_devices() {
        let home = Home::simulate(&HomeConfig::new(3).days(1));
        let mut sum = PowerTrace::zeros(
            home.aggregate.start(),
            home.aggregate.resolution(),
            home.aggregate.len(),
        );
        for d in &home.devices {
            sum = sum.checked_add(&d.trace).unwrap();
        }
        for i in 0..sum.len() {
            assert!((sum.watts(i) - home.aggregate.watts(i)).abs() < 1e-6);
        }
    }

    #[test]
    fn background_runs_while_away() {
        // A vacation home: only background devices drawing power.
        let cfg = HomeConfig::new(4)
            .days(3)
            .occupancy(OccupancyModel::for_persona(Persona::Worker).with_vacation(0, 2));
        let home = Home::simulate(&cfg);
        assert_eq!(home.occupancy.positive_rate(), 0.0);
        // Fridge/freezer/HRV still cycle: nonzero mean power.
        assert!(home.aggregate.mean_watts() > 50.0);
        // But no interactive activations at all.
        for d in &home.devices {
            assert!(d.activations.is_empty(), "{} ran while empty", d.name);
        }
    }

    #[test]
    fn occupied_periods_use_more_power() {
        let home = Home::simulate(&HomeConfig::new(5).days(14).intensity(1.5));
        let aligned = timeseries::aligned(&home.meter, &home.occupancy).unwrap();
        let (on, off) = aligned.partition();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&on) > mean(&off) + 30.0,
            "occupied {:.0} W vs empty {:.0} W",
            mean(&on),
            mean(&off)
        );
    }

    #[test]
    fn interactive_aggregate_strips_background() {
        let home = Home::simulate(&HomeConfig::new(6).days(2));
        let interactive = home.interactive_aggregate();
        // Must be no larger than the total anywhere.
        for i in 0..interactive.len() {
            assert!(interactive.watts(i) <= home.aggregate.watts(i) + 1e-9);
        }
    }

    #[test]
    fn intensity_differentiates_homes() {
        let quiet = Home::simulate(&HomeConfig::new(8).days(7).intensity(0.5));
        let busy = Home::simulate(&HomeConfig::new(8).days(7).intensity(2.0));
        assert!(busy.aggregate.energy_kwh() > quiet.aggregate.energy_kwh());
    }
}
