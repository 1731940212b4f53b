//! The core load-model abstraction.

use serde::{Deserialize, Serialize};

/// The fundamental electrical type of a load (Barker et al. IGCC'13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadKind {
    /// Flat draw while on (heating elements, incandescent lighting).
    Resistive,
    /// Startup spike decaying to a steady motor draw.
    Inductive,
    /// A thermostat duty-cycles an inner element.
    Cyclical,
    /// Electronics with a fluctuating draw.
    NonLinear,
    /// A sequence of phases, each its own load.
    Composite,
}

impl std::fmt::Display for LoadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LoadKind::Resistive => "resistive",
            LoadKind::Inductive => "inductive",
            LoadKind::Cyclical => "cyclical",
            LoadKind::NonLinear => "non-linear",
            LoadKind::Composite => "composite",
        };
        f.write_str(s)
    }
}

/// A deterministic power profile: instantaneous draw as a function of time
/// since switch-on.
///
/// Implementations must be pure (no interior mutability), so the same model
/// drives both simulation and PowerPlay's model-based tracking. The trait is
/// object-safe; composite loads store `Box<dyn LoadModel>` phases.
pub trait LoadModel: Send + Sync + std::fmt::Debug {
    /// The fundamental electrical type.
    fn kind(&self) -> LoadKind;

    /// The steady-state (plate) power in watts, ignoring transients. For
    /// cyclical loads this is the *on-phase* power, not the duty-cycle
    /// average.
    fn nominal_watts(&self) -> f64;

    /// Instantaneous draw in watts, `elapsed_secs` seconds after switch-on.
    ///
    /// Must return 0 for negative elapsed times and a finite non-negative
    /// value otherwise.
    fn power_at(&self, elapsed_secs: f64) -> f64;

    /// Average draw over one sampling interval `[from, to)` seconds after
    /// switch-on, by midpoint sub-sampling at 1 Hz (adequate because model
    /// transients are ≥ seconds long).
    ///
    /// For whole-second bounds the midpoints lie on the `n + 0.5` grid:
    /// the result is the mean of `power_at(n + 0.5)` for `n` in
    /// `from..to`, summed left to right from `0.0`.
    /// [`render_activations`](crate::render_activations) relies on this:
    /// for repeated activations it sums a per-second table of those
    /// values with the same operations instead of calling this method, so
    /// an override that departs from the default is not consulted there.
    fn average_power(&self, from_secs: f64, to_secs: f64) -> f64 {
        if to_secs <= from_secs {
            return 0.0;
        }
        let span = to_secs - from_secs;
        let steps = span.ceil().max(1.0) as usize;
        let dt = span / steps as f64;
        let mut acc = 0.0;
        for i in 0..steps {
            acc += self.power_at(from_secs + (i as f64 + 0.5) * dt);
        }
        acc / steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Ramp;

    impl LoadModel for Ramp {
        fn kind(&self) -> LoadKind {
            LoadKind::Resistive
        }
        fn nominal_watts(&self) -> f64 {
            100.0
        }
        fn power_at(&self, elapsed_secs: f64) -> f64 {
            if elapsed_secs < 0.0 {
                0.0
            } else {
                elapsed_secs
            }
        }
    }

    #[test]
    fn average_power_integrates() {
        // Average of a ramp over [0, 10) is ~5.
        let avg = Ramp.average_power(0.0, 10.0);
        assert!((avg - 5.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn average_power_empty_interval() {
        assert_eq!(Ramp.average_power(5.0, 5.0), 0.0);
        assert_eq!(Ramp.average_power(5.0, 1.0), 0.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(LoadKind::Resistive.to_string(), "resistive");
        assert_eq!(LoadKind::NonLinear.to_string(), "non-linear");
    }

    #[test]
    fn object_safety() {
        let b: Box<dyn LoadModel> = Box::new(Ramp);
        assert_eq!(b.kind(), LoadKind::Resistive);
    }
}
