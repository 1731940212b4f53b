//! Rendering load models into power traces.

use crate::activation::Activation;
use crate::model::LoadModel;
use timeseries::{PowerTrace, Resolution, Timestamp};

/// Renders a device's ground-truth trace from its activation schedule.
///
/// Each output sample is the model's average power over that sampling
/// interval, summed across any activations covering it (overlapping
/// activations stack, which is physically right for e.g. a two-burner
/// cooktop modelled as repeated activations).
///
/// Activations and resolutions are whole seconds, so every interval an
/// activation covers in a sample runs from a whole second `from` to a
/// whole second `to` after switch-on, and
/// [`LoadModel::average_power`] over it is the mean of
/// `power_at(n + 0.5)` for `n` in `from..to`. Repeated activations read
/// those values from a per-second table, `p[n] = power_at(n + 0.5)`,
/// filled once over the seconds that the two longest activations
/// starting inside the trace both reach. A sample inside the table sums
/// `p[from..to]` left to right from `0.0` and divides by `to - from`,
/// exactly the default `average_power`'s operations, so every bit
/// matches the per-slot evaluation. Seconds past the table, and a lone
/// activation, call `average_power` as before. The table never makes
/// more `power_at` calls than the per-slot evaluation: the second
/// longest activation reads all of its seconds from it.
///
/// # Examples
///
/// ```
/// use loads::{render_activations, Activation, ResistiveLoad};
/// use timeseries::{Resolution, Timestamp};
///
/// let toaster = ResistiveLoad::new(1_500.0);
/// let trace = render_activations(
///     &toaster,
///     &[Activation::new(Timestamp::from_secs(120), 180)],
///     Timestamp::ZERO,
///     Resolution::ONE_MINUTE,
///     10,
/// );
/// assert_eq!(trace.watts(0), 0.0);
/// assert_eq!(trace.watts(2), 1_500.0);
/// assert_eq!(trace.watts(5), 0.0);
/// ```
pub fn render_activations(
    model: &dyn LoadModel,
    activations: &[Activation],
    start: Timestamp,
    resolution: Resolution,
    len: usize,
) -> PowerTrace {
    let res = resolution.as_secs() as u64;
    let trace_start = start.as_secs();
    let table = profile_table(model, activations, trace_start, len as u64 * res);
    let mut samples = vec![0.0; len];
    for act in activations {
        let act_start = act.start.as_secs();
        let act_end = act.end().as_secs();
        // Sample indices potentially covered by this activation.
        let first = act_start.saturating_sub(trace_start) / res;
        let last = act_end
            .saturating_sub(trace_start)
            .div_ceil(res)
            .min(len as u64);
        for (i, slot) in samples
            .iter_mut()
            .enumerate()
            .take(last as usize)
            .skip(first as usize)
        {
            let slot_start = trace_start + i as u64 * res;
            let slot_end = slot_start + res;
            let lo = slot_start.max(act_start);
            let hi = slot_end.min(act_end);
            if hi <= lo {
                continue;
            }
            let (from, to) = (lo - act_start, hi - act_start);
            let average = match table.get(from as usize..to as usize) {
                Some(seconds) => seconds.iter().fold(0.0, |acc, p| acc + p) / (to - from) as f64,
                None => model.average_power(from as f64, to as f64),
            };
            // Average over the covered part, scaled by coverage fraction so
            // the sample stays an interval average.
            let covered = average * (to - from) as f64 / res as f64;
            *slot += covered;
        }
    }
    PowerTrace::new(start, resolution, samples).expect("load models produce finite power")
}

/// The per-second profile table of [`render_activations`]:
/// `p[n] = model.power_at(n + 0.5)` for `n` below the reach of the second
/// longest activation that starts inside the trace's `span` seconds from
/// `trace_start`, clipped to the trace. Empty when fewer than two
/// activations start inside it.
fn profile_table(
    model: &dyn LoadModel,
    activations: &[Activation],
    trace_start: u64,
    span: u64,
) -> Vec<f64> {
    let trace_end = trace_start + span;
    let mut longest = [0; 2];
    for act in activations {
        let act_start = act.start.as_secs();
        if act_start < trace_start || act_start >= trace_end {
            continue;
        }
        let reach = act.end().as_secs().min(trace_end) - act_start;
        if reach > longest[0] {
            longest = [reach, longest[0]];
        } else if reach > longest[1] {
            longest[1] = reach;
        }
    }
    (0..longest[1])
        .map(|n| model.power_at(n as f64 + 0.5))
        .collect()
}

/// Renders a device that is on for the entire span (background loads such
/// as refrigerators, freezers, and ventilation).
///
/// Sample `i` covers seconds `[i·res, (i+1)·res)` after switch-on whatever
/// `start` is, so a shorter render is a prefix of a longer one at the same
/// resolution. [`Appliance::render_always_on`](crate::Appliance::render_always_on)
/// memoises renders on that basis.
pub fn render_always_on(
    model: &dyn LoadModel,
    start: Timestamp,
    resolution: Resolution,
    len: usize,
) -> PowerTrace {
    let span = len as u64 * resolution.as_secs() as u64;
    if span == 0 {
        return PowerTrace::zeros(start, resolution, len);
    }
    render_activations(
        model,
        &[Activation::new(start, span)],
        start,
        resolution,
        len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclical::CyclicalLoad;
    use crate::inductive::InductiveLoad;
    use crate::resistive::ResistiveLoad;

    #[test]
    fn partial_sample_coverage_scales() {
        // 90-second activation starting at t=30 in a 1-minute trace:
        // sample 0 covers 30 s of the activation → 750 W average.
        let toaster = ResistiveLoad::new(1_500.0);
        let t = render_activations(
            &toaster,
            &[Activation::new(Timestamp::from_secs(30), 90)],
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            3,
        );
        assert!((t.watts(0) - 750.0).abs() < 1e-9);
        assert!((t.watts(1) - 1_500.0).abs() < 1e-9);
        assert_eq!(t.watts(2), 0.0);
    }

    #[test]
    fn energy_conserved() {
        // 1500 W for exactly 10 minutes = 0.25 kWh regardless of alignment.
        let toaster = ResistiveLoad::new(1_500.0);
        let t = render_activations(
            &toaster,
            &[Activation::new(Timestamp::from_secs(137), 600)],
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            30,
        );
        assert!((t.energy_kwh() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn overlapping_activations_stack() {
        let burner = ResistiveLoad::new(1_000.0);
        let t = render_activations(
            &burner,
            &[
                Activation::new(Timestamp::ZERO, 120),
                Activation::new(Timestamp::ZERO, 120),
            ],
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            2,
        );
        assert!((t.watts(0) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn activation_outside_trace_ignored() {
        let l = ResistiveLoad::new(500.0);
        let t = render_activations(
            &l,
            &[Activation::new(Timestamp::from_secs(10_000), 60)],
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            5,
        );
        assert_eq!(t.samples().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn always_on_fridge_duty_average() {
        let fridge = CyclicalLoad::new(InductiveLoad::new(120.0, 120.0, 1.0), 1_500.0, 0.4, 0.0);
        let t = render_always_on(
            &fridge,
            Timestamp::ZERO,
            Resolution::ONE_MINUTE,
            1_500 / 60 * 10,
        );
        // Ten full cycles at 40% duty of 120 W ≈ 48 W mean.
        assert!(
            (t.mean_watts() - 48.0).abs() < 2.0,
            "mean {}",
            t.mean_watts()
        );
    }

    #[test]
    fn empty_render() {
        let l = ResistiveLoad::new(100.0);
        let t = render_always_on(&l, Timestamp::ZERO, Resolution::ONE_MINUTE, 0);
        assert!(t.is_empty());
    }
}
