//! `render_activations` reads repeated activations from a per-second
//! table of `power_at(n + 0.5)`. These tests hold it to the per-slot
//! evaluation it replaces, one `LoadModel::average_power` call per
//! covered sample: every bit of every sample equal, and never more
//! `power_at` calls.

use loads::{
    render_activations, Activation, CompositeLoad, CyclicalLoad, InductiveLoad, LoadKind,
    LoadModel, NonLinearLoad, Phase, ResistiveLoad,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use timeseries::{Resolution, Timestamp};

/// The per-slot renderer: each sample an activation covers is one
/// `average_power` call over the covered seconds, scaled by the share of
/// the sample they cover.
fn per_slot(
    model: &dyn LoadModel,
    activations: &[Activation],
    start: Timestamp,
    resolution: Resolution,
    len: usize,
) -> Vec<f64> {
    let res = resolution.as_secs() as u64;
    let trace_start = start.as_secs();
    let mut samples = vec![0.0; len];
    for act in activations {
        let act_start = act.start.as_secs();
        let act_end = act.end().as_secs();
        let first = act_start.saturating_sub(trace_start) / res;
        let last = act_end
            .saturating_sub(trace_start)
            .div_ceil(res)
            .min(len as u64);
        for i in first..last {
            let slot_start = trace_start + i * res;
            let lo = slot_start.max(act_start);
            let hi = (slot_start + res).min(act_end);
            if hi <= lo {
                continue;
            }
            let from = (lo - act_start) as f64;
            let to = (hi - act_start) as f64;
            samples[i as usize] += model.average_power(from, to) * (to - from) / res as f64;
        }
    }
    samples
}

/// A model that counts its `power_at` calls.
#[derive(Debug)]
struct Counting {
    inner: Box<dyn LoadModel>,
    calls: AtomicUsize,
}

impl Counting {
    fn new(inner: Box<dyn LoadModel>) -> Self {
        Counting {
            inner,
            calls: AtomicUsize::new(0),
        }
    }

    /// The calls since the last `take`.
    fn take(&self) -> usize {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl LoadModel for Counting {
    fn kind(&self) -> LoadKind {
        self.inner.kind()
    }
    fn nominal_watts(&self) -> f64 {
        self.inner.nominal_watts()
    }
    fn power_at(&self, elapsed_secs: f64) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.power_at(elapsed_secs)
    }
}

/// One model of every kind: a cyclical load with a phase, and a composite
/// whose phases end between two midpoints, under an overlay.
fn models() -> Vec<Counting> {
    let element = |watts: f64, spike: f64, tau: f64| InductiveLoad::new(watts, spike, tau);
    let kinds: Vec<Box<dyn LoadModel>> = vec![
        Box::new(ResistiveLoad::new(1_500.0)),
        Box::new(element(450.0, 1_200.0, 5.0)),
        Box::new(
            CyclicalLoad::new(element(120.0, 500.0, 4.0), 1_500.0, 0.4, 0.0).with_phase(377.25),
        ),
        Box::new(NonLinearLoad::new(150.0, 40.0)),
        Box::new(
            CompositeLoad::new(vec![
                Phase::new(600.25, Box::new(element(200.0, 600.0, 4.0))),
                Phase::new(
                    900.75,
                    Box::new(CyclicalLoad::new(
                        element(5_000.0, 5_000.0, 1.0),
                        300.0,
                        0.7,
                        0.0,
                    )),
                ),
                Phase::new(420.0, Box::new(NonLinearLoad::new(80.0, 20.0))),
            ])
            .with_overlay(Box::new(element(300.0, 900.0, 3.0))),
        ),
    ];
    kinds.into_iter().map(Counting::new).collect()
}

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|w| w.to_bits()).collect()
}

/// Renders `activations` both ways with every model, asserting equal bits
/// and no more `power_at` calls from the table. Returns the calls of the
/// table renderer and of the per-slot one, summed over the models.
fn check(
    activations: &[Activation],
    start: Timestamp,
    resolution: Resolution,
    len: usize,
) -> (usize, usize) {
    let (mut table_calls, mut slot_calls) = (0, 0);
    for model in models() {
        let trace = render_activations(&model, activations, start, resolution, len);
        let table = model.take();
        let expected = per_slot(&model, activations, start, resolution, len);
        let direct = model.take();
        let kind = model.kind();
        assert_eq!(trace.start(), start, "{kind}");
        assert_eq!(trace.resolution(), resolution, "{kind}");
        assert_eq!(bits(trace.samples()), bits(&expected), "{kind}");
        assert!(table <= direct, "{kind}: {table} calls > {direct}");
        table_calls += table;
        slot_calls += direct;
    }
    (table_calls, slot_calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Overlapping activations that may start before the trace or run past
    /// its end, optionally with two as long as the trace, at resolutions
    /// of 1 s to an hour and trace starts at odd seconds.
    #[test]
    fn tabulated_render_equals_the_per_slot_render(
        res in prop_oneof![Just(1u32), Just(7u32), Just(60u32), Just(900u32), Just(3_600u32)],
        half_start in 1_500u64..40_000,
        span in 0u64..7_200,
        acts in prop::collection::vec((0u64..10_800, 1u64..1_500), 0..41),
        trace_long in any::<bool>(),
    ) {
        let resolution = Resolution::from_secs(res);
        let start = Timestamp::from_secs(2 * half_start + 1);
        let len = (span / res as u64) as usize;
        let trace_span = len as u64 * res as u64;
        // Offsets from 3,000 s before the trace to 600 s past its end.
        let mut activations: Vec<Activation> = acts
            .iter()
            .map(|&(offset, duration)| {
                let at = start.as_secs() + offset % (trace_span + 3_600) - 3_000;
                Activation::new(Timestamp::from_secs(at), duration)
            })
            .collect();
        if trace_long && trace_span > 0 {
            activations.push(Activation::new(start, trace_span));
            activations.insert(activations.len() / 2, Activation::new(start, trace_span));
        }
        check(&activations, start, resolution, len);
    }
}

/// A day of fridge cycles reads each second of the on-phase once, not
/// once per cycle.
#[test]
fn repeated_cycles_evaluate_each_second_once() {
    let activations: Vec<Activation> = (0..58)
        .map(|k| Activation::new(Timestamp::from_secs(k * 1_490 + k % 7), 560 + k % 11 * 10))
        .collect();
    let (table, direct) = check(&activations, Timestamp::ZERO, Resolution::ONE_MINUTE, 1_440);
    assert!(table * 20 < direct, "{table} calls against {direct}");
}

/// A lone activation, or one beside activations that started before the
/// trace, is evaluated second by second as before.
#[test]
fn a_lone_activation_makes_the_same_calls() {
    let day = Resolution::ONE_MINUTE;
    let start = Timestamp::from_secs(7_201);
    let lone = [Activation::new(start, 86_400)];
    let (table, direct) = check(&lone, start, day, 1_440);
    assert_eq!(table, direct);
    let clipped = [
        Activation::new(Timestamp::from_secs(1), 9_000),
        Activation::new(Timestamp::from_secs(3), 9_000),
        Activation::new(start + 60, 3_000),
    ];
    let (table, direct) = check(&clipped, start, day, 1_440);
    assert_eq!(table, direct);
}
