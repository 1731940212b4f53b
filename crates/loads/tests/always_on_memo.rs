//! `Appliance::render_always_on` serves renders from a memo its clones
//! share. Whatever the memo holds, each render must equal a fresh
//! `render_always_on` of the appliance's model bit for bit.

use loads::{
    render_always_on, Appliance, ApplianceCategory, LoadKind, LoadModel, LoadSignature,
    NonLinearLoad,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use timeseries::{PowerTrace, Resolution, Timestamp};

const DAY: usize = 1_440;

fn bits(trace: &PowerTrace) -> (Timestamp, Resolution, Vec<u64>) {
    let samples = trace.samples().iter().map(|w| w.to_bits()).collect();
    (trace.start(), trace.resolution(), samples)
}

/// Renders through the memo and checks the result against a fresh render.
fn render(appliance: &Appliance, start: Timestamp, resolution: Resolution, len: usize) {
    let served = appliance.render_always_on(start, resolution, len);
    let fresh = render_always_on(appliance.model().as_ref(), start, resolution, len);
    assert_eq!(
        bits(&served),
        bits(&fresh),
        "{} at {start:?}, {resolution:?}, {len} samples",
        appliance.name()
    );
}

#[test]
fn a_prefix_after_a_longer_render_equals_a_fresh_render() {
    for appliance in [Appliance::hrv(), Appliance::fridge()] {
        render(&appliance, Timestamp::ZERO, Resolution::ONE_MINUTE, 3 * DAY);
        for len in [3 * DAY, DAY + 7, 1, 0] {
            render(&appliance, Timestamp::ZERO, Resolution::ONE_MINUTE, len);
        }
    }
}

#[test]
fn a_longer_render_after_a_shorter_one_equals_a_fresh_render() {
    let hrv = Appliance::hrv();
    for len in [0, 5, DAY, 2 * DAY + 11, 4 * DAY, DAY] {
        render(&hrv, Timestamp::ZERO, Resolution::ONE_MINUTE, len);
    }
}

#[test]
fn another_resolution_equals_a_fresh_render() {
    let hrv = Appliance::hrv();
    let resolutions = [60, 1, 900, 7, 60, 3_600, 1, 900].map(Resolution::from_secs);
    for (k, resolution) in resolutions.into_iter().enumerate() {
        let len = resolution.samples_in((1 + k as u64 % 3) * 86_400 / 4);
        render(&hrv, Timestamp::ZERO, resolution, len);
    }
}

#[test]
fn another_start_equals_a_fresh_render() {
    let hrv = Appliance::hrv();
    for (secs, len) in [
        (0, 2 * DAY),
        (86_400 * 3 + 17, DAY),
        (1, 3 * DAY),
        (59, DAY / 2),
    ] {
        render(
            &hrv,
            Timestamp::from_secs(secs),
            Resolution::ONE_MINUTE,
            len,
        );
    }
}

/// A model that counts its `power_at` calls.
#[derive(Debug)]
struct Counting {
    inner: NonLinearLoad,
    calls: Arc<AtomicUsize>,
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

#[test]
fn clones_evaluate_the_profile_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let model = Counting {
        inner: NonLinearLoad::new(100.0, 35.0),
        calls: Arc::clone(&calls),
    };
    let fan = Appliance::new(
        "fan",
        ApplianceCategory::Background,
        Arc::new(model),
        None,
        LoadSignature::resistive("fan", 100.0, (3_600, 86_400)),
    );
    let twin = fan.clone();
    let first = fan.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, DAY);
    assert_eq!(calls.load(Ordering::Relaxed), 86_400, "one call per second");
    let again = twin.render_always_on(Timestamp::from_secs(86_400), Resolution::ONE_MINUTE, DAY);
    let prefix = twin.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, DAY / 3);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        86_400,
        "the clone rendered again"
    );
    assert_eq!(first.samples(), again.samples());
    assert_eq!(prefix.samples(), &first.samples()[..DAY / 3]);
    assert_eq!(again.start(), Timestamp::from_secs(86_400));

    // A longer horizon renders once more and replaces the kept render.
    twin.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, 2 * DAY);
    assert_eq!(calls.load(Ordering::Relaxed), 3 * 86_400);
    fan.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, 2 * DAY);
    fan.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, 3 * DAY / 2);
    assert_eq!(
        calls.load(Ordering::Relaxed),
        3 * 86_400,
        "the longer render was not kept"
    );

    // A separately built appliance keeps its own memo.
    let other = Appliance::new(
        "fan",
        ApplianceCategory::Background,
        Arc::clone(fan.model()),
        None,
        fan.signature().clone(),
    );
    other.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, DAY);
    assert_eq!(calls.load(Ordering::Relaxed), 4 * 86_400);
}

#[test]
fn debug_leaves_the_memo_out() {
    let hrv = Appliance::hrv();
    let before = format!("{hrv:?}");
    hrv.render_always_on(Timestamp::ZERO, Resolution::ONE_MINUTE, DAY);
    assert_eq!(format!("{hrv:?}"), before);
    assert!(before.contains("\"hrv\""), "{before}");
}
