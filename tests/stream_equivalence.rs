//! The streaming layer's load-bearing contract, end to end: for every
//! pipeline the suite ships — NIOM detection, FHMM/PowerPlay NILM, the
//! CHPr/battery defenses, flow fingerprinting, the smart gateway, and the
//! supervised fleet — chunked streaming ingestion must produce output
//! **byte-identical** to the batch entry point, for any chunking,
//! including fault-injected traces with gaps. Where the output type is
//! serializable the comparison is literal serialized bytes; elsewhere it
//! is structural equality over every field.
//!
//! Thread-count independence is covered by CI, which runs this whole
//! suite under `RAYON_NUM_THREADS=1` (the fleet's serial reference) and
//! `=8`; `crates/iot-privacy/tests/fleet_determinism.rs` sweeps the
//! streaming fleet across thread counts in-process.

use faults::{FaultPlan, GapFill};
use iot_privacy_suite::defense::{BatteryLeveler, Chpr, Defense};
use iot_privacy_suite::homesim::{Home, HomeConfig, Persona};
use iot_privacy_suite::loads::Catalogue;
use iot_privacy_suite::netsim::fingerprint::{accuracy, labelled_examples};
use iot_privacy_suite::netsim::{
    simulate_home_network, DeviceType, GatewayPolicy, NaiveBayes, SmartGateway,
};
use iot_privacy_suite::nilm::{train_device_hmm, Disaggregator, Fhmm, FhmmConfig, PowerPlay};
use iot_privacy_suite::niom::{
    HmmDetector, LogisticDetector, OccupancyDetector, ThresholdDetector,
};
use iot_privacy_suite::run_fleet;
use iot_privacy_suite::scenario::EnergyScenario;
use iot_privacy_suite::stream::{
    dense_samples, faulty_samples, feed_chunked, pair_accuracy, BatteryStream, ChprStream,
    FhmmStream, FingerprintStream, GatewayStream, HmmStream, LogisticStream, PowerPlayStream,
    Sample, StreamFill, StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy_suite::streaming::StreamingScenario;
use iot_privacy_suite::timeseries::rng::{derive_seed, seeded_rng};
use iot_privacy_suite::timeseries::{PowerTrace, Resolution, Timestamp};

/// The chunk lengths the contract is exercised at; `usize::MAX / 2`
/// plays the whole trace in a single chunk.
const CHUNK_LENS: [usize; 5] = [1, 7, 60, 1_440, usize::MAX / 2];

fn json_bytes<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable output")
}

fn test_home() -> Home {
    Home::simulate(&HomeConfig::new(424_242).days(3).persona(Persona::Worker))
}

#[test]
fn niom_streams_are_byte_identical_to_batch_at_every_chunking() {
    let home = test_home();
    let spec = StreamSpec::of_trace(&home.meter);
    let samples = dense_samples(home.meter.samples());

    let threshold = ThresholdDetector::default();
    let hmm = HmmDetector::default();
    let logistic = LogisticDetector::train(&[(&home.meter, &home.occupancy)], 60);

    let threshold_batch = json_bytes(&threshold.detect(&home.meter));
    let hmm_batch = json_bytes(&hmm.detect(&home.meter));
    let logistic_batch = json_bytes(&logistic.detect(&home.meter));

    for chunk_len in CHUNK_LENS {
        let mut t = ThresholdStream::new(threshold.clone(), spec);
        feed_chunked(&mut t, &samples, chunk_len);
        assert_eq!(
            json_bytes(&t.finalize()),
            threshold_batch,
            "threshold, chunk {chunk_len}"
        );

        let mut h = HmmStream::new(hmm.clone(), spec);
        feed_chunked(&mut h, &samples, chunk_len);
        assert_eq!(
            json_bytes(&h.finalize()),
            hmm_batch,
            "hmm, chunk {chunk_len}"
        );

        let mut l = LogisticStream::new(logistic.clone(), spec);
        feed_chunked(&mut l, &samples, chunk_len);
        assert_eq!(
            json_bytes(&l.finalize()),
            logistic_batch,
            "logistic, chunk {chunk_len}"
        );
    }
}

fn two_device_meter() -> (PowerTrace, PowerTrace, PowerTrace) {
    let a = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 700, |i| {
        if i % 45 < 12 {
            180.0
        } else {
            0.0
        }
    });
    let b = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 700, |i| {
        if i % 100 < 35 {
            950.0
        } else {
            0.0
        }
    });
    let meter = a.checked_add(&b).expect("aligned");
    (a, b, meter)
}

#[test]
fn fhmm_streams_match_batch_in_both_decode_modes() {
    let (a, b, meter) = two_device_meter();
    let spec = StreamSpec::of_trace(&meter);
    let samples = dense_samples(meter.samples());
    let models = || vec![train_device_hmm("a", &a, 2), train_device_hmm("b", &b, 2)];

    // Exact joint Viterbi: genuinely incremental.
    let exact = Fhmm::new(models());
    let exact_batch = exact.disaggregate(&meter);
    for chunk_len in CHUNK_LENS {
        let mut s = FhmmStream::new(&exact, spec);
        assert!(s.incremental());
        feed_chunked(&mut s, &samples, chunk_len);
        assert_eq!(s.finalize(), exact_batch, "exact fhmm, chunk {chunk_len}");
    }

    // ICM fallback: buffer-and-replay, still byte-identical.
    let icm = Fhmm::with_config(
        models(),
        FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        },
    );
    let icm_batch = icm.disaggregate(&meter);
    for chunk_len in CHUNK_LENS {
        let mut s = FhmmStream::new(&icm, spec);
        assert!(!s.incremental());
        feed_chunked(&mut s, &samples, chunk_len);
        assert_eq!(s.finalize(), icm_batch, "icm fhmm, chunk {chunk_len}");
    }
}

#[test]
fn powerplay_stream_matches_batch_at_every_chunking() {
    let home = test_home();
    let powerplay = PowerPlay::from_catalogue(&Catalogue::figure2());
    let batch = powerplay.disaggregate(&home.meter);
    let samples = dense_samples(home.meter.samples());
    for chunk_len in CHUNK_LENS {
        let mut s = PowerPlayStream::new(&powerplay, StreamSpec::of_trace(&home.meter));
        feed_chunked(&mut s, &samples, chunk_len);
        assert_eq!(s.finalize(), batch, "powerplay, chunk {chunk_len}");
    }
}

#[test]
fn defense_streams_replay_the_batch_rng_schedule_exactly() {
    let home = test_home();
    let spec = StreamSpec::of_trace(&home.meter);
    let samples = dense_samples(home.meter.samples());
    let seed = derive_seed(424_242, "defense");

    let chpr_batch = Chpr::default().apply(&home.meter, &mut seeded_rng(seed));
    let battery_batch = BatteryLeveler::default().apply(&home.meter, &mut seeded_rng(seed));
    for chunk_len in CHUNK_LENS {
        let mut c = ChprStream::new(Chpr::default(), seed, spec);
        feed_chunked(&mut c, &samples, chunk_len);
        let defended = c.finalize();
        assert_eq!(defended, chpr_batch, "chpr, chunk {chunk_len}");
        assert_eq!(
            defended.cost, chpr_batch.cost,
            "chpr cost, chunk {chunk_len}"
        );

        let mut b = BatteryStream::new(BatteryLeveler::default(), seed, spec);
        feed_chunked(&mut b, &samples, chunk_len);
        assert_eq!(b.finalize(), battery_batch, "battery, chunk {chunk_len}");
    }
}

#[test]
fn fault_injected_gap_chunks_match_batch_gap_fill() {
    let home = test_home();
    let faulted = FaultPlan::power_profile(0.35).apply_trace(&home.meter, 99);
    assert!(faulted.gap_fraction() > 0.0, "fault plan must create gaps");
    let samples = faulty_samples(&faulted);
    let spec = StreamSpec::new(faulted.start(), faulted.resolution());
    let threshold = ThresholdDetector::default();

    for (stream_fill, batch_fill) in [
        (StreamFill::Zero, GapFill::Zero),
        (StreamFill::Hold, GapFill::Hold),
    ] {
        let filled = faulted.fill(batch_fill);
        let detect_batch = json_bytes(&threshold.detect(&filled));
        let chpr_batch = Chpr::default().apply(&filled, &mut seeded_rng(5));
        for chunk_len in CHUNK_LENS {
            let mut s = ThresholdStream::new(threshold.clone(), spec).with_fill(stream_fill);
            feed_chunked(&mut s, &samples, chunk_len);
            assert_eq!(
                json_bytes(&s.finalize()),
                detect_batch,
                "threshold {stream_fill:?}, chunk {chunk_len}"
            );

            let mut d = ChprStream::new(Chpr::default(), 5, spec).with_fill(stream_fill);
            feed_chunked(&mut d, &samples, chunk_len);
            assert_eq!(
                d.finalize(),
                chpr_batch,
                "chpr {stream_fill:?}, chunk {chunk_len}"
            );
        }
    }
}

#[test]
fn netsim_streams_match_batch_fingerprint_and_gateway() {
    let home = test_home();
    let inventory = DeviceType::all();
    let train = simulate_home_network(inventory, &home.occupancy, 3, 31);
    let observed = simulate_home_network(inventory, &home.occupancy, 3, 32);
    let classifier = NaiveBayes::train(&labelled_examples(&train, 4));

    let batch_examples = labelled_examples(&observed, 4);
    let batch_acc = accuracy(&classifier, &batch_examples);
    for chunk_len in CHUNK_LENS {
        let mut s = FingerprintStream::new(&classifier, &observed, 4);
        feed_chunked(&mut s, &observed.flows, chunk_len);
        assert_eq!(
            pair_accuracy(&s.finalize()),
            batch_acc,
            "fingerprint accuracy, chunk {chunk_len}"
        );
    }

    let mut gateway = SmartGateway::new(GatewayPolicy::default());
    gateway.profile(&train.flows, train.horizon_secs);
    let batch_verdicts = gateway.monitor(&observed.flows, observed.horizon_secs);
    for chunk_len in CHUNK_LENS {
        let mut s = GatewayStream::new(gateway.clone(), observed.horizon_secs);
        feed_chunked(&mut s, &observed.flows, chunk_len);
        assert_eq!(s.finalize(), batch_verdicts, "gateway, chunk {chunk_len}");
    }
}

#[test]
fn streaming_scenario_report_serializes_byte_identically_to_batch() {
    let batch = json_bytes(&EnergyScenario::new(77).days(2).run());
    for chunk_len in [1, 97, 1_440, usize::MAX / 2] {
        let streamed = StreamingScenario::new(77)
            .days(2)
            .chunk_len(chunk_len)
            .run();
        assert_eq!(json_bytes(&streamed), batch, "chunk {chunk_len}");
    }
}

/// The streaming fleet reproduces the batch fleet at whatever pool size
/// this process runs with: serial at `RAYON_NUM_THREADS=1`, parallel
/// otherwise (CI runs both).
#[test]
fn streaming_fleet_matches_batch_fleet_parallel_and_serial() {
    let batch = run_fleet(6, 2_024, |a| EnergyScenario::new(a.seed).days(1).run())
        .expect("non-empty fleet");
    let batch_bytes = json_bytes(&batch);

    for chunk_len in [60, 1_440] {
        let streamed = run_fleet(6, 2_024, move |a| {
            StreamingScenario::new(a.seed)
                .days(1)
                .chunk_len(chunk_len)
                .run()
        })
        .expect("non-empty fleet");
        assert_eq!(json_bytes(&streamed), batch_bytes, "chunk {chunk_len}");
    }
}

// ---- no-panic contract gaps (empty chunks, all-gap chunks, zero-length
// checkpoints) ----------------------------------------------------------

#[test]
fn empty_chunks_are_no_ops_everywhere() {
    let home = test_home();
    let spec = StreamSpec::of_trace(&home.meter);
    let samples = dense_samples(home.meter.samples());
    let batch = json_bytes(&ThresholdDetector::default().detect(&home.meter));

    let mut s = ThresholdStream::new(ThresholdDetector::default(), spec);
    let report = s.feed(&[]);
    assert_eq!((report.items, report.gaps), (0, 0));
    // Interleave empty chunks with real ones.
    for chunk in samples.chunks(777) {
        s.feed(&[]);
        s.feed(chunk);
        s.feed(&[]);
    }
    assert_eq!(json_bytes(&s.finalize()), batch);

    // Never-fed streams finalize through the typed-error path.
    let empty = ThresholdStream::new(ThresholdDetector::default(), spec);
    assert!(empty.try_finalize().is_err());
}

#[test]
fn all_gap_chunks_finalize_without_panicking() {
    let gap = Sample::gap();
    let all_gaps = vec![gap; 120];
    for fill in [StreamFill::Zero, StreamFill::Hold] {
        let mut s = ThresholdStream::new(
            ThresholdDetector::default(),
            StreamSpec::new(Timestamp::ZERO, Resolution::ONE_MINUTE),
        )
        .with_fill(fill);
        let report = s.feed(&all_gaps);
        assert_eq!((report.items, report.gaps), (120, 120));
        // try_finalize must not unwind: an all-gap trace resolves to a
        // (constant) trace and detection either succeeds aligned or
        // reports a typed error.
        match s.try_finalize() {
            Ok(labels) => assert_eq!(labels.len(), 120, "{fill:?}"),
            Err(e) => assert!(e.stage().is_some(), "{fill:?}"),
        }
    }
}

#[test]
fn zero_length_checkpoint_restores_to_a_fresh_stream() {
    let home = test_home();
    let spec = StreamSpec::of_trace(&home.meter);
    let samples = dense_samples(home.meter.samples());
    let batch = json_bytes(&ThresholdDetector::default().detect(&home.meter));

    let mut s = ThresholdStream::new(ThresholdDetector::default(), spec);
    let blank = s.checkpoint(); // zero items ingested
    feed_chunked(&mut s, &samples, 333);
    assert_eq!(json_bytes(&s.finalize()), batch);

    // Restoring the zero-length snapshot rewinds to an un-fed stream...
    s.restore(&blank);
    assert_eq!(s.items(), 0);
    assert!(s.try_finalize().is_err());
    // ...and replaying from scratch reaches the identical output again.
    feed_chunked(&mut s, &samples, 90);
    assert_eq!(json_bytes(&s.finalize()), batch);
}
