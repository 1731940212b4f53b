//! Streaming/batch equivalence: the `stream` crate's load-bearing
//! contract, checked across every pipeline family the paper evaluates.
//!
//! For each family — NIOM occupancy detection (Fig. 1), NILM
//! disaggregation (Fig. 2), the CHPr/battery defenses (Fig. 6), traffic
//! fingerprinting and the smart gateway (§IV) — the same input is run
//! through the batch entry point and through chunked streaming ingestion
//! at chunk lengths {1, 7, 60, 1440, whole-trace}, and the outputs are
//! compared *byte-for-byte* (serialized JSON where the output type is
//! serializable, structural equality otherwise). Fault-injected traces
//! with gaps exercise the streaming gap-fill path against
//! `FaultyTrace::fill`, and a checkpoint/restore round-trip mid-trace
//! must resume to the identical output.
//!
//! Every `*_equal` flag in the JSON output is asserted here *and*
//! guarded by a `stream.*` conformance claim, so a divergence fails the
//! experiment, the claims tier, and the golden snapshot at once.

use super::{Report, RunConfig};
use faults::{FaultPlan, GapFill};
use iot_privacy::defense::{BatteryLeveler, Chpr, Defense};
use iot_privacy::homesim::{Home, HomeConfig};
use iot_privacy::loads::Catalogue;
use iot_privacy::netsim::fingerprint::{accuracy, labelled_examples};
use iot_privacy::netsim::{
    simulate_home_network, DeviceClassifier, DeviceType, GatewayPolicy, NaiveBayes, SmartGateway,
};
use iot_privacy::nilm::{train_device_hmm, Disaggregator, Fhmm, FhmmConfig, PowerPlay};
use iot_privacy::niom::{HmmDetector, OccupancyDetector, ThresholdDetector};
use iot_privacy::scenario::EnergyScenario;
use iot_privacy::stream::{
    dense_samples, faulty_samples, feed_chunked, pair_accuracy, BatteryStream, ChprStream,
    FhmmStream, FingerprintStream, GatewayStream, HmmStream, PowerPlayStream, StreamFill,
    StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy::streaming::StreamingScenario;
use iot_privacy::timeseries::rng::seeded_rng;
use iot_privacy::timeseries::{LabelSeries, PowerTrace, Resolution, Timestamp};

/// The chunk lengths every power pipeline is swept over; `usize::MAX / 2`
/// stands in for "the whole trace in one chunk".
const CHUNK_LENS: [usize; 5] = [1, 7, 60, 1_440, usize::MAX / 2];

/// Serialized-JSON byte equality — the strict form of the contract for
/// serializable outputs.
fn bytes_equal<T: serde::Serialize>(a: &T, b: &T) -> bool {
    serde_json::to_string(a).unwrap() == serde_json::to_string(b).unwrap()
}

/// Streams `samples` through a fresh detector stream per chunk length and
/// requires byte-identical output each time.
fn threshold_all_chunkings(
    detector: &ThresholdDetector,
    spec: StreamSpec,
    samples: &[iot_privacy::stream::Sample],
    fill: Option<StreamFill>,
    batch: &LabelSeries,
) -> bool {
    CHUNK_LENS.iter().all(|&chunk_len| {
        let mut s = ThresholdStream::new(detector.clone(), spec);
        if let Some(fill) = fill {
            s = s.with_fill(fill);
        }
        feed_chunked(&mut s, samples, chunk_len);
        bytes_equal(&s.finalize(), batch)
    })
}

/// Normalized absolute energy error of an estimate against its truth.
fn norm_error(estimate: &PowerTrace, truth: &PowerTrace) -> f64 {
    let abs: f64 = estimate
        .samples()
        .iter()
        .zip(truth.samples())
        .map(|(e, t)| (e - t).abs())
        .sum();
    abs / truth.samples().iter().sum::<f64>().max(1.0)
}

/// Runs the streaming-equivalence experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new();
    let mut rows = Vec::new();
    let mut push = |family: &str, case: &str, equal: bool| {
        rows.push(vec![
            family.to_string(),
            case.to_string(),
            (if equal {
                "byte-identical ✓"
            } else {
                "DIVERGED ✗"
            })
            .to_string(),
        ]);
        assert!(
            equal,
            "{family}/{case}: streaming output diverged from batch"
        );
        equal
    };

    let home = Home::simulate(&HomeConfig::new(cfg.seed(11)).days(3));
    let spec = StreamSpec::of_trace(&home.meter);
    let samples = dense_samples(home.meter.samples());

    // -- NIOM (Fig. 1 / §II-A) -------------------------------------------
    let threshold = ThresholdDetector::default();
    let batch_labels = threshold.detect(&home.meter);
    let threshold_equal = threshold_all_chunkings(&threshold, spec, &samples, None, &batch_labels);
    push("niom", "threshold, all chunk lens", threshold_equal);

    let hmm = HmmDetector::default();
    let hmm_batch = hmm.detect(&home.meter);
    let mut hmm_stream = HmmStream::new(hmm.clone(), spec);
    feed_chunked(&mut hmm_stream, &samples, 97);
    let hmm_equal = push(
        "niom",
        "hmm, chunk 97",
        bytes_equal(&hmm_stream.finalize(), &hmm_batch),
    );

    let batch_conf = home.occupancy.confusion(&batch_labels).expect("aligned");
    let mut stream_t = ThresholdStream::new(threshold.clone(), spec);
    feed_chunked(&mut stream_t, &samples, 60);
    let stream_conf = home
        .occupancy
        .confusion(&stream_t.finalize())
        .expect("aligned");

    // -- NILM (Fig. 2) ----------------------------------------------------
    let dev_a = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 600, |i| {
        if i % 40 < 15 {
            150.0
        } else {
            0.0
        }
    });
    let dev_b = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, 600, |i| {
        if i % 90 < 30 {
            1_000.0
        } else {
            0.0
        }
    });
    let nilm_meter = dev_a.checked_add(&dev_b).expect("aligned");
    let nilm_spec = StreamSpec::of_trace(&nilm_meter);
    let nilm_samples = dense_samples(nilm_meter.samples());
    let models = || {
        vec![
            train_device_hmm("a", &dev_a, 2),
            train_device_hmm("b", &dev_b, 2),
        ]
    };

    let fhmm = Fhmm::new(models());
    let fhmm_batch = fhmm.disaggregate(&nilm_meter);
    let exact_equal = CHUNK_LENS.iter().all(|&chunk_len| {
        let mut s = FhmmStream::new(&fhmm, nilm_spec);
        assert!(s.incremental(), "two-device model must decode exactly");
        feed_chunked(&mut s, &nilm_samples, chunk_len);
        s.finalize() == fhmm_batch
    });
    push("nilm", "fhmm exact, all chunk lens", exact_equal);

    let icm = Fhmm::with_config(
        models(),
        FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        },
    );
    let mut icm_stream = FhmmStream::new(&icm, nilm_spec);
    feed_chunked(&mut icm_stream, &nilm_samples, 41);
    let icm_equal = push(
        "nilm",
        "fhmm icm fallback, chunk 41",
        icm_stream.finalize() == icm.disaggregate(&nilm_meter),
    );

    let powerplay = PowerPlay::from_catalogue(&Catalogue::figure2());
    let pp_batch = powerplay.disaggregate(&home.meter);
    let mut pp_stream = PowerPlayStream::new(&powerplay, spec);
    feed_chunked(&mut pp_stream, &samples, 333);
    let powerplay_equal = push(
        "nilm",
        "powerplay, chunk 333",
        pp_stream.finalize() == pp_batch,
    );

    let batch_error =
        (norm_error(&fhmm_batch[0].trace, &dev_a) + norm_error(&fhmm_batch[1].trace, &dev_b)) / 2.0;
    let mut err_stream = FhmmStream::new(&fhmm, nilm_spec);
    feed_chunked(&mut err_stream, &nilm_samples, 60);
    let stream_est = err_stream.finalize();
    let stream_error =
        (norm_error(&stream_est[0].trace, &dev_a) + norm_error(&stream_est[1].trace, &dev_b)) / 2.0;

    // -- Defenses (Fig. 6) -------------------------------------------------
    let defense_seed = cfg.seed(1);
    let chpr_batch = Chpr::default().apply(&home.meter, &mut seeded_rng(defense_seed));
    let chpr_equal = CHUNK_LENS.iter().all(|&chunk_len| {
        let mut s = ChprStream::new(Chpr::default(), defense_seed, spec);
        feed_chunked(&mut s, &samples, chunk_len);
        s.finalize() == chpr_batch
    });
    push("defense", "chpr, all chunk lens", chpr_equal);

    let battery_batch = BatteryLeveler::default().apply(&home.meter, &mut seeded_rng(defense_seed));
    let mut battery_stream = BatteryStream::new(BatteryLeveler::default(), defense_seed, spec);
    feed_chunked(&mut battery_stream, &samples, 777);
    let battery_equal = push(
        "defense",
        "battery, chunk 777",
        battery_stream.finalize() == battery_batch,
    );

    let batch_defended_conf = home
        .occupancy
        .confusion(&threshold.detect(&chpr_batch.trace))
        .expect("aligned");
    let mut defended_stream = ThresholdStream::new(threshold.clone(), spec);
    feed_chunked(
        &mut defended_stream,
        &dense_samples(chpr_batch.trace.samples()),
        60,
    );
    let stream_defended_conf = home
        .occupancy
        .confusion(&defended_stream.finalize())
        .expect("aligned");

    // -- Traffic fingerprinting and the gateway (§IV) ----------------------
    let inventory = DeviceType::all().to_vec();
    let net_train = simulate_home_network(&inventory, &home.occupancy, 3, cfg.seed(100));
    let net_test = simulate_home_network(&inventory, &home.occupancy, 3, cfg.seed(200));
    let classifier = NaiveBayes::train(&labelled_examples(&net_train, 4));
    let batch_examples = labelled_examples(&net_test, 4);
    let batch_acc = accuracy(&classifier, &batch_examples);
    let fingerprint_equal = [1usize, 64, usize::MAX / 2].iter().all(|&chunk_len| {
        let mut s = FingerprintStream::new(&classifier, &net_test, 4);
        feed_chunked(&mut s, &net_test.flows, chunk_len);
        let pairs = s.finalize();
        pair_accuracy(&pairs) == batch_acc
            && pairs.len() == batch_examples.len()
            && pairs
                .iter()
                .zip(batch_examples.iter())
                .all(|((t, p), (bt, bfv))| t == bt && *p == classifier.predict(bfv))
    });
    push("netsim", "fingerprint, all chunk lens", fingerprint_equal);
    let mut acc_stream = FingerprintStream::new(&classifier, &net_test, 4);
    feed_chunked(&mut acc_stream, &net_test.flows, 64);
    let stream_acc = pair_accuracy(&acc_stream.finalize());

    let mut gateway = SmartGateway::new(GatewayPolicy::default());
    gateway.profile(&net_train.flows, net_train.horizon_secs);
    let gateway_batch = gateway.monitor(&net_test.flows, net_test.horizon_secs);
    let mut gw_stream = GatewayStream::new(gateway, net_test.horizon_secs);
    feed_chunked(&mut gw_stream, &net_test.flows, 17);
    let gateway_equal = push(
        "netsim",
        "gateway monitor, chunk 17",
        gw_stream.finalize() == gateway_batch,
    );

    // -- Fault-injected traces with gaps -----------------------------------
    let faulted = FaultPlan::power_profile(0.25).apply_trace(&home.meter, cfg.seed(400));
    let gap_fraction = faulted.gap_fraction();
    assert!(gap_fraction > 0.0, "the fault plan must create gaps");
    let gap_samples = faulty_samples(&faulted);
    let fault_spec = StreamSpec::new(faulted.start(), faulted.resolution());
    let hold_batch = threshold.detect(&faulted.fill(GapFill::Hold));
    let hold_equal = threshold_all_chunkings(
        &threshold,
        fault_spec,
        &gap_samples,
        Some(StreamFill::Hold),
        &hold_batch,
    );
    push(
        "faults",
        "threshold + hold fill, all chunk lens",
        hold_equal,
    );
    let zero_batch = threshold.detect(&faulted.fill(GapFill::Zero));
    let zero_equal = threshold_all_chunkings(
        &threshold,
        fault_spec,
        &gap_samples,
        Some(StreamFill::Zero),
        &zero_batch,
    );
    push(
        "faults",
        "threshold + zero fill, all chunk lens",
        zero_equal,
    );
    let chpr_fault_batch =
        Chpr::default().apply(&faulted.fill(GapFill::Hold), &mut seeded_rng(defense_seed));
    let mut chpr_fault_stream =
        ChprStream::new(Chpr::default(), defense_seed, fault_spec).with_fill(StreamFill::Hold);
    feed_chunked(&mut chpr_fault_stream, &gap_samples, 113);
    let chpr_fault_equal = push(
        "faults",
        "chpr + hold fill, chunk 113",
        chpr_fault_stream.finalize() == chpr_fault_batch,
    );

    // -- Whole scenario + checkpoint/restore -------------------------------
    let scenario_batch = EnergyScenario::new(cfg.seed(33)).days(2).run();
    let scenario_equal = [1usize, 60, 1_440].iter().all(|&chunk_len| {
        let streamed = StreamingScenario::new(cfg.seed(33))
            .days(2)
            .chunk_len(chunk_len)
            .run();
        bytes_equal(&streamed, &scenario_batch)
    });
    push(
        "scenario",
        "streaming scenario, all chunk lens",
        scenario_equal,
    );

    let mut ckpt_stream = ThresholdStream::new(threshold.clone(), spec);
    ckpt_stream.feed(&samples[..1_000]);
    let snapshot = ckpt_stream.checkpoint();
    ckpt_stream.feed(&samples[1_000..]);
    let full = ckpt_stream.finalize();
    ckpt_stream.restore(&snapshot);
    ckpt_stream.feed(&samples[1_000..]);
    let checkpoint_equal = push(
        "scenario",
        "checkpoint/restore mid-trace",
        bytes_equal(&ckpt_stream.finalize(), &full) && bytes_equal(&full, &batch_labels),
    );

    report.table(
        "Streaming vs batch: byte-identical output per pipeline family",
        &["family", "case", "verdict"],
        rows,
    );
    report.note(format!(
        "\nAll pipelines byte-identical across chunk lengths {{1, 7, 60, 1440, whole}}; \
         fault-injected traces ({:.1}% gaps) and checkpoint/restore included. ✓",
        gap_fraction * 100.0
    ));

    let delta_max = (batch_conf.accuracy() - stream_conf.accuracy())
        .abs()
        .max((batch_conf.mcc() - stream_conf.mcc()).abs())
        .max((batch_error - stream_error).abs())
        .max((batch_acc - stream_acc).abs())
        .max((batch_defended_conf.mcc() - stream_defended_conf.mcc()).abs());
    report.json = serde_json::json!({
        "experiment": "stream_equivalence",
        "chunk_lens": [1, 7, 60, 1440, "whole"],
        "niom": {
            "threshold_equal": threshold_equal,
            "hmm_equal": hmm_equal,
            "batch_accuracy": batch_conf.accuracy(),
            "stream_accuracy": stream_conf.accuracy(),
            "batch_mcc": batch_conf.mcc(),
            "stream_mcc": stream_conf.mcc(),
        },
        "nilm": {
            "exact_equal": exact_equal,
            "icm_equal": icm_equal,
            "powerplay_equal": powerplay_equal,
            "batch_error": batch_error,
            "stream_error": stream_error,
        },
        "defense": {
            "chpr_equal": chpr_equal,
            "battery_equal": battery_equal,
            "batch_defended_mcc": batch_defended_conf.mcc(),
            "stream_defended_mcc": stream_defended_conf.mcc(),
        },
        "netsim": {
            "fingerprint_equal": fingerprint_equal,
            "gateway_equal": gateway_equal,
            "batch_accuracy": batch_acc,
            "stream_accuracy": stream_acc,
        },
        "faults": {
            "hold_equal": hold_equal,
            "zero_equal": zero_equal,
            "chpr_equal": chpr_fault_equal,
            "gap_fraction": gap_fraction,
        },
        "scenario": {
            "equal": scenario_equal,
            "checkpoint_equal": checkpoint_equal,
        },
        "metric_delta_max": delta_max,
    });
    report
}
