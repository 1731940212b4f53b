//! Criterion micro-benchmarks for the optimized hot paths: FHMM exact
//! factorial Viterbi, the ICM fallback, the fleet scenario engine, the
//! streaming ingestion layer (the kernels behind the
//! `stream_throughput` experiment, including its `--metrics` mode), and
//! the `fleetd` checkpoint bytes: the frame CRC, framing a checkpoint on
//! eviction, validating it on rehydration, and the whole evict →
//! rehydrate cycle of one home.
//!
//! The FHMM cases reuse one trained model set and one simulated day of
//! meter data so that run-to-run numbers compare the decode kernels, not
//! simulation noise.

use criterion::{criterion_group, criterion_main, Criterion};
use iot_privacy::homesim::{Home, HomeConfig};
use iot_privacy::loads::Catalogue;
use iot_privacy::nilm::{train_device_hmm, Disaggregator, Fhmm, FhmmConfig};
use iot_privacy::niom::ThresholdDetector;
use iot_privacy::run_fleet;
use iot_privacy::scenario::EnergyScenario;
use iot_privacy::stream::{
    dense_samples, feed_chunked, FhmmStream, StreamSpec, StreamState, ThresholdStream,
};
use iot_privacy::streaming::StreamingScenario;
use iot_privacy::timeseries::PowerTrace;

fn bench_hot_paths(c: &mut Criterion) {
    let tracked = Catalogue::figure2();
    let home = Home::simulate(&HomeConfig::new(5).days(3).catalogue(tracked.clone()));
    let models: Vec<_> = home
        .devices
        .iter()
        .map(|d| train_device_hmm(&d.name, &d.trace, 2))
        .collect();
    let day = home.meter.day_slice(1);

    c.bench_function("fhmm/exact_viterbi_1_day", |b| {
        let fhmm = Fhmm::new(models.clone());
        assert!(fhmm.joint_states() <= FhmmConfig::default().max_exact_states);
        b.iter(|| fhmm.disaggregate(&day))
    });

    c.bench_function("fhmm/icm_1_day", |b| {
        // Shrink the exact-inference budget to zero so the same model set
        // exercises the ICM coordinate-descent fallback.
        let config = FhmmConfig {
            max_exact_states: 1,
            ..FhmmConfig::default()
        };
        let fhmm = Fhmm::with_config(models.clone(), config);
        b.iter(|| fhmm.disaggregate(&day))
    });

    // Home-by-home decode of many meters through one model (4 devices,
    // 16 joint states — the stream_throughput decode-section shape). Every
    // decode after the first reuses this thread's warm decode scratch.
    let kernel = Fhmm::new(models.iter().take(4).cloned().collect());
    let kernel_meters: Vec<PowerTrace> = (0..128)
        .map(|i| day.map(|w| w + (i % 13) as f64 * 3.5))
        .collect();

    for &homes in &[8usize, 32, 128] {
        let meters = &kernel_meters[..homes];
        c.bench_function(&format!("fhmm/decode_{homes}_homes_single_f64"), |b| {
            b.iter(|| meters.iter().map(|m| kernel.decode(m)).collect::<Vec<_>>())
        });
    }

    c.bench_function("fleet/10_homes_1_day", |b| {
        b.iter(|| run_fleet(10, 7, |a| EnergyScenario::new(a.seed).days(1).run()))
    });

    // Same fleet with the obs layer recording — the measured number backs
    // the <2 % overhead budget in docs/OBSERVABILITY.md. The per-iteration
    // reset keeps registry memory flat across criterion's iteration loop.
    c.bench_function("fleet/10_homes_1_day_metrics_on", |b| {
        iot_privacy::obs::enable();
        b.iter(|| {
            iot_privacy::obs::reset();
            run_fleet(10, 7, |a| EnergyScenario::new(a.seed).days(1).run())
        });
        iot_privacy::obs::disable();
        iot_privacy::obs::reset();
    });

    // Streaming ingestion kernels: chunked feed + finalize against the
    // same one-day payloads the batch cases above decode.
    let day_samples = dense_samples(day.samples());
    let day_spec = StreamSpec::of_trace(&day);

    c.bench_function("stream/threshold_feed_1_day_chunk60", |b| {
        let detector = ThresholdDetector::default();
        b.iter(|| {
            let mut s = ThresholdStream::new(detector.clone(), day_spec);
            feed_chunked(&mut s, &day_samples, 60);
            s.finalize()
        })
    });

    c.bench_function("stream/fhmm_exact_feed_1_day_chunk60", |b| {
        let fhmm = Fhmm::new(models.clone());
        b.iter(|| {
            let mut s = FhmmStream::new(&fhmm, day_spec);
            feed_chunked(&mut s, &day_samples, 60);
            s.finalize()
        })
    });

    // The stream_throughput experiment's inner loop: a supervised
    // streaming fleet at one-hour chunks.
    c.bench_function("stream/fleet_10_homes_1_day_chunk60", |b| {
        b.iter(|| {
            run_fleet(10, 7, |a| {
                StreamingScenario::new(a.seed).days(1).chunk_len(60).run()
            })
        })
    });

    // Same streaming fleet with the obs layer recording — what
    // `stream_throughput --metrics` measures per chunk-length sweep.
    c.bench_function("stream/fleet_10_homes_1_day_chunk60_metrics_on", |b| {
        iot_privacy::obs::enable();
        b.iter(|| {
            iot_privacy::obs::reset();
            run_fleet(10, 7, |a| {
                StreamingScenario::new(a.seed).days(1).chunk_len(60).run()
            })
        });
        iot_privacy::obs::disable();
        iot_privacy::obs::reset();
    });

    // fleetd's checkpoint bytes. A home with 200 closed windows (3000
    // samples at the default 15-sample window) frames to ~3.2 KB, the
    // size a long-lived home reaches in the `fleet-history` workload.
    let crc_input: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    c.bench_function("fleetd/crc32_64k", |b| {
        b.iter(|| fleetd::store::crc32(&crc_input))
    });

    let detector = ThresholdDetector::default();
    let history: Vec<f64> = (0..200 * detector.window)
        .map(|i| 150.0 + ((i * 37) % 900) as f64)
        .collect();
    let mut home_stream = ThresholdStream::new(detector.clone(), day_spec);
    home_stream.feed(&dense_samples(&history));
    let cp = home_stream.compact_checkpoint();
    assert_eq!(cp.closed.len(), 200);

    c.bench_function("fleetd/frame_checkpoint_200_windows", |b| {
        b.iter(|| fleetd::store::frame_checkpoint(42, 7, &cp))
    });

    let frame = fleetd::store::frame_checkpoint(42, 7, &cp);
    c.bench_function("fleetd/validate_frame_200_windows", |b| {
        b.iter(|| {
            fleetd::store::validate_frame(&frame, 42, 7, detector.window).expect("valid frame")
        })
    });

    // What the service does per cold home and round, minus the feed and
    // the store: consume the stream into its frame, then validate the
    // frame and move the decoded history into a new stream.
    c.bench_function("fleetd/evict_rehydrate_200_windows", |b| {
        let mut live = Some(home_stream.clone());
        b.iter(|| {
            let stream = live.take().expect("restored by the previous cycle");
            let frame = fleetd::store::frame_checkpoint(42, 7, &stream.into_compact());
            let cp =
                fleetd::store::validate_frame(&frame, 42, 7, detector.window).expect("valid frame");
            live = Some(ThresholdStream::from_compact_owned(
                detector.clone(),
                day_spec,
                cp,
            ));
        })
    });
}

criterion_group!(hot_paths, bench_hot_paths);
criterion_main!(hot_paths);
