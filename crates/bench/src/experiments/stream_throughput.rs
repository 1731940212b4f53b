//! Streaming-fleet throughput and FHMM decode throughput.
//!
//! Two sections, one artifact:
//!
//! **Fleet ingestion** — samples/sec through chunked ingestion at fleet
//! sizes 10, 100, and 1000 homes, swept over chunk length. The reference
//! is the batch [`run_fleet`] fleet, which rebuilds each home's
//! world and runs the whole pipeline; the streaming side models the actual
//! deployment shape — readings arrive from outside — so each home is
//! simulated once up front (untimed) and the timed region is chunked
//! admission through [`StreamingScenario::run_on`] under the same
//! supervisor. Every streaming run is asserted bit-identical to the batch
//! fleet: chunk length and the admission schedule move wall-clock, never
//! output (the `stream` crate's batch-equivalence contract).
//!
//! **FHMM decode** — the disaggregation hot path in isolation: one
//! 16-joint-state FHMM decoding 128 independent 1-day meters home by home
//! (pinned by the `perf.fhmm-decode-throughput` claim).
//!
//! With the [`obs`] layer enabled (the binary's `--metrics <path>` flag)
//! the JSON additionally records the `stream.chunks` / `stream.samples`
//! counter deltas per run, confirming the chunked path actually carried
//! the ingestion.
//!
//! The JSON output carries wall-clock timings, so the artifact is not a
//! pure function of the seed (`deterministic: false`); the golden tier
//! compares it with timing keys projected away.

use super::{Report, RunConfig};
use crate::table::{Cell, ThroughputTable};
use iot_privacy::fleet::{home_seed, par_map};
use iot_privacy::homesim::{Home, HomeConfig};
use iot_privacy::nilm::{DeviceHmm, Fhmm};
use iot_privacy::scenario::EnergyScenario;
use iot_privacy::streaming::StreamingScenario;
use iot_privacy::timeseries::rng::{derive_seed, normal, seeded_rng};
use iot_privacy::timeseries::{PowerTrace, Resolution, Timestamp};
use iot_privacy::{obs, run_fleet};
use std::time::Instant;

const ROOT_SEED: u64 = 19;
/// Samples per 1-day home at one-minute resolution.
const SAMPLES_PER_HOME: usize = 1_440;
/// The chunk lengths swept per fleet size: one-minute arrival, 4-hour
/// batches, one day (= whole trace) per chunk.
const CHUNK_LENS: [usize; 3] = [60, 240, 1_440];
/// Timed regions are run this many times and the median kept, so a single
/// scheduler hiccup cannot sink a small cell's speedup.
const TIMING_REPS: usize = 3;
/// Meters decoded in the FHMM decode section.
const DECODE_HOMES: usize = 128;

/// Times `f` [`TIMING_REPS`] times and returns the median seconds.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..TIMING_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Runs the streaming-throughput benchmark.
pub fn run(cfg: &RunConfig) -> Report {
    let root_seed = cfg.seed(ROOT_SEED);
    let threads = rayon::current_num_threads();

    let mut table = ThroughputTable::new(&["homes", "chunk len", "samples/s", "vs batch"]);
    let mut json = Vec::new();
    for homes in [10usize, 100, 1000] {
        let t = Instant::now();
        let batch = run_fleet(homes, root_seed, |a| {
            EnergyScenario::new(a.seed).days(1).run()
        })
        .expect("non-empty fleet");
        let batch_s = t.elapsed().as_secs_f64();
        let samples = homes * SAMPLES_PER_HOME;

        // The streaming side admits readings that already exist — simulate
        // the fleet's homes once, untimed. Retried attempts (there are
        // none in this workload) would re-admit the same readings: a
        // gateway cannot resimulate the outside world.
        let worlds: Vec<Home> = par_map((0..homes).collect(), |i| {
            Home::simulate(&HomeConfig::new(home_seed(root_seed, i)).days(1))
        });

        let mut chunk_json = Vec::new();
        for chunk_len in CHUNK_LENS {
            let before = obs::is_enabled().then(obs::snapshot);
            let stream_s = median_seconds(|| {
                let streamed = run_fleet(homes, root_seed, |a| {
                    StreamingScenario::new(a.seed)
                        .days(1)
                        .chunk_len(chunk_len)
                        .run_on(&worlds[a.home])
                })
                .expect("non-empty fleet");
                assert!(
                    streamed == batch,
                    "streaming fleet (chunk_len {chunk_len}) must match the batch fleet"
                );
            });

            let samples_per_sec = samples as f64 / stream_s;
            table.row(&[
                Cell::Count(homes as u64),
                Cell::Count(chunk_len as u64),
                Cell::Rate(samples_per_sec),
                Cell::Speedup(batch_s / stream_s),
            ]);
            let mut entry = serde_json::json!({
                "chunk_len": chunk_len,
                "seconds": stream_s,
                "samples_per_sec": samples_per_sec,
                "homes_per_sec": homes as f64 / stream_s,
                "vs_batch_speedup": batch_s / stream_s,
                "matches_batch": true,
            });
            if let Some(before) = before {
                let after = obs::snapshot();
                let delta = |name: &str| {
                    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
                };
                if let serde_json::Value::Object(map) = &mut entry {
                    map.insert(
                        "obs".to_string(),
                        serde_json::json!({
                            "stream_chunks": delta("stream.chunks"),
                            "stream_samples": delta("stream.samples"),
                        }),
                    );
                }
            }
            chunk_json.push(entry);
        }
        json.push(serde_json::json!({
            "homes": homes,
            "samples": samples,
            "batch_seconds": batch_s,
            "batch_samples_per_sec": samples as f64 / batch_s,
            "chunks": chunk_json,
        }));
    }

    let (decode_json, decode_table) = decode_section(root_seed);

    let mut report = Report::new();
    table.add_to(
        &mut report,
        &format!("Streaming-fleet throughput: 1-day scenarios, {threads} threads"),
    );
    report.note(
        "\nEvery streaming run verified bit-identical to the batch supervised fleet ✓ \
         (chunk length moves wall-clock only, never output; the timed region is chunked \
         admission of already-arrived readings — the batch reference rebuilds each world)",
    );
    decode_table.add_to(
        &mut report,
        &format!(
            "FHMM decode kernel: {DECODE_HOMES} homes x {SAMPLES_PER_HOME} samples, \
             16 joint states"
        ),
    );

    report.json = serde_json::json!({
        "experiment": "stream_throughput",
        "threads": threads,
        "samples_per_home": SAMPLES_PER_HOME,
        "sizes": json,
        "decode": decode_json,
    });
    report
}

/// Four two-state appliance models — 16 joint states, comfortably inside
/// the exact-Viterbi regime.
fn decode_models() -> Vec<DeviceHmm> {
    let mk = |name: &str, watts: f64, stay_off: f64, stay_on: f64| DeviceHmm {
        name: name.to_string(),
        state_watts: vec![0.0, watts],
        log_trans: vec![
            vec![stay_off.ln(), (1.0 - stay_off).ln()],
            vec![(1.0 - stay_on).ln(), stay_on.ln()],
        ],
        log_init: vec![0.9f64.ln(), 0.1f64.ln()],
    };
    vec![
        mk("fridge", 150.0, 0.92, 0.88),
        mk("tv", 120.0, 0.96, 0.93),
        mk("heater", 1_000.0, 0.97, 0.94),
        mk("oven", 2_200.0, 0.995, 0.90),
    ]
}

/// A deterministic noisy meter for decode benchmarking: the four modelled
/// appliances cycling with home-specific phases, plus Gaussian sensor
/// noise.
fn decode_meter(seed: u64, index: usize, len: usize) -> PowerTrace {
    let on = [(40, 14), (60, 22), (90, 25), (240, 18)];
    let watts = [150.0, 120.0, 1_000.0, 2_200.0];
    let clean = PowerTrace::from_fn(Timestamp::ZERO, Resolution::ONE_MINUTE, len, |i| {
        on.iter()
            .zip(watts)
            .enumerate()
            .map(|(d, (&(period, on_len), w))| {
                if (i + index * (7 + 3 * d)) % period < on_len {
                    w
                } else {
                    0.0
                }
            })
            .sum()
    });
    let mut rng = seeded_rng(seed);
    clean.map(|w| (w + normal(&mut rng, 0.0, 25.0)).max(0.0))
}

/// The FHMM decode section: home-by-home decode.
fn decode_section(root_seed: u64) -> (serde_json::Value, ThroughputTable) {
    let meters: Vec<PowerTrace> = (0..DECODE_HOMES)
        .map(|i| {
            decode_meter(
                derive_seed(root_seed, &format!("decode:{i}")),
                i,
                SAMPLES_PER_HOME,
            )
        })
        .collect();
    let samples = DECODE_HOMES * SAMPLES_PER_HOME;
    let model = Fhmm::new(decode_models());
    // Warm-up: builds the cached joint tables and sizes this thread's
    // decode scratch.
    for m in &meters {
        std::hint::black_box(model.decode(m));
    }

    let s = median_seconds(|| {
        for m in &meters {
            std::hint::black_box(model.decode(m));
        }
    });
    let samples_per_sec = samples as f64 / s;
    let mut table = ThroughputTable::new(&["kernel", "precision", "samples/s"]);
    table.row(&[
        Cell::Text("single".into()),
        Cell::Text("f64".into()),
        Cell::Rate(samples_per_sec),
    ]);

    let decode_json = serde_json::json!({
        "devices": decode_models().len(),
        "joint_states": 16,
        "homes": DECODE_HOMES,
        "samples": samples,
        "kernels": [{
            "kernel": "single",
            "precision": "f64",
            "decode_seconds": s,
            "samples_per_sec": samples_per_sec,
        }],
    });
    (decode_json, table)
}
