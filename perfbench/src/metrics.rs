//! Metric names, units, and their derivation from trace records.

use crate::trace::{self, Counters, Record, Span};
use std::collections::{BTreeMap, BTreeSet};

/// End-to-end metrics, from an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("round_ms_p50", "ms"),
    ("digest_s", "s"),
    ("bytes_per_home", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the trace of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleetd.admit.ns_per_sample", "ns/sample"),
    ("fleetd.admit.ns_per_home_round", "ns/home-round"),
    ("fleetd.admit.unattributed_frac", "frac"),
    ("fleetd.bookkeeping.ns_per_round", "ns/round"),
    ("fleetd.digest.ns_per_home", "ns/home"),
    ("fleetd.gen.ns_per_home_round", "ns/home-round"),
    ("stream.feed.ns_per_sample", "ns/sample"),
    ("stream.checkpoint.ns_per_op", "ns/op"),
    ("stream.restore.ns_per_op", "ns/op"),
    ("fleetd.codec.encode.ns_per_op", "ns/op"),
    ("fleetd.codec.decode.ns_per_op", "ns/op"),
    ("fleetd.codec.bytes_per_op", "B/op"),
    ("fleetd.store.frame.ns_per_op", "ns/op"),
    ("fleetd.store.unframe.ns_per_op", "ns/op"),
    ("fleetd.store.put.ns_per_op", "ns/op"),
    ("fleetd.store.get.ns_per_op", "ns/op"),
    ("fleetd.store.remove.ns_per_op", "ns/op"),
    ("fleetd.evictions_per_round", "1/round"),
    ("fleetd.rehydrations_per_round", "1/round"),
    ("fleetd.resident.bytes_per_home", "B/home"),
    ("fleetd.cold.bytes_per_home", "B/home"),
    ("fleetd.store.bytes_written_per_sample", "B/sample"),
    ("defense.apply.ns_per_sample", "ns/sample"),
    ("nilm.fhmm.feed.ns_per_sample", "ns/sample"),
    ("nilm.fhmm.finalize.ns_per_op", "ns/op"),
    ("homesim.simulate.ns_per_sample", "ns/sample"),
    ("path.self_frac", "frac"),
    ("path.round_ms_tail", "ms"),
    ("path.round_ms_tail_pct", "%"),
    ("path.rounds", "count"),
    ("trace.overhead_frac", "frac"),
];

/// How the replayed layer calls add up to the admit call: each layer's
/// per-call time, times the service's per-round count of those calls
/// (`None`: the layer's whole time, once per round).
const ATTRIBUTION: &[(&str, Option<&str>)] = &[
    ("fleetd.gen", Some("fed")),
    ("stream.feed", Some("samples")),
    ("stream.checkpoint", Some("evictions")),
    ("fleetd.codec.encode", Some("evictions")),
    ("fleetd.store.frame", Some("evictions")),
    ("fleetd.store.put", Some("evictions")),
    ("fleetd.store.get", Some("rehydrations")),
    ("fleetd.store.remove", Some("rehydrations")),
    ("fleetd.store.unframe", Some("rehydrations")),
    ("fleetd.codec.decode", Some("rehydrations")),
    ("stream.restore", Some("rehydrations")),
    ("fleetd.bookkeeping", None),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
        .expect("every emitted metric is declared")
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples beyond it, and
/// the nearest-rank value there; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let pct = (100 * (n - 10) / n) as u32;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some((pct, v[rank - 1]))
}

fn spans(records: &[Record]) -> impl Iterator<Item = &Span> {
    records.iter().filter_map(|r| match r {
        Record::Span(s) => Some(s),
        _ => None,
    })
}

fn counters(records: &[Record]) -> impl Iterator<Item = &Counters> {
    records.iter().filter_map(|r| match r {
        Record::Counters(c) => Some(c),
        _ => None,
    })
}

/// Timed work of one layer: a span, or a replayed layer's round total.
struct Cost<'a> {
    name: &'a str,
    pass: u32,
    round: Option<u32>,
    ns: u64,
    ops: u64,
    items: u64,
}

fn costs(records: &[Record]) -> impl Iterator<Item = Cost<'_>> {
    records.iter().filter_map(|r| match r {
        Record::Span(s) => Some(Cost {
            name: &s.name,
            pass: s.pass,
            round: s.round,
            ns: s.ns(),
            ops: s.ops,
            items: s.items,
        }),
        Record::Layer(l) => Some(Cost {
            name: &l.name,
            pass: l.pass,
            round: l.round,
            ns: l.ns,
            ops: l.ops,
            items: l.items,
        }),
        Record::Counters(_) => None,
    })
}

fn costs_of<'a>(records: &'a [Record], name: &'a str) -> impl Iterator<Item = Cost<'a>> {
    costs(records).filter(move |c| c.name == name)
}

fn durations(records: &[Record], name: &str) -> Vec<f64> {
    spans(records)
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Total time of layer `name` over its total `ops` (or `items`).
fn ns_per(records: &[Record], name: &str, per_item: bool) -> f64 {
    let (ns, n) = costs_of(records, name).fold((0, 0), |(ns, n), c| {
        (ns + c.ns, n + if per_item { c.items } else { c.ops })
    });
    ratio(ns as f64, n as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The last end-of-pass memory counters.
fn end_memory(records: &[Record]) -> Option<&Counters> {
    counters(records).filter(|c| c.round.is_none()).last()
}

fn round_counters(records: &[Record]) -> impl Iterator<Item = &Counters> {
    counters(records).filter(|c| c.round.is_some())
}

/// Passes that recorded detail spans.
fn traced_passes(records: &[Record]) -> BTreeSet<u32> {
    spans(records)
        .filter(|s| s.name == "fleetd.admit")
        .map(|s| s.pass)
        .collect()
}

/// Orders `values` as `table` and checks that they match it exactly.
fn in_order(
    table: &[(&'static str, &str)],
    values: BTreeMap<&str, f64>,
) -> Vec<(&'static str, f64)> {
    assert_eq!(
        values.keys().copied().collect::<BTreeSet<_>>(),
        table.iter().map(|&(n, _)| n).collect::<BTreeSet<_>>(),
        "derived metrics must match the declared table"
    );
    table
        .iter()
        .map(|&(name, _)| (name, values[name]))
        .collect()
}

/// The smallest value; 0 for none.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

pub fn end_to_end(records: &[Record], peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    // Every pass runs the same rounds on the same inputs, so each round
    // takes its fastest time over passes. Other tenants of a shared
    // machine only ever add time, in bursts of about a second that slow a
    // round by up to 60 %; the fastest pass is the one they left alone.
    let mut by_round: BTreeMap<Option<u32>, (u64, Vec<f64>)> = BTreeMap::new();
    for s in spans(records).filter(|s| s.name == "path") {
        let e = by_round.entry(s.round).or_default();
        e.0 = s.items;
        e.1.push(s.ns() as f64);
    }
    let samples: u64 = by_round.values().map(|(items, _)| items).sum();
    let round_ns: Vec<f64> = by_round.values().map(|(_, ns)| min(ns)).collect();
    let mem = end_memory(records);
    let get = |k: &str| mem.map_or(0, |c| c.get(k)) as f64;
    let values = BTreeMap::from([
        // One set-up a pass, and their median.
        ("setup_s", median(&durations(records, "setup")) / 1e9),
        (
            "samples_per_s",
            ratio(samples as f64 * 1e9, round_ns.iter().sum()),
        ),
        ("round_ms_p50", median(&round_ns) / 1e6),
        ("digest_s", min(&durations(records, "fleetd.digest")) / 1e9),
        (
            "bytes_per_home",
            ratio(
                get("resident_bytes") + get("cold_bytes"),
                get("resident_homes") + get("cold_homes"),
            ),
        ),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    in_order(END_TO_END, values)
}

/// Share of the admit time that the replayed layer calls do not explain.
pub fn unattributed_frac(records: &[Record]) -> f64 {
    // (pass, round, layer) -> (ns, ops, items)
    let mut totals: BTreeMap<(u32, u32, &str), (u64, u64, u64)> = BTreeMap::new();
    for c in costs(records) {
        if let Some(round) = c.round {
            let e = totals.entry((c.pass, round, c.name)).or_default();
            *e = (e.0 + c.ns, e.1 + c.ops, e.2 + c.items);
        }
    }
    let (mut admit, mut attributed) = (0.0, 0.0);
    for count in round_counters(records) {
        let key = |name| (count.pass, count.round.expect("round counters"), name);
        let Some(&(admit_ns, _, _)) = totals.get(&key("fleetd.admit")) else {
            continue;
        };
        admit += admit_ns as f64;
        for &(name, counter) in ATTRIBUTION {
            let Some(&(ns, ops, items)) = totals.get(&key(name)) else {
                continue;
            };
            attributed += match counter {
                None => ns as f64,
                Some(counter) => {
                    // Feeding costs per sample; every other call per op.
                    let per = if name == "stream.feed" { items } else { ops };
                    ratio(ns as f64, per as f64) * count.get(counter) as f64
                }
            };
        }
    }
    ratio(admit - attributed, admit)
}

pub fn per_layer(records: &[Record]) -> Vec<(&'static str, f64)> {
    let traced = traced_passes(records);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    // `<layer>.ns_per_<x>`: the layer's time over its calls, or over its
    // samples for `ns_per_sample`.
    for &(metric, _) in PER_LAYER {
        if let Some((layer, per)) = metric.rsplit_once(".ns_per_") {
            values.insert(metric, ns_per(records, layer, per == "sample"));
        }
    }
    let (bytes, ops) =
        costs_of(records, "fleetd.codec.encode").fold((0, 0), |(b, o), c| (b + c.items, o + c.ops));
    values.insert("fleetd.codec.bytes_per_op", ratio(bytes as f64, ops as f64));
    values.insert("fleetd.admit.unattributed_frac", unattributed_frac(records));

    let rounds: Vec<&Counters> = round_counters(records).collect();
    let mean = |k: &str| {
        ratio(
            rounds.iter().map(|c| c.get(k) as f64).sum(),
            rounds.len() as f64,
        )
    };
    values.insert("fleetd.evictions_per_round", mean("evictions"));
    values.insert("fleetd.rehydrations_per_round", mean("rehydrations"));

    let mem = end_memory(records);
    let get = |k: &str| mem.map_or(0, |c| c.get(k)) as f64;
    values.insert(
        "fleetd.resident.bytes_per_home",
        ratio(get("resident_bytes"), get("resident_homes")),
    );
    values.insert(
        "fleetd.cold.bytes_per_home",
        ratio(get("cold_bytes"), get("cold_homes")),
    );

    // Bytes the service writes: its evictions times the frame size the
    // shadows measured in the same round.
    let frames: BTreeMap<(u32, u32), (u64, u64)> = costs_of(records, "fleetd.store.frame")
        .filter_map(|c| Some(((c.pass, c.round?), (c.items, c.ops))))
        .collect();
    let (mut written, mut samples) = (0.0, 0.0);
    for c in &rounds {
        if let Some(&(bytes, ops)) = frames.get(&(c.pass, c.round.expect("round counters"))) {
            written += c.get("evictions") as f64 * ratio(bytes as f64, ops as f64);
            samples += c.get("samples") as f64;
        }
    }
    values.insert(
        "fleetd.store.bytes_written_per_sample",
        ratio(written, samples),
    );

    // Path times of untraced and traced passes; the latter's self time.
    let own = trace::self_ns(records);
    let mut by_kind: [Vec<f64>; 2] = Default::default();
    let mut path_self = 0.0;
    for s in spans(records).filter(|s| s.name == "path") {
        let is_traced = traced.contains(&s.pass);
        by_kind[usize::from(is_traced)].push(s.ns() as f64);
        if is_traced {
            path_self += own[&s.id] as f64;
        }
    }
    let [plain, traced] = &by_kind;
    values.insert("path.self_frac", ratio(path_self, traced.iter().sum()));
    values.insert(
        "trace.overhead_frac",
        if plain.is_empty() || traced.is_empty() {
            0.0
        } else {
            median(traced) / median(plain) - 1.0
        },
    );

    let rounds_ms: Vec<f64> = durations(records, "path")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let (pct, value) = tail(&rounds_ms).unwrap_or((0, 0.0));
    values.insert("path.round_ms_tail", value);
    values.insert("path.round_ms_tail_pct", pct as f64);
    values.insert("path.rounds", rounds_ms.len() as f64);
    in_order(PER_LAYER, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, and 91..=100 lie beyond it.
        assert_eq!(tail(&hundred), Some((90, 90.0)));
        let four_hundred: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        assert_eq!(tail(&four_hundred), Some((97, 388.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((9, 1.0)));
        for n in 11..500usize {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (pct, value) = tail(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond p{pct}");
            assert!(
                (pct as usize + 1) * n > 100 * (n - 10),
                "n={n}: p{} qualifies",
                pct + 1
            );
        }
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn each_round_takes_its_fastest_pass() {
        // Round 0 took 10 and 15 ms in two passes, round 1 30 and 20 ms.
        let records: Vec<Record> = [(0, 0, 10), (0, 1, 30), (1, 0, 15), (1, 1, 20)]
            .into_iter()
            .enumerate()
            .map(|(id, (pass, round, ms))| {
                Record::Span(Span {
                    id: id as u64,
                    parent: None,
                    name: "path".to_string(),
                    pass,
                    round: Some(round),
                    start_ns: 0,
                    end_ns: ms * 1_000_000,
                    ops: 1,
                    items: 1_000,
                })
            })
            .collect();
        let e2e = end_to_end(&records, 1.0);
        let get = |name| e2e.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("round_ms_p50"), 15.0);
        // 2 rounds of 1000 samples in 10 + 20 ms.
        assert!((get("samples_per_s") - 2_000.0 / 0.030).abs() < 1e-6);
    }

    fn layer(name: &str, ns: u64, ops: u64, items: u64) -> Record {
        Record::Layer(trace::Layer {
            name: name.to_string(),
            pass: 1,
            round: Some(0),
            ns,
            ops,
            items,
        })
    }

    fn span(id: u64, name: &str, ns: u64, ops: u64, items: u64) -> Record {
        Record::Span(Span {
            id,
            parent: None,
            name: name.to_string(),
            pass: 1,
            round: Some(0),
            start_ns: 0,
            end_ns: ns,
            ops,
            items,
        })
    }

    /// One traced round: admit took 10 µs for 4 homes of 30 samples, 2
    /// frames were written and 1 home was rehydrated.
    fn round_records() -> Vec<Record> {
        let mut records = vec![
            span(0, "fleetd.admit", 10_000, 4, 120),
            span(1, "fleetd.bookkeeping", 500, 1, 0),
            layer("fleetd.gen", 800, 8, 0),              // 100 ns/home
            layer("stream.feed", 2_400, 8, 240),         // 10 ns/sample
            layer("fleetd.codec.encode", 1_600, 8, 800), // 200 ns/op
            layer("fleetd.codec.decode", 2_400, 8, 800), // 300 ns/op
        ];
        records.push(Record::Counters(Counters {
            pass: 1,
            round: Some(0),
            values: [
                ("fed", 4),
                ("samples", 120),
                ("evictions", 2),
                ("rehydrations", 1),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        }));
        records
    }

    #[test]
    fn attribution_multiplies_unit_costs_by_service_counts() {
        let records = round_records();
        // 500 bookkeeping + 4*100 gen + 120*10 feed + 2*200 encode + 1*300 decode
        let attributed = 500.0 + 400.0 + 1_200.0 + 400.0 + 300.0;
        let frac = unattributed_frac(&records);
        assert!(
            (frac - (10_000.0 - attributed) / 10_000.0).abs() < 1e-12,
            "{frac}"
        );
    }

    #[test]
    fn derivations_emit_exactly_the_declared_metrics() {
        let records = round_records();
        let e2e = end_to_end(&records, 12.5);
        assert_eq!(e2e.len(), END_TO_END.len());
        let layers = per_layer(&records);
        assert_eq!(layers.len(), PER_LAYER.len());
        let get = |name| layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("fleetd.admit.ns_per_sample"), 10_000.0 / 120.0);
        assert_eq!(get("fleetd.codec.bytes_per_op"), 100.0);
        assert_eq!(get("fleetd.evictions_per_round"), 2.0);
    }

    #[test]
    fn names_follow_the_grammar() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        for bad in ["", ".x", "a b", "fleetd/admit", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(
            all.len(),
            all.iter().collect::<BTreeSet<_>>().len(),
            "names are unique"
        );
    }

    #[test]
    fn names_match_benchmark_json() {
        let spec = serde_json::from_str_value(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }
}
