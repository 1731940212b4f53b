//! In-memory span recorder and its JSON-lines trace file.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the library crates is instrumented.
//! Calls too short and too interleaved for a span each (the shadow
//! replay's per-home chains) are timed with [`Laps`] and recorded as one
//! [`Layer`] total per layer and round. Records stay in memory and are
//! written once, when the run ends. Every per-layer metric is derived
//! from the records alone, so reading a trace file back reproduces them.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call (or loop of calls) into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub pass: u32,
    pub round: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (homes, frames, digests, ...).
    pub ops: u64,
    /// Work items the calls handled (samples, or bytes for the codec).
    pub items: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Counter values sampled from the service's public accessors: per round
/// (`round: Some`) or at the end of a pass (`round: None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    pub pass: u32,
    pub round: Option<u32>,
    pub values: BTreeMap<String, u64>,
}

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }
}

/// The summed time of one layer's calls in one round, timed by [`Laps`].
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub pass: u32,
    pub round: Option<u32>,
    pub ns: u64,
    pub ops: u64,
    pub items: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    Span(Span),
    Layer(Layer),
    Counters(Counters),
}

/// Times a chain of calls with one clock read between consecutive calls
/// and adds each interval, less the cost of the read itself, to the
/// call's stage.
pub struct Laps {
    last: Instant,
    clock_ns: u64,
    /// Per stage: summed ns and items.
    pub totals: Vec<(u64, u64)>,
}

impl Laps {
    pub fn new(stages: usize, clock_ns: u64) -> Laps {
        Laps {
            last: Instant::now(),
            clock_ns,
            totals: vec![(0, 0); stages],
        }
    }

    /// Starts the next chain; time since the last lap is not counted.
    pub fn restart(&mut self) {
        self.last = Instant::now();
    }

    /// Ends the call of `stage` that began at the previous read.
    pub fn lap(&mut self, stage: usize, items: u64) {
        let now = Instant::now();
        let ns = (now - self.last).as_nanos() as u64;
        let total = &mut self.totals[stage];
        total.0 += ns.saturating_sub(self.clock_ns);
        total.1 += items;
        self.last = now;
    }
}

/// Median cost of one `Instant::now()` read, ns.
pub fn clock_cost_ns() -> u64 {
    const READS: u32 = 1_000;
    let mut batches: Vec<u64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            (start.elapsed() / READS).as_nanos() as u64
        })
        .collect();
    batches.sort_unstable();
    batches[batches.len() / 2]
}

/// A span that has been opened and not yet closed.
#[must_use]
#[derive(Debug)]
pub struct Open {
    index: usize,
}

/// Records spans with parent links. Spans marked `detail` are recorded
/// only while [`Tracer::detail`] is set, which is what a traced pass is.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    records: Vec<Record>,
    stack: Vec<u64>,
    next_id: u64,
    pub detail: bool,
    pub pass: u32,
    pub round: Option<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            records: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            detail: false,
            pass: 0,
            round: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`; `None` for a `detail` span outside a
    /// traced pass.
    pub fn open(&mut self, name: &str, detail: bool) -> Option<Open> {
        if detail && !self.detail {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            pass: self.pass,
            round: self.round,
            start_ns: 0,
            end_ns: 0,
            ops: 0,
            items: 0,
        };
        self.records.push(Record::Span(span));
        self.stack.push(id);
        let index = self.records.len() - 1;
        // Stamp last, so the bookkeeping above stays outside the span.
        let start = self.now_ns();
        if let Record::Span(s) = &mut self.records[index] {
            s.start_ns = start;
        }
        Some(Open { index })
    }

    /// Closes the innermost open span, recording what it covered.
    pub fn close(&mut self, open: Option<Open>, ops: u64, items: u64) {
        let Some(open) = open else { return };
        let end = self.now_ns();
        let Record::Span(span) = &mut self.records[open.index] else {
            unreachable!("open spans index span records");
        };
        assert_eq!(
            self.stack.pop(),
            Some(span.id),
            "spans close innermost first"
        );
        span.end_ns = end;
        span.ops = ops;
        span.items = items;
    }

    pub fn layer(&mut self, name: &str, ns: u64, ops: u64, items: u64) {
        self.records.push(Record::Layer(Layer {
            name: name.to_string(),
            pass: self.pass,
            round: self.round,
            ns,
            ops,
            items,
        }));
    }

    pub fn counters(&mut self, values: &[(&str, u64)]) {
        self.records.push(Record::Counters(Counters {
            pass: self.pass,
            round: self.round,
            values: values.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }));
    }

    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

/// Renders records as JSON lines tagged with `workload`.
pub fn to_jsonl(records: &[Record], workload: &str) -> String {
    let mut out = String::new();
    for record in records {
        let line = match record {
            Record::Span(s) => json!({
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "workload": workload,
                "pass": s.pass,
                "round": s.round,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "ops": s.ops,
                "items": s.items,
            }),
            Record::Layer(l) => json!({
                "layer": l.name,
                "workload": workload,
                "pass": l.pass,
                "round": l.round,
                "ns": l.ns,
                "ops": l.ops,
                "items": l.items,
            }),
            Record::Counters(c) => json!({
                "counters": c.values.iter().map(|(k, &v)| (k.clone(), json!(v))).collect::<serde_json::Map>(),
                "workload": workload,
                "pass": c.pass,
                "round": c.round,
            }),
        };
        out.push_str(&line.render_compact());
        out.push('\n');
    }
    out
}

/// Parses a trace written by [`to_jsonl`].
pub fn from_jsonl(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| parse_record(line).map_err(|e| format!("trace line {}: {e}", n + 1)))
        .collect()
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v = serde_json::from_str_value(line).map_err(|e| format!("{e:?}"))?;
    let u64_of = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing integer `{key}`"))
    };
    let opt_u64 = |key: &str| match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not an integer")),
    };
    let pass = u64_of("pass")? as u32;
    let round = opt_u64("round")?.map(|r| r as u32);
    if let Some(counters) = v.get("counters") {
        let map = counters.as_object().ok_or("`counters` is not an object")?;
        let values = map
            .iter()
            .map(|(k, x)| {
                x.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter `{k}` is not an integer"))
            })
            .collect::<Result<_, _>>()?;
        return Ok(Record::Counters(Counters {
            pass,
            round,
            values,
        }));
    }
    if let Some(name) = v.get("layer") {
        return Ok(Record::Layer(Layer {
            name: name.as_str().ok_or("`layer` is not a string")?.to_string(),
            pass,
            round,
            ns: u64_of("ns")?,
            ops: u64_of("ops")?,
            items: u64_of("items")?,
        }));
    }
    Ok(Record::Span(Span {
        id: u64_of("id")?,
        parent: opt_u64("parent")?,
        name: v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing `name`")?
            .to_string(),
        pass,
        round,
        start_ns: u64_of("start_ns")?,
        end_ns: u64_of("end_ns")?,
        ops: u64_of("ops")?,
        items: u64_of("items")?,
    }))
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children never overlap (one thread records
/// them, innermost first), so their durations add.
pub fn self_ns(records: &[Record]) -> BTreeMap<u64, u64> {
    let mut out: BTreeMap<u64, u64> = BTreeMap::new();
    for record in records {
        if let Record::Span(s) = record {
            out.insert(s.id, s.ns());
        }
    }
    for record in records {
        if let Record::Span(s) = record {
            if let Some(slot) = s.parent.and_then(|p| out.get_mut(&p)) {
                *slot = slot.saturating_sub(s.ns());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Record {
        Record::Span(Span {
            id,
            parent,
            name: format!("s{id}"),
            pass: 0,
            round: Some(1),
            start_ns,
            end_ns,
            ops: 1,
            items: 0,
        })
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 70),
        ];
        let own = self_ns(&records);
        assert_eq!(own[&0], 100 - 30 - 20);
        assert_eq!(own[&1], 30 - 10);
        assert_eq!(own[&2], 10);
        assert_eq!(own[&3], 20);
    }

    #[test]
    fn tracer_links_parents_and_skips_detail_outside_traced_passes() {
        let mut tr = Tracer::new();
        let outer = tr.open("round", false);
        assert!(tr.open("fleetd.admit", true).is_none());
        tr.detail = true;
        let inner = tr.open("fleetd.admit", true);
        tr.close(inner, 3, 90);
        tr.close(outer, 0, 0);
        let records = tr.into_records();
        let spans: Vec<&Span> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!((spans[1].ops, spans[1].items), (3, 90));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut tr = Tracer::new();
        tr.pass = 2;
        tr.round = Some(7);
        let s = tr.open("path", false);
        tr.close(s, 4, 120);
        tr.layer("fleetd.codec.encode", 9_000, 3, 780);
        tr.counters(&[("evictions", 5), ("rehydrations", 0)]);
        tr.round = None;
        tr.counters(&[("resident_bytes", 1 << 40)]);
        let records = tr.into_records();
        let text = to_jsonl(&records, "fleet-wide");
        assert_eq!(from_jsonl(&text).unwrap(), records);
        assert!(from_jsonl("{\"pass\": 1}").is_err());
    }

    #[test]
    fn laps_charge_each_interval_to_its_stage() {
        let mut laps = Laps::new(2, 0);
        laps.restart();
        std::thread::sleep(std::time::Duration::from_millis(2));
        laps.lap(1, 30);
        laps.lap(0, 0);
        assert!(laps.totals[1].0 >= 2_000_000 && laps.totals[1].1 == 30);
        assert!(laps.totals[0].0 < laps.totals[1].0);
        // A clock cost above the interval never underflows.
        let mut laps = Laps::new(1, u64::MAX);
        laps.lap(0, 1);
        assert_eq!(laps.totals[0], (0, 1));
    }
}
