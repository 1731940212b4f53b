//! The workload table and the timed loop of passes.

use crate::fleet::{self, FleetShape};
use crate::pipeline::{self, PipelineShape};
use crate::trace::{Record, Tracer};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Fleet(FleetShape),
    Pipeline(PipelineShape),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

pub const DEFAULT_SEED: u64 = 1;

/// The workloads of BENCHMARK.json, in its order. Sizes are chosen so
/// that one pass takes 1.5-3 s on one core of a 2-vCPU Xeon; see
/// README.md for what each workload stresses.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet-wide",
        shape: Shape::Fleet(FleetShape {
            homes: 300_000,
            rounds: 2,
        }),
    },
    Workload {
        name: "fleet-history",
        shape: Shape::Fleet(FleetShape {
            homes: 1_000,
            rounds: 100,
        }),
    },
    Workload {
        name: "pipeline",
        shape: Shape::Pipeline(PipelineShape {
            homes: 128,
            rounds: 14,
            pool: 8,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every pass sets up, runs and checks the whole workload afresh. Two
/// passes at least, so a traced run has a traced and an untraced pass.
const MIN_PASSES: u32 = 2;

impl Shape {
    /// The `--smoke` size: homes divided by 100, at most 8 rounds.
    pub fn smoke(self) -> Shape {
        match self {
            Shape::Fleet(s) => Shape::Fleet(FleetShape {
                homes: (s.homes / 100).max(1),
                rounds: s.rounds.min(8),
            }),
            Shape::Pipeline(s) => Shape::Pipeline(PipelineShape {
                homes: (s.homes / 100).max(1),
                rounds: s.rounds.min(8),
                ..s
            }),
        }
    }
}

/// Output checks: how many were made and how many failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Runs passes until `seconds` have elapsed. In a traced run every odd
/// pass is traced; the even ones measure what tracing costs.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool) -> (Vec<Record>, Checks) {
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        tr.pass = pass;
        tr.detail = trace && pass % 2 == 1;
        let p = tr.open("pass", false);
        match shape {
            Shape::Fleet(s) => fleet::pass(s, seed, &mut tr, &mut checks),
            Shape::Pipeline(s) => pipeline::pass(s, seed, &mut tr, &mut checks),
        }
        tr.close(p, 0, 0);
        pass += 1;
    }
    (tr.into_records(), checks)
}
