//! Library entry points for every experiment binary.
//!
//! Each submodule holds one experiment's `pub fn run(&RunConfig) ->
//! Report` — the exact computation its `src/bin/` wrapper used to inline —
//! so the conformance harness (`crates/conformance`) can execute
//! experiments in-process, rerun them across derived seeds, and assert
//! tolerance bands over their JSON output without spawning subprocesses.
//!
//! The [`all`] registry lists every experiment with its paper anchor and
//! whether its JSON output is deterministic (a pure function of the
//! [`RunConfig`]); [`cli_main`] is the shared binary `main`.

use iot_privacy::timeseries::rng::derive_seed;

pub mod ablation_architectures;
pub mod ablation_chpr_tank;
pub mod ablation_dp_tradeoff;
pub mod ablation_nilm_noise;
pub mod ablation_niom_window;
pub mod ablation_privacy_knob;
pub mod claim_niom_accuracy;
pub mod claim_private_meter;
pub mod claim_sundance;
pub mod claim_vacation_detection;
pub mod degradation_curves;
pub mod fig1_occupancy_overlay;
pub mod fig2_disaggregation;
pub mod fig5_localization;
pub mod fig6_chpr;
pub mod fleet_scale;
pub mod recovery_soak;
pub mod sec4_traffic_fingerprint;
pub mod shaping_arms_race;
pub mod stream_equivalence;
pub mod stream_throughput;
pub mod tournament;

/// How one experiment run is parameterized.
///
/// `seed_offset == 0` is the *canonical* run: every internal seed is
/// exactly the hard-coded value the binaries have always used, so the
/// checked-in `results/` artifacts stay reproducible. A non-zero offset
/// derives a fresh, decorrelated seed stream for the conformance
/// harness's seed-sweep mode.
///
/// # Examples
///
/// ```
/// use bench::experiments::RunConfig;
///
/// assert_eq!(RunConfig::CANONICAL.seed(42), 42);
/// assert_ne!(RunConfig::sweep(1).seed(42), 42);
/// assert_ne!(RunConfig::sweep(1).seed(42), RunConfig::sweep(2).seed(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// 0 for the canonical run; `1..N` for seed-sweep draws.
    pub seed_offset: u64,
}

impl RunConfig {
    /// The canonical run — identical to the pre-refactor binaries.
    pub const CANONICAL: RunConfig = RunConfig { seed_offset: 0 };

    /// The `offset`-th seed-sweep draw.
    pub fn sweep(offset: u64) -> RunConfig {
        RunConfig {
            seed_offset: offset,
        }
    }

    /// Maps an experiment's hard-coded base seed to this run's seed.
    ///
    /// Offset 0 returns `base` unchanged; other offsets derive a new seed
    /// via the same label-mixing used for per-home fleet seeds, keeping
    /// draws decorrelated from each other and from the canonical run.
    pub fn seed(&self, base: u64) -> u64 {
        if self.seed_offset == 0 {
            base
        } else {
            derive_seed(base, &format!("sweep:{}", self.seed_offset))
        }
    }
}

/// One rendered piece of an experiment report, in print order.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// An aligned text table.
    Table {
        /// The `== title ==` banner.
        title: String,
        /// Column headers.
        header: Vec<String>,
        /// Data rows.
        rows: Vec<Vec<String>>,
    },
    /// A free-form line (shape checks, summaries). Stored verbatim,
    /// including any leading blank line.
    Note(String),
}

/// What an experiment produces: the machine-readable JSON the binary
/// writes under `--json`, plus the ordered sections of its text report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Machine-readable results — the value `--json` persists and the
    /// conformance claim metrics read.
    pub json: serde_json::Value,
    /// Tables and notes in the order the binary prints them.
    pub sections: Vec<Section>,
}

impl Report {
    /// An empty report (JSON `null`, no sections).
    pub fn new() -> Report {
        Report {
            json: serde_json::Value::Null,
            sections: Vec::new(),
        }
    }

    /// Appends a table section.
    pub fn table(&mut self, title: &str, header: &[&str], rows: Vec<Vec<String>>) {
        self.sections.push(Section::Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows,
        });
    }

    /// Appends a note line (printed via `println!`).
    pub fn note(&mut self, line: impl Into<String>) {
        self.sections.push(Section::Note(line.into()));
    }

    /// Renders the report exactly as the binary prints it.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for section in &self.sections {
            match section {
                Section::Table {
                    title,
                    header,
                    rows,
                } => {
                    let header: Vec<&str> = header.iter().map(String::as_str).collect();
                    out.push_str(&crate::render_table(title, &header, rows));
                }
                Section::Note(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Prints the report to stdout.
    pub fn print(&self) {
        print!("{}", self.render_text());
    }
}

impl Default for Report {
    fn default() -> Report {
        Report::new()
    }
}

/// One registered experiment: its name (= binary name), where in the
/// paper it comes from, whether its JSON is a pure function of the
/// [`RunConfig`], its cost tier, and its entry point.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Experiment name; equals the binary name and the `results/` stem.
    pub name: &'static str,
    /// The paper figure/section the experiment reproduces (and the anchor
    /// of every conformance claim that reads it).
    pub paper_anchor: &'static str,
    /// `true` when the JSON output is deterministic given the config
    /// (everything except the wall-clock throughput benchmarks).
    pub deterministic: bool,
    /// `true` when the experiment is fast enough in a debug build for its
    /// conformance claims to run in the `cargo test` single-seed tier.
    /// Only deterministic experiments are cheap: a wall-clock metric
    /// would flake there.
    pub cheap: bool,
    /// The library entry point.
    pub run: fn(&RunConfig) -> Report,
}

impl std::fmt::Debug for ExperimentSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentSpec")
            .field("name", &self.name)
            .field("paper_anchor", &self.paper_anchor)
            .field("deterministic", &self.deterministic)
            .field("cheap", &self.cheap)
            .finish()
    }
}

/// Every experiment in the harness, in EXPERIMENTS.md order.
pub fn all() -> &'static [ExperimentSpec] {
    const ALL: &[ExperimentSpec] = &[
        ExperimentSpec {
            name: "fig1_occupancy_overlay",
            paper_anchor: "Fig. 1",
            deterministic: true,
            cheap: true,
            run: fig1_occupancy_overlay::run,
        },
        ExperimentSpec {
            name: "claim_niom_accuracy",
            paper_anchor: "§II-A (Fig. 1 claim)",
            deterministic: true,
            cheap: false,
            run: claim_niom_accuracy::run,
        },
        ExperimentSpec {
            name: "fig2_disaggregation",
            paper_anchor: "Fig. 2",
            deterministic: true,
            cheap: false,
            run: fig2_disaggregation::run,
        },
        ExperimentSpec {
            name: "fig5_localization",
            paper_anchor: "Fig. 5",
            deterministic: true,
            cheap: false,
            run: fig5_localization::run,
        },
        ExperimentSpec {
            name: "fig6_chpr",
            paper_anchor: "Fig. 6",
            deterministic: true,
            cheap: true,
            run: fig6_chpr::run,
        },
        ExperimentSpec {
            name: "claim_sundance",
            paper_anchor: "§II-B (SunDance)",
            deterministic: true,
            cheap: true,
            run: claim_sundance::run,
        },
        ExperimentSpec {
            name: "claim_private_meter",
            paper_anchor: "§III-C (verifiable billing)",
            deterministic: true,
            cheap: true,
            run: claim_private_meter::run,
        },
        ExperimentSpec {
            name: "claim_vacation_detection",
            paper_anchor: "§II-A (extended absence)",
            deterministic: true,
            cheap: true,
            run: claim_vacation_detection::run,
        },
        ExperimentSpec {
            name: "sec4_traffic_fingerprint",
            paper_anchor: "§IV",
            deterministic: true,
            cheap: true,
            run: sec4_traffic_fingerprint::run,
        },
        ExperimentSpec {
            name: "ablation_privacy_knob",
            paper_anchor: "§III-E (privacy knob)",
            deterministic: true,
            cheap: true,
            run: ablation_privacy_knob::run,
        },
        ExperimentSpec {
            name: "ablation_dp_tradeoff",
            paper_anchor: "§III-A (differential privacy)",
            deterministic: true,
            cheap: true,
            run: ablation_dp_tradeoff::run,
        },
        ExperimentSpec {
            name: "ablation_niom_window",
            paper_anchor: "§II-A (NIOM design)",
            deterministic: true,
            cheap: true,
            run: ablation_niom_window::run,
        },
        ExperimentSpec {
            name: "ablation_chpr_tank",
            paper_anchor: "Fig. 6 (CHPr design)",
            deterministic: true,
            cheap: true,
            run: ablation_chpr_tank::run,
        },
        ExperimentSpec {
            name: "ablation_nilm_noise",
            paper_anchor: "Fig. 2 (robustness)",
            deterministic: true,
            cheap: false,
            run: ablation_nilm_noise::run,
        },
        ExperimentSpec {
            name: "ablation_architectures",
            paper_anchor: "§III-D (architectures)",
            deterministic: true,
            cheap: true,
            run: ablation_architectures::run,
        },
        ExperimentSpec {
            name: "degradation_curves",
            paper_anchor: "roadmap (robustness)",
            deterministic: true,
            cheap: true,
            run: degradation_curves::run,
        },
        ExperimentSpec {
            name: "fleet_scale",
            paper_anchor: "roadmap (fleet throughput)",
            deterministic: false,
            cheap: false,
            run: fleet_scale::run,
        },
        ExperimentSpec {
            name: "recovery_soak",
            paper_anchor: "roadmap (crash recovery)",
            deterministic: false,
            cheap: false,
            run: recovery_soak::run,
        },
        ExperimentSpec {
            name: "stream_equivalence",
            paper_anchor: "roadmap (streaming)",
            deterministic: true,
            cheap: true,
            run: stream_equivalence::run,
        },
        ExperimentSpec {
            name: "stream_throughput",
            paper_anchor: "roadmap (streaming throughput)",
            deterministic: false,
            cheap: false,
            run: stream_throughput::run,
        },
        ExperimentSpec {
            name: "tournament",
            paper_anchor: "roadmap (adaptive adversary)",
            deterministic: true,
            cheap: false,
            run: tournament::run,
        },
        ExperimentSpec {
            name: "shaping_arms_race",
            paper_anchor: "§IV (encrypted-traffic arms race)",
            deterministic: true,
            cheap: false,
            run: shaping_arms_race::run,
        },
    ];
    ALL
}

/// Looks up an experiment by name.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    all().iter().find(|spec| spec.name == name)
}

/// The shared binary `main`: parse the command line, run the canonical
/// configuration, print the report, and persist any requested artifacts.
///
/// # Panics
///
/// Panics if `name` is not a registered experiment or an artifact cannot
/// be written.
pub fn cli_main(name: &str) {
    let args = crate::BenchArgs::parse_or_exit();
    let spec = find(name).unwrap_or_else(|| panic!("unknown experiment '{name}'"));
    let report = (spec.run)(&RunConfig::CANONICAL);
    report.print();
    crate::maybe_write_json(&args, &report.json).expect("write json output");
    crate::maybe_write_txt(&args, &report.render_text()).expect("write txt output");
    crate::maybe_write_metrics(&args).expect("write metrics output");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for spec in all() {
            assert!(seen.insert(spec.name), "duplicate experiment {}", spec.name);
            assert_eq!(find(spec.name).unwrap().name, spec.name);
            assert!(!spec.paper_anchor.is_empty());
            assert!(
                spec.deterministic || !spec.cheap,
                "{}: the cargo-test tier runs only deterministic experiments",
                spec.name
            );
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn canonical_seed_is_identity_and_sweep_decorrelates() {
        assert_eq!(RunConfig::CANONICAL.seed(7), 7);
        let a = RunConfig::sweep(1).seed(7);
        let b = RunConfig::sweep(2).seed(7);
        assert_ne!(a, 7);
        assert_ne!(a, b);
        // Stable across calls.
        assert_eq!(a, RunConfig::sweep(1).seed(7));
    }

    #[test]
    fn report_renders_sections_in_order() {
        let mut r = Report::new();
        r.table("t", &["a"], vec![vec!["1".into()]]);
        r.note("\nnote line");
        let text = r.render_text();
        let table_at = text.find("== t ==").unwrap();
        let note_at = text.find("note line").unwrap();
        assert!(table_at < note_at);
        assert!(text.ends_with("note line\n"));
    }
}
