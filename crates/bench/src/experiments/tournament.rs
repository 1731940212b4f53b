//! The adaptive-adversary tournament: every registered attacker vs every
//! registered defense, with the DP ε-ladder (ROADMAP item 3, threat model
//! of arXiv 2010.12640).
//!
//! The computation lives in the `tournament` crate
//! ([`tournament::run_matrix`]); this experiment runs the canonical
//! configuration, renders the matrix as tables, and persists the JSON the
//! `tournament.*` conformance claims read. The evaluation fleet runs
//! under the panic-isolating supervisor with one persistently faulted
//! home, so every cell also witnesses that quarantine composes with the
//! tournament (pinned by `tournament.quarantine-composes`).

use super::{Report, RunConfig};
use crate::table::{Cell, ThroughputTable};
use tournament::{run_matrix, MatrixConfig};

const ROOT_SEED: u64 = 29;

/// Runs the tournament experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let matrix_cfg = MatrixConfig::canonical(cfg.seed(ROOT_SEED));
    let m = run_matrix(&matrix_cfg);

    let mut cells = ThroughputTable::new(&[
        "attacker",
        "defense",
        "mcc",
        "accuracy",
        "undef mcc",
        "cost kWh",
        "quarantined",
    ]);
    for c in &m.cells {
        cells.row(&[
            Cell::Text(c.attacker.to_string()),
            Cell::Text(c.defense.clone()),
            Cell::Score(c.mcc),
            Cell::Score(c.accuracy),
            Cell::Score(c.undefended_mcc),
            Cell::Score(c.energy_cost_kwh),
            Cell::Count(c.quarantined as u64),
        ]);
    }

    let mut nilm = ThroughputTable::new(&["defense", "mean error factor"]);
    for n in &m.nilm {
        nilm.row(&[
            Cell::Text(n.defense.clone()),
            Cell::Score(n.mean_error_factor),
        ]);
    }

    let mut report = Report::new();
    cells.add_to(
        &mut report,
        &format!(
            "Attack x defense matrix: {} eval homes x {} days, {} co-evolution rounds",
            matrix_cfg.eval_homes, matrix_cfg.eval_days, matrix_cfg.rounds
        ),
    );
    report.note(format!(
        "\nEvery cell ran under the fleet supervisor with home {:?} persistently \
         faulted — quarantined in all {} cells {}",
        matrix_cfg.panic_home,
        m.cells.len(),
        if m.quarantine_composes() {
            "✓"
        } else {
            "✗"
        },
    ));
    nilm.add_to(
        &mut report,
        "NILM leakage per defense (FHMM disaggregation error, higher = blinder)",
    );
    report.note(format!(
        "\nAdaptive attack replayed through chunked streaming admission: \
         identical to batch {}",
        if m.stream_chunked_equal { "✓" } else { "✗" },
    ));

    report.json = m.to_json();
    report
}
