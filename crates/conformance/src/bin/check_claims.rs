//! Validates every registered paper claim against its tolerance band.
//!
//! Runs experiments in-process via `bench::experiments`, checks each
//! claim's extracted metric (single canonical seed by default, mean ±
//! 95% CI over `--seeds N` decorrelated draws otherwise), compares the
//! canonical output of every selected deterministic experiment against
//! its golden snapshot under `results/`, and exits non-zero on any
//! out-of-band claim or snapshot drift. Artifact flags (`--json`,
//! `--txt`, `--metrics`) follow the `BenchArgs` contract the experiment
//! binaries share.

use bench::BenchArgs;
use conformance::{report, runner, Options};
use std::path::PathBuf;

const USAGE: &str = "usage: check_claims [--json <path>] [--txt <path>] [--metrics <path>]
                    [--filter <substr>] [--seeds <N>]
                    [--golden-dir <dir>] [--no-golden]
                    [--claims-md <path>] [--list]
  --json <path>       also write the machine-readable claim report
  --txt <path>        also write the rendered text report
  --metrics <path>    enable the observability layer and write a metrics sidecar
  --filter <substr>   only claims whose id or experiment contains <substr>,
                      and golden experiments whose name contains it
  --seeds <N>         seed-sweep mode: N decorrelated draws per experiment,
                      pass iff mean ± 95% CI overlaps the band (default 1)
  --golden-dir <dir>  golden snapshots to diff the canonical run against
                      (default: results/ when it exists)
  --no-golden         skip the golden-snapshot tier
  --claims-md <path>  regenerate the docs/CLAIMS.md table from the registry
                      and the golden dir's artifacts, then exit
  --list              list registered claims without running anything";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Cli {
    bench: BenchArgs,
    opts: Options,
    golden_default: bool,
    claims_md: Option<PathBuf>,
    list: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        bench: BenchArgs::default(),
        opts: Options::default(),
        golden_default: true,
        claims_md: None,
        list: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> String {
        match it.next() {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => usage_error(&format!("{flag} requires an argument")),
        }
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => cli.bench.json_path = Some(PathBuf::from(value("--json", &mut it))),
            "--txt" => cli.bench.txt_path = Some(PathBuf::from(value("--txt", &mut it))),
            "--metrics" => {
                cli.bench.metrics_path = Some(PathBuf::from(value("--metrics", &mut it)))
            }
            "--filter" => cli.opts.filter = Some(value("--filter", &mut it)),
            "--seeds" => {
                let raw = value("--seeds", &mut it);
                match raw.parse::<u64>() {
                    Ok(n) if n >= 1 => cli.opts.seeds = n,
                    _ => usage_error(&format!("--seeds wants a positive integer, got '{raw}'")),
                }
            }
            "--golden-dir" => {
                cli.opts.golden_dir = Some(PathBuf::from(value("--golden-dir", &mut it)));
                cli.golden_default = false;
            }
            "--no-golden" => {
                cli.opts.golden_dir = None;
                cli.golden_default = false;
            }
            "--claims-md" => cli.claims_md = Some(PathBuf::from(value("--claims-md", &mut it))),
            "--list" => cli.list = true,
            other => usage_error(&format!("unrecognized argument '{other}'")),
        }
    }
    if cli.golden_default {
        let default = PathBuf::from("results");
        if default.is_dir() {
            cli.opts.golden_dir = Some(default);
        }
    }
    if cli.bench.metrics_path.is_some() {
        obs::enable();
        obs::reset();
    }
    cli
}

fn main() {
    let cli = parse_cli();

    if cli.list {
        let rows: Vec<Vec<String>> = runner::select(&cli.opts)
            .iter()
            .map(|c| {
                vec![
                    c.id.to_string(),
                    c.anchor().to_string(),
                    c.experiment.to_string(),
                    c.band.describe(),
                ]
            })
            .collect();
        bench::print_table(
            "Registered paper claims",
            &["claim", "anchor", "experiment", "band"],
            &rows,
        );
        return;
    }

    if let Some(path) = &cli.claims_md {
        let Some(dir) = &cli.opts.golden_dir else {
            usage_error("--claims-md needs a golden dir (results/ or --golden-dir)");
        };
        match report::render_claims_md(dir) {
            Ok(text) => {
                std::fs::write(path, &text).unwrap_or_else(|e| {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                });
                println!("(wrote {})", path.display());
                return;
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    let result = runner::run(&cli.opts);
    if result.outcomes.is_empty() && result.golden.is_empty() {
        usage_error(&format!(
            "--filter '{}' matches no registered claim or golden-checked experiment",
            cli.opts.filter.as_deref().unwrap_or("")
        ));
    }
    let text = result.render_text();
    print!("{text}");
    bench::maybe_write_json(&cli.bench, &result.to_json()).expect("write json report");
    bench::maybe_write_txt(&cli.bench, &text).expect("write txt report");
    bench::maybe_write_metrics(&cli.bench).expect("write metrics sidecar");

    std::process::exit(if result.passed() { 0 } else { 1 });
}
