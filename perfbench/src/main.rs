//! perfbench: per-core benchmark of fleetd admission and the
//! defense -> NILM/NIOM path. See README.md.
//!
//! ```text
//! perfbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its
//! own, one after another. Each prints its metrics as
//! `workload name value unit` lines, then one JSON object as its last
//! line. A failed output check makes the exit code non-zero.

mod fleet;
mod metrics;
mod pipeline;
mod shadow;
mod trace;
mod workload;

use serde_json::json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR] [--smoke]";

struct Args {
    workload: Option<&'static Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from(".perfbench-out"),
        smoke: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every metric is per core: admission runs its shards on one thread.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_children(&raw),
    }
}

/// Runs every workload in a fresh child process, so peak RSS and the
/// allocator's state belong to one workload.
fn run_children(raw: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut code = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", w.name])
            .status()
            .expect("workload child process must start");
        if !status.success() {
            eprintln!("perfbench: workload {} failed ({status})", w.name);
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let shape = if args.smoke { w.shape.smoke() } else { w.shape };
    let seed = args.seed.unwrap_or(workload::DEFAULT_SEED);
    let start = std::time::Instant::now();
    let (records, checks) = workload::run(&shape, seed, args.seconds, args.trace);
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let passes = records
        .iter()
        .filter(|r| matches!(r, trace::Record::Span(s) if s.name == "pass"))
        .count();
    eprintln!(
        "# {}: seed {seed}, {passes} passes in {elapsed:.1} s, RAYON_NUM_THREADS=1",
        w.name
    );

    let metrics = if args.trace {
        std::fs::create_dir_all(&args.out).expect("output directory must be creatable");
        let file = args.out.join(format!("{}.trace.jsonl", w.name));
        std::fs::write(&file, trace::to_jsonl(&records, w.name))
            .expect("trace file must be writable");
        let text = std::fs::read_to_string(&file).expect("trace file must be readable");
        let records = trace::from_jsonl(&text).expect("trace file must parse");
        eprintln!("# trace: {}", file.display());
        metrics::per_layer(&records)
    } else {
        metrics::end_to_end(&records, peak_rss_mb)
    };
    let mut out = serde_json::Map::new();
    for &(name, value) in &metrics {
        let unit = metrics::unit_of(name);
        println!("{} {name} {value} {unit}", w.name);
        out.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    let result = json!({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": serde_json::Value::Object(out),
    });
    println!("{}", result.render_compact());
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} output checks failed",
            checks.failed, checks.attempted
        );
        ExitCode::FAILURE
    }
}

/// This process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
