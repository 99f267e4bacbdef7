//! The repo benchmark: the software engine measured in wall-clock time,
//! from outside, through the public API of the product crates only. See
//! `README.md` beside this package for the workloads, the metrics and how
//! to read them.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed S] [--seconds N] [--trace 0|1] \
//!     [--json PATH] [--repeat N] [--smoke]
//! ```
//!
//! The last line of standard output of every workload run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

// A benchmark runner: a broken set-up must stop the run loudly.
#![allow(clippy::expect_used, clippy::unwrap_used)]

mod closed;
mod fingerprints;
mod harness;
mod inputs;
mod layers;
mod live;
mod metrics;
mod rng;
mod setup;
mod stats;
mod sysinfo;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

use crate::metrics::{Report, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 5] =
    ["engine_heavy_heap", "engine_heavy_mmap", "serve_light", "serve_mixed", live::NAME];

/// Documents in the static corpus (50k terms, 3.17M postings, 24 terms at
/// or above the heavy threshold) and in the `--smoke` one.
const DOCS: u32 = 100_000;
const SMOKE_DOCS: u32 = 24_000;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one workload run needs to know.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub docs: u32,
    pub setups: usize,
    /// Process start: the zero of every span and sample clock.
    pub epoch: Instant,
}

struct Cli {
    workloads: Vec<&'static str>,
    opts: Options,
    json: Option<std::path::PathBuf>,
    repeat: usize,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <{}|all> [--seed S] [--seconds N] [--trace 0|1] \
         [--json PATH] [--repeat N] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_cli(epoch: Instant) -> Result<Cli, String> {
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds, mut traced) = (DEFAULT_SEED, None, false);
    let (mut json, mut repeat, mut smoke) = (None, 1usize, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--json" => json = Some(value()?.into()),
            "--repeat" => {
                repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<&'static str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or(format!("unknown workload {workload}"))?]
    };
    let opts = Options {
        seed,
        seconds: seconds.unwrap_or(if smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS }),
        traced,
        docs: if smoke { SMOKE_DOCS } else { DOCS },
        setups: if smoke { 1 } else { SETUPS },
        epoch,
    };
    Ok(Cli { workloads, opts, json, repeat, smoke })
}

fn run_workload(name: &str, opts: &Options) -> Report {
    match name {
        "engine_heavy_heap" => closed::run(closed::Kind::EngineHeavyHeap, opts),
        "engine_heavy_mmap" => closed::run(closed::Kind::EngineHeavyMmap, opts),
        "serve_light" => closed::run(closed::Kind::ServeLight, opts),
        "serve_mixed" => closed::run(closed::Kind::ServeMixed, opts),
        _ => live::run(opts),
    }
}

/// `BENCHMARK.json` from the working directory, when the run starts at
/// the root of a checkout.
fn benchmark_json() -> Option<Value> {
    serde_json::from_str(&std::fs::read_to_string("BENCHMARK.json").ok()?).ok()
}

/// The names `BENCHMARK.json` lists must be the names this binary emits.
fn check_catalogue(spec: &Value) -> Result<(), String> {
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str)> = spec[key]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|m| Some((m["name"].as_str()?, m["unit"].as_str()?)))
                    .collect()
            })
            .unwrap_or_default();
        if listed != catalogue {
            return Err(format!("BENCHMARK.json {key} and the benchmark's catalogue differ"));
        }
    }
    let listed: Vec<&str> = spec["workloads"]
        .as_array()
        .map(|a| a.iter().filter_map(|w| w["name"].as_str()).collect())
        .unwrap_or_default();
    if listed != WORKLOADS {
        return Err("BENCHMARK.json workloads and the benchmark's differ".into());
    }
    Ok(())
}

/// `--repeat`: the spread of every end-to-end metric over the repeats of
/// one workload, judged against the metric's own bound.
fn judge_repeats(workload: &str, reports: &[Report], spec: &Value) -> bool {
    let mut steady = true;
    println!(
        "== {workload}: spread over {} repeats (quartile distance / median vs bound) ==",
        reports.len()
    );
    for &(name, unit) in END_TO_END {
        let values: Vec<f64> =
            reports.iter().filter_map(|r| r.metrics.get(name).map(|m| m.value)).collect();
        let (q1, q3) = stats::quartiles(&values);
        let s = stats::spread(&values);
        let bound = spec["end_to_end"]
            .as_array()
            .and_then(|a| a.iter().find(|m| m["name"].as_str() == Some(name)))
            .and_then(|m| m["bound"].as_f64());
        let share = (q3 - q1) / s.median;
        // Set-up is exempt, as in the acceptance check: it is bounded on
        // its median only.
        let within = name == "setup_s" || bound.is_none_or(|b| share <= b);
        steady &= within;
        println!(
            "{name:<20} median {:>14.4} {unit:<5} q1 {q1:>14.4} q3 {q3:>14.4} max/min {:>7.4} spread {share:>7.4} bound {} {}",
            s.median,
            s.max / s.min,
            bound.map_or("none".to_string(), |b| format!("{b:.3}")),
            if within { "ok" } else { "EXCEEDED" },
        );
    }
    steady
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let cli = match parse_cli(epoch) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = benchmark_json();
    if let Some(Err(e)) = spec.as_ref().map(check_catalogue) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    if cli.repeat > 1 && spec.is_none() {
        eprintln!("benchmark: --repeat reads the bounds from BENCHMARK.json; run from the repository root");
        return ExitCode::from(2);
    }

    let machine = sysinfo::machine();
    println!("machine: {}", serde_json::to_string(&machine).unwrap_or_default());
    let mut all_ok = true;
    let mut documents = Vec::new();
    for workload in &cli.workloads {
        let mut reports = Vec::new();
        for rep in 0..cli.repeat {
            let mut report = run_workload(workload, &cli.opts);
            report.info.insert("machine".into(), machine.clone());
            report.info.insert(
                "run".into(),
                json!({ "seed": cli.opts.seed, "seconds": cli.opts.seconds, "repeat": rep, "smoke": cli.smoke }),
            );
            report.print();
            all_ok &= report.correct;
            documents.push(report.to_json());
            // The driver reads the last line of standard output.
            println!("{}", report.result_line());
            reports.push(report);
        }
        if let (true, Some(spec)) = (cli.repeat > 1 && !cli.opts.traced, &spec) {
            all_ok &= judge_repeats(workload, &reports, spec);
        }
    }
    if let Some(path) = &cli.json {
        let text = serde_json::to_string_pretty(&Value::Array(documents)).unwrap_or_default();
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: FAILED (wrong answers, changed inputs or unsteady repeats; see above)"
        );
        ExitCode::FAILURE
    }
}
