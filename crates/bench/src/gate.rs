//! The harness every perf-gate binary shares (`decode_bench`,
//! `shard_bench`, `mmap_bench`, `serve_bench`).
//!
//! A gate binary keeps only its measurements and its relational rules.
//! This module owns the rest:
//!
//! - [`Args::parse`]: `--out`, `--check` and `--write-thresholds <path>`,
//!   plus the switches a binary takes (`--smoke`, `--rss-child`);
//! - [`Queries`]: the sampled single/AND/OR query set and its dispatch
//!   onto any [`Engine`];
//! - [`Run::finish`]: writing the report and the thresholds file, then
//!   checking the run against a committed thresholds file.
//!
//! A thresholds file holds one baseline per gated metric under one map
//! key (`min_ns` or `max_us`) and one `fail_above_ratio`; a metric fails
//! when `measured > baseline × fail_above_ratio`. The check has no
//! defaults: a missing ratio, a baseline the run did not produce and a
//! run metric without a baseline are each a [`Violation`].

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use iiu_baseline::{CpuEngine, QueryOutcome, ShardedEngine, ShardedOutcome};
use iiu_index::{IndexError, InvertedIndex};
use iiu_workloads::QuerySampler;
use serde_json::{Map, Value};

use crate::micro::{bench_with, Sample};
use crate::report::workspace_root;

/// A gate binary's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Where the report goes (`--out`; by default the binary's
    /// `BENCH_*.json` at the workspace root).
    pub out: PathBuf,
    /// Committed thresholds file to check this run against (`--check`).
    pub check: Option<PathBuf>,
    /// Where to write a thresholds file from this run
    /// (`--write-thresholds`).
    pub write_thresholds: Option<PathBuf>,
    /// The switch given, if any: one of the binary's `switches`.
    pub switch: Option<&'static str>,
}

impl Args {
    /// Parses this process's arguments for binary `bin`, whose report
    /// defaults to `default_out` at the workspace root and which also
    /// takes the flags in `switches`. Prints the error and exits with
    /// status 2 on an unknown argument or a path flag without its path.
    pub fn parse(bin: &str, default_out: &str, switches: &[&'static str]) -> Args {
        Args::parse_from(std::env::args().skip(1), default_out, switches).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2)
        })
    }

    fn parse_from(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
        switches: &[&'static str],
    ) -> Result<Args, String> {
        let (mut out, mut check, mut write_thresholds, mut switch) = (None, None, None, None);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let slot = match arg.as_str() {
                "--out" => &mut out,
                "--check" => &mut check,
                "--write-thresholds" => &mut write_thresholds,
                other => match switches.iter().find(|s| **s == other) {
                    Some(s) => {
                        switch = Some(*s);
                        continue;
                    }
                    None => {
                        return Err(format!(
                            "unknown argument {other} (expected {}--out/--check/\
                             --write-thresholds <path>)",
                            switches.iter().map(|s| format!("{s} or ")).collect::<String>()
                        ))
                    }
                },
            };
            let path = args.next().ok_or_else(|| format!("{arg} needs a path argument"))?;
            *slot = Some(PathBuf::from(path));
        }
        let out = out.unwrap_or_else(|| {
            workspace_root().unwrap_or_else(|| PathBuf::from(".")).join(default_out)
        });
        Ok(Args { out, check, write_thresholds, switch })
    }
}

/// The three query shapes every gate times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One term.
    Single,
    /// Two terms, intersected.
    And,
    /// Two terms, unioned.
    Or,
}

impl Shape {
    /// Every shape, in report order.
    pub const ALL: [Shape; 3] = [Shape::Single, Shape::And, Shape::Or];

    /// The shape's name in metric names and report keys.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Single => "single",
            Shape::And => "and",
            Shape::Or => "or",
        }
    }
}

/// A search engine a gate times: the three shapes at top-`k`.
pub trait Engine {
    /// One query's answer.
    type Outcome;
    /// A single-term query.
    fn single(&mut self, term: &str, k: usize) -> Result<Self::Outcome, IndexError>;
    /// An AND query.
    fn and(&mut self, a: &str, b: &str, k: usize) -> Result<Self::Outcome, IndexError>;
    /// An OR query.
    fn or(&mut self, a: &str, b: &str, k: usize) -> Result<Self::Outcome, IndexError>;
}

impl Engine for CpuEngine<'_> {
    type Outcome = QueryOutcome;
    fn single(&mut self, term: &str, k: usize) -> Result<QueryOutcome, IndexError> {
        self.search_single(term, k)
    }
    fn and(&mut self, a: &str, b: &str, k: usize) -> Result<QueryOutcome, IndexError> {
        self.search_intersection(a, b, k)
    }
    fn or(&mut self, a: &str, b: &str, k: usize) -> Result<QueryOutcome, IndexError> {
        self.search_union(a, b, k)
    }
}

impl Engine for ShardedEngine {
    type Outcome = ShardedOutcome;
    fn single(&mut self, term: &str, k: usize) -> Result<ShardedOutcome, IndexError> {
        self.search_single(term, k)
    }
    fn and(&mut self, a: &str, b: &str, k: usize) -> Result<ShardedOutcome, IndexError> {
        self.search_intersection(a, b, k)
    }
    fn or(&mut self, a: &str, b: &str, k: usize) -> Result<ShardedOutcome, IndexError> {
        self.search_union(a, b, k)
    }
}

/// A sampled query set: `n` single terms and `n` term pairs, drawn with
/// weight ∝ df from the terms with df ≥ `min_df`, seed 42.
#[derive(Debug, Clone)]
pub struct Queries {
    /// Single-term queries.
    pub singles: Vec<String>,
    /// Two-term queries, shared by AND and OR.
    pub pairs: Vec<(String, String)>,
}

impl Queries {
    /// Samples `n` queries of each kind from `index`.
    pub fn sample(index: &InvertedIndex, min_df: u64, n: usize) -> Queries {
        let mut sampler = QuerySampler::with_bias(index, 42, 1.0, min_df);
        let singles = sampler.single_queries(n);
        Queries { singles, pairs: sampler.pair_queries(n) }
    }

    /// Runs query `i` (modulo the set size) of `shape` on `engine`.
    ///
    /// # Panics
    ///
    /// Panics if the engine rejects a sampled query.
    pub fn run<E: Engine>(
        &self,
        engine: &mut E,
        shape: Shape,
        i: usize,
        k: usize,
    ) -> E::Outcome {
        match shape {
            Shape::Single => engine.single(&self.singles[i % self.singles.len()], k),
            Shape::And | Shape::Or => {
                let (a, b) = &self.pairs[i % self.pairs.len()];
                if shape == Shape::And {
                    engine.and(a, b, k)
                } else {
                    engine.or(a, b, k)
                }
            }
        }
        .unwrap_or_else(|e| panic!("sampled {} query {i} failed: {e}", shape.name()))
    }

    /// Times `shape` on `engine`: [`bench_with`]`(name, 8, 30)` over the
    /// query set, in order from query 0.
    pub fn time<E: Engine>(
        &self,
        name: &str,
        engine: &mut E,
        shape: Shape,
        k: usize,
    ) -> Sample {
        let mut i = 0usize;
        bench_with(name, 8, 30, &mut || {
            i += 1;
            self.run(engine, shape, i - 1, k)
        })
    }
}

/// One reason a gate run fails.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The thresholds file has no numeric `fail_above_ratio`.
    NoRatio,
    /// The thresholds file has no baseline map under the gate's key.
    NoBaselines(&'static str),
    /// A committed baseline is not a number.
    BadBaseline(String),
    /// A committed baseline names a metric this run did not produce.
    NotMeasured(String),
    /// This run produced a gated metric with no committed baseline.
    NoBaseline(String),
    /// A metric exceeds its baseline × `fail_above_ratio`.
    Regressed {
        /// The metric.
        name: String,
        /// This run's value.
        measured: f64,
        /// The committed baseline.
        baseline: f64,
        /// The committed ratio.
        ratio: f64,
    },
    /// One of the binary's relational rules does not hold.
    Rule(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NoRatio => write!(f, "thresholds file has no numeric fail_above_ratio"),
            Violation::NoBaselines(key) => write!(f, "thresholds file has no {key:?} object"),
            Violation::BadBaseline(name) => write!(f, "threshold {name} is not a number"),
            Violation::NotMeasured(name) => {
                write!(f, "gated metric {name} missing from this run")
            }
            Violation::NoBaseline(name) => {
                write!(f, "gated metric {name} has no committed baseline")
            }
            Violation::Regressed { name, measured, baseline, ratio } => write!(
                f,
                "{name}: {measured:.1} exceeds {baseline:.1} x {ratio} = {:.1}",
                baseline * ratio
            ),
            Violation::Rule(rule) => f.write_str(rule),
        }
    }
}

/// One gate run's gated metrics, and how its thresholds file names them.
#[derive(Debug, Clone)]
pub struct Run {
    /// The gate's name in messages: `"decode"` prints `decode gate: OK`.
    gate: &'static str,
    /// The baseline map key, `"min_ns"` or `"max_us"`: the thresholds
    /// file holds the metrics under it, the report under `gate_<key>`.
    key: &'static str,
    /// This run's gated metrics, by name.
    pub metrics: Map,
}

impl Run {
    /// A run of `gate` with no metrics yet.
    pub fn new(gate: &'static str, key: &'static str) -> Run {
        Run { gate, key, metrics: Map::new() }
    }

    /// `template` (the thresholds file minus its baselines) with this
    /// run's metrics as the baselines.
    pub fn thresholds(&self, mut template: Value) -> Value {
        template[self.key] = Value::Object(self.metrics.clone());
        template
    }

    /// Checks this run's metrics against a committed thresholds file.
    /// Empty means pass.
    pub fn check(&self, committed: &Value) -> Vec<Violation> {
        let mut violations = Vec::new();
        let ratio = number(committed, &["fail_above_ratio"]);
        if ratio.is_none() {
            violations.push(Violation::NoRatio);
        }
        let Some(baselines) = committed.as_object().and_then(|m| m.get(self.key)?.as_object())
        else {
            violations.push(Violation::NoBaselines(self.key));
            return violations;
        };
        for (name, baseline) in baselines {
            let Some(baseline) = baseline.as_f64() else {
                violations.push(Violation::BadBaseline(name.clone()));
                continue;
            };
            match (self.metrics.get(name).and_then(Value::as_f64), ratio) {
                (None, _) => violations.push(Violation::NotMeasured(name.clone())),
                (Some(measured), Some(ratio)) if measured > baseline * ratio => {
                    violations.push(Violation::Regressed {
                        name: name.clone(),
                        measured,
                        baseline,
                        ratio,
                    });
                }
                _ => {}
            }
        }
        let unbaselined = self.metrics.keys().filter(|name| !baselines.contains_key(*name));
        violations.extend(unbaselined.map(|name| Violation::NoBaseline(name.clone())));
        violations
    }

    /// Ends the run: writes `report` (with the metrics as `gate_<key>`)
    /// to `--out`, the thresholds built from `template` to
    /// `--write-thresholds`, and with `--check` fails on any
    /// [`Violation`] of the committed file or of `rules`, which reads
    /// that file and returns the binary's broken relational rules.
    /// Exits 1 on a violation and 2 on an unreadable or unwritable file.
    pub fn finish(
        self,
        args: &Args,
        mut report: Value,
        template: Value,
        rules: impl FnOnce(&Value) -> Vec<String>,
    ) -> ExitCode {
        let gate = self.gate;
        report[format!("gate_{}", self.key)] = Value::Object(self.metrics.clone());
        report["machine"] = machine();
        let mut files = vec![(args.out.as_path(), report)];
        if let Some(path) = &args.write_thresholds {
            files.push((path, self.thresholds(template)));
        }
        for (path, value) in files {
            if let Err(e) = write_json(path, &value) {
                eprintln!("{gate} gate: {e}");
                return ExitCode::from(2);
            }
        }
        let Some(path) = &args.check else {
            return ExitCode::SUCCESS;
        };
        let committed = match read_json(path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{gate} gate: {e}");
                return ExitCode::from(2);
            }
        };
        let mut violations = self.check(&committed);
        violations.extend(rules(&committed).into_iter().map(Violation::Rule));
        if violations.is_empty() {
            println!("{gate} gate: OK ({} metrics within threshold)", self.metrics.len());
            return ExitCode::SUCCESS;
        }
        for v in &violations {
            eprintln!("{gate} gate: REGRESSION: {v}");
        }
        ExitCode::FAILURE
    }
}

/// The number at `path` (object keys, outermost first) in a committed
/// thresholds file, if there is one.
pub fn number(committed: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(committed, |v, key| v.as_object()?.get(*key))?.as_f64()
}

/// Queries per second of a per-query time.
pub fn qps(ns: f64) -> f64 {
    if ns > 0.0 {
        1e9 / ns
    } else {
        f64::INFINITY
    }
}

/// The machine a report was measured on: cores, CPU model and kernel,
/// so that timings are compared only across reports that agree.
fn machine() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok();
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(1, |p| p.get()),
        "cpu_model": model,
        "kernel": kernel.map(|k| k.trim().to_string()),
    })
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("{e:?}"))?;
    std::fs::write(path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[wrote {}]", path.display());
    Ok(())
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn run(metrics: &[(&str, f64)]) -> Run {
        let mut run = Run::new("test", "min_ns");
        for &(name, v) in metrics {
            run.metrics.insert(name.to_string(), json!(v));
        }
        run
    }

    fn committed(ratio: Value, baselines: &[(&str, f64)]) -> Value {
        run(baselines).thresholds(json!({ "fail_above_ratio": ratio }))
    }

    #[test]
    fn a_run_within_the_ratio_passes() {
        let file = committed(json!(1.25), &[("a", 100.0), ("b", 10.0)]);
        assert_eq!(run(&[("a", 125.0), ("b", 3.0)]).check(&file), vec![]);
    }

    #[test]
    fn every_violation_kind_is_reported_by_name() {
        let base = [("a", 100.0), ("b", 10.0)];
        let regressed =
            run(&[("a", 126.0), ("b", 10.0)]).check(&committed(json!(1.25), &base));
        assert_eq!(
            regressed,
            vec![Violation::Regressed {
                name: "a".into(),
                measured: 126.0,
                baseline: 100.0,
                ratio: 1.25
            }]
        );
        for ratio in [json!(null), json!("1.25")] {
            let v = run(&[("a", 1.0), ("b", 1.0)]).check(&committed(ratio, &base));
            assert_eq!(v, vec![Violation::NoRatio], "a missing or non-numeric ratio");
        }
        let v = run(&[("a", 1.0)]).check(&committed(json!(1.25), &base));
        assert_eq!(v, vec![Violation::NotMeasured("b".into())]);
        let v =
            run(&[("a", 1.0), ("b", 1.0), ("c", 1.0)]).check(&committed(json!(1.25), &base));
        assert_eq!(v, vec![Violation::NoBaseline("c".into())]);
        let mut file = committed(json!(1.25), &base);
        file["min_ns"]["b"] = json!("fast");
        let v = run(&[("a", 1.0), ("b", 1.0)]).check(&file);
        assert_eq!(v, vec![Violation::BadBaseline("b".into())]);
        let v = run(&[("a", 1.0)]).check(&json!({ "fail_above_ratio": 1.25 }));
        assert_eq!(v, vec![Violation::NoBaselines("min_ns")]);
        let v = Violation::NoBaseline("c".into());
        assert_eq!(v.to_string(), "gated metric c has no committed baseline");
    }

    #[test]
    fn a_written_thresholds_file_reads_back_to_the_same_verdict() {
        let dir = std::env::temp_dir().join(format!("iiu-gate-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let thresholds = dir.join("thresholds.json");
        let args = Args {
            out: dir.join("report.json"),
            check: Some(thresholds.clone()),
            write_thresholds: Some(thresholds.clone()),
            switch: None,
        };
        let template = json!({ "schema": "test", "fail_above_ratio": 1.25 });
        let baseline = run(&[("a", 100.0), ("b", 0.1 + 0.2)]);
        let written = baseline.clone().finish(&args, json!({}), template.clone(), |_| vec![]);
        assert_eq!(written, ExitCode::SUCCESS);
        let read_back = read_json(&thresholds).unwrap();
        assert_eq!(read_back, baseline.thresholds(template.clone()));
        let report = read_json(&args.out).unwrap();
        assert_eq!(report["gate_min_ns"], Value::Object(baseline.metrics.clone()));

        let in_memory = baseline.thresholds(template);
        for later in [run(&[("a", 125.0), ("b", 0.3)]), run(&[("a", 126.0)])] {
            assert_eq!(later.check(&read_back), later.check(&in_memory));
        }
        let check_only = Args { write_thresholds: None, ..args };
        let failed =
            run(&[("a", 126.0), ("b", 0.3)])
                .finish(&check_only, json!({}), json!({}), |_| vec!["a rule".into()]);
        assert_eq!(failed, ExitCode::FAILURE);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn args_take_path_flags_and_the_binarys_switches_only() {
        let parse = |args: &[&str]| {
            Args::parse_from(args.iter().map(|s| s.to_string()), "BENCH_x.json", &["--smoke"])
        };
        let args = parse(&["--out", "r.json", "--check", "t.json", "--smoke"]).unwrap();
        assert_eq!(args.out, PathBuf::from("r.json"));
        assert_eq!(args.check, Some(PathBuf::from("t.json")));
        assert_eq!((args.write_thresholds, args.switch), (None, Some("--smoke")));
        assert!(parse(&[]).unwrap().out.ends_with("BENCH_x.json"));
        assert!(parse(&["--rss-child"]).unwrap_err().contains("unknown argument --rss-child"));
        assert!(parse(&["--check"]).unwrap_err().contains("needs a path"));
    }
}
