//! The metric catalogue (the same names `BENCHMARK.json` lists) and the
//! report a run produces.

use serde_json::{json, Map, Value};

use crate::stats::Spread;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("open_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mib", "MiB"),
    ("bits_per_posting", "bits"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// does not run a layer reports that layer's metrics as 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.trace.overhead_share", "ratio"),
    ("bench.generator.lateness_p99_us", "us"),
    ("span.bench.op.self_us", "us"),
    ("span.core.query.parse.self_us", "us"),
    ("span.serve.submit.self_us", "us"),
    ("span.serve.wait.self_us", "us"),
    ("span.core.engine.search.self_us", "us"),
    ("span.serve.ingest.self_us", "us"),
    ("workloads.corpus.generate_s", "s"),
    ("workloads.corpus.to_docs_s", "s"),
    ("index.build_ns_per_posting", "ns"),
    ("index.io.serialize_s", "s"),
    ("index.io.load_s", "s"),
    ("index.storage.map_s", "s"),
    ("index.storage.first_touch_us", "us"),
    ("index.storage.verify_warm_ns", "ns"),
    ("index.shard.split_s", "s"),
    ("index.codec.decode_ns_per_posting", "ns"),
    ("index.codec.decode_ns_per_posting.bitpack", "ns"),
    ("index.codec.decode_ns_per_posting.stream-vbyte", "ns"),
    ("index.codec.decode_ns_per_posting.simdbp128", "ns"),
    ("index.skip.probe_ns", "ns"),
    ("index.score.ns_per_doc", "ns"),
    ("index.incremental.ingest_batch_us", "us"),
    ("index.segment.seal_ms", "ms"),
    ("index.incremental.merge_ms", "ms"),
    ("index.incremental.seals", "count"),
    ("index.incremental.merges", "count"),
    ("index.wal.bytes_per_doc", "bytes"),
    ("index.incremental.write_amp", "ratio"),
    ("index.recovery.reopen_s", "s"),
    ("baseline.ops.decode_full_ns_per_posting", "ns"),
    ("baseline.ops.intersect_ns_per_probe", "ns"),
    ("baseline.ops.union_ns_per_result", "ns"),
    ("baseline.topk.push_ns", "ns"),
    ("baseline.topk.select_ns_per_candidate", "ns"),
    ("baseline.engine.single_us", "us"),
    ("baseline.engine.and_us", "us"),
    ("baseline.engine.or_us", "us"),
    ("baseline.engine.exhaustive_single_us", "us"),
    ("baseline.engine.exhaustive_and_us", "us"),
    ("baseline.engine.exhaustive_or_us", "us"),
    ("baseline.engine.replay_coverage", "ratio"),
    ("baseline.pruned.blocks_skipped_share", "ratio"),
    ("baseline.pruned.postings_decoded_per_op", "count"),
    ("baseline.cache.hit_rate", "ratio"),
    ("baseline.pool.roundtrip_us", "us"),
    ("baseline.sharded.search_us", "us"),
    ("baseline.sharded.critical_shard_us", "us"),
    ("baseline.sharded.fanout_tax_us", "us"),
    ("baseline.sharded.speedup", "ratio"),
    ("core.query.parse_ns", "ns"),
    ("core.cost.estimate_ns", "ns"),
    ("core.engine.search_overhead_us", "us"),
    ("core.live.search_us", "us"),
    ("serve.scheduler.route_ns", "ns"),
    ("serve.submit_ns", "ns"),
    ("serve.roundtrip_empty_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.ingest.ack_p50_us", "us"),
    ("serve.ingest.ack_p99_us", "us"),
    ("serve.sched.inline_share", "ratio"),
    ("serve.sched.fanout_share", "ratio"),
    ("serve.degraded_share", "ratio"),
    ("serve.shed_overload", "count"),
    ("serve.shed_deadline", "count"),
    ("serve.failed", "count"),
    ("serve.shard.partials", "count"),
    ("serve.shard.rescues", "count"),
    ("serve.pool.respawns", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    /// Samples behind the value (segments, ops, or 1 for a single timing).
    pub samples: u64,
    /// Minimum and maximum where the value is a median of several.
    pub range: Option<(f64, f64)>,
}

/// Values for one catalogue, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    values: std::collections::BTreeMap<&'static str, Measured>,
}

fn catalogued(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).find(|&n| n == name)
}

impl MetricSet {
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue: the catalogue is the
    /// contract with `BENCHMARK.json`, and a typo must not pass silently.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let name = catalogued(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(name, Measured { value, samples, range: None });
    }

    /// A value that is the median of `values.len()` segments or repeats.
    pub fn set_spread(&mut self, name: &str, s: Spread, samples: u64) {
        self.set(name, s.median, samples);
        if let Some(m) = self.values.get_mut(name) {
            m.range = Some((s.min, s.max));
        }
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.values.get(name)
    }

    /// The catalogue's metrics in order, absent ones as 0 with 0 samples.
    pub fn in_order(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, Measured)> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let m = self.values.get(name).cloned().unwrap_or(Measured {
                    value: 0.0,
                    samples: 0,
                    range: None,
                });
                (name, unit, m)
            })
            .collect()
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    /// Every answer matched the oracle and every input fingerprint that
    /// has a recorded value matched it.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
    /// Ungated context: fingerprints, configuration, spread, notes.
    pub info: Map,
}

impl Report {
    fn catalogue(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable listing: every metric by name with its unit and
    /// sample count.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced { "traced: per-layer" } else { "end to end" }
        );
        for (name, unit, m) in self.metrics.in_order(self.catalogue()) {
            let range = m
                .range
                .map_or(String::new(), |(lo, hi)| format!("  [min {lo:.4}, max {hi:.4}]"));
            println!("{name:<48} {:>16.4} {unit:<6} n={}{range}", m.value, m.samples);
        }
        for (key, value) in &self.info {
            println!("  {key}: {}", serde_json::to_string(value).unwrap_or_default());
        }
        println!(
            "  attempted={} failed={} fail_share={:.6} correct={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        );
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, unit, m) in self.metrics.in_order(self.catalogue()) {
            metrics.insert(name.to_string(), json!({ "value": m.value, "unit": unit }));
        }
        let line = json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).unwrap_or_default()
    }

    /// The full report for `--json`: the result plus samples, ranges and
    /// the context.
    pub fn to_json(&self) -> Value {
        let mut metrics = Map::new();
        for (name, unit, m) in self.metrics.in_order(self.catalogue()) {
            metrics.insert(
                name.to_string(),
                json!({
                    "value": m.value,
                    "unit": unit,
                    "samples": m.samples,
                    "min": m.range.map(|r| r.0),
                    "max": m.range.map(|r| r.1),
                }),
            );
        }
        json!({
            "workload": self.workload,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
            "info": Value::Object(self.info.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn absent_layer_metrics_read_zero() {
        let mut set = MetricSet::default();
        set.set("serve.failed", 3.0, 1);
        let all = set.in_order(PER_LAYER);
        assert_eq!(all.len(), PER_LAYER.len());
        let failed = all.iter().find(|m| m.0 == "serve.failed").map(|m| m.2.value);
        assert_eq!(failed, Some(3.0));
        assert!(all
            .iter()
            .filter(|m| m.0 != "serve.failed")
            .all(|m| m.2.value == 0.0 && m.2.samples == 0));
    }
}
