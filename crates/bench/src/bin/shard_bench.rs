//! The document-sharding scaling gate (DESIGN.md §14).
//!
//! Runs pruned single/AND/OR queries at k = 10 on the same 60k-document
//! corpus as the decode gate, unsharded and through the sharded engine at
//! 1/2/4 shards, asserting bit-identical hits before timing anything.
//!
//! Two kinds of numbers come out:
//!
//! - **Wall-clock** `min_ns` per shard count, recorded as regression
//!   thresholds. The verify gate runs on whatever machine it lands on
//!   (often a single hardware thread), so wall clock is *not* expected to
//!   scale with shards — the pool adds real thread-handoff cost — but it
//!   must not regress past `fail_above_ratio`.
//! - **Modeled** latency from the cost model's critical path: the max
//!   over shards of the per-shard phase cost plus the cross-shard merge.
//!   This is the number the scaling claim is about, and `--check` fails
//!   unless the modeled 4-shard pruned single-term QPS at k = 10 is
//!   ≥2.5× the unsharded pruned baseline with a nonzero skipped-block
//!   tally surviving the shard split.
//!
//! Writes `BENCH_shard.json` at the workspace root; `--out`, `--check`
//! and `--write-thresholds` are [`iiu_bench::gate`]'s, with a
//! `fail_above_ratio` of 1.75 on `min_ns`. `verify.sh` runs the gate in
//! `--release`; pass `--quick` to skip it.

// Experiment-runner code: panicking on a broken setup is the right
// behavior (same contract as the iiu-bench lib crate).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::sync::Arc;

use iiu_baseline::{CpuEngine, ShardedEngine};
use iiu_bench::gate::{qps, Args, Queries, Run, Shape};
use iiu_index::shard::ShardedIndex;
use iiu_index::InvertedIndex;
use iiu_workloads::CorpusConfig;
use serde_json::{json, Map, Value};

/// Queries sampled per shape.
const N_QUERIES: usize = 32;
/// Documents in the corpus (matches the decode gate: large enough that
/// lists span many blocks, so both pruning and sharding have real work).
const E2E_DOCS: u32 = 60_000;
/// Result-set size for every timed query.
const K: usize = 10;
/// Shard counts under test; 1 exercises the pool overhead alone.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Sampling floor: only lists this long are worth fanning out (lighter
/// queries are dominated by fixed per-query overhead, not decode).
const MIN_DF: u64 = 4096;
/// Minimum modeled single-term QPS gain 4 shards must deliver over the
/// unsharded pruned baseline for `--check` to pass.
const MODELED_4SHARD_MIN_GAIN: f64 = 2.5;

/// Per-(shape, shard-count) measurement: bit-identity proof first, then
/// modeled critical-path totals over the query set, then wall clock.
struct ShapeRun {
    wall_min_ns: f64,
    /// Sum of modeled critical-path latency over the `N_QUERIES` queries.
    modeled_total_ns: f64,
    blocks_skipped: u64,
    postings_skipped: u64,
}

fn run_sharded(
    eng: &mut ShardedEngine,
    plain: &mut CpuEngine,
    shape: Shape,
    queries: &Queries,
) -> ShapeRun {
    // Correctness first: the timed loop below only counts hits, so prove
    // bit-identity over the whole query set up front and collect the
    // modeled totals and skip tallies while at it.
    let mut modeled_total_ns = 0.0;
    let (mut blocks_skipped, mut postings_skipped) = (0u64, 0u64);
    let (name, n) = (shape.name(), eng.num_shards());
    for i in 0..N_QUERIES {
        let a = queries.run(plain, shape, i, K);
        let b = queries.run(eng, shape, i, K);
        assert_eq!(
            a.hits, b.hits,
            "sharded {name} diverged from unsharded at query {i} (n={n})"
        );
        modeled_total_ns += b.latency_ns();
        blocks_skipped += b.counts.blocks_skipped;
        postings_skipped += b.counts.postings_skipped;
    }
    let wall = queries.time(&format!("shard/{name}/s{n}"), eng, shape, K);
    ShapeRun { wall_min_ns: wall.min_ns, modeled_total_ns, blocks_skipped, postings_skipped }
}

fn bench_shards(index: &InvertedIndex, metrics: &mut Map) -> Value {
    // Sample only genuinely heavy lists (df ≥ MIN_DF). Intra-query
    // sharding is for decode-bound queries; a short tail list is
    // dominated by the fixed per-query overhead, which no amount of
    // parallelism can split, and a serving layer would not fan it out.
    let queries = Queries::sample(index, MIN_DF, N_QUERIES);

    let mut shapes = Map::new();
    for shape in Shape::ALL {
        let mut plain = CpuEngine::new(index).with_pruning(true);
        // Modeled critical-path total of the unsharded pruned baseline over
        // the same query set: the denominator of the scaling claim.
        let base_modeled_ns: f64 =
            (0..N_QUERIES).map(|i| queries.run(&mut plain, shape, i, K).latency_ns()).sum();

        let mut rows = Map::new();
        for n in SHARD_COUNTS {
            let split = Arc::new(ShardedIndex::split(index, n).expect("split"));
            let mut eng = ShardedEngine::new(split).with_pruning(true);
            let run = run_sharded(&mut eng, &mut plain, shape, &queries);

            // Per-query modeled numbers: totals over N_QUERIES divided out.
            let modeled_ns = run.modeled_total_ns / N_QUERIES as f64;
            let base_ns = base_modeled_ns / N_QUERIES as f64;
            let modeled_gain = base_ns / modeled_ns.max(1.0);
            if shape == Shape::Single {
                metrics.insert(format!("sharded_single_k10_s{n}"), json!(run.wall_min_ns));
            }
            rows.insert(
                format!("s{n}"),
                json!({
                    "shards": n,
                    "wall_min_ns": run.wall_min_ns,
                    "wall_qps": qps(run.wall_min_ns),
                    "modeled_ns": modeled_ns,
                    "modeled_qps": qps(modeled_ns),
                    "unsharded_modeled_ns": base_ns,
                    "modeled_qps_gain": modeled_gain,
                    "blocks_skipped": run.blocks_skipped,
                    "postings_skipped": run.postings_skipped,
                }),
            );
            println!(
                "shard/{}/s{n}: modeled {:.0} ns/query ({:.2}x unsharded), \
                 {} blocks skipped",
                shape.name(),
                modeled_ns,
                modeled_gain,
                run.blocks_skipped
            );
        }
        shapes.insert(shape.name().to_string(), Value::Object(rows));
    }
    Value::Object(shapes)
}

/// The relational rules `--check` adds to the committed thresholds:
/// latency thresholds alone can't prove sharding pays off, so also
/// require the modeled 4-shard single-term win and that block-max pruning
/// still skips blocks after the split.
fn rules(shapes: &Value) -> Vec<String> {
    let mut broken = Vec::new();
    let s4 = &shapes["single"]["s4"];
    let gain = s4["modeled_qps_gain"].as_f64().unwrap_or(0.0);
    if gain < MODELED_4SHARD_MIN_GAIN {
        broken.push(format!(
            "4-shard single k=10 modeled qps gain {gain:.2} below required \
             {MODELED_4SHARD_MIN_GAIN}"
        ));
    }
    if s4["blocks_skipped"].as_u64().unwrap_or(0) == 0 {
        broken.push("4-shard single k=10 skipped no blocks".to_string());
    }
    broken
}

fn main() -> ExitCode {
    let args = Args::parse("shard_bench", "BENCH_shard.json", &[]);
    println!(
        "== sharded vs unsharded pruned top-k, {E2E_DOCS} docs, k={K}, \
         shards in {SHARD_COUNTS:?} =="
    );
    let index = CorpusConfig::ccnews_like(E2E_DOCS).generate().into_default_index();
    let mut run = Run::new("shard", "min_ns");
    let shapes = bench_shards(&index, &mut run.metrics);

    let report = json!({
        "schema": "shard-bench-v1",
        "e2e_docs": E2E_DOCS,
        "k": K,
        "queries_per_shape": N_QUERIES,
        "shapes": shapes.clone(),
    });
    // Wall timings here run real OS threads and swing far more between
    // runs than decode_bench's single-threaded loops, so the wall gate is
    // a coarse backstop (the hard perf gate is the modeled scaling check)
    // and gets a correspondingly looser ratio.
    let template = json!({
        "schema": "shard-gate-thresholds-v1",
        "comment": "min_ns baselines for the shard scaling gate; a run fails when measured > baseline * fail_above_ratio. Regenerate with: cargo run --release -p iiu-bench --bin shard_bench -- --write-thresholds BENCH_shard_thresholds.json",
        "fail_above_ratio": 1.75,
    });
    run.finish(&args, report, template, |_| rules(&shapes))
}
