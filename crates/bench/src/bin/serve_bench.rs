//! The serve tail-latency gate (DESIGN.md §17).
//!
//! Offers the same ≥100k-query Zipf-skewed stream to the serving layer
//! twice at equal offered load — a closed loop keeping `CONCURRENCY`
//! queries outstanding, the device path sabotaged throughout so every
//! answer runs the sharded CPU path — once with the fixed topology
//! (every query fans out across all shards) and once with the hybrid
//! scheduler (cheap queries answer inline, heavy ones fan out).
//!
//! Reported per mode: p50/p99/p999 service latency from the serving
//! layer's own log₂-µs histogram (interpolated, with the top-bucket
//! lower-bound flag surfaced — see `iiu_serve::Quantile`) plus
//! closed-loop throughput. Before timing counts for anything, the two
//! modes' hit streams are proven bit-identical to each other over all
//! queries, and spot-checked against an unsharded exhaustive reference.
//!
//! `--check` fails unless the hybrid p99 is strictly below the fixed
//! p99 (the tentpole claim: per-query parallelism routing buys tail
//! latency at equal load), the hybrid run used both routes, and the
//! committed latency thresholds hold. Writes `BENCH_serve.json` at the
//! workspace root; `--out`, `--check` and `--write-thresholds` are
//! [`iiu_bench::gate`]'s, with a `fail_above_ratio` of 2.0 on `max_us`.
//! `verify.sh` runs the gate in `--release`; `--quick` skips it.

// Experiment-runner code: panicking on a broken setup is the right
// behavior (same contract as the other gate binaries).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use iiu_bench::gate::{Args, Run};
use iiu_core::{estimate_query_cost, CpuSearchEngine, Hit, Query, SearchEngine};
use iiu_index::InvertedIndex;
use iiu_serve::{
    BreakerConfig, FaultPlan, Quantile, QueryService, RetryPolicy, SchedulerConfig,
    ServeConfig, ShardPoolConfig,
};
use iiu_workloads::{traffic, CorpusConfig, TrafficConfig};
use serde_json::{json, Value};

/// Queries offered per mode (the gate requires ≥100k).
const N_QUERIES: usize = 100_000;
/// Documents in the corpus: large enough that heavy lists span many
/// blocks (so intra-query fan-out has real decode work to split) while
/// keeping two 100k-query runs inside the verify budget.
const DOCS: u32 = 20_000;
/// Result-set size for every query.
const K: usize = 10;
/// Zipf popularity skew of the offered stream (1.0 ≈ web traffic).
const ZIPF_SKEW: f64 = 1.0;
/// Closed-loop window: queries kept outstanding at all times. Equal
/// offered load means both modes see the identical stream at this same
/// concurrency; only the scheduling policy differs.
const CONCURRENCY: usize = 256;
/// Serve workers draining the admission queue.
const WORKERS: usize = 4;
/// Document shards on the CPU path.
const SHARDS: usize = 4;
/// Shard-task pool threads (pinned, so runs compare across machines).
const POOL_THREADS: usize = 4;
/// Every `SPOT_EVERY`-th query's hits are checked against an unsharded
/// exhaustive reference run.
const SPOT_EVERY: usize = 97;

/// One mode's measurements over the full stream.
struct ModeRun {
    p50: Quantile,
    p99: Quantile,
    p999: Quantile,
    /// Closed-loop answered throughput over the run's wall clock.
    qps: f64,
    /// Order-sensitive digest of every answer's `(doc_id, score)` stream.
    hits_digest: u64,
    sched_inline: u64,
    sched_fanout: u64,
}

/// SplitMix64-style digest step; folds one value into the running hash.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn digest_hits(mut h: u64, hits: &[Hit]) -> u64 {
    h = mix(h, hits.len() as u64);
    for hit in hits {
        h = mix(h, u64::from(hit.doc_id));
        h = mix(h, hit.score.to_bits());
    }
    h
}

fn mode_config(hybrid: bool, heavy_df_threshold: u64) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: 2 * CONCURRENCY,
        default_deadline: Duration::from_secs(60),
        // One sabotaged device attempt, no retries, then the breaker
        // opens for the rest of the run: the whole stream lands on the
        // sharded CPU path, which is what the gate is about.
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3_600),
            probe_successes: 2,
        },
        fault: FaultPlan { burst: Some((0, u64::MAX)), seed: 0x5E12, ..FaultPlan::NONE },
        pruned_cpu_fallback: true,
        shards: SHARDS,
        shard_pool: ShardPoolConfig {
            pool_threads: POOL_THREADS,
            ..ShardPoolConfig::default()
        },
        scheduler: SchedulerConfig { hybrid, heavy_df_threshold },
        ..ServeConfig::default()
    }
}

/// Runs the full stream through one service configuration, closed-loop
/// at `CONCURRENCY` outstanding, spot-checking hits against `reference`.
fn run_mode(
    index: &Arc<InvertedIndex>,
    texts: &[String],
    hybrid: bool,
    heavy_df_threshold: u64,
    reference: &mut CpuSearchEngine,
) -> ModeRun {
    let label = if hybrid { "hybrid" } else { "fixed" };
    let mut svc =
        QueryService::start(Arc::clone(index), mode_config(hybrid, heavy_df_threshold));
    let mut digest = 0u64;
    let started = Instant::now();
    for (wave_no, wave) in texts.chunks(CONCURRENCY).enumerate() {
        let pending: Vec<_> = wave
            .iter()
            .map(|text| {
                let q = Query::parse(text).expect("traffic query parses");
                svc.submit(q, K).expect("closed-loop wave within queue capacity")
            })
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let resp = p.wait().expect("no faults on the CPU path: every query answers");
            digest = digest_hits(digest, &resp.hits);
            let seq = wave_no * CONCURRENCY + i;
            if seq.is_multiple_of(SPOT_EVERY) {
                let q = Query::parse(&wave[i]).expect("traffic query parses");
                let expect = reference.search(&q, K).expect("reference search succeeds").hits;
                assert_eq!(
                    resp.hits, expect,
                    "{label} answer diverged from the unsharded reference \
                     (query {seq}: {:?})",
                    wave[i]
                );
            }
        }
    }
    let elapsed = started.elapsed();
    svc.shutdown();
    let h = svc.health();

    assert_eq!(h.answered(), texts.len() as u64, "{label}: queries lost: {h}");
    assert_eq!(h.rejected_total(), 0, "{label}: closed loop must never shed: {h}");
    let (p50, p99, p999) = (
        h.p50.expect("latencies recorded"),
        h.p99.expect("latencies recorded"),
        h.p999.expect("latencies recorded"),
    );
    let qps = h.answered() as f64 / elapsed.as_secs_f64();
    println!(
        "serve/{label}: p50={p50} p99={p99} p999={p999} ({qps:.0} qps closed-loop, \
         inline={} fanout={} caller_runs={})",
        h.sched_inline, h.sched_fanout, h.caller_runs
    );
    ModeRun {
        p50,
        p99,
        p999,
        qps,
        hits_digest: digest,
        sched_inline: h.sched_inline,
        sched_fanout: h.sched_fanout,
    }
}

fn quantile_us(q: Quantile) -> f64 {
    q.value.as_secs_f64() * 1e6
}

fn mode_json(run: &ModeRun) -> Value {
    json!({
        "p50_us": quantile_us(run.p50),
        "p99_us": quantile_us(run.p99),
        "p999_us": quantile_us(run.p999),
        "p999_is_lower_bound": run.p999.is_lower_bound,
        "closed_loop_qps": run.qps,
        "sched_inline": run.sched_inline,
        "sched_fanout": run.sched_fanout,
    })
}

/// The relational rules `--check` adds to the committed thresholds: at
/// equal offered load the hybrid scheduler must strictly beat the fixed
/// topology on p99 (the machine-independent tentpole claim), and must have
/// done so by actually routing, not by degenerating into a single mode.
fn rules(fixed: &ModeRun, hybrid: &ModeRun) -> Vec<String> {
    let mut broken = Vec::new();
    if quantile_us(hybrid.p99) >= quantile_us(fixed.p99) {
        broken.push(format!(
            "hybrid p99 {} not strictly below fixed p99 {}",
            hybrid.p99, fixed.p99
        ));
    }
    if hybrid.sched_inline == 0 || hybrid.sched_fanout == 0 {
        broken.push(format!(
            "hybrid run degenerated to one route (inline={} fanout={})",
            hybrid.sched_inline, hybrid.sched_fanout
        ));
    }
    if hybrid.p999.is_lower_bound {
        broken.push(format!(
            "hybrid p999 {} fell in the histogram's open-ended top bucket \
             (≈101 days): the service wedged",
            hybrid.p999
        ));
    }
    broken
}

fn main() -> ExitCode {
    let args = Args::parse("serve_bench", "BENCH_serve.json", &[]);
    println!(
        "== serve tail latency: {N_QUERIES} Zipf(s={ZIPF_SKEW}) queries, {DOCS} docs, \
         k={K}, {CONCURRENCY} outstanding, {WORKERS} workers, {SHARDS} shards, \
         {POOL_THREADS} pool threads =="
    );
    let index = Arc::new(CorpusConfig::ccnews_like(DOCS).generate().into_default_index());
    let stream = traffic::open_loop(
        &index,
        &TrafficConfig {
            rate_qps: 1e9, // arrival times unused: the closed loop self-paces
            n_queries: N_QUERIES,
            unknown_term_rate: 0.0,
            seed: 0x5E12_BE4C,
            zipf_skew: ZIPF_SKEW,
            ..TrafficConfig::default()
        },
    );
    let texts: Vec<String> = stream.iter().map(|tq| tq.text.clone()).collect();

    // Heavy threshold = median longest-list size over the *offered*
    // stream, so the hybrid run is guaranteed to exercise both routes on
    // this traffic (the sampler is df-biased; a dictionary-wide median
    // would classify everything as heavy).
    let mut maxes: Vec<u64> = texts
        .iter()
        .map(|t| {
            let q = Query::parse(t).expect("traffic query parses");
            estimate_query_cost(&index, &q.terms()).max_list_postings
        })
        .collect();
    maxes.sort_unstable();
    let heavy_df_threshold = maxes[maxes.len() / 2];
    println!("heavy-query threshold: longest list >= {heavy_df_threshold} postings");

    let mut reference = CpuSearchEngine::new(&index);
    let fixed = run_mode(&index, &texts, false, heavy_df_threshold, &mut reference);
    let hybrid = run_mode(&index, &texts, true, heavy_df_threshold, &mut reference);

    // Scheduling must change placement only, never results: the two
    // modes' full 100k-answer hit streams are digest-identical.
    assert_eq!(
        fixed.hits_digest, hybrid.hits_digest,
        "hybrid scheduling changed query results"
    );
    println!(
        "hit streams bit-identical across modes (digest {:016x}); \
         p99 gain {:.2}x",
        fixed.hits_digest,
        quantile_us(fixed.p99) / quantile_us(hybrid.p99).max(1e-9),
    );

    let mut run = Run::new("serve", "max_us");
    run.metrics.insert("fixed_p99_us".to_string(), json!(quantile_us(fixed.p99)));
    run.metrics.insert("hybrid_p99_us".to_string(), json!(quantile_us(hybrid.p99)));
    run.metrics.insert("hybrid_p999_us".to_string(), json!(quantile_us(hybrid.p999)));

    let modes = json!({ "fixed": mode_json(&fixed), "hybrid": mode_json(&hybrid) });
    let report = json!({
        "schema": "serve-bench-v1",
        "docs": DOCS,
        "queries": N_QUERIES,
        "zipf_skew": ZIPF_SKEW,
        "k": K,
        "concurrency": CONCURRENCY,
        "workers": WORKERS,
        "shards": SHARDS,
        "pool_threads": POOL_THREADS,
        "heavy_df_threshold": heavy_df_threshold,
        "modes": modes,
        "p99_gain": quantile_us(fixed.p99) / quantile_us(hybrid.p99).max(1e-9),
    });
    // Service latencies run real thread handoffs under a saturated closed
    // loop and swing more than single-threaded micro numbers, so the
    // absolute ceilings are a coarse backstop (the hard gate is the
    // relational hybrid-beats-fixed check) with a loose ratio.
    let template = json!({
        "schema": "serve-gate-thresholds-v1",
        "comment": "max_us baselines for the serve tail-latency gate; a run fails when measured > baseline * fail_above_ratio. The relational gate (hybrid p99 < fixed p99) is machine-independent and always enforced by --check. Regenerate with: cargo run --release -p iiu-bench --bin serve_bench -- --write-thresholds BENCH_serve_thresholds.json",
        "fail_above_ratio": 2.0,
    });
    run.finish(&args, report, template, |_| rules(&fixed, &hybrid))
}
