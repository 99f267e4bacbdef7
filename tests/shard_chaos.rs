//! Shard-level chaos campaign against the fail-soft serving layer.
//!
//! The acceptance bar for sharded fail-soft serving: 10 000 queries, every
//! one forced onto the sharded CPU path (the device is sabotaged
//! throughout), while shard workers are panicked at random and in a
//! deterministic quarantine-tripping burst, stalled past the pool
//! deadline, and assassinated mid-stream. The service must
//!
//! * stay available — every admitted query resolves, no coordinator hang,
//! * label partial answers truthfully — each one carries
//!   [`Degradation::ShardsUnavailable`] with the exact missing-shard set,
//! * keep surviving-shard hits bit-identical to an unsharded engine run
//!   over the surviving documents, and
//! * trip shard quarantine during the burst and recover via half-open
//!   probes afterwards, respawning every assassinated worker.
//!
//! Mirrors `tests/soak.rs`, one layer down: that soak chaoses the device
//! path and watches the breaker; this one chaoses the shard pool under the
//! CPU fallback and watches shard supervision.
//!
//! The campaign runs under the **hybrid scheduler** with Zipf-skewed
//! query popularity: cheap queries answer inline (inter-query) and heavy
//! ones fan out (intra-query) through the shared shard-task pool, so the
//! availability and bit-identity bars cover both routes at once.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use iiu_core::{CpuSearchEngine, Degradation, DocWindow, Hit, Query, SearchEngine};
use iiu_index::InvertedIndex;
use iiu_serve::{
    BreakerConfig, FaultPlan, QueryService, RetryPolicy, SchedulerConfig, ServeConfig,
    ShardChaosPlan, ShardPoolConfig,
};
use iiu_workloads::{traffic, CorpusConfig, TrafficConfig};

const N_QUERIES: usize = 10_000;
const SHARDS: usize = 4;
const TOP_K: usize = 10;
/// Engine-sequence window in which every execution on shard 1 panics —
/// long enough to trip quarantine (threshold 4) many times over, placed
/// mid-stream so the half-open recovery is also observable. Engine
/// sequence numbers count only fanned-out queries: under the hybrid
/// scheduler, inline (inter-query) answers never reach the shard engine,
/// so the windows sit early enough that the fan-out share of 10k queries
/// is certain to cross them.
const PANIC_BURST: (u64, u64, usize) = (1_000, 1_060, 1);
/// Worker assassinations `(engine seq, shard)`, exercising dead-worker
/// detection and pool-worker respawn twice.
const KILLS: [(u64, usize); 2] = [(2_000, 2), (3_000, 3)];

fn chaos_index() -> InvertedIndex {
    CorpusConfig { n_docs: 1_500, n_terms: 150, ..CorpusConfig::tiny(0x5AD) }
        .generate()
        .into_default_index()
}

/// The median longest-list size over the queries actually offered: a
/// heavy threshold that guarantees the hybrid router exercises both
/// modes on this traffic (the query sampler is df-biased, so a
/// dictionary-wide median would classify everything as heavy).
fn stream_median_heavy_df(index: &InvertedIndex, texts: &[String]) -> u64 {
    let mut maxes: Vec<u64> = texts
        .iter()
        .map(|t| {
            let q = Query::parse(t).expect("traffic query parses");
            iiu_core::estimate_query_cost(index, &q.terms()).max_list_postings
        })
        .collect();
    maxes.sort_unstable();
    assert!(
        maxes.first() < maxes.last(),
        "degenerate traffic: every query has the same longest list"
    );
    maxes[maxes.len() / 2]
}

/// Keeps intentional injected shard panics from spraying backtraces over
/// the test output; real panics still print.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("injected") {
            default_hook(info);
        }
    }));
}

/// What an unsharded engine answers over only the surviving documents: the
/// full ranking, minus documents living in missing docID windows, cut to
/// `k`. Exact because `top_k`'s `rank_cmp` ordering is total and
/// deterministic.
fn surviving_reference(
    index: &InvertedIndex,
    text: &str,
    missing: &[usize],
    k: usize,
) -> Vec<Hit> {
    let query = Query::parse(text).expect("traffic query parses");
    let full_k = index.num_docs() as usize + 1;
    let mut engine = CpuSearchEngine::new(index);
    let mut hits = engine.search(&query, full_k).expect("reference search succeeds").hits;
    let windows = DocWindow::split(index.num_docs(), SHARDS);
    hits.retain(|h| !missing.iter().any(|&w| windows[w].contains(h.doc_id)));
    hits.truncate(k);
    hits
}

#[test]
fn shard_chaos_campaign_stays_available_and_truthful() {
    silence_injected_panics();
    let index = Arc::new(chaos_index());

    let stream = traffic::open_loop(
        &index,
        &TrafficConfig {
            rate_qps: 1e9, // arrival times unused: waves below self-pace
            n_queries: N_QUERIES,
            unknown_term_rate: 0.0,
            seed: 0xC405 ^ 0x5eed,
            // Head-heavy popularity: the hybrid scheduler sees the same
            // hot queries repeatedly, like production traffic would.
            zipf_skew: 1.0,
            ..TrafficConfig::default()
        },
    );
    let texts: Vec<String> = stream.iter().map(|tq| tq.text.clone()).collect();

    let cfg = ServeConfig {
        workers: 4,
        queue_capacity: 512,
        default_deadline: Duration::from_secs(30),
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(200),
            probe_successes: 2,
        },
        // Sabotage every device attempt: the breaker opens almost
        // immediately and the whole stream exercises the sharded CPU path.
        fault: FaultPlan { burst: Some((0, u64::MAX)), seed: 0xC405, ..FaultPlan::NONE },
        pruned_cpu_fallback: true,
        shards: SHARDS,
        shard_pool: ShardPoolConfig {
            deadline: Some(Duration::from_millis(50)),
            quarantine_threshold: 4,
            quarantine_cooldown: Duration::from_millis(30),
            ..ShardPoolConfig::default()
        },
        shard_chaos: ShardChaosPlan {
            panic_rate: 0.003,
            stall_rate: 0.0003,
            stall: Duration::from_millis(80),
            panic_burst: Some(PANIC_BURST),
            kills: KILLS.to_vec(),
            seed: 0x5EED_C405,
        },
        fail_closed_shards: false,
        scheduler: SchedulerConfig {
            hybrid: true,
            heavy_df_threshold: stream_median_heavy_df(&index, &texts),
        },
        ..ServeConfig::default()
    };

    let mut svc = QueryService::start(Arc::clone(&index), cfg);

    // Closed-loop waves sized under the queue capacity: nothing sheds, so
    // availability is exactly "every submitted query answers".
    let mut answered = 0u64;
    let mut rejected = 0u64;
    let mut partials = 0u64;
    let mut checked = 0u64;
    let mut reference_cache: HashMap<(String, Vec<usize>), Vec<Hit>> = HashMap::new();
    for (wave_no, wave) in stream.chunks(400).enumerate() {
        let pending: Vec<_> = wave
            .iter()
            .map(|tq| {
                let q = Query::parse(&tq.text).expect("generated query parses");
                (tq.text.as_str(), svc.submit(q, TOP_K).expect("waves never shed"))
            })
            .collect();
        for (i, (text, p)) in pending.into_iter().enumerate() {
            let resp = match p.wait() {
                Ok(resp) => resp,
                Err(_) => {
                    rejected += 1;
                    continue;
                }
            };
            answered += 1;
            let missing: Option<&[usize]> = resp.degraded.iter().find_map(|d| match d {
                Degradation::ShardsUnavailable { missing, total } => {
                    assert_eq!(*total, SHARDS, "wrong shard total in label");
                    assert!(
                        !missing.is_empty() && missing.len() < SHARDS,
                        "degenerate missing set {missing:?}"
                    );
                    Some(missing.as_slice())
                }
                _ => None,
            });
            if missing.is_some() {
                partials += 1;
            }
            // Bit-identity: every partial answer is checked against an
            // unsharded run over its surviving documents; complete answers
            // are spot-checked (full 10k reference runs would dominate the
            // test's wall clock without adding coverage).
            let spot_check = (wave_no * 400 + i) % 16 == 0;
            if let Some(miss) = missing {
                let key = (text.to_string(), miss.to_vec());
                let expect = reference_cache
                    .entry(key)
                    .or_insert_with(|| surviving_reference(&index, text, miss, TOP_K));
                assert_eq!(
                    &resp.hits, expect,
                    "partial hits diverge from surviving-doc reference \
                     (query {text:?}, missing {miss:?})"
                );
                checked += 1;
            } else if spot_check {
                let key = (text.to_string(), Vec::new());
                let expect = reference_cache
                    .entry(key)
                    .or_insert_with(|| surviving_reference(&index, text, &[], TOP_K));
                assert_eq!(
                    &resp.hits, expect,
                    "complete answer diverges from reference (query {text:?})"
                );
                checked += 1;
            }
        }
    }
    svc.shutdown();
    let h = svc.health();

    // 1. Availability: every admitted query resolved — and resolved with
    //    hits. Nothing hung (the test finishing is the hang check: every
    //    wait() returned) and nothing was shed or failed: even a total
    //    shard outage is rescued by the unsharded CPU engine.
    assert_eq!(answered + rejected, N_QUERIES as u64, "queries lost");
    assert_eq!(rejected, 0, "chaos must degrade, not reject: {h}");
    assert_eq!(h.submitted, N_QUERIES as u64, "admission lost queries: {h}");
    assert_eq!(h.answered(), answered, "caller-side vs stats mismatch: {h}");

    // 2. Partial answers happened and were all truthfully labeled; the
    //    service-side counter agrees with what callers saw.
    assert!(partials >= 1, "chaos produced no partial answers: {h}");
    assert_eq!(h.shard_partials, partials, "partial-answer accounting: {h}");
    assert!(
        partials < answered,
        "no complete answers at all — quarantine never recovered? {h}"
    );
    assert!(checked >= partials, "reference checking skipped partials");

    // 3. Shard supervision observed every injected failure mode.
    let burst_shard = &h.shard_health[PANIC_BURST.2];
    assert!(burst_shard.quarantine_trips >= 1, "panic burst never tripped quarantine: {h}");
    assert!(
        burst_shard.quarantine_recoveries >= 1,
        "quarantined shard never recovered half-open: {h}"
    );
    let total_panics: u64 = h.shard_health.iter().map(|s| s.panics).sum();
    let total_timeouts: u64 = h.shard_health.iter().map(|s| s.timeouts).sum();
    let total_respawns: u64 = h.pool_workers.iter().map(|w| w.respawns).sum();
    assert!(total_panics >= 1, "no shard panics recorded: {h}");
    assert!(total_timeouts >= 1, "no stall ever wedged a shard: {h}");
    assert!(total_respawns >= 1, "assassinated pool workers were never respawned: {h}");

    // 4. The hybrid scheduler actually used both routes, and every
    //    fallback query was routed exactly once.
    assert!(h.sched_inline >= 1, "no query ever routed inter-query: {h}");
    assert!(h.sched_fanout >= 1, "no query ever fanned out: {h}");
    assert_eq!(h.sched_inline + h.sched_fanout, h.cpu_fallbacks, "routing accounting: {h}");

    println!(
        "shard chaos: {answered} answered, {partials} partial, {checked} \
         reference-checked, {} inline / {} fanned out\n{h}",
        h.sched_inline, h.sched_fanout
    );
}
