//! Fault-injected soak of the serving layer.
//!
//! The acceptance bar for the resilient serving layer: 10 000 queries
//! offered open-loop at 2× the measured sustainable rate, with 1% of
//! device attempts stalled and a deterministic all-fail burst in the
//! middle, must complete with
//!
//! * zero panics reaching any caller or killing any worker,
//! * every query resolved as exactly one of {clean hits, degraded hits,
//!   typed rejection} — accounting closes exactly, and
//! * the circuit breaker observed to trip during the burst and recover
//!   after it.
//!
//! The sustainable rate is measured on the same corpus and worker pool
//! immediately before the soak, so the 2× overload factor tracks the
//! machine the test runs on instead of a hard-coded qps number.
//!
//! The soak offers Zipf-skewed traffic and serves its CPU fallbacks
//! through the hybrid scheduler over a 2-shard pool, so overload, faults,
//! and breaker churn all land on the same inter/intra-query routing the
//! production path uses.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iiu_core::Query;
use iiu_index::InvertedIndex;
use iiu_serve::{
    BreakerConfig, FaultPlan, QueryService, RetryPolicy, SchedulerConfig, ServeConfig,
};
use iiu_workloads::{traffic, CorpusConfig, TrafficConfig};

const N_QUERIES: usize = 10_000;
const STALL_RATE: f64 = 0.01;
/// Queries (by admission sequence) whose device attempts all fail,
/// forcing the breaker to trip; placed mid-stream so recovery is also
/// observable. Admission sequence numbers count only admitted queries, so
/// the window is reached as long as ~2 000 queries survive shedding —
/// well under the answered-fraction floor asserted below.
const BURST: (u64, u64) = (2_000, 2_120);

fn soak_index() -> InvertedIndex {
    CorpusConfig { n_docs: 1_500, n_terms: 150, ..CorpusConfig::tiny(0x50AB) }
        .generate()
        .into_default_index()
}

fn base_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 256,
        default_deadline: Duration::from_secs(5),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(1),
            jitter: 0.5,
        },
        breaker: BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(20),
            probe_successes: 2,
        },
        ..ServeConfig::default()
    }
}

/// Measures the pool's clean throughput: a batch of queries submitted all
/// at once and drained, so every worker stays busy for the whole probe.
fn measure_sustainable_qps(index: &Arc<InvertedIndex>, workers: usize) -> f64 {
    let n_probe = 400usize;
    let cfg = ServeConfig { queue_capacity: n_probe + workers, ..base_config(workers) };
    let svc = QueryService::start(Arc::clone(index), cfg);
    let stream = traffic::open_loop(
        index,
        &TrafficConfig {
            rate_qps: 1e9, // all arrivals at t≈0: measures service capacity
            n_queries: n_probe,
            unknown_term_rate: 0.0,
            seed: 0xCA1,
            ..TrafficConfig::default()
        },
    );
    let started = Instant::now();
    let pending: Vec<_> = stream
        .iter()
        .map(|tq| {
            let q = Query::parse(&tq.text).expect("generated query parses");
            svc.submit(q, 10).expect("probe admission within capacity")
        })
        .collect();
    let answered = pending.into_iter().map(|p| p.wait()).filter(Result::is_ok).count();
    let qps = answered as f64 / started.elapsed().as_secs_f64();
    assert!(answered > 0, "capacity probe answered nothing");
    qps.max(50.0)
}

/// Keeps intentional injected panics from spraying backtraces over the
/// test output; real panics still print.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str).unwrap_or("");
        if !msg.contains("injected panic fault") {
            default_hook(info);
        }
    }));
}

#[test]
fn soak_overload_with_faults_and_breaker_recovery() {
    silence_injected_panics();
    let workers = 4;
    let index = Arc::new(soak_index());
    let sustainable = measure_sustainable_qps(&index, workers);
    let offered = 2.0 * sustainable;

    let stream = traffic::open_loop(
        &index,
        &TrafficConfig {
            rate_qps: offered,
            n_queries: N_QUERIES,
            unknown_term_rate: 0.02,
            seed: 0x50A_u64 ^ 0x5eed,
            // Head-heavy popularity, as production traffic would be.
            zipf_skew: 1.0,
            ..TrafficConfig::default()
        },
    );

    // Median longest-list size over the offered queries: a heavy
    // threshold that guarantees the hybrid router exercises both modes
    // on this traffic (the sampler is df-biased, so a dictionary-wide
    // median would classify everything as heavy).
    let mut maxes: Vec<u64> = stream
        .iter()
        .map(|tq| {
            let q = Query::parse(&tq.text).expect("generated query parses");
            iiu_core::estimate_query_cost(&index, &q.terms()).max_list_postings
        })
        .collect();
    maxes.sort_unstable();
    let cfg = ServeConfig {
        fault: FaultPlan {
            stall_rate: STALL_RATE,
            burst: Some(BURST),
            panic_burst: Some((BURST.0, BURST.0 + 10)),
            seed: 0xFA_017,
            ..FaultPlan::NONE
        },
        shards: 2,
        scheduler: SchedulerConfig {
            hybrid: true,
            heavy_df_threshold: maxes[maxes.len() / 2],
        },
        ..base_config(workers)
    };
    let mut svc = QueryService::start(Arc::clone(&index), cfg);

    let started = Instant::now();
    let mut pending = Vec::with_capacity(N_QUERIES);
    let mut admission_sheds = 0u64;
    for tq in &stream {
        if let Some(wait) = tq.at.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        let q = Query::parse(&tq.text).expect("generated query parses");
        match svc.submit(q, 10) {
            Ok(p) => pending.push(p),
            Err(_) => admission_sheds += 1,
        }
    }

    let mut answered = 0u64;
    let mut rejected = 0u64;
    for p in pending {
        match p.wait() {
            Ok(resp) => {
                answered += 1;
                // Hits stay well-formed even under overload.
                assert!(resp.hits.len() <= 10);
            }
            Err(_) => rejected += 1,
        }
    }
    svc.shutdown();
    let h = svc.health();

    // 1. Zero unisolated panics: every worker survived to drain the queue,
    //    and no caller saw a panic propagate. (h.panicked counts *isolated*
    //    panics on either path — device attempt or CPU fallback — which
    //    the panic_burst makes nonzero on purpose.)
    assert!(h.panicked >= 1, "panic injection never fired: {h}");

    // 2. Exact accounting: every submitted query resolved exactly once.
    assert_eq!(h.submitted, h.answered() + h.rejected_total(), "accounting violated: {h}");
    assert_eq!(h.submitted, N_QUERIES as u64, "admission lost queries: {h}");
    assert_eq!(answered, h.answered(), "caller-side vs stats answered mismatch");
    assert_eq!(
        rejected + admission_sheds,
        h.rejected_total(),
        "caller-side vs stats rejected mismatch"
    );
    // Queries the draining caller ran itself are a subset of the dequeued
    // outcomes; they are counted once, by outcome, like worker-run ones.
    assert!(
        h.caller_runs <= h.answered() + h.shed_deadline + h.failed,
        "caller-run queries exceed dequeued outcomes: {h}"
    );

    // 3. The fault burst tripped the breaker and it recovered afterwards.
    assert!(h.breaker_trips >= 1, "breaker never tripped: {h}");
    assert!(h.breaker_recoveries >= 1, "breaker never recovered: {h}");

    // 4. The injected stalls exercised the retry path, and every CPU
    //    fallback went through the hybrid router exactly once.
    assert!(h.retries >= 1, "no retries under {STALL_RATE} stall rate: {h}");
    assert!(h.cpu_fallbacks >= 1, "burst produced no CPU fallbacks: {h}");
    assert_eq!(
        h.sched_inline + h.sched_fanout,
        h.cpu_fallbacks,
        "hybrid routing accounting: {h}"
    );

    // 5. At 2× the sustainable rate the bounded queue must shed rather
    //    than absorb unbounded latency — while still answering a solid
    //    share of the offered load (an open loop at 2× capacity cannot
    //    answer much more than half).
    assert!(h.shed_overload >= 1, "no load shedding at 2x capacity: {h}");
    assert!(
        h.answered() > (N_QUERIES as u64) / 3,
        "answered too few even for a 2x overload: {h}"
    );

    println!("soak: sustainable {sustainable:.0} qps, offered {offered:.0} qps\n{h}");
}
