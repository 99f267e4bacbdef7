//! End-to-end tests of the resilient serving layer: shedding, deadlines,
//! retries, breaker trip/recovery, panic isolation, and shutdown drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iiu_core::{CpuSearchEngine, Degradation, Query, SearchEngine};
use iiu_index::InvertedIndex;
use iiu_serve::{
    BreakerConfig, BreakerState, FaultPlan, HealthSnapshot, IncrementalOptions, LiveIndex,
    PendingQuery, QueryService, Rejected, RetryPolicy, SchedulerConfig, ServeConfig,
    ShardPoolConfig,
};
use iiu_workloads::{CorpusConfig, QuerySampler};

fn tiny_index(seed: u64) -> InvertedIndex {
    let cfg = CorpusConfig { n_docs: 400, n_terms: 120, ..CorpusConfig::tiny(seed) };
    cfg.generate().into_default_index()
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
        retry: RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(500),
            ..RetryPolicy::default()
        },
        ..ServeConfig::default()
    }
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

/// Every offered query resolved exactly once, and the ones their own
/// caller ran are a subset of those that left the queue.
fn assert_accounting(h: &HealthSnapshot) {
    assert_eq!(h.submitted, h.answered() + h.rejected_total(), "accounting violated: {h}");
    assert!(
        h.caller_runs <= h.answered() + h.shed_deadline + h.failed,
        "caller-run queries exceed dequeued outcomes: {h}"
    );
}

#[test]
fn clean_queries_match_cpu_engine() {
    let index = Arc::new(tiny_index(0xA11CE));
    let svc = QueryService::start(Arc::clone(&index), quick_config());
    let mut sampler = QuerySampler::new(&index, 7);
    let mut cpu = CpuSearchEngine::new(&index);
    for (a, b) in sampler.pair_queries(6) {
        let q = Query::and(Query::term(&a), Query::term(&b));
        let served = svc.search_blocking(q.clone(), 10).expect("serving failed");
        let direct = cpu.search(&q, 10).expect("cpu search failed");
        assert_eq!(served.hits, direct.hits, "hits diverge for {a} AND {b}");
        assert!(served.degraded.is_empty(), "unexpected degradation: {:?}", served.degraded);
    }
    let h = svc.health();
    assert_eq!(h.submitted, 6);
    assert_eq!(h.completed, 6);
    assert_eq!(h.breaker, BreakerState::Closed);
    assert!(h.p50.is_some() && h.p99.is_some());
}

#[test]
fn unknown_terms_degrade_identically_to_cpu() {
    let index = Arc::new(tiny_index(0xBEE));
    let svc = QueryService::start(Arc::clone(&index), quick_config());
    let mut cpu = CpuSearchEngine::new(&index);
    let q = Query::or(Query::term("zzznotaterm"), Query::term(term_of(&index, 3)));
    let served = svc.search_blocking(q.clone(), 10).expect("serving failed");
    let direct = cpu.search(&q, 10).expect("cpu search failed");
    assert_eq!(served.hits, direct.hits);
    assert_eq!(served.degraded, direct.degraded);
    assert!(served
        .degraded
        .iter()
        .any(|d| matches!(d, Degradation::UnknownTermDropped { .. })));
}

fn term_of(index: &InvertedIndex, id: u32) -> &str {
    index.term_info(id).term.as_str()
}

#[test]
fn zero_deadline_is_shed_with_stage() {
    let index = Arc::new(tiny_index(0xD0));
    let cfg = ServeConfig { default_deadline: Duration::ZERO, ..quick_config() };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 0));
    match svc.search_blocking(q, 10) {
        Err(Rejected::DeadlineExceeded { stage }) => {
            assert!(!stage.is_empty());
        }
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    assert_eq!(svc.health().shed_deadline, 1);
}

#[test]
fn overload_sheds_typed_rejections() {
    let index = Arc::new(tiny_index(0x10AD));
    // One worker pinned down by retry backoff (the whole burst stalls
    // every attempt), a 2-deep queue: the burst of submissions must shed.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        default_deadline: Duration::from_secs(30),
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(80),
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 64)), ..FaultPlan::NONE },
        ..ServeConfig::default()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 0));
    let mut pending = Vec::new();
    let mut shed = 0usize;
    for _ in 0..16 {
        match svc.submit(q.clone(), 5) {
            Ok(p) => pending.push(p),
            Err(Rejected::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    assert!(shed >= 8, "only {shed}/16 shed with a 2-deep queue and a pinned worker");
    for p in pending {
        // Burst-sabotaged queries exhaust retries and fall back to CPU.
        let resp = p.wait().expect("admitted queries must still resolve");
        assert!(resp.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })));
    }
    let h = svc.health();
    assert_eq!(h.shed_overload, shed as u64);
    assert_eq!(h.submitted, 16);
    assert_eq!(h.degraded_ok + h.shed_overload, 16);
}

#[test]
fn sharded_fallback_serves_identical_hits_and_reports_shard_stats() {
    let index = Arc::new(tiny_index(0x5AAD));
    // Every device attempt of every query is sabotaged, so each query
    // exhausts retries and lands on the CPU fallback — which here fans
    // out across 3 document shards.
    let cfg = ServeConfig {
        shards: 3,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(100),
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 1024)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 21);
    let mut expected_candidates = 0u64;
    for (a, b) in sampler.pair_queries(5) {
        for q in [
            Query::term(a.clone()),
            Query::and(Query::term(&a), Query::term(&b)),
            Query::or(Query::term(&a), Query::term(&b)),
        ] {
            let served = svc.search_blocking(q.clone(), 10).expect("fallback should serve");
            let direct = cpu.search(&q, 10).expect("cpu search failed");
            assert_eq!(served.hits, direct.hits, "sharded fallback diverges for {q}");
            assert!(
                served.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })),
                "expected a fallback tag: {:?}",
                served.degraded
            );
            expected_candidates += served.candidates;
        }
    }
    let h = svc.health();
    assert_eq!(h.cpu_fallbacks, 15);
    assert_eq!(h.shards, 3);
    assert_eq!(h.shard_docs_scored.len(), 3, "one load counter per shard");
    assert!(
        h.shard_docs_scored.iter().all(|&d| d > 0),
        "every shard should have scored documents: {:?}",
        h.shard_docs_scored
    );
    // The fallback path keeps (not drops) the CPU outcome's accounting.
    assert_eq!(h.fallback_candidates, expected_candidates);
    assert!(h.fallback_modeled_ns > 0);
    assert!(h.to_string().contains("shards=3"));
}

#[test]
fn a_deadline_beyond_any_instant_means_no_deadline() {
    // `Duration::MAX` overflows `Instant + Duration`: the service must read
    // it as "no deadline", at admission and in the shard fan-out the pool
    // deadline is defaulted from.
    let index = Arc::new(tiny_index(0xD1A7));
    let cfg = ServeConfig {
        default_deadline: Duration::MAX,
        shards: 2,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 3));
    let served = svc.search_blocking(q.clone(), 10).expect("no deadline, no shed");
    let direct = CpuSearchEngine::new(&index).search(&q, 10).expect("cpu search failed");
    assert_eq!(served.hits, direct.hits);
    assert_eq!(svc.health().sched_fanout, 1);
}

#[test]
fn unsharded_fallback_still_records_its_work() {
    let index = Arc::new(tiny_index(0x5AAE));
    let cfg = ServeConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(100),
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 1024)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 2));
    let served = svc.search_blocking(q, 10).expect("fallback should serve");
    let h = svc.health();
    assert_eq!(h.shards, 1);
    assert!(h.shard_docs_scored.is_empty());
    assert_eq!(h.fallback_candidates, served.candidates);
    assert!(h.fallback_candidates > 0, "fallback work accounting was dropped");
}

#[test]
fn transient_stall_is_retried_and_tagged() {
    let index = Arc::new(tiny_index(0x7E57));
    // stall_rate 1.0 sabotages exactly the first attempt of every query;
    // the retry runs clean and must succeed with bit-identical hits.
    let cfg = ServeConfig {
        fault: FaultPlan { stall_rate: 1.0, seed: 9, ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let q = Query::term(term_of(&index, 1));
    let served = svc.search_blocking(q.clone(), 10).expect("retry should recover");
    let direct = cpu.search(&q, 10).expect("cpu search failed");
    assert_eq!(served.hits, direct.hits);
    assert!(
        served.degraded.contains(&Degradation::Retried { attempts: 2 }),
        "missing retry tag: {:?}",
        served.degraded
    );
    let h = svc.health();
    assert_eq!(h.retries, 1);
    assert_eq!(h.degraded_ok, 1);
    assert_eq!(h.cpu_fallbacks, 0, "retry must recover without falling back");
}

#[test]
fn breaker_trips_then_recovers() {
    let index = Arc::new(tiny_index(0xB12));
    // Single worker for a deterministic seq → outcome order. Queries
    // 0..3 stall on every attempt (retries disabled), tripping the
    // 3-failure breaker; later queries find a healed device.
    let cfg = ServeConfig {
        workers: 1,
        default_deadline: Duration::from_secs(30),
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(20),
            probe_successes: 2,
        },
        fault: FaultPlan { burst: Some((0, 3)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 2));

    for _ in 0..3 {
        let resp = svc.search_blocking(q.clone(), 10).expect("fallback answers");
        assert!(resp.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })));
    }
    assert_eq!(svc.health().breaker, BreakerState::Open);
    assert_eq!(svc.health().breaker_trips, 1);

    // While open (cooldown not elapsed), queries take the CPU with the
    // breaker-open reason.
    let resp = svc.search_blocking(q.clone(), 10).expect("open breaker still answers");
    assert!(resp.degraded.iter().any(|d| matches!(
        d,
        Degradation::CpuFallback { reason } if reason.contains("breaker")
    )));

    // After the cooldown, probes run on the healed device and close the
    // breaker again.
    std::thread::sleep(Duration::from_millis(30));
    let mut recovered = false;
    for _ in 0..8 {
        let resp = svc.search_blocking(q.clone(), 10).expect("probing answers");
        if resp.degraded.is_empty() {
            recovered = true;
        }
    }
    assert!(recovered, "device path never served again after cooldown");
    let h = svc.health();
    assert_eq!(h.breaker, BreakerState::Closed);
    assert!(h.breaker_recoveries >= 1);
    assert_eq!(h.panicked, 0);
}

#[test]
fn injected_panic_is_isolated_and_falls_back() {
    silence_injected_panics();
    let index = Arc::new(tiny_index(0xFA11));
    let cfg = ServeConfig {
        workers: 1,
        fault: FaultPlan { panic_burst: Some((0, 1)), ..FaultPlan::NONE },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let q = Query::term(term_of(&index, 0));

    let resp = svc.search_blocking(q.clone(), 10).expect("panic must not kill query");
    assert!(resp.degraded.iter().any(|d| matches!(
        d,
        Degradation::CpuFallback { reason } if reason.contains("panicked")
    )));

    // The worker survived and serves the next query cleanly.
    let resp = svc.search_blocking(q, 10).expect("worker must survive the panic");
    assert!(resp.degraded.is_empty(), "{:?}", resp.degraded);
    let h = svc.health();
    assert_eq!(h.panicked, 1);
    assert_eq!(h.completed, 1);
    assert_eq!(h.degraded_ok, 1);
}

#[test]
fn shutdown_drains_admitted_queries_and_rejects_new_ones() {
    let index = Arc::new(tiny_index(0x5D));
    let mut svc = QueryService::start(Arc::clone(&index), quick_config());
    let q = Query::term(term_of(&index, 0));
    let pending: Vec<_> =
        (0..8).map(|_| svc.submit(q.clone(), 5).expect("admission")).collect();
    svc.shutdown();
    assert!(matches!(svc.submit(q, 5), Err(Rejected::ShuttingDown)));
    for p in pending {
        p.wait().expect("admitted before shutdown, must be drained");
    }
    let h = svc.health();
    assert_eq!(h.completed, 8);
}

#[test]
fn shutdown_never_loses_the_wakeup_race() {
    // Regression test for a lost-wakeup deadlock: a worker that had just
    // observed the queue open under its lock but had not yet parked
    // would miss an unlocked close-and-wake and park forever, hanging
    // shutdown() on the join (seen in the wild as a soak run wedged with
    // one worker futex-parked). The window is a few instructions wide, so
    // this churn is a best-effort canary, not a reliable reproducer; the
    // real guarantee is the queue's monitor (every change and its wake
    // go through one update), tested deterministically in
    // `iiu_baseline::park`.
    let index = Arc::new(tiny_index(0xAA));
    let q = Query::term(term_of(&index, 0));
    for i in 0..400 {
        let cfg = ServeConfig { workers: 4, ..quick_config() };
        let mut svc = QueryService::start(Arc::clone(&index), cfg);
        // Every few iterations run a real query so some workers race from
        // the serve path back to the park point instead of from spawn.
        let pending = (i % 4 == 0).then(|| svc.submit(q.clone(), 3).expect("admission"));
        svc.shutdown();
        if let Some(p) = pending {
            p.wait().expect("admitted before shutdown, must be drained");
        }
    }
}

#[test]
fn wedged_shard_task_degrades_instead_of_hanging() {
    // Regression test for the fan-out deadline policy: a shard task that
    // stalls past the pool deadline must resolve as a partial answer
    // carrying Degradation::ShardsUnavailable — never hang the query or
    // the service. Chaos stalls half of all (seq, shard) executions for
    // 5x the fan-out deadline, so the stream mixes clean fan-outs,
    // one-shard wedges (partial answers), and total wedges (rescued by
    // the unsharded engine). All of them must answer, in bounded time.
    let index = Arc::new(tiny_index(0x3ED6ED));
    let cfg = ServeConfig {
        shards: 2,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        shard_pool: iiu_serve::ShardPoolConfig {
            deadline: Some(Duration::from_millis(40)),
            ..iiu_serve::ShardPoolConfig::default()
        },
        shard_chaos: iiu_serve::ShardChaosPlan {
            stall_rate: 0.5,
            stall: Duration::from_millis(200),
            seed: 0xC0FFEE,
            ..iiu_serve::ShardChaosPlan::NONE
        },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let started = std::time::Instant::now();
    let mut partials = 0u64;
    for id in 0..12u32 {
        let q = Query::term(term_of(&index, id));
        let resp = svc.search_blocking(q, 10).expect("fail-soft serving must answer");
        if resp.degraded.iter().any(|d| matches!(d, Degradation::ShardsUnavailable { .. })) {
            partials += 1;
        }
        // Let a stalled task finish sleeping so its shard drains and the
        // next query exercises a fresh wedge instead of piling onto a
        // shard already marked wedged (which resolves as a rescue, not a
        // partial).
        std::thread::sleep(Duration::from_millis(220));
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "wedged shard tasks must not stack into a hang"
    );
    let h = svc.health();
    assert!(partials > 0, "the stall plan should wedge at least one single shard");
    assert_eq!(h.shard_partials, partials);
    assert_eq!(h.answered(), 12, "every query answers despite wedged tasks");
}

#[test]
fn hybrid_scheduler_routes_by_cost_and_stays_bit_identical() {
    let index = Arc::new(tiny_index(0x11B71D));
    // Pick the rarest and the most common term, then set the heavy
    // threshold between them so the scheduler must use both routes.
    let df_of = |id: u32| index.term_info(id).df;
    let ids: Vec<u32> = (0..index.num_terms() as u32).collect();
    let rare = *ids.iter().min_by_key(|&&i| df_of(i)).expect("nonempty dictionary");
    let common = *ids.iter().max_by_key(|&&i| df_of(i)).expect("nonempty dictionary");
    assert!(df_of(rare) < df_of(common), "corpus must have df spread");
    let cfg = ServeConfig {
        shards: 2,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        scheduler: iiu_serve::SchedulerConfig {
            hybrid: true,
            heavy_df_threshold: df_of(common),
        },
        ..quick_config()
    };
    let svc = QueryService::start(Arc::clone(&index), cfg);
    let mut cpu = CpuSearchEngine::new(&index);
    let (rare, common) =
        (term_of(&index, rare).to_string(), term_of(&index, common).to_string());
    let queries = [
        Query::term(&rare),                                   // inline
        Query::term(&common),                                 // fan-out
        Query::and(Query::term(&rare), Query::term(&common)), // fan-out (longest list)
        Query::or(Query::term(&rare), Query::term(&common)),  // fan-out
    ];
    for q in queries {
        let served = svc.search_blocking(q.clone(), 10).expect("fallback should serve");
        let direct = cpu.search(&q, 10).expect("cpu search failed");
        assert_eq!(served.hits, direct.hits, "hybrid routing changed hits for {q}");
    }
    let h = svc.health();
    assert_eq!(h.sched_inline, 1, "the rare query routes inter-query");
    assert_eq!(h.sched_fanout, 3, "heavy-list queries route intra-query");
    assert_eq!(h.sched_inline + h.sched_fanout, h.cpu_fallbacks);
}

// ---- Help-first join: the waiting caller runs its own head-of-line job ----

/// How long [`pinned_worker`] keeps the only worker asleep.
const PIN: Duration = Duration::from_millis(400);

/// A one-worker service whose worker is parked in a device retry
/// back-off of [`PIN`]: query seq 0 stalls on every attempt, and the
/// function returns once the worker has taken it off the queue. Until the
/// back-off ends nothing but a waiting caller can execute a query.
fn pinned_worker(
    index: &Arc<InvertedIndex>,
    fault: FaultPlan,
) -> (QueryService, PendingQuery) {
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: PIN,
            max_backoff: PIN,
            jitter: 0.0,
        },
        fault: FaultPlan { burst: Some((0, 1)), ..fault },
        ..ServeConfig::default()
    };
    let svc = QueryService::start(Arc::clone(index), cfg);
    let blocker = svc.submit(Query::term(term_of(index, 0)), 5).expect("admission");
    while svc.health().queue_depth > 0 {
        std::thread::yield_now();
    }
    (svc, blocker)
}

#[test]
fn waiting_caller_runs_its_head_of_line_query() {
    let index = Arc::new(tiny_index(0x4E1F));
    let (svc, blocker) = pinned_worker(&index, FaultPlan::NONE);
    let q = Query::term(term_of(&index, 1));
    let started = std::time::Instant::now();
    let served = svc.search_blocking(q.clone(), 10).expect("helped query answers");
    let took = started.elapsed();
    assert!(took < PIN / 2, "answered in {took:?}: waited for the pinned worker");
    assert_eq!(svc.health().caller_runs, 1, "the only free thread was the caller");
    let direct = CpuSearchEngine::new(&index).search(&q, 10).expect("cpu search failed");
    assert_eq!(served.hits, direct.hits);
    assert!(served.degraded.is_empty(), "{:?}", served.degraded);

    // The worker's own query is untouched by the help next door.
    let resp = blocker.wait().expect("pinned query falls back");
    assert!(resp.degraded.iter().any(|d| matches!(d, Degradation::CpuFallback { .. })));
    let h = svc.health();
    assert_eq!((h.caller_runs, h.answered()), (1, 2));
    assert_accounting(&h);
}

#[test]
fn waiter_never_takes_a_job_that_is_not_at_the_front() {
    let index = Arc::new(tiny_index(0x0F1F0));
    let (svc, blocker) = pinned_worker(&index, FaultPlan::NONE);
    let first = svc.submit(Query::term(term_of(&index, 1)), 10).expect("admission");
    let second = svc.submit(Query::term(term_of(&index, 2)), 10).expect("admission");
    // `first` is ahead of it in the queue, so this waiter must leave both
    // alone and block until the worker has run them in admission order.
    second.wait().expect("second answers");
    let h = svc.health();
    assert_eq!(h.caller_runs, 0, "a waiter jumped the queue: {h}");
    assert_eq!(h.answered(), 3, "the worker ran seq 0, 1, 2 before the reply: {h}");
    first.wait().expect("first was answered by the worker");
    blocker.wait().expect("pinned query falls back");
    assert_accounting(&svc.health());
}

#[test]
fn panicking_query_run_by_its_caller_is_isolated() {
    silence_injected_panics();
    let index = Arc::new(tiny_index(0xD1E));
    // Seq 1 panics on its device attempt and again on the CPU fallback:
    // nothing is left to answer it.
    let fault = FaultPlan {
        panic_burst: Some((1, 2)),
        fallback_panic_burst: Some((1, 2)),
        ..FaultPlan::NONE
    };
    let (svc, blocker) = pinned_worker(&index, fault);
    let q = Query::term(term_of(&index, 1));
    match svc.search_blocking(q.clone(), 10) {
        Err(Rejected::Panicked { message }) => {
            assert!(message.contains("injected panic fault"), "{message}");
        }
        other => panic!("expected an isolated panic, got {other:?}"),
    }
    let h = svc.health();
    assert_eq!((h.caller_runs, h.panicked, h.failed), (1, 2, 1), "{h}");
    // The calling thread is unharmed and can be helped again.
    svc.search_blocking(q, 10).expect("next query answers");
    blocker.wait().expect("pinned query falls back");
    let h = svc.health();
    assert_eq!(h.caller_runs, 2);
    assert_accounting(&h);
}

#[test]
fn wait_resolves_across_shutdown_and_drop() {
    // Extends the lost-wakeup canary above to the help-first join: a
    // `PendingQuery` outlives `shutdown()` and the service itself, and
    // must resolve either way — by the drain, or by its own caller.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let churn = std::thread::spawn(move || {
        let index = Arc::new(tiny_index(0xAB));
        let q = Query::term(term_of(&index, 0));
        for i in 0..300 {
            let cfg = ServeConfig { workers: 2, ..quick_config() };
            let mut svc = QueryService::start(Arc::clone(&index), cfg);
            let pending: Vec<_> =
                (0..3).map(|_| svc.submit(q.clone(), 3).expect("admission")).collect();
            let resolve = |pending: Vec<PendingQuery>| {
                for p in pending {
                    match p.wait() {
                        Ok(_) | Err(Rejected::ShuttingDown) => {}
                        Err(other) => panic!("unexpected rejection: {other:?}"),
                    }
                }
            };
            match i % 3 {
                // Waiters race the shutdown from another thread.
                0 => {
                    let waiter = std::thread::spawn(move || resolve(pending));
                    svc.shutdown();
                    waiter.join().expect("waiter panicked");
                }
                1 => {
                    svc.shutdown();
                    resolve(pending);
                }
                _ => {
                    drop(svc);
                    resolve(pending);
                    continue;
                }
            }
            // Admitted before shutdown: drained or helped, never dropped.
            let h = svc.health();
            assert_eq!(h.answered(), 3, "{h}");
            assert_accounting(&h);
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a wait() hung across shutdown (or the churn thread panicked)");
    churn.join().expect("churn thread panicked");
}

/// Runs `q` until it has been executed once by a worker and once by the
/// calling thread, and returns `(worker_hits, helped_hits)`. Which thread
/// ran a given execution is read off `caller_runs`, not assumed.
fn run_both_ways(svc: &QueryService, q: &Query) -> (Vec<iiu_core::Hit>, Vec<iiu_core::Hit>) {
    // Worker-run: wait only once a worker has taken the job.
    let before = svc.health().caller_runs;
    let pending = svc.submit(q.clone(), 10).expect("admission");
    while svc.health().queue_depth > 0 {
        std::thread::yield_now();
    }
    let by_worker = pending.wait().expect("worker-run query answers").hits;
    assert_eq!(svc.health().caller_runs, before, "the worker already held the job");
    // Helped: waiting straight after the submit usually beats the worker's
    // wake-up to the queue; retry until the counter says it did.
    for _ in 0..10_000 {
        let before = svc.health().caller_runs;
        let hits = svc.search_blocking(q.clone(), 10).expect("query answers").hits;
        if svc.health().caller_runs > before {
            return (by_worker, hits);
        }
    }
    panic!("the caller never got to run {q} itself");
}

fn three_shapes(index: &InvertedIndex) -> [Query; 3] {
    let (a, b) = (term_of(index, 1), term_of(index, 2));
    [
        Query::term(a),
        Query::and(Query::term(a), Query::term(b)),
        Query::or(Query::term(a), Query::term(b)),
    ]
}

#[test]
fn helped_and_worker_run_hits_are_bit_identical_static() {
    let index = Arc::new(tiny_index(0xB17));
    let mut cpu = CpuSearchEngine::new(&index);
    // The device path, and the sharded CPU path the benchmarks serve on.
    let cpu_path = ServeConfig {
        shards: 2,
        pruned_cpu_fallback: true,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        ..quick_config()
    };
    for cfg in [ServeConfig { workers: 1, ..quick_config() }, cpu_path] {
        let svc = QueryService::start(Arc::clone(&index), cfg);
        for q in three_shapes(&index) {
            let (by_worker, helped) = run_both_ways(&svc, &q);
            assert_eq!(by_worker, helped, "helping changed hits for {q}");
            assert_eq!(helped, cpu.search(&q, 10).expect("cpu search failed").hits);
        }
        assert_accounting(&svc.health());
    }
}

#[test]
fn helped_and_worker_run_hits_are_bit_identical_live() {
    let dir = std::env::temp_dir().join(format!("iiu-serve-help-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let corpus = CorpusConfig { n_docs: 400, n_terms: 120, ..CorpusConfig::tiny(0x11FE) };
    let corpus = corpus.generate();
    // Two sealed segments plus a buffered tail: the live union path.
    let opts = IncrementalOptions { seal_threshold: 150, ..IncrementalOptions::default() };
    let live = Arc::new(LiveIndex::open(&dir, opts).expect("open live index"));
    live.ingest_batch(&corpus.to_docs()).expect("ingest");
    let index = corpus.into_default_index();
    let svc = QueryService::start_live(
        Arc::clone(&live),
        ServeConfig { workers: 1, ..quick_config() },
    );
    for q in three_shapes(&index) {
        let (by_worker, helped) = run_both_ways(&svc, &q);
        assert_eq!(by_worker, helped, "helping changed live hits for {q}");
        assert_eq!(helped, live.search(&q, 10).expect("live search failed").hits);
        assert!(!helped.is_empty(), "{q} should match documents");
    }
    assert_accounting(&svc.health());
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

// ---- One executor: whole queries and their shard parts share the threads ----

/// The fan-out deadline of the executor tests: only a failure bound, since
/// a passing run never waits for a part.
const FANOUT_DEADLINE: Duration = Duration::from_secs(5);

/// A service whose every query falls back to the CPU and fans out over two
/// shards (no hybrid routing), on `workers` threads and `pool_threads`.
fn fan_out_config(workers: usize, pool_threads: usize) -> ServeConfig {
    ServeConfig {
        workers,
        shards: 2,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
        shard_pool: ShardPoolConfig {
            pool_threads,
            deadline: Some(FANOUT_DEADLINE),
            ..ShardPoolConfig::default()
        },
        scheduler: SchedulerConfig { hybrid: false, ..SchedulerConfig::default() },
        ..quick_config()
    }
}

/// The `n` terms with the longest postings lists.
fn heaviest_terms(index: &InvertedIndex, n: usize) -> Vec<String> {
    let mut ids: Vec<u32> = (0..index.num_terms() as u32).collect();
    ids.sort_by_key(|&id| std::cmp::Reverse(index.term_info(id).df));
    ids.into_iter().take(n).map(|id| term_of(index, id).to_string()).collect()
}

/// Asserts that `resp` is a complete answer equal to the unsharded
/// engine's.
fn assert_complete(resp: &iiu_core::SearchResponse, index: &InvertedIndex, q: &Query) {
    assert!(
        !resp.degraded.iter().any(|d| matches!(d, Degradation::ShardsUnavailable { .. })),
        "{q} answered partially: {:?}",
        resp.degraded
    );
    let direct = CpuSearchEngine::new(index).search(q, 10).expect("cpu search failed");
    assert_eq!(resp.hits, direct.hits, "{q}");
}

#[test]
fn a_lone_thread_runs_the_parts_of_the_query_it_coordinates() {
    // One thread, two parts: the thread holding the query is the only one
    // that can run its parts, so it must run them itself rather than park
    // for them until the fan-out deadline.
    let index = Arc::new(tiny_index(0x1E1F));
    let svc = QueryService::start(Arc::clone(&index), fan_out_config(1, 1));
    let terms = heaviest_terms(&index, 2);
    let q = Query::and(Query::term(&terms[0]), Query::term(&terms[1]));
    let started = Instant::now();
    let pending = svc.submit(q.clone(), 10).expect("admission");
    // Wait only once the thread has taken the query: it coordinates.
    while svc.health().queue_depth > 0 {
        std::thread::yield_now();
    }
    let resp = pending.wait().expect("fan-out answers");
    assert!(started.elapsed() < FANOUT_DEADLINE, "the parts waited out the deadline");
    assert_complete(&resp, &index, &q);
    let h = svc.health();
    assert_eq!((h.caller_runs, h.sched_fanout, h.pool_workers.len()), (0, 1, 1), "{h}");
    assert!(h.shard_health.iter().all(|s| s.timeouts == 0), "{h}");
}

#[test]
fn concurrent_fan_outs_on_as_many_threads_all_answer_completely() {
    // Every thread may hold a coordinating query at once; none of them
    // may wait for a part that only a parked coordinator could run.
    let index = Arc::new(tiny_index(0xC0C0));
    let svc = QueryService::start(Arc::clone(&index), fan_out_config(2, 2));
    let terms = heaviest_terms(&index, 4);
    let queries: Vec<Query> = (0..64)
        .map(|i| {
            let (a, b) = (&terms[i % 4], &terms[(i + 1) % 4]);
            match i % 3 {
                0 => Query::term(a),
                1 => Query::and(Query::term(a), Query::term(b)),
                _ => Query::or(Query::term(a), Query::term(b)),
            }
        })
        .collect();
    let started = Instant::now();
    let pending: Vec<_> =
        queries.iter().map(|q| svc.submit(q.clone(), 10).expect("admission")).collect();
    for (q, p) in queries.iter().zip(pending) {
        assert_complete(&p.wait().expect("fan-out answers"), &index, q);
    }
    assert!(started.elapsed() < FANOUT_DEADLINE, "some parts waited out the deadline");
    let h = svc.health();
    assert_eq!((h.answered(), h.sched_fanout), (64, 64), "{h}");
    assert!(h.shard_health.iter().all(|s| s.timeouts == 0), "{h}");
    assert_accounting(&h);
}

#[test]
fn one_executor_thread_per_configured_thread() {
    // Static with shards: max(workers, pool_threads). Otherwise: workers.
    let index = Arc::new(tiny_index(0x7EAD));
    let threads = |cfg: ServeConfig| {
        QueryService::start(Arc::clone(&index), cfg).health().pool_workers.len()
    };
    assert_eq!(threads(fan_out_config(3, 2)), 3);
    assert_eq!(threads(fan_out_config(1, 4)), 4);
    // The repo benchmark's serve configuration.
    assert_eq!(threads(fan_out_config(2, 2)), 2);
    assert_eq!(threads(ServeConfig { workers: 2, shards: 1, ..quick_config() }), 2);

    let dir = std::env::temp_dir().join(format!("iiu-serve-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let live = Arc::new(LiveIndex::open(&dir, IncrementalOptions::default()).expect("open"));
    let svc = QueryService::start_live(live, ServeConfig { workers: 3, ..quick_config() });
    assert_eq!(svc.health().pool_workers.len(), 3);
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// A chaos plan stalling query 0's part 1 for `stall` and nothing else of
/// queries 0 and 1 (the seed is searched, so the draws are fixed).
fn stall_part_one_of_query_zero(stall: Duration) -> iiu_serve::ShardChaosPlan {
    let plan = |seed| iiu_serve::ShardChaosPlan {
        stall_rate: 0.5,
        stall,
        seed,
        ..iiu_serve::ShardChaosPlan::NONE
    };
    let stalls = |p: &iiu_serve::ShardChaosPlan| {
        [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(q, s)| p.sabotage_stall(q, s).is_some())
    };
    (0..)
        .map(plan)
        .find(|p| stalls(p) == [false, true, false, false])
        .expect("some seed stalls only part 1 of query 0")
}

/// One thread, two parts, a 200 ms fan-out deadline, and `stall` on part
/// 1 of the first query.
fn stalling_config(stall: Duration, default_deadline: Duration) -> ServeConfig {
    let mut cfg = fan_out_config(1, 1);
    cfg.shard_pool.deadline = Some(Duration::from_millis(200));
    cfg.shard_chaos = stall_part_one_of_query_zero(stall);
    cfg.default_deadline = default_deadline;
    cfg
}

/// Submits `q` and returns once the lone thread has taken it.
fn submit_to_the_thread(svc: &QueryService, q: &Query) -> PendingQuery {
    let pending = svc.submit(q.clone(), 10).expect("admission");
    while svc.health().queue_depth > 0 {
        std::thread::yield_now();
    }
    pending
}

#[test]
fn a_part_its_coordinator_runs_itself_runs_past_the_fan_out_deadline() {
    // The fan-out deadline bounds the wait for parts other threads run. A
    // part the coordinator runs itself runs to its end, like an inline
    // query: the answer comes after the stall, without that part.
    let stall = Duration::from_secs(1);
    let index = Arc::new(tiny_index(0x57A1));
    let svc = QueryService::start(
        Arc::clone(&index),
        stalling_config(stall, Duration::from_secs(10)),
    );
    let q = Query::term(&heaviest_terms(&index, 1)[0]);
    let started = Instant::now();
    let resp = submit_to_the_thread(&svc, &q).wait().expect("a partial answer");
    assert!(started.elapsed() >= stall, "the stalled part was cut short");
    assert!(
        resp.degraded.iter().any(|d| matches!(
            d,
            Degradation::ShardsUnavailable { missing, total: 2 } if missing == &[1]
        )),
        "{:?}",
        resp.degraded
    );
    let h = svc.health();
    let timeouts: Vec<u64> = h.shard_health.iter().map(|s| s.timeouts).collect();
    assert_eq!(timeouts, [0, 1], "{h}");

    // The part has returned: the next query covers both shards.
    assert_complete(&svc.search_blocking(q.clone(), 10).expect("answer"), &index, &q);
}

#[test]
fn shutdown_is_bounded_while_a_thread_is_stuck_in_a_part() {
    // The lone thread coordinates query 0 and runs its stalled part 1
    // itself. Shutdown waits at most the query deadline plus the join
    // grace, detaches the thread, and the query queued behind resolves.
    let stall = Duration::from_secs(20);
    let index = Arc::new(tiny_index(0x5407));
    let mut svc = QueryService::start(
        Arc::clone(&index),
        stalling_config(stall, Duration::from_millis(200)),
    );
    let q = Query::term(&heaviest_terms(&index, 1)[0]);
    let stuck = submit_to_the_thread(&svc, &q);
    let queued = svc.submit(q.clone(), 10).expect("admission");
    let started = Instant::now();
    svc.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited for the stalled part"
    );
    // Dropped at shutdown, or run by a thread that replaced the stuck one
    // (answered, or shed past its deadline); either way it resolves, and
    // long before the stall ends.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || drop(tx.send(queued.wait())));
    match rx.recv_timeout(Duration::from_secs(5)).expect("the queued query never resolved") {
        Ok(_) | Err(Rejected::ShuttingDown | Rejected::DeadlineExceeded { .. }) => {}
        Err(e) => panic!("queued query: {e}"),
    }
    drop(stuck);
}
