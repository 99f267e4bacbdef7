//! How many heap allocations a light query costs on the inline serving
//! route, on the live read path and through the whole query service.
//!
//! The service answers a query it does not fan out on a pruned
//! `CpuSearchEngine` built for that query alone, which borrows the
//! thread's decode scratch. A live service answers every query with
//! `LiveIndex::search`. A counting global allocator ratchets each route's
//! total over a fixed light pool: a change that adds an allocation to any
//! of them fails here.
//!
//! The engine and live tests count on their own thread only, while its
//! flag is set. The service test counts on every thread, because the
//! service's threads run the queries; it holds [`SERIAL`] for its whole
//! run, as the other tests do, so nothing else in this binary allocates
//! meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use iiu_core::{CpuSearchEngine, IncrementalOptions, LiveIndex, Query, SearchEngine};
use iiu_index::InvertedIndex;
use iiu_serve::{
    BreakerConfig, FaultPlan, QueryService, RetryPolicy, SchedulerConfig, ServeConfig,
    ShardPoolConfig,
};
use iiu_workloads::{CorpusConfig, QuerySampler};

/// The system allocator, counting allocations made while the calling
/// thread's [`MEASURING`] flag is set.
struct Counting;

thread_local! {
    /// Set on the measuring thread for the duration of the measurement.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while [`MEASURING`] was set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Set while every thread's allocations count, into [`ALL_THREADS`].
static COUNTING_ALL: AtomicBool = AtomicBool::new(false);
/// Allocations any thread made while [`COUNTING_ALL`] was set.
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

/// Held for each test's whole run, so a test counting every thread's
/// allocations counts only its own.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tally() {
    if COUNTING_ALL.load(Ordering::Relaxed) {
        ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    }
    // `try_with`: a thread being torn down may still free memory.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the tally bumps
// atomics and const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made on this
/// thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations made on every thread while `f` runs.
fn allocations_on_all_threads<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALL_THREADS.load(Ordering::SeqCst);
    COUNTING_ALL.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING_ALL.store(false, Ordering::SeqCst);
    (out, ALL_THREADS.load(Ordering::SeqCst) - before)
}

/// The light pool every route answers: 20 single terms and 40 pairs,
/// alternately AND and OR, drawn from `index`.
fn light_pool(index: &InvertedIndex) -> Vec<Query> {
    let mut sampler = QuerySampler::new(index, 17);
    let mut pool: Vec<Query> =
        sampler.single_queries(20).into_iter().map(Query::term).collect();
    for (i, (a, b)) in sampler.pair_queries(40).into_iter().enumerate() {
        let (a, b) = (Query::term(a), Query::term(b));
        pool.push(if i % 2 == 0 { Query::and(a, b) } else { Query::or(a, b) });
    }
    pool
}

/// The ceiling: the count this route makes today. Lower it when a change
/// removes allocations; a rise is a regression.
const MAX_ALLOCATIONS: u64 = 121;

#[test]
fn a_light_query_on_the_inline_route_stays_within_its_allocations() {
    let _serial = serial();
    let index = CorpusConfig::tiny(0xA110C).generate().into_default_index();
    let pool = light_pool(&index);

    let (answered, total) = allocations(|| {
        pool.iter()
            .map(|q| CpuSearchEngine::new(&index).with_pruning(true).search(q, 10))
            .filter(|r| r.as_ref().is_ok_and(|r| !r.hits.is_empty()))
            .count()
    });
    println!("{} queries, {answered} with hits: {total} allocations", pool.len());
    assert!(answered > pool.len() / 2, "the pool must exercise the engine");
    assert!(total <= MAX_ALLOCATIONS, "{total} allocations > {MAX_ALLOCATIONS}");
}

/// The live route's ceiling over the same pool, answered twice: the first
/// pass warms the read path (the per-thread buffers, the `dl̄` table), the
/// second is counted. Lower it when a change removes allocations.
const MAX_LIVE_ALLOCATIONS: u64 = 60;

#[test]
fn a_light_query_on_the_live_index_stays_within_its_allocations() {
    let _serial = serial();
    let docs = CorpusConfig::tiny(0xA110C).generate().to_docs();
    let dir = std::env::temp_dir().join(format!("iiu-live-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts =
        IncrementalOptions { seal_threshold: 0, merge_threshold: 0, ..Default::default() };
    let live = LiveIndex::open(&dir, opts).expect("open");
    // Two sealed segments and a write buffer, as the benchmark's live
    // workload reads.
    let n = docs.len();
    for part in [&docs[..n / 2], &docs[n / 2..3 * n / 4]] {
        live.ingest_batch(part).expect("ingest");
        live.seal().expect("seal");
    }
    live.ingest_batch(&docs[3 * n / 4..]).expect("ingest");
    let pool = light_pool(&live.snapshot().expect("snapshot"));

    let answer = |q: &Query| live.search(q, 10).is_ok_and(|r| !r.hits.is_empty());
    let warm = pool.iter().filter(|q| answer(q)).count();
    let (answered, total) = allocations(|| pool.iter().filter(|q| answer(q)).count());
    println!("{} live queries, {answered} with hits: {total} allocations", pool.len());
    assert_eq!(answered, warm);
    assert!(answered > pool.len() / 2, "the pool must exercise the live index");
    assert!(total <= MAX_LIVE_ALLOCATIONS, "{total} allocations > {MAX_LIVE_ALLOCATIONS}");
    drop(live);
    std::fs::remove_dir_all(&dir).ok();
}

/// The repo benchmark's serve configuration: two workers, two docID
/// windows on two pool threads, hybrid routing and pruning on. The first
/// device attempt is sabotaged and nothing retries, so the breaker opens
/// and stays open: every answer comes from the software engine.
fn benchmark_serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 4096,
        default_deadline: Duration::from_secs(60),
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(3_600),
            probe_successes: 2,
        },
        fault: FaultPlan { burst: Some((0, u64::MAX)), seed: 0x5E12, ..FaultPlan::NONE },
        pruned_cpu_fallback: true,
        shards: 2,
        shard_pool: ShardPoolConfig { pool_threads: 2, ..ShardPoolConfig::default() },
        scheduler: SchedulerConfig { hybrid: true, ..SchedulerConfig::default() },
        ..ServeConfig::default()
    }
}

/// The service route's count over the same pool, on every thread, in a
/// pass where every caller runs its own query (the help-first join).
/// Lower it when a change removes allocations.
const MAX_SERVICE_ALLOCATIONS: u64 = 412;
/// Whether a caller or a woken worker runs a query is a race. A caller
/// that waits for a worker's reply costs about one allocation more (its
/// reply channel registers the waiter), so a pass where some callers
/// wait reads up to one more per waiting caller. The test reads the
/// fewest of [`SERVICE_PASSES`] passes, after one pass that opens the
/// breaker and warms the threads, and allows this many waits in it.
const WAITING_CALLERS: u64 = 30;
const SERVICE_PASSES: usize = 20;

#[test]
fn a_light_query_through_the_service_stays_within_its_allocations() {
    let _serial = serial();
    let index = Arc::new(CorpusConfig::tiny(0xA110C).generate().into_default_index());
    let pool = light_pool(&index);
    let mut service = QueryService::start(Arc::clone(&index), benchmark_serve_config());
    let pass = || {
        let batch = pool.clone();
        allocations_on_all_threads(|| {
            batch
                .into_iter()
                .map(|q| service.search_blocking(q, 10))
                .filter(|r| r.as_ref().is_ok_and(|r| !r.hits.is_empty()))
                .count()
        })
    };
    let (warm, _) = pass();
    let passes: Vec<(usize, u64)> = (0..SERVICE_PASSES).map(|_| pass()).collect();
    let health = service.health();
    service.shutdown();

    let fewest = passes.iter().map(|&(_, n)| n).min().unwrap_or(u64::MAX);
    let counts: Vec<u64> = passes.iter().map(|&(_, n)| n).collect();
    println!(
        "{} service queries per pass, {warm} with hits: {counts:?} allocations",
        pool.len()
    );
    assert!(passes.iter().all(|&(answered, _)| answered == warm));
    assert!(warm > pool.len() / 2, "the pool must exercise the service");
    assert_eq!(health.breaker, iiu_serve::BreakerState::Open, "every answer is the CPU's");
    assert_eq!(health.sched_fanout, 0, "a light query runs inline");
    let ceiling = MAX_SERVICE_ALLOCATIONS + WAITING_CALLERS;
    assert!(fewest <= ceiling, "{fewest} allocations > {ceiling}");
}
