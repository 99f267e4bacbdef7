//! How many heap allocations a light query costs on the inline serving
//! route and on the live read path.
//!
//! The service answers a query it does not fan out on a fresh pruned
//! `CpuSearchEngine`, built for that query alone, so everything the engine
//! allocates at construction is paid once per query. A live service
//! answers every query with `LiveIndex::search`. A counting global
//! allocator ratchets each route's total over a fixed light pool: a change
//! that adds an allocation to either fails here.
//!
//! Each thread counts its own allocations, and only while its flag is set,
//! so the test harness's other threads (and the other test) add nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iiu_core::{CpuSearchEngine, IncrementalOptions, LiveIndex, Query, SearchEngine};
use iiu_index::InvertedIndex;
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

fn tally() {
    // `try_with`: a thread being torn down may still free memory.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the tally reads
// and bumps const-initialised thread-locals, which never allocate.
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

/// The light pool both routes answer: 20 single terms and 40 pairs,
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
const MAX_ALLOCATIONS: u64 = 405;

#[test]
fn a_light_query_on_the_inline_route_stays_within_its_allocations() {
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
const MAX_LIVE_ALLOCATIONS: u64 = 240;

#[test]
fn a_light_query_on_the_live_index_stays_within_its_allocations() {
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
