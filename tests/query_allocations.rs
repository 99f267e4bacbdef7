//! How many heap allocations a light query costs on the inline serving
//! route.
//!
//! The service answers a query it does not fan out on a fresh pruned
//! `CpuSearchEngine`, built for that query alone, so everything the engine
//! allocates at construction is paid once per query. A counting global
//! allocator ratchets the total over a fixed light pool: a change that adds
//! an allocation to that route fails here.
//!
//! The counter only moves while the measuring thread has its flag set, so
//! the test harness's own threads add nothing. The binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use iiu_core::{CpuSearchEngine, Query, SearchEngine};
use iiu_workloads::{CorpusConfig, QuerySampler};

/// The system allocator, counting allocations made while the calling
/// thread's [`MEASURING`] flag is set.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the duration of the measurement.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn tally() {
    // `try_with`: a thread being torn down may still free memory.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the tally reads a
// const-initialised thread-local (which never allocates) and bumps an
// atomic.
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
    let before = ALLOCATIONS.load(Relaxed);
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, ALLOCATIONS.load(Relaxed) - before)
}

/// The ceiling: the count this route makes today. Lower it when a change
/// removes allocations; a rise is a regression.
const MAX_ALLOCATIONS: u64 = 405;

#[test]
fn a_light_query_on_the_inline_route_stays_within_its_allocations() {
    let index = CorpusConfig::tiny(0xA110C).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 17);
    let mut pool: Vec<Query> =
        sampler.single_queries(20).into_iter().map(Query::term).collect();
    for (i, (a, b)) in sampler.pair_queries(40).into_iter().enumerate() {
        let (a, b) = (Query::term(a), Query::term(b));
        pool.push(if i % 2 == 0 { Query::and(a, b) } else { Query::or(a, b) });
    }

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
