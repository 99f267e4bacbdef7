//! What an index keeps on the heap once it is open.
//!
//! Every index — built in RAM, loaded onto the heap, or mapped — views the
//! bytes of one v5 file: its term directory, block columns, names and
//! payload are read where they lie, in the mapping or in the one owned
//! copy a build or a heap load holds. So a term costs a list handle, a
//! kept first-touch verdict, its `idf̄` and its dictionary slots, a block
//! nothing, and the index a fixed handful of allocations. A counting
//! global allocator pins that, and holds [`InvertedIndex::heap_bytes`] to
//! what the allocator saw.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

use iiu_index::{io, storage, InvertedIndex};
use iiu_workloads::CorpusConfig;

/// The system allocator, counting live allocations and requested bytes.
struct Counting;

static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

fn count(allocs: i64, bytes: i64) {
    LIVE_ALLOCS.fetch_add(allocs, Relaxed);
    LIVE_BYTES.fetch_add(bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain atomics updated only after the forwarded call succeeded.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(1, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(1, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-1, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(0, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live allocations and requested bytes.
#[derive(Debug, Clone, Copy)]
struct Held {
    allocs: i64,
    bytes: i64,
}

fn live() -> Held {
    Held { allocs: LIVE_ALLOCS.load(Relaxed), bytes: LIVE_BYTES.load(Relaxed) }
}

/// What `f`'s result keeps live: the counters after `f` minus before.
fn kept<T>(f: impl FnOnce() -> T) -> (T, Held) {
    let before = live();
    let out = f();
    let after = live();
    (out, Held { allocs: after.allocs - before.allocs, bytes: after.bytes - before.bytes })
}

/// What dropping `index` releases: all it held.
fn released(index: InvertedIndex) -> Held {
    let before = live();
    drop(index);
    let after = live();
    Held { allocs: before.allocs - after.allocs, bytes: before.bytes - after.bytes }
}

/// Requested bytes an index may keep, per term: its list handle (40 B),
/// its kept first-touch verdict (8 B), its `idf̄` (4 B) and at most four
/// tagged dictionary slots (32 B). No name is copied.
const PER_TERM: u64 = 84;
/// Per block: nothing — metadata words, skip values and bounds are read
/// from the file's columns.
const PER_BLOCK: u64 = 0;
/// Per document: its length and its `dl̄` constant.
const PER_DOC: u64 = 8;
/// The index struct's own few allocations (tables, `Arc`s, the mapping
/// handle) and allocator rounding.
const SLACK: u64 = 4096;
/// Allocations an index keeps whatever its size: the list handles, the
/// verdicts, the dictionary, the document tables, the file's owned copy
/// and a few `Arc`s.
const ALLOCS: i64 = 16;

/// What one index may keep, from its own shape, and what it says it keeps.
struct Expected {
    terms: u64,
    blocks: u64,
    bound: u64,
    heap_bytes: u64,
}

impl Expected {
    fn of(index: &InvertedIndex) -> Self {
        let terms = index.num_terms() as u64;
        let stats = index.size_stats();
        let file: u64 = io::section_sizes(index).iter().map(|(_, bytes)| bytes).sum();
        let owned_file = if index.source().is_mapped() { 0 } else { file };
        let bound = PER_TERM * terms
            + PER_BLOCK * stats.num_blocks
            + PER_DOC * index.num_docs()
            + owned_file
            + SLACK;
        Expected {
            terms,
            blocks: stats.num_blocks,
            bound,
            heap_bytes: index.heap_bytes().total(),
        }
    }

    /// Holds what the allocator saw to the allocation and byte bounds, and
    /// to [`InvertedIndex::heap_bytes`] within 10 %.
    fn check(&self, label: &str, held: Held) {
        let Expected { terms, blocks, bound, heap_bytes } = *self;
        println!(
            "{label}: {terms} terms, {blocks} blocks: {} live allocations ({:.2} per term), \
             {} bytes (bound {bound}, heap_bytes {heap_bytes})",
            held.allocs,
            held.allocs as f64 / terms as f64,
            held.bytes,
        );
        assert!(
            held.allocs <= ALLOCS,
            "{label}: {} live allocations for {terms} terms",
            held.allocs
        );
        assert!(held.bytes as u64 <= bound, "{label}: {} bytes > {bound}", held.bytes);
        assert!(
            (heap_bytes as f64 - held.bytes as f64).abs() <= 0.1 * held.bytes as f64,
            "{label}: heap_bytes says {heap_bytes}, the allocator {}",
            held.bytes
        );
    }
}

#[test]
fn an_open_index_costs_one_allocation_per_term() {
    // One test: the counters are process-wide, so nothing else may
    // allocate beside the measured calls.
    // The benchmark's corpus: 50,000 terms in 175,032 blocks.
    let built = CorpusConfig::ccnews_like(100_000).generate().into_default_index();
    let bytes = io::serialize(&built).expect("serializes");
    let path = std::env::temp_dir().join(format!("iiu-memory-{}.iiu", std::process::id()));
    std::fs::write(&path, &bytes).expect("scratch file writable");

    let (heap, heap_held) = kept(|| io::deserialize(&bytes).expect("loads"));
    drop(bytes);
    let (mapped, mapped_held) = kept(|| storage::map_index(&path).expect("maps"));
    std::fs::remove_file(&path).ok();
    assert_eq!(heap, built);
    assert_eq!(mapped, built);

    Expected::of(&mapped).check("mapped", mapped_held);
    Expected::of(&heap).check("heap", heap_held);
    // A build's scratch is gone once it returns, so what dropping the
    // index releases is what it kept.
    let expected = Expected::of(&built);
    expected.check("built", released(built));
}
