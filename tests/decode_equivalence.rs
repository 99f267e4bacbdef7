//! Equivalence suite for the hot-path block decode: the fused zero-alloc
//! block decode against the allocating wrapper and the encoded postings,
//! the pruned walk's docIDs-only and column decodes against it, and
//! engine-level invariance of both results and cost tallies under
//! scratch reuse, within one engine and across every engine that borrows
//! a thread's scratch.

use iiu_baseline::{CpuEngine, OpCounts};
use iiu_core::{CpuSearchEngine, IncrementalOptions, LatencyBreakdown, LiveIndex, Query};
use iiu_core::{SearchEngine, SearchResponse};
use iiu_index::block::EncodedList;
use iiu_index::codec::BlockColumns;
use iiu_index::{io, storage, InvertedIndex, Posting, PostingList};
use iiu_workloads::{CorpusConfig, QuerySampler};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused zero-alloc block decode and the allocating wrapper agree
    /// with each other and with the postings that were encoded, across
    /// random gap/tf distributions (including tf == 1 lists that encode
    /// at tf_bits == 1 and constant lists hitting width 0 paths) and
    /// random block partitions.
    #[test]
    fn prop_decode_block_into_matches_decode_block(
        pairs in proptest::collection::vec((1u32..2000, 1u32..200), 1..300),
        chunk in 1usize..48,
    ) {
        let mut list = PostingList::new();
        let mut doc = 0u32;
        for &(gap, tf) in &pairs {
            doc += gap;
            list.push(doc, tf);
        }
        let n = list.len();
        let mut block_lens = vec![chunk; n / chunk];
        if n % chunk != 0 {
            block_lens.push(n % chunk);
        }
        let enc = EncodedList::encode(&list, &block_lens).expect("encodable");

        let mut fused_all: Vec<Posting> = Vec::new();
        let mut reused = Vec::new();
        for b in 0..enc.num_blocks() {
            let fresh = enc.decode_block(b);
            reused.clear();
            enc.decode_block_into(b, &mut reused);
            prop_assert_eq!(&fresh, &reused);
            let mut tried = Vec::new();
            enc.try_decode_block_into(b, &mut tried).expect("valid block");
            prop_assert_eq!(&fresh, &tried);
            fused_all.extend_from_slice(&reused);
        }
        prop_assert_eq!(fused_all, list.as_slice().to_vec());
    }

    /// The pruned walk's block access — one verified view, blocks decoded
    /// docIDs-only with their tfs read one at a time, or into columns —
    /// agrees with the pair decode block for block, through a scratch
    /// reused across blocks of different lengths.
    #[test]
    fn prop_column_decodes_and_tf_reads_match_the_pair_decode(
        pairs in proptest::collection::vec((1u32..5000, 0u32..300), 1..400),
        chunk in 1usize..80,
    ) {
        let mut list = PostingList::new();
        let mut doc = 0u32;
        for &(gap, tf) in &pairs {
            doc += gap;
            list.push(doc, tf);
        }
        let n = list.len();
        let mut block_lens = vec![chunk; n / chunk];
        if n % chunk != 0 {
            block_lens.push(n % chunk);
        }
        let enc = EncodedList::encode(&list, &block_lens).expect("encodable");
        let view = enc.verified().expect("an owned list verifies");
        let mut cols = BlockColumns::default();
        for b in 0..enc.num_blocks() {
            let want = enc.decode_block(b);
            let packed = view.try_decode_docs_into(b, &mut cols).expect("valid block");
            prop_assert!(want.iter().map(|p| p.doc_id).eq(cols.docs().iter().copied()));
            prop_assert!(cols.tfs().is_empty());
            for (i, p) in want.iter().enumerate() {
                prop_assert_eq!(packed.get(i), p.tf, "block {} posting {}", b, i);
            }
            view.try_decode_columns_into(b, &mut cols).expect("valid block");
            prop_assert!(want.iter().map(|p| p.doc_id).eq(cols.docs().iter().copied()));
            prop_assert!(want.iter().map(|p| p.tf).eq(cols.tfs().iter().copied()));
        }
    }
}

/// Running the same queries twice on one engine (warm scratch) and on a
/// fresh engine must return bit-identical hits and identical decode
/// tallies: reusing buffers never changes results or the cost-model
/// accounting. `cache_hits` counts SvS probes into the block the previous
/// probe opened.
#[test]
fn scratch_reuse_and_caching_never_change_results_or_tallies() {
    let index = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 9);
    let singles = sampler.single_queries(8);
    let pairs = sampler.pair_queries(8);

    let warm = CpuEngine::new(&index);
    for term in &singles {
        let cold = CpuEngine::new(&index).search_single(term, 10).expect("known term");
        let first = warm.search_single(term, 10).expect("known term");
        let second = warm.search_single(term, 10).expect("known term");
        for run in [&first, &second] {
            assert_eq!(cold.hits, run.hits, "hits must be bit-identical for {term}");
            assert_eq!(cold.counts.blocks_decoded, run.counts.blocks_decoded, "{term}");
            assert_eq!(cold.counts.postings_decoded, run.counts.postings_decoded, "{term}");
            assert_eq!(cold.candidates, run.candidates, "{term}");
        }
    }

    let mut hits_total = 0u64;
    for (a, b) in &pairs {
        let cold_and = CpuEngine::new(&index).search_intersection(a, b, 10).expect("known");
        let warm_and = warm.search_intersection(a, b, 10).expect("known");
        assert_eq!(cold_and.hits, warm_and.hits);
        assert_eq!(cold_and.counts.blocks_decoded, warm_and.counts.blocks_decoded);
        assert_eq!(cold_and.counts.postings_decoded, warm_and.counts.postings_decoded);
        // hits + misses = the probes that landed in a long-list block.
        assert_eq!(
            warm_and.counts.cache_hits + warm_and.counts.cache_misses,
            cold_and.counts.cache_hits + cold_and.counts.cache_misses,
            "probe count must not depend on cache temperature"
        );
        hits_total += warm_and.counts.cache_hits;

        let cold_or = CpuEngine::new(&index).search_union(a, b, 10).expect("known");
        let warm_or = warm.search_union(a, b, 10).expect("known");
        assert_eq!(cold_or.hits, warm_or.hits);
        assert_eq!(cold_or.counts.blocks_decoded, warm_or.counts.blocks_decoded);
        assert_eq!(cold_or.counts.postings_decoded, warm_or.counts.postings_decoded);
    }
    // Consecutive same-block probes exist in any clustered intersection;
    // the tiny corpus produces some, so the counter must have moved.
    assert!(hits_total > 0, "expected at least one block-cache hit across 8 AND queries");
}

/// What one query answered: hits, candidates, and the work it did, as
/// operation counts where the engine reports them and as their modeled
/// price where it does not.
#[derive(Debug, PartialEq)]
struct Answer {
    hits: Vec<iiu_baseline::Hit>,
    candidates: u64,
    counts: Option<OpCounts>,
    breakdown: Option<LatencyBreakdown>,
}

impl From<SearchResponse> for Answer {
    fn from(r: SearchResponse) -> Self {
        Answer {
            hits: r.hits,
            candidates: r.candidates,
            counts: None,
            breakdown: Some(r.breakdown),
        }
    }
}

/// One query of the interleaved stream, answerable on any thread.
type Op<'a> = Box<dyn Fn() -> Answer + Sync + 'a>;

/// The primitive shapes through a `CpuEngine`, pruned or exhaustive.
fn engine_ops<'a>(index: &'a InvertedIndex, seed: u64, pruned: bool) -> Vec<Op<'a>> {
    let engine = CpuEngine::new(index).with_pruning(pruned);
    let mut sampler = QuerySampler::new(index, seed);
    let answer = |o: iiu_baseline::QueryOutcome| Answer {
        hits: o.hits,
        candidates: o.candidates,
        counts: Some(o.counts),
        breakdown: None,
    };
    let mut ops: Vec<Op<'a>> = Vec::new();
    for t in sampler.single_queries(4) {
        ops.push(Box::new(move || answer(engine.search_single(&t, 10).expect("known"))));
    }
    for (a, b) in sampler.pair_queries(4) {
        let (x, y) = (a.clone(), b.clone());
        ops.push(Box::new(move || {
            answer(engine.search_intersection(&a, &b, 10).expect("known"))
        }));
        ops.push(Box::new(move || answer(engine.search_union(&x, &y, 10).expect("known"))));
    }
    ops
}

/// General trees of three terms through a `CpuSearchEngine`.
fn tree_ops<'a>(index: &'a InvertedIndex, seed: u64) -> Vec<Op<'a>> {
    let engine = CpuSearchEngine::new(index).with_pruning(true);
    let mut sampler = QuerySampler::new(index, seed);
    let terms: Vec<Query> = sampler.single_queries(6).into_iter().map(Query::term).collect();
    terms
        .chunks(3)
        .map(|c| -> Op<'a> {
            let q = Query::or(Query::and(c[0].clone(), c[1].clone()), c[2].clone());
            Box::new(move || {
                let mut engine = engine;
                engine.search(&q, 10).expect("tree").into()
            })
        })
        .collect()
}

/// Every engine that borrows the thread's decode scratch, interleaved on
/// one thread: pruned and exhaustive `CpuEngine` queries over a heap
/// index and over a mapped index of another corpus, general trees, and
/// live reads of a third. Each answer, hits and work alike, equals the
/// same query's answer on a fresh thread.
#[test]
fn one_threads_scratch_leaks_nothing_between_engines() {
    let heap = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let other = CorpusConfig::tiny(0x0DD).generate().into_default_index();
    let path = std::env::temp_dir().join(format!("iiu-scratch-leak-{}", std::process::id()));
    std::fs::write(&path, io::serialize(&other).expect("serialize")).expect("writable");
    let mapped = storage::map_index(&path).expect("mapped load");
    assert!(mapped.source().is_mapped());

    let dir =
        std::env::temp_dir().join(format!("iiu-scratch-leak-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts =
        IncrementalOptions { seal_threshold: 0, merge_threshold: 0, ..Default::default() };
    let live = LiveIndex::open(&dir, opts).expect("open");
    let docs = CorpusConfig::tiny(0x11FE).generate().to_docs();
    let n = docs.len();
    live.ingest_batch(&docs[..n / 2]).expect("ingest");
    live.seal().expect("seal");
    live.ingest_batch(&docs[n / 2..]).expect("ingest");
    let snapshot = live.snapshot().expect("snapshot");
    let mut sampler = QuerySampler::new(&snapshot, 5);
    let mut live_queries: Vec<Query> =
        sampler.single_queries(4).into_iter().map(Query::term).collect();
    for (a, b) in sampler.pair_queries(4) {
        live_queries.push(Query::and(Query::term(a.clone()), Query::term(b.clone())));
        live_queries.push(Query::or(Query::term(a), Query::term(b)));
    }
    let live_ref = &live;
    let live_ops: Vec<Op<'_>> = live_queries
        .into_iter()
        .map(|q| -> Op<'_> { Box::new(move || live_ref.search(&q, 10).expect("live").into()) })
        .collect();

    let streams = [
        engine_ops(&heap, 1, true),
        engine_ops(&mapped, 2, false),
        tree_ops(&heap, 3),
        live_ops,
        engine_ops(&heap, 4, false),
        engine_ops(&mapped, 5, true),
        tree_ops(&mapped, 6),
    ];
    // Round-robin over the streams, so consecutive queries never share an
    // engine, an index or a mode.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let ops: Vec<&Op<'_>> =
        (0..longest).flat_map(|i| streams.iter().filter_map(move |s| s.get(i))).collect();

    let fresh: Vec<Answer> = ops
        .iter()
        .map(|op| std::thread::scope(|s| s.spawn(|| op()).join().expect("no panic")))
        .collect();
    for pass in 0..2 {
        for (i, (op, want)) in ops.iter().zip(&fresh).enumerate() {
            assert_eq!(&op(), want, "pass {pass}, query {i}");
        }
    }
    assert!(fresh.iter().filter(|a| !a.hits.is_empty()).count() > ops.len() / 2);
    drop(ops);
    drop(streams);
    drop(live);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&path).ok();
}
