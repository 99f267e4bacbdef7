//! Equivalence suite for the hot-path block decode: the fused zero-alloc
//! block decode against the allocating wrapper and the encoded postings,
//! the pruned walk's docIDs-only and column decodes against it, and
//! engine-level invariance of both results and cost tallies under
//! scratch reuse.

use iiu_baseline::CpuEngine;
use iiu_index::block::EncodedList;
use iiu_index::codec::BlockColumns;
use iiu_index::{Posting, PostingList};
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

    let mut warm = CpuEngine::new(&index);
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
