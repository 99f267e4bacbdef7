//! Equivalence suite for block-max pruned top-k: the pruned execution
//! mode must return *bit-identical* (docID, score) lists to exhaustive
//! scoring for every query shape, every k (including k = 0 and k larger
//! than the result set), on random corpora and on the deterministic
//! sampled workload and on two-list layouts built to trip the forward
//! block cursor — and it must actually skip work on skewed lists.

mod common;

use iiu_baseline::CpuEngine;
use iiu_core::{CpuSearchEngine, IiuSearchEngine, Query, SearchEngine};
use iiu_index::{BuildOptions, IndexBuilder, InvertedIndex, Partitioner};
use iiu_workloads::{CorpusConfig, QuerySampler};
use proptest::prelude::*;

const KS: [usize; 5] = [0, 1, 5, 10, 1000];

/// Builds an index from synthetic docs (term ranks → words) with small
/// fixed blocks so even short lists span several blocks.
fn build_index(docs: &[Vec<u8>]) -> InvertedIndex {
    let mut b = IndexBuilder::new(BuildOptions {
        partitioner: Partitioner::fixed(4),
        ..Default::default()
    });
    for doc in docs {
        let text: Vec<String> = doc.iter().map(|t| format!("t{t}")).collect();
        b.add_document(&text.join(" "));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random corpora, all three query shapes, all of [`KS`]: pruned and
    /// exhaustive engines return bit-identical hit lists.
    #[test]
    fn prop_pruned_is_bit_identical_to_exhaustive(
        docs in proptest::collection::vec(
            proptest::collection::vec(0u8..8, 1..24),
            1..40,
        ),
    ) {
        let idx = build_index(&docs);
        let mut vocab: Vec<u8> = docs.iter().flatten().copied().collect();
        vocab.sort_unstable();
        vocab.dedup();
        let terms: Vec<String> = vocab.iter().map(|t| format!("t{t}")).collect();

        let mut plain = CpuEngine::new(&idx);
        let mut pruned = CpuEngine::new(&idx).with_pruning(true);
        for k in KS {
            for t in &terms {
                let a = plain.search_single(t, k).expect("known term");
                let b = pruned.search_single(t, k).expect("known term");
                prop_assert_eq!(a.hits, b.hits, "single {} k={}", t, k);
            }
            for pair in terms.windows(2) {
                let (ta, tb) = (&pair[0], &pair[1]);
                let a = plain.search_intersection(ta, tb, k).expect("known");
                let b = pruned.search_intersection(ta, tb, k).expect("known");
                prop_assert_eq!(a.hits, b.hits, "{} AND {} k={}", ta, tb, k);
                let a = plain.search_union(ta, tb, k).expect("known");
                let b = pruned.search_union(ta, tb, k).expect("known");
                prop_assert_eq!(a.hits, b.hits, "{} OR {} k={}", ta, tb, k);
            }
        }
    }
}

/// The deterministic sampled workload (same corpus/sampler pairing the
/// decode suite uses): pruned hits must match exhaustive hits bit for
/// bit at every k, for singles, intersections, and unions.
#[test]
fn pruned_matches_exhaustive_on_sampled_workload() {
    let index = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 9);
    let singles = sampler.single_queries(8);
    let pairs = sampler.pair_queries(8);

    let mut plain = CpuEngine::new(&index);
    let mut pruned = CpuEngine::new(&index).with_pruning(true);
    for k in KS {
        for t in &singles {
            let a = plain.search_single(t, k).expect("known term");
            let b = pruned.search_single(t, k).expect("known term");
            assert_eq!(a.hits, b.hits, "single {t} k={k}");
        }
        for (ta, tb) in &pairs {
            let a = plain.search_intersection(ta, tb, k).expect("known");
            let b = pruned.search_intersection(ta, tb, k).expect("known");
            assert_eq!(a.hits, b.hits, "{ta} AND {tb} k={k}");
            let a = plain.search_union(ta, tb, k).expect("known");
            let b = pruned.search_union(ta, tb, k).expect("known");
            assert_eq!(a.hits, b.hits, "{ta} OR {tb} k={k}");
        }
    }
}

/// Codec matrix: the same corpus encoded under every block codec yields
/// hits bit-identical to the bit-packed reference, in both exhaustive and
/// pruned execution — result identity and pruning correctness are
/// codec-independent.
#[test]
fn pruned_matches_exhaustive_under_every_codec() {
    use iiu_index::{Bm25Params, CodecId};

    let reference = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&reference, 9);
    let singles = sampler.single_queries(6);
    let pairs = sampler.pair_queries(6);
    let mut ref_plain = CpuEngine::new(&reference);

    for codec in CodecId::ALL {
        let index = CorpusConfig::tiny(0xC0FFEE)
            .generate()
            .into_index(Partitioner::default(), Bm25Params::default());
        let mut plain = CpuEngine::new(&index);
        let mut pruned = CpuEngine::new(&index).with_pruning(true);
        for k in KS {
            for t in &singles {
                let r = ref_plain.search_single(t, k).expect("known term");
                let a = plain.search_single(t, k).expect("known term");
                let b = pruned.search_single(t, k).expect("known term");
                assert_eq!(a.hits, r.hits, "{codec} single {t} k={k}");
                assert_eq!(b.hits, r.hits, "{codec} pruned single {t} k={k}");
            }
            for (ta, tb) in &pairs {
                let r = ref_plain.search_intersection(ta, tb, k).expect("known");
                let a = plain.search_intersection(ta, tb, k).expect("known");
                let b = pruned.search_intersection(ta, tb, k).expect("known");
                assert_eq!(a.hits, r.hits, "{codec} {ta} AND {tb} k={k}");
                assert_eq!(b.hits, r.hits, "{codec} pruned {ta} AND {tb} k={k}");
                let r = ref_plain.search_union(ta, tb, k).expect("known");
                let a = plain.search_union(ta, tb, k).expect("known");
                let b = pruned.search_union(ta, tb, k).expect("known");
                assert_eq!(a.hits, r.hits, "{codec} {ta} OR {tb} k={k}");
                assert_eq!(b.hits, r.hits, "{codec} pruned {ta} OR {tb} k={k}");
            }
        }
    }
}

/// Source matrix (DESIGN.md §19): the same v4 file loaded heap-side and
/// through the zero-copy mapped loader is one index — deep-equal, and
/// bit-identical in pruned and exhaustive execution across all three
/// query shapes, every k, and every block codec.
#[test]
fn mapped_source_matches_heap_under_every_codec() {
    use iiu_index::{io, storage, Bm25Params, CodecId};

    let reference = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&reference, 9);
    let singles = sampler.single_queries(6);
    let pairs = sampler.pair_queries(6);

    for codec in CodecId::ALL {
        let heap = CorpusConfig::tiny(0xC0FFEE)
            .generate()
            .into_index(Partitioner::default(), Bm25Params::default());
        let bytes = io::serialize(&heap).expect("serialize");
        let path =
            std::env::temp_dir().join(format!("iiu-topk-src-{}-{codec}", std::process::id()));
        std::fs::write(&path, &bytes).expect("temp file writable");
        let mapped = storage::map_index(&path).expect("mapped load");
        assert!(mapped.source().is_mapped() && !heap.source().is_mapped());
        assert_eq!(mapped, heap, "{codec}: sources must assemble one index");

        let mut h_plain = CpuEngine::new(&heap);
        let mut h_pruned = CpuEngine::new(&heap).with_pruning(true);
        let mut m_plain = CpuEngine::new(&mapped);
        let mut m_pruned = CpuEngine::new(&mapped).with_pruning(true);
        for k in KS {
            for t in &singles {
                let r = h_plain.search_single(t, k).expect("known term");
                let m = m_plain.search_single(t, k).expect("known term");
                assert_eq!(m.hits, r.hits, "{codec} mmap single {t} k={k}");
                let r = h_pruned.search_single(t, k).expect("known term");
                let m = m_pruned.search_single(t, k).expect("known term");
                assert_eq!(m.hits, r.hits, "{codec} mmap pruned single {t} k={k}");
            }
            for (ta, tb) in &pairs {
                let r = h_pruned.search_intersection(ta, tb, k).expect("known");
                let m = m_pruned.search_intersection(ta, tb, k).expect("known");
                assert_eq!(m.hits, r.hits, "{codec} mmap {ta} AND {tb} k={k}");
                let r = h_pruned.search_union(ta, tb, k).expect("known");
                let m = m_pruned.search_union(ta, tb, k).expect("known");
                assert_eq!(m.hits, r.hits, "{codec} mmap {ta} OR {tb} k={k}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Cursor matrix (DESIGN.md §13): every adversarial layout of
/// [`common::adversarial_layouts`] x every block codec x heap and mapped
/// source x every k of [`common::LAYOUT_KS`]. Pruned hits must equal the
/// exhaustive heap engine's bit for bit, with the terms in either order,
/// and the two-term tallies must account for every block exactly once.
#[test]
fn pruned_matches_exhaustive_on_adversarial_layouts() {
    use iiu_index::{io, storage, CodecId};

    let (ta, tb) = common::TERMS;
    for layout in common::adversarial_layouts() {
        for codec in CodecId::ALL {
            let heap = layout.index();
            let bytes = io::serialize(&heap).expect("serialize");
            let path = std::env::temp_dir()
                .join(format!("iiu-topk-layout-{}-{codec}", std::process::id()));
            std::fs::write(&path, &bytes).expect("temp file writable");
            let mapped = storage::map_index(&path).expect("mapped load");
            let blocks: u64 = [ta, tb]
                .iter()
                .map(|t| {
                    heap.encoded_list(heap.term_id(t).expect("indexed")).num_blocks() as u64
                })
                .sum();

            let mut plain = CpuEngine::new(&heap);
            for (source, index) in [("heap", &heap), ("mmap", &mapped)] {
                let mut pruned = CpuEngine::new(index).with_pruning(true);
                for k in common::LAYOUT_KS {
                    let at = format!("{} / {codec} / {source} / k={k}", layout.name);
                    for t in [ta, tb] {
                        let want = plain.search_single(t, k).expect("indexed");
                        let got = pruned.search_single(t, k).expect("indexed");
                        assert_eq!(got.hits, want.hits, "{t}: {at}");
                    }
                    for (x, y) in [(ta, tb), (tb, ta)] {
                        let want = plain.search_intersection(x, y, k).expect("indexed");
                        let got = pruned.search_intersection(x, y, k).expect("indexed");
                        assert_eq!(got.hits, want.hits, "{x} AND {y}: {at}");
                        let c = got.counts;
                        assert_eq!(c.blocks_decoded + c.blocks_skipped, blocks, "AND: {at}");
                        let want = plain.search_union(x, y, k).expect("indexed");
                        let got = pruned.search_union(x, y, k).expect("indexed");
                        assert_eq!(got.hits, want.hits, "{x} OR {y}: {at}");
                        let c = got.counts;
                        assert_eq!(c.blocks_decoded + c.blocks_skipped, blocks, "OR: {at}");
                        assert_eq!(c.cache_hits + c.cache_misses, 0, "OR: {at}");
                    }
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A pruned [`CpuSearchEngine`] agrees with the exhaustive accelerator
/// engine on primitive queries — the equivalence holds across engine
/// implementations, not just within the baseline crate.
#[test]
fn pruned_cpu_engine_matches_iiu_engine() {
    let index = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 11);
    let (a, b) = sampler.pair_queries(1).remove(0);

    let mut cpu = CpuSearchEngine::new(&index).with_pruning(true);
    assert!(cpu.pruning());
    let mut iiu = IiuSearchEngine::new(&index);
    for k in KS {
        for q in [
            Query::term(a.clone()),
            Query::and(Query::term(a.clone()), Query::term(b.clone())),
            Query::or(Query::term(a.clone()), Query::term(b.clone())),
        ] {
            let rc = cpu.search(&q, k).expect("cpu search");
            let ri = iiu.search(&q, k).expect("iiu search");
            assert_eq!(rc.hits, ri.hits, "{q} k={k}");
        }
    }
}

/// On a skewed corpus (one hot block per list region) pruning must not
/// just match — it must *skip*: fewer postings decoded, and nonzero
/// skip tallies, for all three shapes at small k.
#[test]
fn pruning_skips_work_on_skewed_lists() {
    let mut b = IndexBuilder::new(BuildOptions {
        partitioner: Partitioner::fixed(4),
        ..Default::default()
    });
    b.add_document(&"hot ".repeat(40));
    b.add_document(&"cold ".repeat(40));
    b.add_document(&"hot cold ".repeat(30));
    for _ in 0..300 {
        b.add_document("hot cold filler");
    }
    let idx = b.build();

    let mut plain = CpuEngine::new(&idx);
    let mut pruned = CpuEngine::new(&idx).with_pruning(true);

    let a = plain.search_single("hot", 1).expect("known");
    let b1 = pruned.search_single("hot", 1).expect("known");
    assert_eq!(a.hits, b1.hits);
    assert!(b1.counts.blocks_skipped > 0, "single never skipped: {:?}", b1.counts);
    assert!(b1.counts.postings_decoded < a.counts.postings_decoded);

    let a = plain.search_union("hot", "cold", 1).expect("known");
    let b2 = pruned.search_union("hot", "cold", 1).expect("known");
    assert_eq!(a.hits, b2.hits);
    assert!(
        b2.counts.blocks_skipped + b2.counts.postings_skipped > 0,
        "union never skipped: {:?}",
        b2.counts
    );

    let a = plain.search_intersection("hot", "cold", 1).expect("known");
    let b3 = pruned.search_intersection("hot", "cold", 1).expect("known");
    assert_eq!(a.hits, b3.hits);
    assert!(
        b3.counts.blocks_skipped + b3.counts.postings_skipped > 0,
        "intersection never skipped: {:?}",
        b3.counts
    );
}
