//! Equivalence suite for document-sharded execution: for every shard
//! count, every k (including k = 0 and k larger than the result set),
//! every query shape, and both execution modes (exhaustive and pruned
//! with the shared cross-shard threshold), the sharded engine must
//! return *bit-identical* (docID, score) lists to the unsharded engine —
//! on random corpora and on the deterministic sampled workload. It also
//! pins the threshold-broadcast protocol: a seeded two-shard publication
//! interleaving must stay monotone and never price out a boundary tie.

mod common;

use std::sync::Arc;

use iiu_baseline::topk::{rank_cmp, top_k, Hit, SharedThreshold};
use iiu_baseline::{CpuEngine, ShardedEngine};
use iiu_index::shard::ShardedIndex;
use iiu_index::{BuildOptions, Fixed, IndexBuilder, InvertedIndex, Partitioner};
use iiu_workloads::{CorpusConfig, QuerySampler};
use proptest::prelude::*;

const KS: [usize; 4] = [0, 1, 10, 1000];
const SHARDS: [usize; 4] = [1, 2, 4, 7];

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

    /// Random corpora × shard counts × ks × shapes × both modes: sharded
    /// results are bit-identical to the unsharded engine.
    #[test]
    fn prop_sharded_is_bit_identical_to_unsharded(
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

        for n in SHARDS {
            let split = Arc::new(ShardedIndex::split(&idx, n).expect("split"));
            for pruned in [false, true] {
                let mut plain = CpuEngine::new(&idx).with_pruning(pruned);
                let eng = ShardedEngine::new(Arc::clone(&split)).with_pruning(pruned);
                for k in KS {
                    for t in &terms {
                        let a = plain.search_single(t, k).expect("known term");
                        let b = eng.search_single(t, k).expect("known term");
                        prop_assert_eq!(
                            a.hits, b.hits,
                            "single {} n={} pruned={} k={}", t, n, pruned, k
                        );
                    }
                    for pair in terms.windows(2) {
                        let (ta, tb) = (&pair[0], &pair[1]);
                        let a = plain.search_intersection(ta, tb, k).expect("known");
                        let b = eng.search_intersection(ta, tb, k).expect("known");
                        prop_assert_eq!(
                            a.hits, b.hits,
                            "{} AND {} n={} pruned={} k={}", ta, tb, n, pruned, k
                        );
                        let a = plain.search_union(ta, tb, k).expect("known");
                        let b = eng.search_union(ta, tb, k).expect("known");
                        prop_assert_eq!(
                            a.hits, b.hits,
                            "{} OR {} n={} pruned={} k={}", ta, tb, n, pruned, k
                        );
                    }
                }
            }
        }
    }
}

/// The deterministic sampled workload: sharded hits match unsharded hits
/// bit for bit at every shard count and k, in both execution modes.
#[test]
fn sharded_matches_unsharded_on_sampled_workload() {
    let index = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 9);
    let singles = sampler.single_queries(6);
    let pairs = sampler.pair_queries(6);

    for n in SHARDS {
        let split = Arc::new(ShardedIndex::split(&index, n).expect("split"));
        for pruned in [false, true] {
            let mut plain = CpuEngine::new(&index).with_pruning(pruned);
            let eng = ShardedEngine::new(Arc::clone(&split)).with_pruning(pruned);
            for k in KS {
                for t in &singles {
                    let a = plain.search_single(t, k).expect("sampled term");
                    let b = eng.search_single(t, k).expect("sampled term");
                    assert_eq!(a.hits, b.hits, "single {t} n={n} pruned={pruned} k={k}");
                }
                for (ta, tb) in &pairs {
                    let a = plain.search_intersection(ta, tb, k).expect("sampled");
                    let b = eng.search_intersection(ta, tb, k).expect("sampled");
                    assert_eq!(a.hits, b.hits, "{ta} AND {tb} n={n} pruned={pruned} k={k}");
                    let a = plain.search_union(ta, tb, k).expect("sampled");
                    let b = eng.search_union(ta, tb, k).expect("sampled");
                    assert_eq!(a.hits, b.hits, "{ta} OR {tb} n={n} pruned={pruned} k={k}");
                }
            }
        }
    }
}

/// Codec matrix: sharded execution stays bit-identical to the unsharded
/// bit-packed reference when the index is encoded under every block
/// codec — neither the shared threshold nor the per-shard decode path
/// depends on it.
#[test]
fn sharded_matches_unsharded_under_every_codec() {
    use iiu_index::{Bm25Params, CodecId};

    let reference = CorpusConfig::tiny(0xC0FFEE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&reference, 9);
    let singles = sampler.single_queries(4);
    let pairs = sampler.pair_queries(4);
    let mut ref_plain = CpuEngine::new(&reference);

    for codec in CodecId::ALL {
        let index = CorpusConfig::tiny(0xC0FFEE)
            .generate()
            .into_index(Partitioner::default(), Bm25Params::default());
        for n in [2usize, 4] {
            let split = Arc::new(ShardedIndex::split(&index, n).expect("split"));
            for pruned in [false, true] {
                let eng = ShardedEngine::new(Arc::clone(&split)).with_pruning(pruned);
                for k in KS {
                    for t in &singles {
                        let a = ref_plain.search_single(t, k).expect("sampled term");
                        let b = eng.search_single(t, k).expect("sampled term");
                        assert_eq!(
                            a.hits, b.hits,
                            "{codec} single {t} n={n} pruned={pruned} k={k}"
                        );
                    }
                    for (ta, tb) in &pairs {
                        let a = ref_plain.search_intersection(ta, tb, k).expect("sampled");
                        let b = eng.search_intersection(ta, tb, k).expect("sampled");
                        assert_eq!(
                            a.hits, b.hits,
                            "{codec} {ta} AND {tb} n={n} pruned={pruned} k={k}"
                        );
                        let a = ref_plain.search_union(ta, tb, k).expect("sampled");
                        let b = eng.search_union(ta, tb, k).expect("sampled");
                        assert_eq!(
                            a.hits, b.hits,
                            "{codec} {ta} OR {tb} n={n} pruned={pruned} k={k}"
                        );
                    }
                }
            }
        }
    }
}

/// Cursor matrix, sharded leg (DESIGN.md §13, §14): every shard task
/// walks its lists with the forward block cursor under the shared
/// threshold, so the adversarial layouts of
/// [`common::adversarial_layouts`] run split 1, 2 and 4 ways under every
/// codec. Splitting reshapes them further — the 1000:1 layout leaves
/// three of four shards without the short list — and the merged hits
/// must still equal the unsharded exhaustive engine's bit for bit.
#[test]
fn sharded_pruned_matches_exhaustive_on_adversarial_layouts() {
    use iiu_index::CodecId;

    let (ta, tb) = common::TERMS;
    for layout in common::adversarial_layouts() {
        for codec in CodecId::ALL {
            let index = layout.index();
            let mut plain = CpuEngine::new(&index);
            for n in [1usize, 2, 4] {
                let split = Arc::new(ShardedIndex::split(&index, n).expect("split"));
                let eng = ShardedEngine::new(split).with_pruning(true);
                for k in common::LAYOUT_KS {
                    let at = format!("{} / {codec} / n={n} / k={k}", layout.name);
                    let want = plain.search_single(ta, k).expect("indexed");
                    let got = eng.search_single(ta, k).expect("indexed");
                    assert_eq!(got.hits, want.hits, "{ta}: {at}");
                    let want = plain.search_intersection(ta, tb, k).expect("indexed");
                    let got = eng.search_intersection(ta, tb, k).expect("indexed");
                    assert_eq!(got.hits, want.hits, "AND: {at}");
                    assert!(got.complete(), "healthy shards must all answer: {at}");
                    let want = plain.search_union(ta, tb, k).expect("indexed");
                    let got = eng.search_union(ta, tb, k).expect("indexed");
                    assert_eq!(got.hits, want.hits, "OR: {at}");
                    let c = got.counts;
                    assert_eq!(c.cache_hits + c.cache_misses, 0, "OR: {at}");
                }
            }
        }
    }
}

/// Window matrix (DESIGN.md §14): the serving layer fans a query out over
/// docID windows of the one index it holds. Over the adversarial layouts
/// of [`common::adversarial_layouts`], under every codec, heap-loaded and
/// mapped, pruned and exhaustive, for single / AND / OR and a general
/// tree, windowed hits must equal the unsharded engine's bit for bit —
/// for 1, 2, 3, 4 and 7 equal windows, for cuts on block starts and just
/// past them (mid-block), and with empty windows at both ends.
#[test]
fn windows_match_unsharded_across_the_matrix() {
    use iiu_core::{CpuSearchEngine, PartSource, Query, SearchEngine, ShardedSearchEngine};
    use iiu_index::{io, storage, CodecId, DocWindow};

    let (ta, tb) = common::TERMS;
    let queries = [
        Query::term(ta),
        Query::and(Query::term(ta), Query::term(tb)),
        Query::or(Query::term(ta), Query::term(tb)),
        Query::or(Query::and(Query::term(ta), Query::term(tb)), Query::term(ta)),
    ];
    let pool = iiu_baseline::ShardPoolConfig { pool_threads: 2, ..Default::default() };
    for layout in common::adversarial_layouts() {
        for codec in CodecId::ALL {
            let heap = Arc::new(layout.index());
            let path = std::env::temp_dir()
                .join(format!("iiu-windows-{}-{codec}", std::process::id()));
            std::fs::write(&path, io::serialize(&heap).expect("serialize"))
                .expect("temp file");
            let mapped = Arc::new(storage::map_index(&path).expect("map"));
            std::fs::remove_file(&path).ok();

            let n_docs = heap.num_docs();
            let skips = heap.encoded_list(heap.term_id(ta).expect("indexed")).skips();
            let start = |q: usize| skips[(skips.len() * q / 4).min(skips.len() - 1)];
            let mut cuts: Vec<(String, Vec<DocWindow>)> = [1usize, 2, 3, 4, 7]
                .into_iter()
                .map(|n| (format!("{n} equal"), DocWindow::split(n_docs, n)))
                .collect();
            cuts.push((
                "block starts".into(),
                DocWindow::cut(&[start(1), start(2), start(3)]),
            ));
            cuts.push(("mid-block".into(), DocWindow::cut(&[start(1) + 1, start(3) + 1])));
            cuts.push(("empty ends".into(), DocWindow::cut(&[0, n_docs as u32])));

            let mut reference = CpuSearchEngine::new(&heap);
            let wants: Vec<(&Query, usize, Vec<Hit>)> = queries
                .iter()
                .flat_map(|q| common::LAYOUT_KS.map(|k| (q, k)))
                .map(|(q, k)| (q, k, reference.search(q, k).expect("indexed").hits))
                .collect();
            for index in [&heap, &mapped] {
                let source = if index.source().is_mapped() { "mmap" } else { "heap" };
                for (cut, windows) in &cuts {
                    for pruned in [false, true] {
                        let parts = PartSource::Windows {
                            index: Arc::clone(index),
                            windows: windows.clone(),
                        };
                        let eng =
                            ShardedSearchEngine::with_config(parts, pool).with_pruning(pruned);
                        for (q, k, want) in &wants {
                            let got = eng.search_ref(q, *k).expect("indexed");
                            assert_eq!(
                                &got.hits, want,
                                "{} / {codec} / {source} / {cut} / pruned={pruned} / {q} / k={k}",
                                layout.name
                            );
                            assert!(got.degraded.is_empty(), "{cut}: {:?}", got.degraded);
                        }
                    }
                }
            }
        }
    }
}

/// More windows than documents: every window past the corpus is empty,
/// answers nothing, and still answers in time.
#[test]
fn more_windows_than_documents_leave_empty_windows() {
    use iiu_core::{CpuSearchEngine, PartSource, Query, SearchEngine, ShardedSearchEngine};

    let index = Arc::new(build_index(&[vec![0, 1, 2], vec![1, 2], vec![0, 2, 2, 3]]));
    let mut reference = CpuSearchEngine::new(&index);
    for n in [4usize, 9] {
        for pruned in [false, true] {
            let windows = PartSource::windows(Arc::clone(&index), n);
            let eng = ShardedSearchEngine::new(windows).with_pruning(pruned);
            assert_eq!(eng.num_shards(), n);
            for text in ["t2", "t0 AND t2", "t1 OR t3", "(t0 AND t2) OR t1"] {
                let q = Query::parse(text).expect("parses");
                for k in KS {
                    let want = reference.search(&q, k).expect("indexed");
                    let got = eng.search_ref(&q, k).expect("indexed");
                    assert_eq!(got.hits, want.hits, "{text} n={n} pruned={pruned} k={k}");
                    assert!(got.degraded.is_empty(), "{text} n={n}: {:?}", got.degraded);
                }
            }
        }
    }
}

/// Splitting must preserve per-document scores exactly (global stats flow
/// into every shard), so the local-merge/global-merge argument holds.
#[test]
fn shard_local_topk_always_contains_its_global_topk_members() {
    let index = CorpusConfig::tiny(0xFACADE).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 4);
    let term = sampler.single_queries(1).remove(0);
    let n = 3usize;
    let split = ShardedIndex::split(&index, n).expect("split");

    let mut plain = CpuEngine::new(&index);
    let k = 10;
    let global = plain.search_single(&term, k).expect("known").hits;

    // Recompute each shard's local top-k directly and check the global
    // top-k is a subset of the union after docID remapping.
    let mut union: Vec<Hit> = Vec::new();
    for (s, shard) in split.shards().iter().enumerate() {
        let mut eng = CpuEngine::new(shard);
        let local = eng.search_single(&term, k).expect("uniform dictionary").hits;
        union.extend(
            local
                .into_iter()
                .map(|h| Hit { doc_id: h.doc_id * n as u32 + s as u32, score: h.score }),
        );
    }
    union.sort_by(rank_cmp);
    let merged = top_k(union, k);
    assert_eq!(merged, global, "concat + rank_cmp + truncate must equal unsharded top-k");
}

/// Satellite regression for the threshold-broadcast protocol: a seeded
/// two-shard interleaving where one lane's publications arrive stale. A
/// racy `store(Relaxed)` publication would let the visible threshold go
/// *backwards* (re-admitting blocks) or, worse, a non-strict foreign
/// threshold would prune a boundary tie. `fetch_max` + strict() must keep
/// the visible value monotone and never above any lane's published
/// maximum.
#[test]
fn seeded_two_shard_interleaving_keeps_threshold_monotone_and_tie_safe() {
    // Deterministic interleaving: lane A publishes an ascending ramp (a
    // shard whose heap tightens), lane B replays A's values delayed by 5
    // steps (a shard echoing stale information).
    let shared = SharedThreshold::new();
    let ramp: Vec<u32> = (1..=200).map(|i| i * 3).collect();
    let mut seen = 0u32;
    for i in 0..ramp.len() + 5 {
        if i < ramp.len() {
            shared.publish(Fixed::from_raw(ramp[i]));
        }
        if i >= 5 {
            shared.publish(Fixed::from_raw(ramp[i - 5])); // stale echo
        }
        let now = shared.raw();
        assert!(now >= seen, "visible threshold went backwards: {now} < {seen}");
        seen = now;
        // Strict semantics: the foreign threshold must never claim the
        // published score itself is dead (that score is held by a real
        // document that could win a docID tie).
        if let Some(strict) = shared.strict() {
            assert!(strict.raw() < now, "strict() must stay below the published value");
        }
    }
    assert_eq!(seen, 600, "final threshold is the max over both lanes");
}
