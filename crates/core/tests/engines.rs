//! Cross-engine equivalence: the baseline and the simulated accelerator
//! must return identical hits for every query shape, and their modeled
//! latencies must have the shapes the paper reports.

use std::sync::Arc;

use iiu_core::{
    CpuSearchEngine, Degradation, DocWindow, IiuSearchEngine, PartSource, Query, SearchEngine,
    ShardedSearchEngine,
};
use iiu_workloads::{CorpusConfig, QuerySampler};

fn index() -> iiu_index::InvertedIndex {
    CorpusConfig::tiny(0x5EED).generate().into_default_index()
}

#[test]
fn engines_agree_on_sampled_primitive_queries() {
    let index = index();
    let mut cpu = CpuSearchEngine::new(&index);
    let mut iiu = IiuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 1);
    for term in sampler.single_queries(10) {
        let q = Query::term(term);
        let a = cpu.search(&q, 10).unwrap();
        let b = iiu.search(&q, 10).unwrap();
        assert_eq!(a.hits, b.hits, "hits differ for {q}");
        assert_eq!(a.candidates, b.candidates);
    }
    let mut sampler = QuerySampler::new(&index, 2);
    for (x, y) in sampler.pair_queries(10) {
        for q in [
            Query::parse(&format!("{x} AND {y}")).unwrap(),
            Query::parse(&format!("{x} OR {y}")).unwrap(),
        ] {
            let a = cpu.search(&q, 10).unwrap();
            let b = iiu.search(&q, 10).unwrap();
            assert_eq!(a.hits, b.hits, "hits differ for {q}");
        }
    }
}

#[test]
fn engines_agree_on_complex_trees() {
    let index = index();
    let mut cpu = CpuSearchEngine::new(&index);
    let mut iiu = IiuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 3);
    let terms = sampler.single_queries(4);
    let q = Query::parse(&format!(
        "({} OR {}) AND ({} OR {})",
        terms[0], terms[1], terms[2], terms[3]
    ))
    .unwrap();
    let a = cpu.search(&q, 20).unwrap();
    let b = iiu.search(&q, 20).unwrap();
    assert_eq!(a.hits, b.hits, "complex-tree hits differ for {q}");
    assert_eq!(a.candidates, b.candidates);
}

#[test]
fn complex_tree_matches_manual_set_algebra() {
    let index = index();
    let mut cpu = CpuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 4);
    let t = sampler.single_queries(3);
    let q = Query::parse(&format!("({} OR {}) AND {}", t[0], t[1], t[2])).unwrap();
    let got = cpu.search(&q, 1_000_000).unwrap();

    use std::collections::BTreeSet;
    let docs = |term: &str| -> BTreeSet<u32> {
        index.decode_term(term).unwrap().doc_ids().into_iter().collect()
    };
    let expected: BTreeSet<u32> = docs(&t[0])
        .union(&docs(&t[1]))
        .copied()
        .collect::<BTreeSet<_>>()
        .intersection(&docs(&t[2]))
        .copied()
        .collect();
    let got_docs: BTreeSet<u32> = got.hits.iter().map(|h| h.doc_id).collect();
    assert_eq!(got_docs, expected);
}

#[test]
fn sharded_engine_agrees_with_unsharded_everywhere() {
    let index = Arc::new(index());
    let mut cpu = CpuSearchEngine::new(&index);
    for shards in [1usize, 2, 4] {
        for pruned in [false, true] {
            let mut eng =
                ShardedSearchEngine::new(PartSource::windows(Arc::clone(&index), shards))
                    .with_pruning(pruned);
            let mut cpu_p = CpuSearchEngine::new(&index).with_pruning(pruned);
            let mut sampler = QuerySampler::new(&index, 11);
            for term in sampler.single_queries(6) {
                let q = Query::term(term);
                let a = cpu_p.search(&q, 10).unwrap();
                let b = eng.search(&q, 10).unwrap();
                assert_eq!(a.hits, b.hits, "single hits differ {shards}/{pruned} for {q}");
            }
            let mut sampler = QuerySampler::new(&index, 12);
            for (x, y) in sampler.pair_queries(6) {
                for q in [
                    Query::parse(&format!("{x} AND {y}")).unwrap(),
                    Query::parse(&format!("{x} OR {y}")).unwrap(),
                ] {
                    let a = cpu_p.search(&q, 10).unwrap();
                    let b = eng.search(&q, 10).unwrap();
                    assert_eq!(a.hits, b.hits, "pair hits differ {shards}/{pruned} for {q}");
                    if !pruned {
                        // Exhaustive candidate sets are the same documents;
                        // pruned candidate *counts* are a work metric and
                        // legitimately differ across shard layouts.
                        assert_eq!(a.candidates, b.candidates, "candidates differ for {q}");
                    }
                }
            }
            // General trees fan out per shard and must also agree.
            let mut sampler = QuerySampler::new(&index, 13);
            let t = sampler.single_queries(4);
            let q =
                Query::parse(&format!("({} OR {}) AND ({} OR {})", t[0], t[1], t[2], t[3]))
                    .unwrap();
            let a = cpu.search(&q, 20).unwrap();
            let b = eng.search(&q, 20).unwrap();
            assert_eq!(a.hits, b.hits, "tree hits differ {shards}/{pruned} for {q}");
            assert_eq!(a.candidates, b.candidates);
        }
    }
}

#[test]
fn sharded_engine_degrades_unknown_terms_like_unsharded() {
    let index = Arc::new(index());
    let mut eng = ShardedSearchEngine::new(PartSource::windows(Arc::clone(&index), 3))
        .with_pruning(true);
    let mut sampler = QuerySampler::new(&index, 14);
    let known = sampler.single_queries(1).remove(0);
    let q = Query::or(Query::term(known.clone()), Query::term("nosuchterm0000001"));
    let r = eng.search(&q, 10).unwrap();
    let want = eng.search(&Query::term(known), 10).unwrap();
    assert_eq!(r.hits, want.hits, "OR degrades to the known side");
    assert_eq!(
        r.degraded,
        vec![Degradation::UnknownTermDropped { term: "nosuchterm0000001".into() }]
    );
}

#[test]
fn sharded_engine_rejects_phrase_queries() {
    let index = Arc::new(index());
    let mut eng = ShardedSearchEngine::new(PartSource::windows(Arc::clone(&index), 2));
    let mut sampler = QuerySampler::new(&index, 15);
    let t = sampler.single_queries(2);
    let q = Query::phrase(vec![t[0].clone(), t[1].clone()]);
    assert!(eng.search(&q, 10).is_err(), "phrases need the global positional sidecar");
}

#[test]
fn sharded_modeled_latency_beats_unsharded_on_heavy_queries() {
    // The whole point of document sharding: the critical-path shard is
    // cheaper than the full index scan.
    let index = Arc::new(index());
    let mut cpu = CpuSearchEngine::new(&index).with_pruning(false);
    let mut eng = ShardedSearchEngine::new(PartSource::windows(Arc::clone(&index), 4))
        .with_pruning(false);
    let mut sampler = QuerySampler::new(&index, 16);
    let term = sampler.single_queries(1).remove(0);
    let q = Query::term(term);
    let a = cpu.search(&q, 10).unwrap();
    let b = eng.search(&q, 10).unwrap();
    assert_eq!(a.hits, b.hits);
    assert!(
        b.breakdown.device_ns < a.breakdown.device_ns,
        "4-shard device time {} should beat unsharded {}",
        b.breakdown.device_ns,
        a.breakdown.device_ns
    );
}

#[test]
fn iiu_is_faster_than_cpu_on_primitive_queries() {
    // The headline direction of Fig. 15 must hold even at test scale.
    let index = index();
    let mut cpu = CpuSearchEngine::new(&index);
    let mut iiu = IiuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 5);
    let (x, y) = sampler.pair_queries(1).remove(0);
    for q in [
        Query::term(x.clone()),
        Query::parse(&format!("{x} AND {y}")).unwrap(),
        Query::parse(&format!("{x} OR {y}")).unwrap(),
    ] {
        let a = cpu.search(&q, 10).unwrap();
        let b = iiu.search(&q, 10).unwrap();
        assert!(
            b.breakdown.device_ns < a.breakdown.device_ns,
            "IIU device time {} should beat CPU {} for {q}",
            b.breakdown.device_ns,
            a.breakdown.device_ns
        );
    }
}

#[test]
fn unknown_terms_degrade_instead_of_erroring() {
    let index = index();
    let mut cpu = CpuSearchEngine::new(&index);
    let mut iiu = IiuSearchEngine::new(&index);

    // A bare unknown term serves an empty (degraded) response.
    let q = Query::parse("nosuchterm0000001").unwrap();
    for r in [cpu.search(&q, 5).unwrap(), iiu.search(&q, 5).unwrap()] {
        assert!(r.hits.is_empty());
        assert!(r.is_degraded(), "pruning must be reported");
    }

    // Under OR the unknown term drops out and the rest still serves.
    let mut sampler = QuerySampler::new(&index, 3);
    let known = sampler.single_queries(1).remove(0);
    let q = Query::or(Query::term(known.clone()), Query::term("nosuchterm0000001"));
    let rc = cpu.search(&q, 10).unwrap();
    let ri = iiu.search(&q, 10).unwrap();
    let want = cpu.search(&Query::term(known.clone()), 10).unwrap();
    assert!(!rc.hits.is_empty());
    assert_eq!(rc.hits, want.hits, "OR degrades to the known side");
    assert_eq!(rc.hits, ri.hits, "both engines degrade identically");
    assert_eq!(
        rc.degraded,
        vec![Degradation::UnknownTermDropped { term: "nosuchterm0000001".into() }]
    );
    assert_eq!(ri.degraded, rc.degraded);

    // Under AND the unknown term empties the conjunction.
    let q = Query::and(Query::term(known), Query::term("nosuchterm0000001"));
    for r in [cpu.search(&q, 10).unwrap(), iiu.search(&q, 10).unwrap()] {
        assert!(r.hits.is_empty());
        assert_eq!(
            r.degraded,
            vec![Degradation::UnknownTermEmptyAnd { term: "nosuchterm0000001".into() }]
        );
    }
}

#[test]
fn k_limits_hits_but_not_candidates() {
    let index = index();
    let mut iiu = IiuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 6);
    let term = sampler.single_queries(1).remove(0);
    let q = Query::term(term);
    let r = iiu.search(&q, 3).unwrap();
    assert!(r.hits.len() <= 3);
    assert!(r.candidates >= r.hits.len() as u64);
    // Hits are sorted by descending score.
    assert!(r.hits.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn latency_breakdown_components_are_consistent() {
    let index = index();
    let mut iiu = IiuSearchEngine::new(&index);
    let mut sampler = QuerySampler::new(&index, 7);
    let term = sampler.single_queries(1).remove(0);
    let r = iiu.search(&Query::term(term), 10).unwrap();
    let b = r.breakdown;
    assert!(b.device_ns > 0.0);
    assert!(b.topk_ns > 0.0);
    assert!((r.latency_ns() - (b.dispatch_ns + b.device_ns + b.topk_ns)).abs() < 1e-9);
}

#[test]
fn sharded_engine_labels_partial_coverage_truthfully() {
    // Shard 1's worker panics on every query: responses must carry
    // ShardsUnavailable with exact counts, and the surviving hits must be
    // bit-identical to the unsharded engine restricted to the documents
    // of the surviving shards (every docID outside window 1).
    let index = Arc::new(index());
    let n = 3usize;
    let chaos = iiu_core::ShardChaosPlan {
        panic_burst: Some((0, u64::MAX, 1)),
        ..iiu_core::ShardChaosPlan::NONE
    };
    for pruned in [false, true] {
        let eng = ShardedSearchEngine::new(PartSource::windows(Arc::clone(&index), n))
            .with_pruning(pruned)
            .with_chaos(chaos.clone());
        let mut cpu = CpuSearchEngine::new(&index);
        let mut sampler = QuerySampler::new(&index, 11);
        let terms = sampler.single_queries(4);
        for q in [
            Query::term(terms[0].clone()),
            Query::parse(&format!("{} AND {}", terms[0], terms[1])).unwrap(),
            Query::parse(&format!("{} OR {}", terms[1], terms[2])).unwrap(),
            // A general expression tree takes the eval_sharded path.
            Query::parse(&format!(
                "({} OR {}) AND ({} OR {})",
                terms[0], terms[1], terms[2], terms[3]
            ))
            .unwrap(),
        ] {
            let partial = eng.search_ref(&q, 10).unwrap();
            assert!(
                partial.degraded.iter().any(|d| matches!(
                    d,
                    Degradation::ShardsUnavailable { missing, total }
                        if missing == &[1] && *total == n
                )),
                "pruned={pruned} {q}: degradations {:?}",
                partial.degraded
            );
            let full = cpu.search(&q, index.num_docs() as usize + 1).unwrap();
            let lost = DocWindow::split(index.num_docs(), n)[1];
            let mut want: Vec<_> =
                full.hits.into_iter().filter(|h| !lost.contains(h.doc_id)).collect();
            want.truncate(10);
            assert_eq!(
                partial.hits, want,
                "pruned={pruned} {q}: partial hits must match unsharded over survivors"
            );
        }
    }
}

#[test]
fn fail_closed_sharded_engine_errors_instead_of_partial() {
    let index = Arc::new(index());
    let chaos = iiu_core::ShardChaosPlan {
        panic_burst: Some((0, u64::MAX, 0)),
        ..iiu_core::ShardChaosPlan::NONE
    };
    let eng = ShardedSearchEngine::new(PartSource::windows(Arc::clone(&index), 2))
        .with_chaos(chaos)
        .with_fail_closed(true);
    let mut sampler = QuerySampler::new(&index, 12);
    let terms = sampler.single_queries(2);
    // Both the primitive path and the general-tree path must refuse.
    assert!(eng.search_ref(&Query::term(terms[0].clone()), 5).is_err());
    let tree =
        Query::parse(&format!("({} OR {}) AND {}", terms[0], terms[1], terms[0])).unwrap();
    assert!(eng.search_ref(&tree, 5).is_err());
}
