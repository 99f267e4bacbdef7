//! Live search against the one-shot engine, over generated queries.
//!
//! A `LiveIndex` holds a merged segment, a second sealed segment and a
//! non-empty write buffer; every query shape it answers (single term,
//! two-term AND and OR, nested trees, unknown terms) at every `k` (none,
//! one, the usual ten, more than any list) must give the hits, the
//! candidate count and the degradation notes the exhaustive
//! `CpuSearchEngine` gives over `snapshot()`.

use std::path::PathBuf;

use iiu_core::{CpuSearchEngine, LiveIndex, Query, SearchEngine};
use iiu_index::{IncrementalOptions, IngestDoc};
use iiu_workloads::{CorpusConfig, QuerySampler};

/// Result sizes to ask for: none, one, the usual ten, more than any list.
const KS: [usize; 4] = [0, 1, 10, 100_000];

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("iiu-live-eq-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// A live index over a tiny corpus: documents `[0, n/2)` in one merged
/// segment (two seals, then a compaction), `[n/2, 3n/4)` in a second
/// sealed segment and the rest in the write buffer.
fn layered(dir: &std::path::Path, docs: &[IngestDoc]) -> LiveIndex {
    let opts =
        IncrementalOptions { seal_threshold: 0, merge_threshold: 0, ..Default::default() };
    let live = LiveIndex::open(dir, opts).expect("open");
    let n = docs.len();
    for (i, part) in
        [&docs[..n / 4], &docs[n / 4..n / 2], &docs[n / 2..3 * n / 4]].into_iter().enumerate()
    {
        for batch in part.chunks(97) {
            live.ingest_batch(batch).expect("ingest");
        }
        assert!(live.seal().expect("seal"));
        if i == 1 {
            assert!(live.compact().expect("compact"));
        }
    }
    for batch in docs[3 * n / 4..].chunks(97) {
        live.ingest_batch(batch).expect("ingest");
    }
    let (sealed, buffered) = live.doc_counts();
    assert_eq!((sealed, buffered), ((3 * n / 4) as u64, (n - 3 * n / 4) as u64));
    live
}

/// The query pool: terms drawn df-weighted and uniformly over the whole
/// vocabulary (so rare terms held by one part only appear too), in every
/// shape the live path evaluates.
fn pool(snapshot: &iiu_index::InvertedIndex) -> Vec<Query> {
    let mut weighted = QuerySampler::new(snapshot, 0x5EED);
    let mut uniform = QuerySampler::with_df_range(snapshot, 0x0B5E, 0.0, 1..u64::MAX);
    let mut queries = Vec::new();
    for i in 0..60 {
        let sampler = if i % 2 == 0 { &mut weighted } else { &mut uniform };
        let [a, b, c, d] = [(); 4].map(|_| Query::term(sampler.term()));
        queries.push(a.clone());
        queries.push(Query::and(a.clone(), b.clone()));
        queries.push(Query::or(a.clone(), b.clone()));
        queries.push(Query::or(Query::and(a.clone(), b.clone()), c.clone()));
        queries.push(Query::and(a.clone(), Query::or(b.clone(), c.clone())));
        queries.push(Query::and(Query::or(a.clone(), b), Query::or(c, d.clone())));
        let unknown = Query::term(format!("zz-unknown-{i}"));
        queries.push(Query::and(a.clone(), unknown.clone()));
        queries.push(Query::or(d, unknown.clone()));
        queries.push(Query::or(Query::and(a.clone(), a), unknown.clone()));
        queries.push(unknown);
    }
    queries
}

fn check(tag: &str) {
    let dir = tmp_dir(tag);
    let corpus = CorpusConfig::tiny(0x11FE).generate();
    let live = layered(&dir, &corpus.to_docs());
    let snapshot = live.snapshot().expect("snapshot");
    // The reference is the snapshot; it must be the one-shot build itself.
    assert!(snapshot == corpus.into_default_index(), "{tag}: snapshot differs from one-shot");
    let mut cpu = CpuSearchEngine::new(&snapshot);
    let queries = pool(&snapshot);
    let mut answered = 0;
    for q in &queries {
        for k in KS {
            let l = live.search(q, k).expect("live search");
            let c = cpu.search(q, k).expect("one-shot search");
            assert_eq!(l.hits, c.hits, "{tag}: {q} k={k}");
            assert_eq!(l.candidates, c.candidates, "{tag}: {q} k={k}");
            assert_eq!(l.degraded, c.degraded, "{tag}: {q} k={k}");
            answered += usize::from(!l.hits.is_empty());
        }
    }
    assert!(answered > queries.len(), "{tag}: the pool must return hits");
    drop(live);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_search_matches_the_one_shot_engine_over_heap_segments() {
    check("heap");
}
