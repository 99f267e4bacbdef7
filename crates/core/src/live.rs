//! Live search over the crash-safe incremental index.
//!
//! [`LiveIndex`] wraps an [`IncrementalIndex`] in a lock so one handle
//! can both **ingest** (write path: WAL append + fsync, buffer apply,
//! auto-seal/merge) and **search** (read path: sealed segments unioned
//! with the in-memory buffer) — the shape `iiu-serve` needs to answer
//! queries while documents stream in.
//!
//! Search semantics are identical to [`crate::CpuSearchEngine`] over a
//! one-shot index of the same documents: unknown-term pruning uses the
//! same degradation rules (via the shared predicate-generalized pruner),
//! scoring goes through the same Q16.16 datapath on the index's global
//! `idf̄` and cached `dl̄` table, and top-k uses the same rank order. A
//! two-term AND intersects docIDs before it scores; other trees use the
//! engines' shared evaluator. Hits are bit-identical — the recovery
//! chaos campaign, the incremental-equivalence gate and the generated
//! live-equivalence suite all assert exactly that.
//!
//! Lock poisoning is survived, matching the serving layer's convention: a
//! panicking writer cannot take down subsequent readers.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cmp::Ordering;
use std::ops::Range;
use std::path::Path;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use iiu_baseline::ops::with_scratch;
use iiu_baseline::OpCounts;
use iiu_index::incremental::{IncrementalIndex, IncrementalOptions};
use iiu_index::recovery::RecoveryReport;
use iiu_index::score::term_score_fixed;
use iiu_index::wal::IngestDoc;
use iiu_index::{DocId, Fixed, IndexError, InvertedIndex, Posting};

use crate::engine::{eval_tree, prune_query_with, respond, SearchResponse};
use crate::error::SearchError;
use crate::query::{Primitive, Query};

/// A searchable, ingestable, crash-safe index handle.
#[derive(Debug)]
pub struct LiveIndex {
    inner: RwLock<IncrementalIndex>,
}

impl LiveIndex {
    /// Opens (or initializes) the incremental index at `dir`, running full
    /// crash recovery. See [`IncrementalIndex::open`] for the error
    /// contract.
    pub fn open(dir: &Path, opts: IncrementalOptions) -> Result<Self, IndexError> {
        Ok(LiveIndex { inner: RwLock::new(IncrementalIndex::open(dir, opts)?) })
    }

    fn read(&self) -> RwLockReadGuard<'_, IncrementalIndex> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, IncrementalIndex> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Ingests one document; durable when this returns. Returns its
    /// global doc id.
    pub fn ingest(&self, doc: &IngestDoc) -> Result<u64, IndexError> {
        self.write().ingest(doc)
    }

    /// Ingests a batch with a single fsync barrier; durable when this
    /// returns. Returns the assigned global doc-id range.
    pub fn ingest_batch(&self, docs: &[IngestDoc]) -> Result<Range<u64>, IndexError> {
        self.write().ingest_batch(docs)
    }

    /// Seals the in-memory buffer into an on-disk segment.
    pub fn seal(&self) -> Result<bool, IndexError> {
        self.write().seal()
    }

    /// Merges all sealed segments into one.
    pub fn compact(&self) -> Result<bool, IndexError> {
        self.write().compact()
    }

    /// Total acknowledged documents.
    pub fn num_docs(&self) -> u64 {
        self.read().num_docs()
    }

    /// `(sealed, buffered)` document counts.
    pub fn doc_counts(&self) -> (u64, u64) {
        let idx = self.read();
        (idx.sealed_docs(), idx.buffered_docs())
    }

    /// What recovery found when this handle was opened.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.read().recovery_report().clone()
    }

    /// Materializes a one-shot [`InvertedIndex`] over every acknowledged
    /// document (the static-format bridge).
    pub fn snapshot(&self) -> Result<InvertedIndex, IndexError> {
        self.read().to_one_shot()
    }

    /// Runs `query` over sealed segments unioned with the live buffer.
    /// Hits are bit-identical to [`crate::CpuSearchEngine`] over a
    /// one-shot index of the same documents. Phrase queries are not
    /// supported live ([`IndexError::PositionsUnavailable`]).
    ///
    /// Each term's postings are read into this thread's reused buffers
    /// with global doc ids and scored from the index's global `dl̄` table.
    /// A two-term AND merges docIDs first and scores only the documents
    /// in both lists; an OR scores each posting once; other trees go
    /// through the shared exhaustive evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Index`] for index-plane failures (decode
    /// errors, phrase queries).
    pub fn search(&self, query: &Query, k: usize) -> Result<SearchResponse, SearchError> {
        let idx = self.read();
        let mut degraded = Vec::new();
        let Some(query) = prune_query_with(&|t| idx.has_term(t), query, &mut degraded) else {
            return Ok(SearchResponse::empty(degraded));
        };
        let dl = idx.dl_bars();
        let mut counts = OpCounts::default();
        with_scratch(|scratch| {
            let (a, b, scored) = scratch.buffers();
            scored.clear();
            if let Some(p @ (Primitive::And(x, y) | Primitive::Or(x, y))) = query.primitive() {
                let idf_a = read_term(&idx, x, a, &mut counts)?;
                let idf_b = read_term(&idx, y, b, &mut counts)?;
                let intersect = matches!(p, Primitive::And(..));
                merge((a, idf_a), (b, idf_b), dl, intersect, &mut counts, scored);
            } else {
                // A single term is a tree of one leaf, which takes the
                // reused buffer; the leaves of a larger tree are fresh.
                let tree = eval_tree(&query, None, &mut counts, &mut |t, counts| {
                    let idf = read_term(&idx, t, a, counts)?;
                    let mut leaf = std::mem::take(scored);
                    merge((a, idf), (&[], Fixed::ZERO), dl, false, counts, &mut leaf);
                    Ok(leaf)
                })?;
                *scored = tree;
            }
            Ok(respond(counts, scored, k, degraded))
        })
    }
}

/// Reads `term`'s global postings into `out` and returns its global
/// `idf̄`. The pruner has already removed unknown terms, so one here is an
/// internal inconsistency reported as a typed error.
fn read_term(
    idx: &IncrementalIndex,
    term: &str,
    out: &mut Vec<Posting>,
    counts: &mut OpCounts,
) -> Result<Fixed, IndexError> {
    out.clear();
    idx.postings_into(term, out)?;
    if out.is_empty() {
        return Err(IndexError::UnknownTerm { term: term.to_owned() });
    }
    counts.postings_decoded += out.len() as u64;
    Ok(idx.idf_bar(out.len() as u64))
}

/// Merges two terms' postings by docID into the empty `out` and scores
/// only what the merge keeps: the documents in both lists when
/// `intersect`, every posting once otherwise (one term's postings are a
/// union with an empty list). A comparison is one step with both lists
/// non-empty, as in the static engine's union merge.
fn merge(
    (a, idf_a): (&[Posting], Fixed),
    (b, idf_b): (&[Posting], Fixed),
    dl: &[Fixed],
    intersect: bool,
    counts: &mut OpCounts,
    out: &mut Vec<(DocId, Fixed)>,
) {
    let score = |idf, p: &Posting| term_score_fixed(idf, dl[p.doc_id as usize], p.tf);
    let (mut i, mut j) = (0, 0);
    while let (Some(pa), Some(pb)) = (a.get(i), b.get(j)) {
        counts.comparisons += 1;
        let order = pa.doc_id.cmp(&pb.doc_id);
        match order {
            Ordering::Less if !intersect => out.push((pa.doc_id, score(idf_a, pa))),
            Ordering::Greater if !intersect => out.push((pb.doc_id, score(idf_b, pb))),
            Ordering::Equal => {
                out.push((pa.doc_id, score(idf_a, pa).saturating_add(score(idf_b, pb))));
            }
            _ => {}
        }
        i += usize::from(order.is_le());
        j += usize::from(order.is_ge());
    }
    if intersect {
        counts.docs_scored += 2 * out.len() as u64;
    } else {
        counts.docs_scored += (a.len() + b.len()) as u64;
        out.extend(a[i..].iter().map(|p| (p.doc_id, score(idf_a, p))));
        out.extend(b[j..].iter().map(|p| (p.doc_id, score(idf_b, p))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuSearchEngine, SearchEngine};

    fn doc(len: u32, terms: &[(&str, u32)]) -> IngestDoc {
        IngestDoc::new(len, terms.iter().map(|(t, f)| ((*t).to_owned(), *f)).collect())
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("iiu-live-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn seeded(dir: &Path) -> LiveIndex {
        let opts =
            IncrementalOptions { seal_threshold: 3, merge_threshold: 0, ..Default::default() };
        let live = LiveIndex::open(dir, opts).unwrap();
        // First batch trips the seal threshold; the second stays buffered,
        // so queries exercise the segment ∪ buffer union.
        live.ingest_batch(&[
            doc(12, &[("alpha", 2), ("beta", 1)]),
            doc(40, &[("beta", 5), ("gamma", 1)]),
            doc(8, &[("alpha", 1)]),
        ])
        .unwrap();
        live.ingest_batch(&[
            doc(25, &[("alpha", 3), ("gamma", 2)]),
            doc(16, &[("beta", 2), ("alpha", 1)]),
        ])
        .unwrap();
        live
    }

    #[test]
    fn live_hits_match_cpu_engine_on_snapshot() {
        let dir = tmp_dir("equiv");
        let live = seeded(&dir);
        let (sealed, buffered) = live.doc_counts();
        assert!(sealed > 0 && buffered > 0, "want a segment AND live-buffer union");
        let snap = live.snapshot().unwrap();
        let mut cpu = CpuSearchEngine::new(&snap);
        for q in ["alpha", "beta AND gamma", "alpha OR gamma", "alpha AND beta"] {
            let query = Query::parse(q).unwrap();
            let l = live.search(&query, 10).unwrap();
            let c = cpu.search(&query, 10).unwrap();
            assert_eq!(l.hits, c.hits, "{q}");
            assert_eq!(l.candidates, c.candidates, "{q}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_terms_degrade_not_error() {
        let dir = tmp_dir("degrade");
        let live = seeded(&dir);
        let r = live.search(&Query::parse("alpha OR zzz").unwrap(), 10).unwrap();
        assert!(r.is_degraded());
        assert!(!r.hits.is_empty());
        let r = live.search(&Query::parse("alpha AND zzz").unwrap(), 10).unwrap();
        assert!(r.is_degraded());
        assert!(r.hits.is_empty());
        let r = live.search(&Query::parse("zzz").unwrap(), 10).unwrap();
        assert!(r.is_degraded() && r.hits.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn search_reflects_ingest_immediately() {
        let dir = tmp_dir("fresh");
        let live = LiveIndex::open(
            &dir,
            IncrementalOptions { seal_threshold: 0, merge_threshold: 0, ..Default::default() },
        )
        .unwrap();
        let q = Query::parse("newterm").unwrap();
        assert!(live.search(&q, 5).unwrap().hits.is_empty());
        live.ingest(&doc(4, &[("newterm", 2)])).unwrap();
        let r = live.search(&q, 5).unwrap();
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].doc_id, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
