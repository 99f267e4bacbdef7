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
//! scoring goes through the same Q16.16 datapath on globally recomputed
//! statistics, boolean operators use the same linear merge, and top-k
//! uses the same rank order. Hits are bit-identical — the recovery chaos
//! campaign and the incremental-equivalence gate both assert exactly
//! that.
//!
//! Lock poisoning is survived, matching the serving layer's convention: a
//! panicking writer cannot take down subsequent readers.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::path::Path;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use iiu_baseline::{CpuCostModel, OpCounts};
use iiu_index::incremental::{IncrementalIndex, IncrementalOptions};
use iiu_index::recovery::RecoveryReport;
use iiu_index::wal::IngestDoc;
use iiu_index::{IndexError, InvertedIndex};

use crate::engine::{eval_tree, prune_query_with, to_hits, LatencyBreakdown, SearchResponse};
use crate::error::SearchError;
use crate::query::Query;

/// A searchable, ingestable, crash-safe index handle.
#[derive(Debug)]
pub struct LiveIndex {
    inner: RwLock<IncrementalIndex>,
    cost: CpuCostModel,
}

impl LiveIndex {
    /// Opens (or initializes) the incremental index at `dir`, running full
    /// crash recovery. See [`IncrementalIndex::open`] for the error
    /// contract.
    pub fn open(dir: &Path, opts: IncrementalOptions) -> Result<Self, IndexError> {
        Ok(LiveIndex {
            inner: RwLock::new(IncrementalIndex::open(dir, opts)?),
            cost: CpuCostModel::default(),
        })
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
        let mut counts = OpCounts::default();
        // The pruner has already removed unknown terms, so a missing term
        // here is an internal inconsistency reported as a typed error.
        let scored = eval_tree(&query, None, &mut counts, &mut |t, counts| {
            let scored = idx
                .scored_postings(t)?
                .ok_or_else(|| IndexError::UnknownTerm { term: t.to_owned() })?;
            counts.postings_decoded += scored.len() as u64;
            counts.docs_scored += scored.len() as u64;
            Ok(scored)
        })?;
        counts.topk_candidates = scored.len() as u64;
        let phases = self.cost.price(&counts);
        Ok(SearchResponse {
            hits: to_hits(&scored, k),
            candidates: scored.len() as u64,
            breakdown: LatencyBreakdown {
                dispatch_ns: 0.0,
                device_ns: phases.total_ns() - phases.topk_ns,
                topk_ns: phases.topk_ns,
            },
            degraded,
        })
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
