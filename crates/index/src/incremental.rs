//! Crash-safe incremental index: WAL-backed write path over sealed
//! segments plus a live in-memory buffer.
//!
//! ## Write path
//!
//! [`IncrementalIndex::ingest_batch`] appends every document to the WAL,
//! fsyncs **once** per batch (the acknowledgment barrier), and only then
//! applies the batch to the in-memory [`WriteBuffer`]. A crash at any
//! instant therefore loses only unacknowledged documents; everything
//! acknowledged is replayed from the WAL on reopen.
//!
//! When the buffer reaches `seal_threshold` documents it is drained into
//! a sealed on-disk segment (atomic write + rename, partitioner re-run
//! over the batch for compression-optimal blocks) and the WAL is reset.
//! When the segment count reaches `merge_threshold`, segments are merged
//! into one: every list decoded, its docIDs shifted, and the result
//! rebuilt ([`crate::segment::merge_segment_lists`]).
//!
//! ## Scoring and bit-identity
//!
//! Sealed segments bake *segment-local* BM25 statistics, which search
//! ignores. Instead, [`IncrementalIndex::scored_postings`] recomputes the
//! per-term `idf̄` and per-document `dl̄` from **global** statistics
//! (total doc count, union document frequency, running `avgdl`
//! maintained in the same left-fold order [`InvertedIndex::from_lists`]
//! uses) and scores through the same Q16.16
//! [`crate::score::term_score_fixed`] datapath. Scores are therefore
//! bit-identical to a one-shot index built over the same documents — the
//! equivalence the recovery chaos campaign gates on.
//!
//! ## Error contract
//!
//! Methods return typed [`IndexError`]s and never panic on corrupt or
//! torn input. If `seal` or `compact` fails partway, the in-memory state
//! may be behind the durable state; the safe continuation is to drop the
//! handle and [`IncrementalIndex::open`] again — the WAL and segment
//! protocol guarantee the reopened state is exactly the acknowledged one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::error::IndexError;
use crate::index::InvertedIndex;
use crate::memtable::WriteBuffer;
use crate::partition::Partitioner;
use crate::posting::{DocId, Posting, PostingList};
use crate::recovery::{self, RecoveryReport};
use crate::score::{term_score_fixed, Bm25Params, Fixed};
use crate::segment::{self, LoadedSegment, SegmentMeta};
use crate::wal::{IngestDoc, Wal, WAL_FILE_NAME};

fn io_err(context: &'static str, e: std::io::Error) -> IndexError {
    IndexError::Io { context, message: e.to_string() }
}

/// Tuning knobs for the incremental index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalOptions {
    /// Block partitioner used for every sealed segment.
    pub partitioner: Partitioner,
    /// BM25 parameters (must match across all segments in a directory).
    pub bm25: Bm25Params,
    /// Buffered-document count that triggers an automatic seal after a
    /// batch; `0` disables auto-sealing (manual [`IncrementalIndex::seal`]
    /// only).
    pub seal_threshold: usize,
    /// Sealed-segment count that triggers an automatic merge; `0`
    /// disables auto-merging.
    pub merge_threshold: usize,
    /// Memory-map sealed segments instead of materializing them on the
    /// heap ([`crate::storage`]): posting bytes stay in the page cache
    /// and each segment's record CRCs defer to first touch. Sealed files
    /// are immutable (tmp + fsync + rename), satisfying the mapped
    /// loader's safety contract.
    pub mmap_segments: bool,
}

impl Default for IncrementalOptions {
    fn default() -> Self {
        IncrementalOptions {
            partitioner: Partitioner::dynamic(crate::partition::DEFAULT_MAX_SIZE),
            bm25: Bm25Params::default(),
            seal_threshold: 4096,
            merge_threshold: 8,
            mmap_segments: false,
        }
    }
}

/// A crash-safe, incrementally updatable inverted index over a directory.
#[derive(Debug)]
pub struct IncrementalIndex {
    dir: PathBuf,
    opts: IncrementalOptions,
    segments: Vec<LoadedSegment>,
    buffer: WriteBuffer,
    wal: Wal,
    /// Token length of every document (sealed then buffered), by global id.
    doc_lens: Vec<u32>,
    /// Running Σ doc_len as an f64 left fold in global doc order — the
    /// exact summation [`InvertedIndex::from_lists`] performs, so the
    /// derived `avgdl` is bit-identical to a one-shot build.
    len_sum: f64,
    report: RecoveryReport,
}

impl IncrementalIndex {
    /// Opens (or initializes) the incremental index at `dir`, running full
    /// crash recovery: temp-file cleanup, segment resolution, WAL replay
    /// with torn-tail truncation. An empty or missing directory becomes a
    /// fresh index.
    ///
    /// # Errors
    ///
    /// Returns typed errors for unrecoverable corruption (CRC-corrupt
    /// interior WAL records, damaged or non-tiling segments) and for
    /// filesystem failures; never panics on bad bytes.
    pub fn open(dir: &Path, opts: IncrementalOptions) -> Result<Self, IndexError> {
        fs::create_dir_all(dir).map_err(|e| io_err("creating the index directory", e))?;
        let state =
            recovery::recover_mode(dir, opts.partitioner, opts.bm25, opts.mmap_segments)?;
        let mut doc_lens = Vec::new();
        let mut len_sum = 0.0f64;
        for seg in &state.segments {
            for &l in seg.index.doc_lens() {
                doc_lens.push(l);
                len_sum += f64::from(l);
            }
        }
        for &l in state.buffer.doc_lens() {
            doc_lens.push(l);
            len_sum += f64::from(l);
        }
        if state.wal.next_seq() != doc_lens.len() as u64 {
            return Err(IndexError::CorruptIndex {
                context: "WAL sequence disagrees with recovered document count",
            });
        }
        Ok(IncrementalIndex {
            dir: dir.to_path_buf(),
            opts,
            segments: state.segments,
            buffer: state.buffer,
            wal: state.wal,
            doc_lens,
            len_sum,
            report: state.report,
        })
    }

    /// What recovery found when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The directory this index lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this index was opened with.
    pub fn options(&self) -> &IncrementalOptions {
        &self.opts
    }

    /// Total acknowledged documents (sealed + buffered).
    pub fn num_docs(&self) -> u64 {
        self.doc_lens.len() as u64
    }

    /// Documents sealed into on-disk segments.
    pub fn sealed_docs(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.meta.end())
    }

    /// Documents in the in-memory buffer (durable in the WAL only).
    pub fn buffered_docs(&self) -> u64 {
        self.buffer.num_docs() as u64
    }

    /// Sealed segment metadata, ascending by start.
    pub fn segment_metas(&self) -> Vec<&SegmentMeta> {
        self.segments.iter().map(|s| &s.meta).collect()
    }

    /// Token length of document `d`.
    pub fn doc_len(&self, d: DocId) -> u32 {
        self.doc_lens[d as usize]
    }

    /// Global average document length, bit-identical to the one-shot
    /// build's left-fold computation (1.0 for an empty corpus).
    pub fn avgdl(&self) -> f64 {
        if self.doc_lens.is_empty() {
            1.0
        } else {
            self.len_sum / self.doc_lens.len() as f64
        }
    }

    /// Union document frequency of `term` across segments and buffer.
    pub fn df(&self, term: &str) -> u64 {
        let sealed: u64 = self
            .segments
            .iter()
            .map(|s| s.index.term_id(term).map_or(0, |id| s.index.term_info(id).df))
            .sum();
        sealed + self.buffer.df(term)
    }

    /// True when any acknowledged document contains `term`.
    pub fn has_term(&self, term: &str) -> bool {
        self.buffer.df(term) > 0
            || self.segments.iter().any(|s| s.index.term_id(term).is_some())
    }

    /// Decoded, globally remapped, **globally scored** postings for
    /// `term`, ascending by doc id — or `None` for an unknown term.
    ///
    /// Each entry is `(global_doc_id, score)` where the score is the same
    /// Q16.16 `term_score_fixed(idf̄, dl̄(doc), tf)` a one-shot index
    /// produces, because `idf̄` and `dl̄` come from global statistics.
    pub fn scored_postings(
        &self,
        term: &str,
    ) -> Result<Option<Vec<(DocId, Fixed)>>, IndexError> {
        let df = self.df(term);
        if df == 0 {
            return Ok(None);
        }
        let idf_bar = Fixed::from_f64(self.opts.bm25.idf_bar(self.num_docs(), df));
        let avgdl = self.avgdl();
        let mut out = Vec::with_capacity(df as usize);
        let score = |global: DocId, tf: u32, out: &mut Vec<(DocId, Fixed)>| {
            let dl_bar =
                Fixed::from_f64(self.opts.bm25.dl_bar(self.doc_lens[global as usize], avgdl));
            out.push((global, term_score_fixed(idf_bar, dl_bar, tf)));
        };
        for seg in &self.segments {
            if seg.index.term_id(term).is_none() {
                continue;
            }
            let list = seg.index.decode_term(term)?;
            let offset = seg.meta.start as u32;
            for p in list.iter() {
                score(p.doc_id + offset, p.tf, &mut out);
            }
        }
        if let Some(list) = self.buffer.postings(term) {
            let offset = self.sealed_docs() as u32;
            for p in list.iter() {
                score(p.doc_id + offset, p.tf, &mut out);
            }
        }
        Ok(Some(out))
    }

    /// Ingests one document; returns its global doc id. See
    /// [`Self::ingest_batch`] for the durability contract.
    pub fn ingest(&mut self, doc: &IngestDoc) -> Result<u64, IndexError> {
        self.ingest_batch(std::slice::from_ref(doc)).map(|r| r.start)
    }

    /// Ingests a batch: every document is appended to the WAL, the WAL is
    /// fsynced **once**, and only then is the batch applied to the live
    /// buffer and auto-seal/merge thresholds consulted. When this returns
    /// `Ok`, every document in the batch survives any crash.
    ///
    /// Returns the assigned global doc-id range.
    pub fn ingest_batch(&mut self, docs: &[IngestDoc]) -> Result<Range<u64>, IndexError> {
        if docs.is_empty() {
            let n = self.num_docs();
            return Ok(n..n);
        }
        if self.num_docs() + docs.len() as u64 > u64::from(u32::MAX) {
            return Err(IndexError::CorruptIndex { context: "32-bit docID space exhausted" });
        }
        let start = self.num_docs();
        for (i, doc) in docs.iter().enumerate() {
            let seq = self.wal.append(doc)?;
            debug_assert_eq!(seq, start + i as u64, "WAL sequence out of step with doc ids");
        }
        // Durability barrier: acknowledge only after this fsync.
        self.wal.sync()?;
        for doc in docs {
            self.buffer.add(doc);
            self.doc_lens.push(doc.len());
            self.len_sum += f64::from(doc.len());
        }
        let end = self.num_docs();
        if self.opts.seal_threshold > 0 && self.buffer.num_docs() >= self.opts.seal_threshold {
            self.seal()?;
        }
        Ok(start..end)
    }

    /// Seals the buffer into a new on-disk segment and resets the WAL.
    /// Returns `false` (and does nothing) when the buffer is empty.
    ///
    /// Crash ordering: the segment reaches its final name (atomic rename)
    /// *before* the WAL is reset. A crash in between replays the sealed
    /// documents from the WAL and skips them as already-sealed
    /// duplicates.
    pub fn seal(&mut self) -> Result<bool, IndexError> {
        if self.buffer.is_empty() {
            return Ok(false);
        }
        let start = self.sealed_docs();
        let (lists, lens) = self.buffer.drain();
        let sealed = segment::seal_segment(
            &self.dir,
            start,
            lists,
            lens,
            self.opts.partitioner,
            self.opts.bm25,
        )?;
        // In mmap mode the freshly sealed file replaces its heap copy:
        // posting bytes move to the page cache as soon as they're durable.
        let sealed = if self.opts.mmap_segments {
            segment::load_segment_mmap(&self.dir, &sealed.meta)?
        } else {
            sealed
        };
        self.segments.push(sealed);
        self.wal = Wal::create(&self.dir.join(WAL_FILE_NAME), self.num_docs())?;
        if self.opts.merge_threshold > 0 && self.segments.len() >= self.opts.merge_threshold {
            self.compact()?;
        }
        Ok(true)
    }

    /// Merges all sealed segments into one. Returns `false` when fewer
    /// than two segments exist.
    ///
    /// Crash ordering: the merged segment reaches its final name before
    /// the inputs are unlinked; recovery's subsumption pass cleans up any
    /// leftovers a crash in between produces.
    pub fn compact(&mut self) -> Result<bool, IndexError> {
        if self.segments.len() < 2 {
            return Ok(false);
        }
        let refs: Vec<&LoadedSegment> = self.segments.iter().collect();
        let (lists, lens) = segment::merge_segment_lists(&refs)?;
        let start = self.segments[0].meta.start;
        let merged = segment::seal_segment(
            &self.dir,
            start,
            lists,
            lens,
            self.opts.partitioner,
            self.opts.bm25,
        )?;
        for old in &self.segments {
            if old.meta.file_name != merged.meta.file_name {
                fs::remove_file(self.dir.join(&old.meta.file_name))
                    .map_err(|e| io_err("removing a merged-away segment", e))?;
            }
        }
        let merged = if self.opts.mmap_segments {
            segment::load_segment_mmap(&self.dir, &merged.meta)?
        } else {
            merged
        };
        self.segments = vec![merged];
        Ok(true)
    }

    /// Materializes a one-shot [`InvertedIndex`] over every acknowledged
    /// document — the reference the equivalence gates compare against,
    /// and the bridge to consumers of the static format.
    pub fn to_one_shot(&self) -> Result<InvertedIndex, IndexError> {
        let mut merged: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
        for seg in &self.segments {
            let offset = seg.meta.start as u32;
            for info in seg.index.terms() {
                let list = seg.index.decode_term(&info.term)?;
                merged
                    .entry(info.term.clone())
                    .or_default()
                    .extend(list.iter().map(|p| Posting::new(p.doc_id + offset, p.tf)));
            }
        }
        let offset = self.sealed_docs() as u32;
        for (term, list) in self.buffer.iter_lists() {
            merged
                .entry(term.to_owned())
                .or_default()
                .extend(list.iter().map(|p| Posting::new(p.doc_id + offset, p.tf)));
        }
        let lists = merged
            .into_iter()
            .map(|(term, mut postings)| {
                postings.sort_unstable_by_key(|p| p.doc_id);
                (term, PostingList::from_sorted(postings))
            })
            .collect();
        InvertedIndex::from_lists(
            lists,
            self.doc_lens.clone(),
            self.opts.partitioner,
            self.opts.bm25,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(len: u32, terms: &[(&str, u32)]) -> IngestDoc {
        IngestDoc::new(len, terms.iter().map(|(t, f)| ((*t).to_owned(), *f)).collect())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("iiu-inc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn manual_opts() -> IncrementalOptions {
        IncrementalOptions { seal_threshold: 0, merge_threshold: 0, ..Default::default() }
    }

    #[test]
    fn ingest_seal_reopen_preserves_everything() {
        let dir = tmp_dir("basic");
        let mut idx = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        idx.ingest_batch(&[doc(5, &[("alpha", 2), ("beta", 1)]), doc(3, &[("beta", 3)])])
            .unwrap();
        assert!(idx.seal().unwrap());
        idx.ingest(&doc(7, &[("alpha", 1)])).unwrap();
        assert_eq!(idx.num_docs(), 3);
        assert_eq!(idx.sealed_docs(), 2);
        assert_eq!(idx.df("alpha"), 2);
        assert_eq!(idx.df("beta"), 2);

        let reopened = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        assert_eq!(reopened.num_docs(), 3);
        assert_eq!(reopened.sealed_docs(), 2);
        assert_eq!(reopened.buffered_docs(), 1);
        assert_eq!(reopened.recovery_report().wal_docs_replayed, 1);
        assert_eq!(reopened.df("alpha"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scored_postings_match_one_shot_index() {
        let dir = tmp_dir("score");
        let mut idx = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        idx.ingest_batch(&[
            doc(12, &[("alpha", 2), ("beta", 1)]),
            doc(40, &[("beta", 5), ("gamma", 1)]),
            doc(8, &[("alpha", 1)]),
        ])
        .unwrap();
        idx.seal().unwrap();
        idx.ingest_batch(&[doc(25, &[("alpha", 3), ("gamma", 2)]), doc(16, &[("beta", 2)])])
            .unwrap();

        let one_shot = idx.to_one_shot().unwrap();
        assert_eq!(one_shot.num_docs(), 5);
        for term in ["alpha", "beta", "gamma"] {
            let live = idx.scored_postings(term).unwrap().unwrap();
            let list = one_shot.decode_term(term).unwrap();
            let id = one_shot.term_id(term).unwrap();
            let info = one_shot.term_info(id);
            assert_eq!(live.len(), list.len(), "{term}");
            for (l, p) in live.iter().zip(list.iter()) {
                assert_eq!(l.0, p.doc_id, "{term}");
                let expect = term_score_fixed(info.idf_bar, one_shot.dl_bar(p.doc_id), p.tf);
                assert_eq!(l.1.raw(), expect.raw(), "{term} doc {}", p.doc_id);
            }
        }
        assert!(idx.scored_postings("zzz").unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_seal_and_compact_fire_at_thresholds() {
        let dir = tmp_dir("auto");
        let opts =
            IncrementalOptions { seal_threshold: 2, merge_threshold: 3, ..Default::default() };
        let mut idx = IncrementalIndex::open(&dir, opts).unwrap();
        for i in 0..10u32 {
            idx.ingest(&doc(5 + i, &[("t", 1 + i % 2)])).unwrap();
        }
        assert_eq!(idx.num_docs(), 10);
        // Threshold 2 seals every second doc; threshold 3 keeps the
        // segment count below 3 via merges.
        assert!(idx.segments.len() < 3, "merge never fired: {}", idx.segments.len());
        assert_eq!(idx.sealed_docs() + idx.buffered_docs(), 10);
        let reopened = IncrementalIndex::open(&dir, opts).unwrap();
        assert_eq!(reopened.num_docs(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_merges_to_single_segment() {
        let dir = tmp_dir("compact");
        let mut idx = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        for batch in 0..3 {
            idx.ingest_batch(&[doc(5, &[("a", 1 + batch)]), doc(9, &[("b", 1), ("a", 2)])])
                .unwrap();
            idx.seal().unwrap();
        }
        assert_eq!(idx.segments.len(), 3);
        let before = idx.to_one_shot().unwrap();
        assert!(idx.compact().unwrap());
        assert_eq!(idx.segments.len(), 1);
        let after = idx.to_one_shot().unwrap();
        assert_eq!(
            crate::io::serialize(&before).unwrap(),
            crate::io::serialize(&after).unwrap(),
            "compaction must not change the logical index"
        );
        let reopened = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        assert_eq!(reopened.segments.len(), 1);
        assert_eq!(reopened.num_docs(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dir = tmp_dir("empty");
        let mut idx = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        assert_eq!(idx.ingest_batch(&[]).unwrap(), 0..0);
        assert!(!idx.seal().unwrap());
        assert!(!idx.compact().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
