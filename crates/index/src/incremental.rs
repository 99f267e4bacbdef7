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
//! into one, sealed from the per-term gather behind
//! [`IncrementalIndex::to_one_shot`] over the sealed documents only, so
//! the merged file is byte-identical to the one-shot index over them.
//!
//! Sealed segments live on the heap: a seal keeps the index it built, and
//! [`IncrementalIndex::open`] loads every segment file, which verifies
//! each before the open returns.
//!
//! ## Read path and bit-identity
//!
//! Sealed segments bake *segment-local* BM25 statistics, which search
//! ignores. A read takes three things from this index instead:
//!
//! * [`IncrementalIndex::postings_into`] appends a term's postings with
//!   global doc ids to a caller's buffer, part by part: each sealed
//!   segment's blocks decoded in place and shifted by the segment's start,
//!   then the write buffer's list. Nothing is allocated per part.
//! * [`IncrementalIndex::idf_bar`] gives the global `idf̄` of a term from
//!   its union document frequency (the number of postings read) and the
//!   total doc count.
//! * [`IncrementalIndex::dl_bars`] is the global `dl̄` table, one Q16.16
//!   entry per document. It uses the same formula as
//!   [`InvertedIndex::from_lists`], with `avgdl` summed over the document
//!   lengths in global order as that build sums them. Every ingest drops
//!   it, since `avgdl` moves; the next read rebuilds it once.
//!
//! A caller that scores through [`crate::score::term_score_fixed`] with
//! these therefore gets scores bit-identical to a one-shot index over
//! the same documents, the equivalence the recovery chaos campaign gates
//! on. `iiu-core`'s `LiveIndex` is that caller.
//!
//! ## Error contract
//!
//! Methods return typed [`IndexError`]s and never panic on corrupt or
//! torn input. If `seal` or `compact` fails partway, the in-memory state
//! may be behind the durable state; the safe continuation is to drop the
//! handle and [`IncrementalIndex::open`] again — the WAL and segment
//! protocol guarantee the reopened state is exactly the acknowledged one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeSet;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::error::IndexError;
use crate::index::InvertedIndex;
use crate::memtable::WriteBuffer;
use crate::partition::Partitioner;
use crate::posting::{Posting, PostingList};
use crate::recovery::{self, RecoveryReport};
use crate::score::{avgdl, Bm25Params, Fixed};
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
}

impl Default for IncrementalOptions {
    fn default() -> Self {
        IncrementalOptions {
            partitioner: Partitioner::dynamic(crate::partition::DEFAULT_MAX_SIZE),
            bm25: Bm25Params::default(),
            seal_threshold: 4096,
            merge_threshold: 8,
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
    /// [`IncrementalIndex::dl_bars`], dropped by every ingest (which moves
    /// `avgdl`) and rebuilt by the next read.
    dl_bars: OnceLock<Vec<Fixed>>,
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
        let state = recovery::recover(dir, opts.partitioner, opts.bm25)?;
        let doc_lens: Vec<u32> = state
            .segments
            .iter()
            .flat_map(|s| s.index.doc_lens())
            .chain(state.buffer.doc_lens())
            .copied()
            .collect();
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
            dl_bars: OnceLock::new(),
            report: state.report,
        })
    }

    /// What recovery found when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
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

    /// True when any acknowledged document contains `term`.
    pub fn has_term(&self, term: &str) -> bool {
        self.buffer.df(term) > 0
            || self.segments.iter().any(|s| s.index.term_id(term).is_some())
    }

    /// Appends `term`'s postings onto `out` with global doc ids, ascending:
    /// each sealed segment's blocks decoded in place, then the write
    /// buffer's list. Appends nothing for a term no document holds, and
    /// allocates nothing beyond `out`'s growth.
    ///
    /// # Errors
    ///
    /// A segment block that fails to decode is a typed [`IndexError`].
    pub fn postings_into(&self, term: &str, out: &mut Vec<Posting>) -> Result<(), IndexError> {
        for seg in &self.segments {
            let Some(id) = seg.index.term_id(term) else { continue };
            let list = seg.index.encoded_list(id).verified()?;
            let from = out.len();
            for b in 0..list.metas().len() {
                list.try_decode_pairs_into(b, out)?;
            }
            let offset = seg.meta.start as u32;
            out[from..].iter_mut().for_each(|p| p.doc_id += offset);
        }
        if let Some(list) = self.buffer.postings(term) {
            let offset = self.sealed_docs() as u32;
            out.extend(list.iter().map(|p| Posting::new(p.doc_id + offset, p.tf)));
        }
        Ok(())
    }

    /// The global Q16.16 `idf̄` of a term held by `df` documents.
    pub fn idf_bar(&self, df: u64) -> Fixed {
        Fixed::from_f64(self.opts.bm25.idf_bar(self.num_docs(), df))
    }

    /// The global Q16.16 `dl̄` of every document, by global doc id: the
    /// table a one-shot index stores, from the same formula and `avgdl`.
    /// The first call after an ingest builds it; later calls share it.
    pub fn dl_bars(&self) -> &[Fixed] {
        self.dl_bars.get_or_init(|| {
            // `InvertedIndex::from_lists`'s `avgdl` and table.
            self.opts.bm25.dl_bars(&self.doc_lens, avgdl(&self.doc_lens))
        })
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
        }
        self.dl_bars.take();
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
        let (lists, lens) = self.buffer.drain();
        let (start, p) = (self.sealed_docs(), &self.opts);
        let sealed =
            segment::seal_segment(&self.dir, start, lists, lens, p.partitioner, p.bm25)?;
        self.segments.push(sealed);
        self.wal = Wal::create(&self.dir.join(WAL_FILE_NAME), self.num_docs())?;
        if self.opts.merge_threshold > 0 && self.segments.len() >= self.opts.merge_threshold {
            self.compact()?;
        }
        Ok(true)
    }

    /// Merges all sealed segments into one, sealed from the lists
    /// [`Self::to_one_shot`] gathers, over the sealed documents only.
    /// Returns `false` when fewer than two segments exist.
    ///
    /// Crash ordering: the merged segment reaches its final name before
    /// the inputs are unlinked; recovery's subsumption pass cleans up any
    /// leftovers a crash in between produces.
    pub fn compact(&mut self) -> Result<bool, IndexError> {
        if self.segments.len() < 2 {
            return Ok(false);
        }
        let end = self.sealed_docs();
        let (lists, lens) = (self.gather(end)?, self.doc_lens[..end as usize].to_vec());
        let p = &self.opts;
        let merged = segment::seal_segment(&self.dir, 0, lists, lens, p.partitioner, p.bm25)?;
        for old in &self.segments {
            if old.meta.file_name != merged.meta.file_name {
                fs::remove_file(self.dir.join(&old.meta.file_name))
                    .map_err(|e| io_err("removing a merged-away segment", e))?;
            }
        }
        self.segments = vec![merged];
        Ok(true)
    }

    /// Materializes a one-shot [`InvertedIndex`] over every acknowledged
    /// document — the reference the equivalence gates compare against,
    /// and the bridge to consumers of the static format.
    pub fn to_one_shot(&self) -> Result<InvertedIndex, IndexError> {
        let (lists, p) = (self.gather(self.num_docs())?, &self.opts);
        InvertedIndex::from_lists(lists, self.doc_lens.clone(), p.partitioner, p.bm25)
    }

    /// The lists of a one-shot index over the first `end` documents, `end`
    /// being [`Self::sealed_docs`] or [`Self::num_docs`]: every term's
    /// [`Self::postings_into`] below `end`, in lexicographic term order.
    fn gather(&self, end: u64) -> Result<Vec<(String, PostingList)>, IndexError> {
        let mut terms = BTreeSet::new();
        for seg in &self.segments {
            terms.extend(seg.index.terms().iter().map(|info| info.term.as_str()));
        }
        if end > self.sealed_docs() {
            terms.extend(self.buffer.iter_lists().map(|(t, _)| t));
        }
        terms
            .into_iter()
            .map(|term| {
                let mut postings = Vec::new();
                self.postings_into(term, &mut postings)?;
                postings.truncate(postings.partition_point(|p| u64::from(p.doc_id) < end));
                Ok((term.to_owned(), PostingList::from_sorted(postings)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::DocId;

    fn doc(len: u32, terms: &[(&str, u32)]) -> IngestDoc {
        IngestDoc::new(len, terms.iter().map(|(t, f)| ((*t).to_owned(), *f)).collect())
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("iiu-inc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// Union document frequency of `term`: how many postings a read finds.
    fn df(idx: &IncrementalIndex, term: &str) -> u64 {
        let mut postings = Vec::new();
        idx.postings_into(term, &mut postings).unwrap();
        postings.len() as u64
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
        assert_eq!(df(&idx, "alpha"), 2);
        assert_eq!(df(&idx, "beta"), 2);

        let reopened = IncrementalIndex::open(&dir, manual_opts()).unwrap();
        assert_eq!(reopened.num_docs(), 3);
        assert_eq!(reopened.sealed_docs(), 2);
        assert_eq!(reopened.buffered_docs(), 1);
        assert_eq!(reopened.recovery_report().wal_docs_replayed, 1);
        assert_eq!(df(&reopened, "alpha"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every term's global postings, `idf̄` and the `dl̄` table equal the
    /// one-shot index's; `to_one_shot` is built from this tree's own
    /// reads, so the one-shot side is checked against a hand count too.
    fn assert_reads_match_one_shot(idx: &IncrementalIndex) {
        let one_shot = idx.to_one_shot().unwrap();
        assert_eq!(idx.dl_bars(), one_shot.dl_bars());
        for info in one_shot.terms() {
            let mut live = Vec::new();
            idx.postings_into(&info.term, &mut live).unwrap();
            assert_eq!(live, one_shot.decode_term(&info.term).unwrap().into_inner());
            assert_eq!(idx.idf_bar(live.len() as u64), info.idf_bar, "{}", info.term);
        }
    }

    #[test]
    fn global_reads_match_one_shot_index() {
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
        let alpha: Vec<(DocId, u32)> =
            one_shot.decode_term("alpha").unwrap().iter().map(|p| (p.doc_id, p.tf)).collect();
        assert_eq!(alpha, [(0, 2), (2, 1), (3, 3)]);
        assert_reads_match_one_shot(&idx);
        let mut none = Vec::new();
        idx.postings_into("zzz", &mut none).unwrap();
        assert!(none.is_empty());

        // An ingest moves `avgdl`: the next read sees a rebuilt table.
        let before = idx.dl_bars().to_vec();
        idx.ingest(&doc(400, &[("gamma", 1)])).unwrap();
        assert_ne!(idx.dl_bars()[..5], before[..]);
        assert_reads_match_one_shot(&idx);
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
        // With nothing buffered, the merged file is the one-shot file.
        let merged = std::fs::read(dir.join(&idx.segments[0].meta.file_name)).unwrap();
        assert_eq!(merged, crate::io::serialize(&after).unwrap());
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
