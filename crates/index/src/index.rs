//! The inverted index: dictionary, compressed posting lists, and the
//! precomputed BM25 constants the scoring units load at query time.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::sync::Arc;

use crate::block::EncodedList;
use crate::bounds::ListBounds;
use crate::codec::CodecId;
use crate::error::IndexError;
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::{DocId, PostingList};
use crate::score::{Bm25Params, Fixed};
use crate::stats::IndexSizeStats;

/// Dense identifier of a term in the index dictionary.
pub type TermId = u32;

/// Where an index's payload bytes live: owned heap memory (built in RAM or
/// deserialized the classic way) or a window of a memory-mapped index file
/// (the zero-copy storage layer, [`crate::storage`]).
///
/// This is reporting/bookkeeping only — every consumer reads postings
/// through the same `&[u8]` accessors regardless of source.
#[derive(Debug, Clone, Default)]
pub enum IndexSource {
    /// All bytes owned on the heap.
    #[default]
    Heap,
    /// Payloads served from a file mapping.
    Mapped {
        /// The shared mapping (kept alive by the index).
        map: Arc<Mmap>,
        /// Start of this index's bytes within the mapping (0 for a plain
        /// index file; the shard body offset for manifest shards).
        span_start: usize,
        /// Length of this index's bytes within the mapping.
        span_len: usize,
    },
}

impl IndexSource {
    /// True for a mapped source.
    pub fn is_mapped(&self) -> bool {
        matches!(self, IndexSource::Mapped { .. })
    }

    /// Short human-readable tag (`"heap"` / `"mmap"`).
    pub fn kind(&self) -> &'static str {
        match self {
            IndexSource::Heap => "heap",
            IndexSource::Mapped { .. } => "mmap",
        }
    }

    /// Bytes of the mapping this index spans (0 for heap indexes).
    pub fn mapped_bytes(&self) -> u64 {
        match self {
            IndexSource::Heap => 0,
            IndexSource::Mapped { span_len, .. } => *span_len as u64,
        }
    }

    /// Page-cache residency estimate for this index's span of the mapping
    /// (`mincore`-based, advisory). `None` for heap indexes or when the
    /// estimate is unavailable.
    pub fn resident_bytes(&self) -> Option<u64> {
        match self {
            IndexSource::Heap => None,
            IndexSource::Mapped { map, span_start, span_len } => {
                map.resident_bytes_in(*span_start, *span_len)
            }
        }
    }
}

/// Per-term information exposed by the dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct TermInfo {
    /// The term string.
    pub term: String,
    /// Document frequency (length of the posting list).
    pub df: u64,
    /// Precomputed `idf · (k₁ + 1)` in Q16.16 (loaded by the scoring unit
    /// at the start of query processing, §4.3).
    pub idf_bar: Fixed,
}

/// A complete inverted index in the IIU storage scheme.
///
/// Construct one with [`crate::IndexBuilder`] (from raw text) or
/// [`InvertedIndex::from_lists`] (from pre-built posting lists, as the
/// synthetic workload generator does).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    dictionary: HashMap<String, TermId>,
    terms: Vec<TermInfo>,
    lists: Vec<EncodedList>,
    bounds: Vec<ListBounds>,
    doc_lens: Vec<u32>,
    dl_bars: Vec<Fixed>,
    avgdl: f64,
    params: Bm25Params,
    partitioner: Partitioner,
    codec: CodecId,
    source: IndexSource,
}

/// Equality is over logical content; [`IndexSource`] is a representation
/// detail (a mapped index must compare equal to the heap index it was
/// serialized from — the property the source-equivalence matrix asserts).
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.dictionary == other.dictionary
            && self.terms == other.terms
            && self.lists == other.lists
            && self.bounds == other.bounds
            && self.doc_lens == other.doc_lens
            && self.dl_bars == other.dl_bars
            && self.avgdl == other.avgdl
            && self.params == other.params
            && self.partitioner == other.partitioner
            && self.codec == other.codec
    }
}

impl InvertedIndex {
    /// Builds an index from pre-constructed posting lists.
    ///
    /// `doc_lens[d]` must be the token length of document `d`; every docID
    /// referenced by a list must be `< doc_lens.len()`.
    ///
    /// # Errors
    ///
    /// Same contract as [`from_lists_with_stats`](Self::from_lists_with_stats).
    pub fn from_lists(
        lists: Vec<(String, PostingList)>,
        doc_lens: Vec<u32>,
        partitioner: Partitioner,
        params: Bm25Params,
    ) -> Result<Self, IndexError> {
        Self::from_lists_codec(lists, doc_lens, partitioner, params, CodecId::default())
    }

    /// [`from_lists`](Self::from_lists) with an explicit block codec: the
    /// partitioner minimizes that codec's cost model and every list's
    /// payload is encoded with it.
    ///
    /// # Errors
    ///
    /// Same contract as [`from_lists`](Self::from_lists).
    pub fn from_lists_codec(
        lists: Vec<(String, PostingList)>,
        doc_lens: Vec<u32>,
        partitioner: Partitioner,
        params: Bm25Params,
        codec: CodecId,
    ) -> Result<Self, IndexError> {
        let n_docs = doc_lens.len() as u64;
        let avgdl = if doc_lens.is_empty() {
            1.0
        } else {
            doc_lens.iter().map(|&l| f64::from(l)).sum::<f64>() / n_docs as f64
        };
        let with_idf = lists
            .into_iter()
            .map(|(term, list)| {
                let idf_bar = Fixed::from_f64(params.idf_bar(n_docs, list.len() as u64));
                (term, list, idf_bar)
            })
            .collect();
        Self::from_lists_with_stats_codec(
            with_idf,
            doc_lens,
            avgdl,
            partitioner,
            params,
            codec,
        )
    }

    /// Builds an index from posting lists with *explicit* collection
    /// statistics: a supplied `avgdl` and a per-term `idf_bar` instead of
    /// ones recomputed from the local lists.
    ///
    /// This is the constructor document sharding relies on: a shard holds a
    /// fraction of the corpus, but its scoring constants (and therefore its
    /// block score bounds) must come from the *global* collection so shard
    /// results merge bit-identically with the unsharded engine.
    /// [`from_lists`](Self::from_lists) is the common case and simply feeds
    /// locally computed stats through here.
    ///
    /// # Errors
    ///
    /// Returns an error if a list references an out-of-range docID, a term
    /// name repeats (`CorruptIndex { context: "duplicate term" }`, the error
    /// the loader gives such a file), or a list fails to encode (see
    /// [`EncodedList::encode`]).
    pub fn from_lists_with_stats(
        lists: Vec<(String, PostingList, Fixed)>,
        doc_lens: Vec<u32>,
        avgdl: f64,
        partitioner: Partitioner,
        params: Bm25Params,
    ) -> Result<Self, IndexError> {
        Self::from_lists_with_stats_codec(
            lists,
            doc_lens,
            avgdl,
            partitioner,
            params,
            CodecId::default(),
        )
    }

    /// [`from_lists_with_stats`](Self::from_lists_with_stats) with an
    /// explicit block codec.
    ///
    /// # Errors
    ///
    /// Same contract as [`from_lists_with_stats`](Self::from_lists_with_stats).
    pub fn from_lists_with_stats_codec(
        lists: Vec<(String, PostingList, Fixed)>,
        doc_lens: Vec<u32>,
        avgdl: f64,
        partitioner: Partitioner,
        params: Bm25Params,
        codec: CodecId,
    ) -> Result<Self, IndexError> {
        let n_docs = doc_lens.len() as u64;

        // Per-document constants first: block score bounds are computed
        // from the same dl̄ table the scoring datapath will read.
        let dl_bars: Vec<Fixed> =
            doc_lens.iter().map(|&l| Fixed::from_f64(params.dl_bar(l, avgdl))).collect();

        let mut dictionary = HashMap::with_capacity(lists.len());
        let mut terms = Vec::with_capacity(lists.len());
        let mut encoded = Vec::with_capacity(lists.len());
        let mut bounds = Vec::with_capacity(lists.len());
        for (term, list, idf_bar) in lists {
            if let Some(last) = list.as_slice().last() {
                if u64::from(last.doc_id) >= n_docs {
                    return Err(IndexError::CorruptIndex {
                        context: "posting list references docID beyond corpus",
                    });
                }
            }
            let id = terms.len() as TermId;
            if dictionary.insert(term.clone(), id).is_some() {
                return Err(IndexError::CorruptIndex { context: "duplicate term" });
            }
            let df = list.len() as u64;
            let partition = partitioner.partition_for(&list, codec);
            bounds.push(ListBounds::compute(list.as_slice(), &partition, idf_bar, &dl_bars));
            encoded.push(EncodedList::encode_with(&list, &partition, codec)?);
            terms.push(TermInfo { idf_bar, df, term });
        }

        Ok(InvertedIndex {
            dictionary,
            terms,
            lists: encoded,
            bounds,
            doc_lens,
            dl_bars,
            avgdl,
            params,
            partitioner,
            codec,
            source: IndexSource::Heap,
        })
    }

    /// Assembles an index directly from already-encoded parts — where
    /// every load ([`crate::io`], heap or mapped) ends, so a loaded index
    /// keeps the file's block layout and nothing is re-partitioned.
    ///
    /// The caller is responsible for having validated `lists` (the
    /// [`EncodedList::from_stored_parts`] constructor does) and `bounds`
    /// (recomputed from the lists, or stored ones checked structurally via
    /// [`ListBounds::validate_against`] with content integrity resting on
    /// their section CRC). This constructor checks the
    /// cross-field invariants: table lengths agree, term names are unique,
    /// docIDs stay inside the corpus, and df matches each list.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] naming the violated invariant.
    #[allow(clippy::too_many_arguments)] // mirrors the on-disk section order
    pub(crate) fn from_stored_parts(
        terms: Vec<TermInfo>,
        lists: Vec<EncodedList>,
        bounds: Vec<ListBounds>,
        doc_lens: Vec<u32>,
        avgdl: f64,
        params: Bm25Params,
        partitioner: Partitioner,
        codec: CodecId,
        source: IndexSource,
    ) -> Result<Self, IndexError> {
        if terms.len() != lists.len() {
            return Err(IndexError::CorruptIndex { context: "term/list count mismatch" });
        }
        if bounds.len() != lists.len() {
            return Err(IndexError::CorruptIndex { context: "score bounds count" });
        }
        let n_docs = doc_lens.len() as u64;
        let mut dictionary = HashMap::with_capacity(terms.len());
        for (id, (info, list)) in terms.iter().zip(&lists).enumerate() {
            if info.df != list.num_postings() {
                return Err(IndexError::CorruptIndex { context: "document frequency" });
            }
            if let Some(&last) = list.skips().last() {
                if u64::from(last) >= n_docs {
                    return Err(IndexError::CorruptIndex {
                        context: "posting list references docID beyond corpus",
                    });
                }
            }
            if dictionary.insert(info.term.clone(), id as TermId).is_some() {
                return Err(IndexError::CorruptIndex { context: "duplicate term" });
            }
        }
        let dl_bars: Vec<Fixed> =
            doc_lens.iter().map(|&l| Fixed::from_f64(params.dl_bar(l, avgdl))).collect();
        Ok(InvertedIndex {
            dictionary,
            terms,
            lists,
            bounds,
            doc_lens,
            dl_bars,
            avgdl,
            params,
            partitioner,
            codec,
            source,
        })
    }

    /// Where this index's payload bytes live (heap vs mapping).
    pub fn source(&self) -> &IndexSource {
        &self.source
    }

    /// Runs the deferred record checksum of `id`'s list, if it carries one
    /// (lists served from a mapping verify lazily on first touch). The
    /// no-op for heap indexes; engines call this when resolving query
    /// terms so late-discovered corruption surfaces as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ChecksumMismatch`] if the mapped record's
    /// bytes no longer hash to the stored section CRC.
    pub fn verify_term(&self, id: TermId) -> Result<(), IndexError> {
        match self.lists.get(id as usize) {
            Some(list) => list.ensure_verified(),
            None => Ok(()),
        }
    }

    /// Number of documents in the corpus.
    pub fn num_docs(&self) -> u64 {
        self.doc_lens.len() as u64
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Average document length used for BM25 normalization.
    pub fn avgdl(&self) -> f64 {
        self.avgdl
    }

    /// BM25 parameters the index was built with.
    pub fn params(&self) -> Bm25Params {
        self.params
    }

    /// Partitioner the lists were encoded with.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Block codec every posting list is encoded with.
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Looks up a term's identifier.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dictionary.get(term).copied()
    }

    /// Per-term dictionary entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn term_info(&self, id: TermId) -> &TermInfo {
        &self.terms[id as usize]
    }

    /// All terms in id order.
    pub fn terms(&self) -> &[TermInfo] {
        &self.terms
    }

    /// Compressed posting list of a term.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn encoded_list(&self, id: TermId) -> &EncodedList {
        &self.lists[id as usize]
    }

    /// Per-block score upper bounds of a term's list (the block-max
    /// metadata the pruned top-k mode skips with).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn list_bounds(&self, id: TermId) -> &ListBounds {
        &self.bounds[id as usize]
    }

    /// All per-list score bounds, in term-id order.
    pub fn bounds(&self) -> &[ListBounds] {
        &self.bounds
    }

    /// Decodes the posting list of `term` in full.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if the term is absent.
    pub fn decode_term(&self, term: &str) -> Result<PostingList, IndexError> {
        let id = self
            .term_id(term)
            .ok_or_else(|| IndexError::UnknownTerm { term: term.to_owned() })?;
        Ok(self.encoded_list(id).decode_all())
    }

    /// Token length of document `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn doc_len(&self, d: DocId) -> u32 {
        self.doc_lens[d as usize]
    }

    /// All document lengths.
    pub fn doc_lens(&self) -> &[u32] {
        &self.doc_lens
    }

    /// Precomputed per-document `dl̄(d)` constant in Q16.16 (the table the
    /// scoring unit reads from memory per scored document).
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn dl_bar(&self, d: DocId) -> Fixed {
        self.dl_bars[d as usize]
    }

    /// The full `dl̄` table (one entry per document).
    pub fn dl_bars(&self) -> &[Fixed] {
        &self.dl_bars
    }

    /// Checks every structural invariant the query hot path relies on:
    /// each encoded list passes [`EncodedList::validate`], the dictionary
    /// and term table agree, and the per-document tables are sized to the
    /// corpus.
    ///
    /// A [`deserialize`](crate::io::deserialize)d index always passes (the
    /// heap load runs the same decode oracle); this is the deep check for
    /// mapped indexes, whose stored bounds and docID order are otherwise
    /// taken on their checksums, and for indexes assembled by other means.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), IndexError> {
        if self.terms.len() != self.lists.len() {
            return Err(IndexError::CorruptIndex { context: "term/list count mismatch" });
        }
        if self.dictionary.len() != self.terms.len() {
            return Err(IndexError::CorruptIndex { context: "dictionary size" });
        }
        if self.dl_bars.len() != self.doc_lens.len() {
            return Err(IndexError::CorruptIndex { context: "dl-bar table size" });
        }
        if self.bounds.len() != self.lists.len() {
            return Err(IndexError::CorruptIndex { context: "score bounds count" });
        }
        let n_docs = self.doc_lens.len() as u64;
        for (id, (info, list)) in self.terms.iter().zip(&self.lists).enumerate() {
            if self.dictionary.get(&info.term) != Some(&(id as TermId)) {
                return Err(IndexError::CorruptIndex { context: "dictionary mapping" });
            }
            if list.codec() != self.codec {
                return Err(IndexError::CorruptIndex { context: "list/index codec mismatch" });
            }
            list.validate()?;
            if info.df != list.num_postings() {
                return Err(IndexError::CorruptIndex { context: "document frequency" });
            }
            if let Some(&last) = list.skips().last() {
                if u64::from(last) >= n_docs {
                    return Err(IndexError::CorruptIndex {
                        context: "posting list references docID beyond corpus",
                    });
                }
            }
            // Pruning correctness rests on the bounds, so hold them to the
            // decode-and-recompute oracle, not just structural checks.
            let bounds = &self.bounds[id];
            bounds.validate_against(list)?;
            if *bounds != ListBounds::recompute(list, info.idf_bar, &self.dl_bars)? {
                return Err(IndexError::CorruptIndex { context: "score bounds mismatch" });
            }
        }
        Ok(())
    }

    /// Aggregate size accounting across all posting lists.
    pub fn size_stats(&self) -> IndexSizeStats {
        let mut stats = IndexSizeStats::default();
        for list in &self.lists {
            stats.postings += list.num_postings();
            stats.payload_bytes += list.payload().len() as u64;
            stats.num_blocks += list.num_blocks() as u64;
            stats.model_bits += list.model_bits();
        }
        stats.metadata_bytes = stats.num_blocks * 8;
        stats.skip_bytes = stats.num_blocks * 4;
        stats.uncompressed_bytes = stats.postings * 8;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::Posting;

    fn tiny_index() -> InvertedIndex {
        // The Fig. 3 example: business and cameo.
        let business = PostingList::from_sorted(
            [0u32, 2, 11, 20, 38, 46].iter().map(|&d| Posting::new(d, 1)).collect(),
        );
        let cameo = PostingList::from_sorted(
            [1u32, 11, 38, 39, 46, 55, 62].iter().map(|&d| Posting::new(d, 2)).collect(),
        );
        InvertedIndex::from_lists(
            vec![("business".into(), business), ("cameo".into(), cameo)],
            vec![10; 63],
            Partitioner::default(),
            Bm25Params::default(),
        )
        .unwrap()
    }

    #[test]
    fn lookup_and_decode() {
        let idx = tiny_index();
        assert_eq!(idx.num_docs(), 63);
        assert_eq!(idx.num_terms(), 2);
        let id = idx.term_id("business").unwrap();
        assert_eq!(idx.term_info(id).df, 6);
        assert_eq!(idx.decode_term("business").unwrap().doc_ids(), vec![0, 2, 11, 20, 38, 46]);
        assert!(idx.term_id("zebra").is_none());
        assert!(matches!(idx.decode_term("zebra"), Err(IndexError::UnknownTerm { .. })));
    }

    #[test]
    fn rejects_docid_beyond_corpus() {
        let list = PostingList::from_sorted(vec![Posting::new(100, 1)]);
        let err = InvertedIndex::from_lists(
            vec![("t".into(), list)],
            vec![10; 50],
            Partitioner::default(),
            Bm25Params::default(),
        );
        assert!(matches!(err, Err(IndexError::CorruptIndex { .. })));
    }

    #[test]
    fn rejects_duplicate_term_names() {
        // A repeated name would overwrite the earlier dictionary entry and
        // write a file the loader rejects; the builder must refuse it with
        // the loader's own error.
        let list = || PostingList::from_sorted(vec![Posting::new(1, 1)]);
        let err = InvertedIndex::from_lists(
            vec![("a".into(), list()), ("b".into(), list()), ("a".into(), list())],
            vec![10; 4],
            Partitioner::default(),
            Bm25Params::default(),
        );
        assert!(matches!(err, Err(IndexError::CorruptIndex { context: "duplicate term" })));
    }

    #[test]
    fn idf_bar_reflects_rarity() {
        let idx = tiny_index();
        let business = idx.term_info(idx.term_id("business").unwrap()).idf_bar;
        let cameo = idx.term_info(idx.term_id("cameo").unwrap()).idf_bar;
        // business (df 6) is rarer than cameo (df 7).
        assert!(business > cameo);
    }

    #[test]
    fn dl_bar_equals_k1_at_avgdl() {
        let idx = tiny_index();
        // All docs have length 10 = avgdl, so dl_bar = k1 = 1.2.
        assert!((idx.dl_bar(0).to_f64() - 1.2).abs() < 1e-3);
        assert!((idx.avgdl() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn size_stats_add_up() {
        let idx = tiny_index();
        let s = idx.size_stats();
        assert_eq!(s.postings, 13);
        assert_eq!(s.uncompressed_bytes, 13 * 8);
        assert!(s.num_blocks >= 2);
        assert_eq!(s.metadata_bytes, s.num_blocks * 8);
        assert_eq!(s.skip_bytes, s.num_blocks * 4);
        assert!(s.compressed_bytes() > 0);
        assert!(s.compression_ratio() > 1.0);
    }

    #[test]
    fn validate_passes_on_built_index_and_catches_tampering() {
        let idx = tiny_index();
        assert!(idx.validate().is_ok());

        let mut bad = idx.clone();
        bad.terms[0].df += 1;
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "document frequency" })
        ));

        let mut bad = idx.clone();
        bad.dictionary.insert("business".into(), 1);
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "dictionary mapping" })
        ));

        let mut bad = idx.clone();
        bad.doc_lens.truncate(5); // lists now reference docIDs beyond corpus
        assert!(bad.validate().is_err());

        let mut bad = idx;
        bad.lists.pop();
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "term/list count mismatch" })
        ));
    }

    #[test]
    fn bounds_cover_every_list_and_tampering_is_caught() {
        let idx = tiny_index();
        assert_eq!(idx.bounds().len(), idx.num_terms());
        for id in 0..idx.num_terms() as TermId {
            let list = idx.encoded_list(id);
            let b = idx.list_bounds(id);
            assert_eq!(b.num_blocks(), list.num_blocks());
            // The exact-maximum bound is attained by some posting.
            let info = idx.term_info(id);
            let attained = list.decode_all().as_slice().iter().any(|p| {
                crate::score::term_score_fixed(info.idf_bar, idx.dl_bar(p.doc_id), p.tf)
                    == b.max_ub()
            });
            assert!(attained, "max_ub must be an attained score, not a loose bound");
        }

        let mut bad = idx.clone();
        bad.bounds.pop();
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "score bounds count" })
        ));

        let mut bad = idx;
        let mut ubs = bad.bounds[0].ubs().to_vec();
        ubs[0] = ubs[0].saturating_add(crate::score::Fixed::ONE);
        let max_tfs = bad.bounds[0].max_tfs().to_vec();
        bad.bounds[0] = ListBounds::from_raw_parts(ubs, max_tfs);
        assert!(bad.validate().is_err(), "inflated bound must fail the recompute oracle");
    }

    #[test]
    fn empty_corpus_is_fine() {
        let idx = InvertedIndex::from_lists(
            Vec::new(),
            Vec::new(),
            Partitioner::default(),
            Bm25Params::default(),
        )
        .unwrap();
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.num_terms(), 0);
    }
}
