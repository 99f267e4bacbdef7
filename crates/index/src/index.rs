//! The inverted index: dictionary, compressed posting lists, and the
//! precomputed BM25 constants the scoring units load at query time.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::Arc;

use crate::block::{EncodedList, TableBuilder, TableHeapBytes};
use crate::bounds::{BoundTables, BoundsBuilder, ListBounds};
use crate::error::IndexError;
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::{DocId, PostingList};
use crate::score::{Bm25Params, Fixed};
use crate::stats::{HeapBytes, IndexSizeStats};

/// Dense identifier of a term in the index dictionary.
pub type TermId = u32;

/// Where an index's payload bytes live: owned heap memory (built in RAM or
/// deserialized the classic way) or a memory-mapped index file (the
/// zero-copy storage layer, [`crate::storage`]).
///
/// This is reporting/bookkeeping only — every consumer reads postings
/// through the same `&[u8]` accessors regardless of source.
#[derive(Debug, Clone, Default)]
pub enum IndexSource {
    /// All bytes owned on the heap.
    #[default]
    Heap,
    /// Payloads served from the mapping of the index file, which the index
    /// keeps alive.
    Mapped(Arc<Mmap>),
}

impl IndexSource {
    /// True for a mapped source.
    pub fn is_mapped(&self) -> bool {
        matches!(self, IndexSource::Mapped(_))
    }

    /// Short human-readable tag (`"heap"` / `"mmap"`).
    pub fn kind(&self) -> &'static str {
        match self {
            IndexSource::Heap => "heap",
            IndexSource::Mapped(_) => "mmap",
        }
    }

    /// Bytes of the mapped file (0 for heap indexes).
    pub fn mapped_bytes(&self) -> u64 {
        match self {
            IndexSource::Heap => 0,
            IndexSource::Mapped(map) => map.len() as u64,
        }
    }

    /// Page-cache residency estimate for the mapped file (`mincore`-based,
    /// advisory). `None` for heap indexes or when the estimate is
    /// unavailable.
    pub fn resident_bytes(&self) -> Option<u64> {
        match self {
            IndexSource::Heap => None,
            IndexSource::Mapped(map) => map.resident_bytes(),
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

/// The dictionary: an open-addressed table of term ids, probed by the
/// term's hash and compared against the name in the term table, so every
/// name is stored once. Keyed hashing ([`RandomState`]), as `HashMap`'s,
/// so a file's names cannot force long probe runs.
#[derive(Debug, Clone)]
struct TermTable {
    /// Power-of-two sized, at most half full; [`TermTable::EMPTY`] marks a
    /// free slot.
    slots: Vec<TermId>,
    hasher: RandomState,
}

impl TermTable {
    const EMPTY: TermId = TermId::MAX;

    /// The table of `terms`, each under its position.
    ///
    /// # Errors
    ///
    /// Returns `CorruptIndex { context: "duplicate term" }` if a name
    /// repeats.
    fn build(terms: &[TermInfo]) -> Result<Self, IndexError> {
        if terms.len() >= Self::EMPTY as usize {
            return Err(IndexError::CorruptIndex { context: "term count" });
        }
        let mut table = TermTable {
            slots: vec![Self::EMPTY; (terms.len() * 2).next_power_of_two().max(2)],
            hasher: RandomState::new(),
        };
        for (id, info) in terms.iter().enumerate() {
            match table.probe(terms, &info.term) {
                Err(free) => table.slots[free] = id as TermId,
                Ok(_) => return Err(IndexError::CorruptIndex { context: "duplicate term" }),
            }
        }
        Ok(table)
    }

    /// `Ok` with the id of `term`, or `Err` with the free slot where it
    /// would go. Terminates because the table is never full.
    fn probe(&self, terms: &[TermInfo], term: &str) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(term) as usize & mask;
        loop {
            match self.slots[slot] {
                Self::EMPTY => return Err(slot),
                id if terms.get(id as usize).is_some_and(|t| t.term == term) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn get(&self, terms: &[TermInfo], term: &str) -> Option<TermId> {
        self.probe(terms, term).ok()
    }
}

/// A complete inverted index in the IIU storage scheme.
///
/// Construct one with [`crate::IndexBuilder`] (from raw text) or
/// [`InvertedIndex::from_lists`] (from pre-built posting lists, as the
/// synthetic workload generator does).
///
/// However it was made — built, loaded onto the heap or mapped — its lists
/// and bounds are handles on a few index-wide tables (see
/// [`crate::block`]); [`InvertedIndex::heap_bytes`] says where the bytes
/// are.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    dictionary: TermTable,
    terms: Vec<TermInfo>,
    lists: Vec<EncodedList>,
    bounds: Vec<ListBounds>,
    doc_lens: Vec<u32>,
    dl_bars: Vec<Fixed>,
    avgdl: f64,
    params: Bm25Params,
    partitioner: Partitioner,
    source: IndexSource,
}

/// Equality is over logical content; [`IndexSource`] is a representation
/// detail (a mapped index must compare equal to the heap index it was
/// serialized from — the property the source-equivalence matrix asserts),
/// and the dictionary is a function of the term table.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.terms == other.terms
            && self.lists == other.lists
            && self.bounds == other.bounds
            && self.doc_lens == other.doc_lens
            && self.dl_bars == other.dl_bars
            && self.avgdl == other.avgdl
            && self.params == other.params
            && self.partitioner == other.partitioner
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
        Self::from_lists_with_stats(with_idf, doc_lens, avgdl, partitioner, params)
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
        let n_docs = doc_lens.len() as u64;

        // Per-document constants first: block score bounds are computed
        // from the same dl̄ table the scoring datapath will read.
        let dl_bars: Vec<Fixed> =
            doc_lens.iter().map(|&l| Fixed::from_f64(params.dl_bar(l, avgdl))).collect();

        // Every list encodes into one set of tables, and its bounds into
        // another: a term's own heap cost is its name.
        let mut tables = TableBuilder::default();
        let mut bound_tables = BoundsBuilder::default();
        let mut spans = Vec::with_capacity(lists.len());
        let mut terms = Vec::with_capacity(lists.len());
        for (term, list, idf_bar) in lists {
            if let Some(last) = list.as_slice().last() {
                if u64::from(last.doc_id) >= n_docs {
                    return Err(IndexError::CorruptIndex {
                        context: "posting list references docID beyond corpus",
                    });
                }
            }
            let partition = partitioner.partition(&list);
            bound_tables.push_computed(list.as_slice(), &partition, idf_bar, &dl_bars);
            spans.push(tables.encode(&list, &partition)?);
            terms.push(TermInfo { idf_bar, df: list.len() as u64, term });
        }
        let dictionary = TermTable::build(&terms)?;
        let tables = tables.freeze(None, n_docs);

        Ok(InvertedIndex {
            dictionary,
            terms,
            lists: spans.into_iter().map(|span| EncodedList::new(&tables, span)).collect(),
            bounds: bound_tables.finish(),
            doc_lens,
            dl_bars,
            avgdl,
            params,
            partitioner,
            source: IndexSource::Heap,
        })
    }

    /// Assembles an index directly from already-encoded parts — where
    /// every load ([`crate::io`], heap or mapped) ends, so a loaded index
    /// keeps the file's block layout and nothing is re-partitioned.
    ///
    /// The caller is responsible for having validated `lists` (the
    /// loader's table builder checks each record's structure) and `bounds`
    /// (recomputed from the lists, or stored ones checked for shape with
    /// content integrity resting on their section CRC). This constructor
    /// checks the cross-field invariants: table lengths agree, term names
    /// are unique, each list's last block starts inside the corpus (its
    /// first touch checks the rest of that block), and df matches each
    /// list.
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
        source: IndexSource,
    ) -> Result<Self, IndexError> {
        if terms.len() != lists.len() {
            return Err(IndexError::CorruptIndex { context: "term/list count mismatch" });
        }
        if bounds.len() != lists.len() {
            return Err(IndexError::CorruptIndex { context: "score bounds count" });
        }
        let n_docs = doc_lens.len() as u64;
        for (info, list) in terms.iter().zip(&lists) {
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
        }
        let dl_bars: Vec<Fixed> =
            doc_lens.iter().map(|&l| Fixed::from_f64(params.dl_bar(l, avgdl))).collect();
        Ok(InvertedIndex {
            dictionary: TermTable::build(&terms)?,
            terms,
            lists,
            bounds,
            doc_lens,
            dl_bars,
            avgdl,
            params,
            partitioner,
            source,
        })
    }

    /// Where this index's payload bytes live (heap vs mapping).
    pub fn source(&self) -> &IndexSource {
        &self.source
    }

    /// Runs the deferred first-touch check of `id`'s list, if it carries
    /// one (lists served from a mapping verify lazily, once — see
    /// [`EncodedList::ensure_verified`]). The no-op for heap indexes;
    /// engines call this when resolving query terms so late-discovered
    /// corruption surfaces as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::ChecksumMismatch`] if the mapped record's
    /// bytes no longer hash to the stored section CRC, and
    /// [`IndexError::CorruptIndex`] if its last block holds a docID beyond
    /// the corpus.
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

    /// Looks up a term's identifier.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dictionary.get(&self.terms, term)
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
        if self.dl_bars.len() != self.doc_lens.len() {
            return Err(IndexError::CorruptIndex { context: "dl-bar table size" });
        }
        if self.bounds.len() != self.lists.len() {
            return Err(IndexError::CorruptIndex { context: "score bounds count" });
        }
        let n_docs = self.doc_lens.len() as u64;
        for (id, (info, list)) in self.terms.iter().zip(&self.lists).enumerate() {
            if self.term_id(&info.term) != Some(id as TermId) {
                return Err(IndexError::CorruptIndex { context: "dictionary mapping" });
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

    /// Where this index's heap memory is: the bytes each of its tables
    /// requested, by table (DESIGN.md §19, "index memory layout"). A
    /// mapped index's payload is in the mapping and counts 0 here.
    pub fn heap_bytes(&self) -> HeapBytes {
        // An index without lists has empty tables, which hold nothing.
        let tables = self.lists.first().map(TableHeapBytes::of).unwrap_or_default();
        let names: usize = self.terms.iter().map(|t| t.term.capacity()).sum();
        HeapBytes {
            terms: (self.terms.capacity() * size_of::<TermInfo>()
                + names
                + self.lists.capacity() * size_of::<EncodedList>()
                + self.bounds.capacity() * size_of::<ListBounds>()) as u64
                + tables.crcs,
            dictionary: (self.dictionary.slots.capacity() * size_of::<TermId>()) as u64,
            block_tables: tables.blocks,
            bound_tables: self.bounds.first().map_or(0, BoundTables::heap_bytes_of),
            doc_tables: (self.doc_lens.capacity() * size_of::<u32>()
                + self.dl_bars.capacity() * size_of::<Fixed>()) as u64,
            payload: tables.payload,
        }
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
    fn dictionary_finds_every_term_and_nothing_else() {
        let names: Vec<String> = (0..1000).map(|i| format!("term{i}")).collect();
        let lists = names
            .iter()
            .map(|n| (n.clone(), PostingList::from_sorted(vec![Posting::new(0, 1)])))
            .collect();
        let idx = InvertedIndex::from_lists(
            lists,
            vec![1],
            Partitioner::default(),
            Bm25Params::default(),
        )
        .unwrap();
        for (id, name) in names.iter().enumerate() {
            assert_eq!(idx.term_id(name), Some(id as TermId));
        }
        for absent in ["", "term", "term1000", "term01"] {
            assert_eq!(idx.term_id(absent), None, "{absent:?}");
        }
        assert_eq!(idx.dictionary.slots.len(), 2048, "at most half full");
    }

    #[test]
    fn every_list_and_bound_of_an_index_shares_one_table() {
        let idx = tiny_index();
        let (a, b) = (idx.encoded_list(0), idx.encoded_list(1));
        assert!(Arc::ptr_eq(a.tables(), b.tables()));
        let heap = idx.heap_bytes();
        let blocks = idx.size_stats().num_blocks;
        assert_eq!(heap.block_tables, blocks * 20, "one 16 B meta and one skip per block");
        assert_eq!(heap.bound_tables, blocks * 8);
        assert_eq!(heap.payload, idx.size_stats().payload_bytes);
        assert_eq!(heap.doc_tables, 63 * 8);
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
        for slot in &mut bad.dictionary.slots {
            if *slot == 0 {
                *slot = 1; // "business" now leads to "cameo"
            }
        }
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
