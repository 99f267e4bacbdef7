//! The inverted index: dictionary, compressed posting lists, and the
//! precomputed BM25 constants the scoring units load at query time.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::sync::Arc;

use crate::block::{EncodedList, Store};
use crate::bounds::{ListBounds, BOUNDS_MISMATCH};
use crate::codec::BlockColumns;
use crate::error::IndexError;
use crate::io::{self, Backing, FileWriter, Layout};
use crate::mmap::Mmap;
use crate::partition::Partitioner;
use crate::posting::{DocId, PostingList};
use crate::score::{avgdl, memoized, Bm25Params, Fixed};
use crate::stats::{HeapBytes, IndexSizeStats};

/// Dense identifier of a term in the index dictionary.
pub type TermId = u32;

/// Where an index's file bytes live: owned heap memory (built in RAM or
/// deserialized the classic way) or a memory-mapped index file (the
/// zero-copy storage layer, [`crate::storage`]).
///
/// This is reporting/bookkeeping only — every consumer reads postings
/// through the same views regardless of source.
#[derive(Debug, Clone, Default)]
pub enum IndexSource {
    /// All bytes owned on the heap.
    #[default]
    Heap,
    /// The file's mapping, which the index keeps alive.
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

/// A term's name: a window of the index file's name section, read when
/// it is looked at.
#[derive(Clone, Copy)]
pub struct TermName<'a> {
    store: &'a Store,
    id: TermId,
}

impl<'a> TermName<'a> {
    /// The name, borrowed from the index for as long as the index is.
    pub fn as_str(&self) -> &'a str {
        self.store.name(self.id)
    }
}

impl std::ops::Deref for TermName<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Debug for TermName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

impl std::fmt::Display for TermName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

impl PartialEq for TermName<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for TermName<'_> {}

impl PartialEq<str> for TermName<'_> {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for TermName<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Per-term information exposed by the dictionary, read from the term's
/// directory entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermInfo<'a> {
    /// The term string.
    pub term: TermName<'a>,
    /// Document frequency (length of the posting list).
    pub df: u64,
    /// Precomputed `idf · (k₁ + 1)` in Q16.16 (loaded by the scoring unit
    /// at the start of query processing, §4.3).
    pub idf_bar: Fixed,
}

/// Every term of an index, in id order ([`InvertedIndex::terms`]).
#[derive(Clone, Copy)]
pub struct Terms<'a> {
    index: &'a InvertedIndex,
}

impl<'a> Terms<'a> {
    /// Number of terms.
    pub fn len(&self) -> usize {
        self.index.num_terms()
    }

    /// True for an index without terms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Term `id`, or `None` past the last.
    pub fn get(&self, id: usize) -> Option<TermInfo<'a>> {
        (id < self.len()).then(|| self.index.term_info(id as TermId))
    }

    /// The terms in id order.
    pub fn iter(&self) -> TermsIter<'a> {
        TermsIter { index: self.index, ids: 0..self.len() as TermId }
    }
}

impl<'a> IntoIterator for Terms<'a> {
    type Item = TermInfo<'a>;
    type IntoIter = TermsIter<'a>;
    fn into_iter(self) -> TermsIter<'a> {
        self.iter()
    }
}

/// The iterator of [`Terms`].
#[derive(Clone)]
pub struct TermsIter<'a> {
    index: &'a InvertedIndex,
    ids: std::ops::Range<TermId>,
}

impl<'a> Iterator for TermsIter<'a> {
    type Item = TermInfo<'a>;
    fn next(&mut self) -> Option<TermInfo<'a>> {
        self.ids.next().map(|id| self.index.term_info(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for TermsIter<'_> {}

/// The dictionary: an open-addressed table of term ids, probed by the
/// term's hash and compared against the name in the file's name section,
/// so no name is copied. Each slot keeps the high half of its term's hash
/// beside the id, so a probe reads a name only when that half matches.
/// Keyed hashing ([`RandomState`]), as `HashMap`'s, so a file's names
/// cannot force long probe runs.
#[derive(Debug, Clone)]
struct TermTable {
    /// Power-of-two sized, at most half full: `hash >> 32 << 32 | id`, or
    /// [`TermTable::EMPTY`] for a free slot.
    slots: Vec<u64>,
    hasher: RandomState,
}

impl TermTable {
    const EMPTY: u64 = u64::MAX;

    /// An empty table for `n` terms.
    fn with_capacity(n: usize) -> Self {
        TermTable {
            slots: vec![Self::EMPTY; (n * 2).next_power_of_two().max(2)],
            hasher: RandomState::new(),
        }
    }

    /// Adds term `id`, named `name`, to the table.
    ///
    /// # Errors
    ///
    /// Returns `CorruptIndex { context: "duplicate term" }` if the name is
    /// already in it.
    fn insert(&mut self, store: &Store, id: TermId, name: &[u8]) -> Result<(), IndexError> {
        match self.probe(store, name) {
            Err((free, tag)) => {
                self.slots[free] = tag | u64::from(id);
                Ok(())
            }
            Ok(_) => Err(IndexError::CorruptIndex { context: "duplicate term" }),
        }
    }

    /// `Ok` with the id of `term`, or `Err` with the free slot where it
    /// would go and the tag it would carry. Terminates because the table
    /// is never full.
    fn probe(&self, store: &Store, term: &[u8]) -> Result<TermId, (usize, u64)> {
        let (mask, hash) = (self.slots.len() - 1, self.hasher.hash_one(term));
        let (mut slot, tag) = (hash as usize & mask, hash >> 32 << 32);
        loop {
            match self.slots[slot] {
                Self::EMPTY => return Err((slot, tag)),
                s if s & !u64::from(u32::MAX) == tag
                    && store.name_bytes(s as TermId) == term =>
                {
                    return Ok(s as TermId)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Collection statistics a build takes instead of the ones its own
/// documents and lists give: what document sharding builds its shards
/// with ([`InvertedIndex::from_lists_with_stats`]).
#[derive(Debug)]
pub(crate) struct Stats {
    pub(crate) avgdl: f64,
    /// One term constant per list, in term order.
    pub(crate) idf_bars: Vec<Fixed>,
}

/// A complete inverted index in the IIU storage scheme.
///
/// Construct one with [`crate::IndexBuilder`] (from raw text) or
/// [`InvertedIndex::from_lists`] (from pre-built posting lists, as the
/// synthetic workload generator does).
///
/// However it was made — built, loaded onto the heap or mapped — it views
/// the bytes of one v5 file (see [`crate::io`] and [`crate::block`]);
/// [`InvertedIndex::heap_bytes`] says where the bytes are.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    dictionary: TermTable,
    /// The file every list and bound handle views.
    store: Arc<Store>,
    lists: Vec<EncodedList>,
    doc_lens: Vec<u32>,
    /// Shared with `store`, where a list's first touch reads it.
    dl_bars: Arc<[Fixed]>,
    avgdl: f64,
    /// Built with explicit statistics, which its file does not keep.
    explicit_stats: bool,
    source: IndexSource,
}

/// Equality is over logical content; [`IndexSource`] is a representation
/// detail (a mapped index must compare equal to the heap index it was
/// serialized from — the property the source-equivalence matrix asserts),
/// and the dictionary is a function of the term table.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.terms().iter().eq(other.terms().iter())
            && self.lists == other.lists
            && (0..self.num_terms() as TermId)
                .all(|id| self.list_bounds(id) == other.list_bounds(id))
            && self.doc_lens == other.doc_lens
            && self.dl_bars() == other.dl_bars()
            && self.avgdl == other.avgdl
            && self.params() == other.params()
            && self.partitioner() == other.partitioner()
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
        let avgdl = avgdl(&doc_lens);
        let with_idf = lists
            .into_iter()
            .map(|(term, list)| {
                let idf_bar = Fixed::from_f64(params.idf_bar(n_docs, list.len() as u64));
                (term, list, idf_bar)
            })
            .collect();
        Self::build(with_idf, doc_lens, avgdl, partitioner, params, false)
    }

    /// Builds an index from posting lists with *explicit* collection
    /// statistics: a supplied `avgdl` and a per-term `idf_bar` instead of
    /// ones recomputed from the local lists.
    ///
    /// This is the constructor document sharding relies on: a shard holds a
    /// fraction of the corpus, but its scoring constants (and therefore its
    /// block score bounds) must come from the *global* collection so shard
    /// results merge bit-identically with the unsharded engine. The index
    /// keeps the statistics beside its file, which does not store them:
    /// the file's bounds hold only under those statistics, so no load
    /// would accept it, and [`crate::io::serialize`] refuses to write it
    /// ([`IndexError::ExplicitStatistics`]).
    /// [`from_lists`](Self::from_lists) is the common case.
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
        Self::build(lists, doc_lens, avgdl, partitioner, params, true)
    }

    /// Writes `lists` into a v5 file in memory — each list's bounds from
    /// the same `dl̄` table the scoring datapath will read — and views it
    /// through the one loader, keeping `avgdl` and the lists' term
    /// constants when `explicit`.
    fn build(
        lists: Vec<(String, PostingList, Fixed)>,
        doc_lens: Vec<u32>,
        avgdl: f64,
        partitioner: Partitioner,
        params: Bm25Params,
        explicit: bool,
    ) -> Result<Self, IndexError> {
        let n_docs = doc_lens.len() as u64;
        let dl_bars = params.dl_bars(&doc_lens, avgdl);
        let terms = lists.len() as u64;
        let mut file = FileWriter::new(Vec::new(), &doc_lens, terms, partitioner, params)?;
        let mut idf_bars = Vec::with_capacity(if explicit { lists.len() } else { 0 });
        for (term, list, idf_bar) in lists {
            if list.as_slice().last().is_some_and(|p| u64::from(p.doc_id) >= n_docs) {
                return Err(IndexError::CorruptIndex {
                    context: "posting list references docID beyond corpus",
                });
            }
            let partition = partitioner.partition(&list);
            file.push(&term, list.as_slice(), &partition, idf_bar, &dl_bars)?;
            if explicit {
                idf_bars.push(idf_bar);
            }
        }
        let mut bytes = file.finish()?;
        bytes.shrink_to_fit();
        let stats = explicit.then_some(Stats { avgdl, idf_bars });
        let bytes = Arc::new(Mmap::from_vec(bytes));
        io::load(bytes, Backing::Built(stats))
    }

    /// Assembles the index that views `bytes`, whose sections `layout`
    /// locates — where every build and every load ([`crate::io`], heap or
    /// mapped) ends. It reads the doc table and every name once (the `dl̄`
    /// table and the dictionary), and nothing per block: what a list must
    /// prove is its first touch's ([`InvertedIndex::first_touch_every_list`]).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] on a repeated term name or
    /// explicit statistics that do not cover every term.
    pub(crate) fn assemble(
        bytes: Arc<Mmap>,
        layout: Layout,
        backing: Backing,
    ) -> Result<Self, IndexError> {
        let doc_lens = layout.doc_lens(bytes.as_slice());
        let (source, stats, verified) = match backing {
            Backing::Mapped => (IndexSource::Mapped(Arc::clone(&bytes)), None, false),
            Backing::Heap => (IndexSource::Heap, None, false),
            Backing::Built(stats) => (IndexSource::Heap, stats, true),
        };
        let explicit_stats = stats.is_some();
        let (avgdl, idf_bars) = match stats {
            Some(Stats { idf_bars, .. }) if idf_bars.len() != layout.n_terms => {
                return Err(IndexError::CorruptIndex { context: "term/list count mismatch" });
            }
            Some(Stats { avgdl, idf_bars }) => (avgdl, idf_bars),
            None => {
                let (params, n_docs) = (layout.params, doc_lens.len() as u64);
                let dfs = (0..layout.n_terms).map(|id| layout.df(bytes.as_slice(), id));
                let idf = |df| Fixed::from_f64(params.idf_bar(n_docs, df));
                (avgdl(&doc_lens), memoized(dfs, idf))
            }
        };
        let dl_bars: Arc<[Fixed]> = layout.params.dl_bars(&doc_lens, avgdl).into();
        let n_terms = layout.n_terms;
        if n_terms >= TermId::MAX as usize {
            return Err(IndexError::CorruptIndex { context: "term count" });
        }
        let store = Store::new(bytes, layout, Arc::clone(&dl_bars), idf_bars, verified);
        let store = Arc::new(store);
        // One pass over the directory: every list's handle, and the
        // dictionary over the name windows.
        let (mut dictionary, mut lists) = (TermTable::with_capacity(n_terms), Vec::new());
        lists.reserve_exact(n_terms);
        for (id, entry) in store.layout().entries(store.bytes()).enumerate() {
            let name = store.bytes().get(entry.name.clone()).unwrap_or(&[]);
            dictionary.insert(&store, id as TermId, name)?;
            lists.push(EncodedList::new(&store, id as TermId, &entry));
        }
        Ok(InvertedIndex {
            dictionary,
            store,
            lists,
            doc_lens,
            dl_bars,
            avgdl,
            explicit_stats,
            source,
        })
    }

    /// Every list's first touch ([`EncodedList::first_touch`]), in term
    /// order, each verdict kept: what a heap load runs before it returns,
    /// and [`validate`](Self::validate) on any index. A decode, order or
    /// corpus fault in any list wins over a bounds mismatch, which is
    /// reported once every list has passed.
    ///
    /// # Errors
    ///
    /// As [`EncodedList::ensure_verified`].
    pub(crate) fn first_touch_every_list(&self) -> Result<(), IndexError> {
        let (mut outcome, cols) = (Ok(()), &mut BlockColumns::default());
        for list in &self.lists {
            match list.touch(cols) {
                Err(e) if e == BOUNDS_MISMATCH => outcome = Err(e),
                other => other?,
            }
        }
        outcome
    }

    /// Where this index's file bytes live (heap vs mapping).
    pub fn source(&self) -> &IndexSource {
        &self.source
    }

    /// The v5 file this index views.
    pub(crate) fn file_bytes(&self) -> &[u8] {
        self.store.bytes()
    }

    /// Whether this index was built with explicit statistics
    /// ([`from_lists_with_stats`](Self::from_lists_with_stats)).
    pub(crate) fn has_explicit_stats(&self) -> bool {
        self.explicit_stats
    }

    /// Where that file's sections lie.
    pub(crate) fn layout(&self) -> &Layout {
        self.store.layout()
    }

    /// Runs the deferred first touch of `id`'s list, if it owes one
    /// (lists served from a mapping verify lazily, once — see
    /// [`EncodedList::ensure_verified`]). The no-op for heap indexes — a
    /// heap load ran every list's, a build computed its bounds; engines
    /// call this when resolving query terms so late-discovered corruption
    /// surfaces as a typed error.
    ///
    /// # Errors
    ///
    /// As [`EncodedList::ensure_verified`].
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
        self.lists.len()
    }

    /// Average document length used for BM25 normalization.
    pub fn avgdl(&self) -> f64 {
        self.avgdl
    }

    /// BM25 parameters the index was built with.
    pub fn params(&self) -> Bm25Params {
        self.layout().params
    }

    /// Partitioner the lists were encoded with.
    pub fn partitioner(&self) -> Partitioner {
        self.layout().partitioner
    }

    /// Looks up a term's identifier.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dictionary.probe(&self.store, term.as_bytes()).ok()
    }

    /// Per-term dictionary entry.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn term_info(&self, id: TermId) -> TermInfo<'_> {
        assert!((id as usize) < self.num_terms(), "term id {id} out of range");
        let (store, term) = (&*self.store, TermName { store: &self.store, id });
        TermInfo {
            term,
            df: store.layout().df(store.bytes(), id as usize),
            idf_bar: store.idf_bar(id),
        }
    }

    /// All terms in id order.
    pub fn terms(&self) -> Terms<'_> {
        Terms { index: self }
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
    pub fn list_bounds(&self, id: TermId) -> ListBounds<'_> {
        self.lists[id as usize].bounds()
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
    #[inline]
    pub fn dl_bar(&self, d: DocId) -> Fixed {
        self.dl_bars[d as usize]
    }

    /// The full `dl̄` table (one entry per document).
    pub fn dl_bars(&self) -> &[Fixed] {
        &self.dl_bars
    }

    /// Checks every invariant the query hot path relies on: the dictionary
    /// maps every name to its id, and every list passes its first touch —
    /// its CRC, [`EncodedList::validate`] and the content oracle, what a
    /// heap load runs before it returns and a mapped list on its first use
    /// — whatever the index's source.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] naming the violated invariant,
    /// or a first touch's error ([`EncodedList::ensure_verified`]).
    pub fn validate(&self) -> Result<(), IndexError> {
        if self.dl_bars().len() != self.doc_lens.len() {
            return Err(IndexError::CorruptIndex { context: "dl-bar table size" });
        }
        for id in 0..self.num_terms() as TermId {
            if self.term_id(self.store.name(id)) != Some(id) {
                return Err(IndexError::CorruptIndex { context: "dictionary mapping" });
            }
        }
        self.first_touch_every_list()
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
    /// mapped index's file is in the mapping and counts 0 here.
    pub fn heap_bytes(&self) -> HeapBytes {
        let (per_term, file) = self.store.heap_bytes();
        HeapBytes {
            terms: (self.lists.capacity() * size_of::<EncodedList>()) as u64 + per_term,
            dictionary: (self.dictionary.slots.capacity() * size_of::<u64>()) as u64,
            doc_tables: (self.doc_lens.capacity() * size_of::<u32>()
                + std::mem::size_of_val(&*self.dl_bars)) as u64,
            file,
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
        assert_eq!(idx.term_info(id).term, "business");
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
        // A repeated name would shadow the earlier dictionary entry; the
        // builder refuses it with the loader's own error, since a build is
        // a load of the file it writes.
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
    fn every_list_of_an_index_views_one_file() {
        let idx = tiny_index();
        let (a, b) = (idx.encoded_list(0), idx.encoded_list(1));
        assert!(Arc::ptr_eq(a.store(), b.store()));
        let heap = idx.heap_bytes();
        let file = io::serialize(&idx).unwrap().len() as u64;
        assert_eq!(heap.file, file, "the built file, owned once");
        assert_eq!(heap.terms, 2 * (40 + 8 + 4), "a list handle, a verdict and an idf̄");
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
    fn explicit_statistics_are_kept_beside_the_file() {
        let list = |d: u32| PostingList::from_sorted(vec![Posting::new(d, 1)]);
        let idf = Fixed::from_f64(3.5);
        let idx = InvertedIndex::from_lists_with_stats(
            vec![("a".into(), list(0), idf), ("b".into(), list(1), idf)],
            vec![10, 20],
            40.0,
            Partitioner::default(),
            Bm25Params::default(),
        )
        .unwrap();
        assert_eq!(idx.term_info(1).idf_bar, idf);
        assert_eq!(idx.avgdl(), 40.0);
        idx.validate().unwrap();
        // The file holds neither, and its bounds hold only under them: no
        // loader would accept it, so it is not written.
        assert_eq!(io::serialize(&idx).unwrap_err(), IndexError::ExplicitStatistics);
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
        for slot in &mut bad.dictionary.slots {
            if *slot as TermId == 0 {
                *slot += 1; // "business" now leads to "cameo"
            }
        }
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "dictionary mapping" })
        ));

        let mut bad = idx;
        bad.doc_lens.truncate(5);
        assert!(matches!(
            bad.validate(),
            Err(IndexError::CorruptIndex { context: "dl-bar table size" })
        ));
    }

    #[test]
    fn bounds_cover_every_list() {
        let idx = tiny_index();
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
        assert!(idx.terms().is_empty());
    }
}
