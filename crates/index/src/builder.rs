//! Offline index construction from raw documents (paper §2.1: "This index
//! structure is often pre-constructed offline").

use std::collections::BTreeMap;

use crate::index::InvertedIndex;
use crate::partition::Partitioner;
use crate::positions::{PositionIndex, PositionList};
use crate::posting::{DocId, PostingList};
use crate::score::Bm25Params;
use crate::tokenize::tokenize;

/// Options controlling index construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BuildOptions {
    /// Block partitioning strategy (dynamic with `maxSize = 256` by
    /// default, the paper's choice).
    pub partitioner: Partitioner,
    /// BM25 parameters baked into the precomputed score constants.
    pub bm25: Bm25Params,
    /// Also record token positions (needed for phrase queries; adds a
    /// sidecar — see [`crate::positions`]).
    pub track_positions: bool,
}

/// Incremental builder: feed documents, then [`IndexBuilder::build`].
///
/// # Example
///
/// ```
/// use iiu_index::{IndexBuilder, BuildOptions};
/// let mut b = IndexBuilder::new(BuildOptions::default());
/// let d0 = b.add_document("hello world");
/// let d1 = b.add_document("hello hello");
/// assert_eq!((d0, d1), (0, 1));
/// let index = b.build();
/// let hello = index.decode_term("hello").unwrap();
/// assert_eq!(hello.as_slice()[1].tf, 2);
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    options: BuildOptions,
    // BTreeMap so that term ids are assigned in lexicographic order,
    // making builds deterministic regardless of insertion order.
    lists: BTreeMap<String, PostingList>,
    positions: BTreeMap<String, Vec<(DocId, Vec<u32>)>>,
    doc_lens: Vec<u32>,
}

impl IndexBuilder {
    /// Creates a builder with the given options.
    pub fn new(options: BuildOptions) -> Self {
        IndexBuilder { options, ..Default::default() }
    }

    /// Tokenizes `text` and adds it as the next document; returns its docID.
    pub fn add_document(&mut self, text: &str) -> DocId {
        let tokens = tokenize(text);
        self.add_document_tokens(tokens.iter().map(|s| s.as_str()))
    }

    /// Adds a pre-tokenized document; returns its docID.
    pub fn add_document_tokens<'a, I>(&mut self, tokens: I) -> DocId
    where
        I: IntoIterator<Item = &'a str>,
    {
        let doc_id = self.doc_lens.len() as DocId;
        let mut tfs: BTreeMap<&str, u32> = BTreeMap::new();
        let mut poss: BTreeMap<&str, Vec<u32>> = BTreeMap::new();
        let mut len = 0u32;
        for t in tokens {
            *tfs.entry(t).or_insert(0) += 1;
            if self.options.track_positions {
                poss.entry(t).or_default().push(len);
            }
            len += 1;
        }
        for (term, tf) in tfs {
            self.lists.entry(term.to_owned()).or_default().push(doc_id, tf);
        }
        for (term, ps) in poss {
            self.positions.entry(term.to_owned()).or_default().push((doc_id, ps));
        }
        self.doc_lens.push(len);
        doc_id
    }

    /// Number of documents added so far.
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// Number of distinct terms seen so far.
    pub fn num_terms(&self) -> usize {
        self.lists.len()
    }

    /// Finalizes the index: partitions and bit-packs every posting list and
    /// precomputes the BM25 constants.
    ///
    /// # Panics
    ///
    /// Panics if encoding fails, which cannot happen for lists produced by
    /// this builder (docIDs are dense and bounded).
    pub fn build(self) -> InvertedIndex {
        InvertedIndex::from_lists(
            self.lists.into_iter().collect(),
            self.doc_lens,
            self.options.partitioner,
            self.options.bm25,
        )
        .expect("builder-produced lists always encode")
    }

    /// Finalizes the index together with its positional sidecar (requires
    /// [`BuildOptions::track_positions`]; the sidecar is empty otherwise).
    pub fn build_with_positions(mut self) -> (InvertedIndex, PositionIndex) {
        let mut pos_index = PositionIndex::new();
        for (term, docs) in std::mem::take(&mut self.positions) {
            pos_index.insert(term, PositionList::from_docs(&docs));
        }
        (self.build(), pos_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_fig3_style_index() {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("business lausanne");
        b.add_document("cameo");
        b.add_document("business cameo business");
        assert_eq!(b.num_docs(), 3);
        assert_eq!(b.num_terms(), 3);
        let idx = b.build();
        let business = idx.decode_term("business").unwrap();
        assert_eq!(business.doc_ids(), vec![0, 2]);
        assert_eq!(business.as_slice()[1].tf, 2);
        assert_eq!(idx.doc_len(2), 3);
    }

    #[test]
    fn empty_document_is_allowed() {
        let mut b = IndexBuilder::new(BuildOptions::default());
        let d = b.add_document("");
        let idx = b.build();
        assert_eq!(idx.doc_len(d), 0);
        assert_eq!(idx.num_docs(), 1);
    }

    #[test]
    fn term_ids_are_lexicographic() {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("zebra apple");
        let idx = b.build();
        assert_eq!(idx.term_id("apple"), Some(0));
        assert_eq!(idx.term_id("zebra"), Some(1));
    }

    #[test]
    fn deterministic_across_insertion_orders() {
        let mut b1 = IndexBuilder::new(BuildOptions::default());
        b1.add_document_tokens(["a", "b", "c"]);
        b1.add_document_tokens(["c", "b"]);
        let mut b2 = IndexBuilder::new(BuildOptions::default());
        b2.add_document_tokens(["c", "a", "b"]);
        b2.add_document_tokens(["b", "c"]);
        assert_eq!(b1.build(), b2.build());
    }
}
