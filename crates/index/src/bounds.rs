//! Per-block score upper bounds — the block-max metadata that lets the
//! software engines skip whole blocks that provably cannot enter the
//! current top-k (the block-max WAND/MaxScore family of optimizations).
//!
//! For every block of every posting list we record
//!
//! * `ub` — an upper bound on the Q16.16 fixed-point BM25 contribution of
//!   any posting in the block, and
//! * `max_tf` — the largest term frequency in the block (kept for
//!   inspection and as a cheap cross-check; `ub` is what pruning uses).
//!
//! An index keeps both for all its lists in one pair of flat tables; a
//! [`ListBounds`] is a handle on one list's span of them, as an
//! [`EncodedList`] is on its block tables.
//!
//! # Why the bound is the exact per-block maximum
//!
//! The obvious closed-form bound `score(max_tf, min dl̄)` is *not* sound
//! for the fixed-point datapath: [`term_score_fixed`] truncates its
//! reciprocal, so the score is not exactly monotone in `tf` (at `dl̄ = 0`,
//! `s(tf) = tf · ⌊2³²/tf⌋` gives `s(5) < s(4)` in raw units). A bound that
//! can undershoot by even one raw unit would break the bit-exact
//! equivalence guarantee between pruned and exhaustive top-k. Instead we
//! evaluate the actual datapath for every posting at build time and keep
//! the per-block maximum — trivially a correct upper bound, and tighter
//! than any closed form. It costs one fixed-point division per posting,
//! paid by a build and again by a heap load's oracle.
//!
//! Bounds are derived data. A build computes them from the postings, and
//! a loaded list's first touch ([`crate::EncodedList::ensure_verified`];
//! at load on the heap, on first use when mapped) holds stored ones to the
//! oracle: one pass per list that decodes each block's docID and tf
//! columns into one reused buffer, checks docID order as a branch-free
//! fold (one branch per block), holds the block's last docID to the
//! corpus, and compares the stored pair with the one per-block bound
//! function the build uses too.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::Arc;

use crate::block::{EncodedList, ListView};
use crate::codec::BlockColumns;
use crate::error::IndexError;
use crate::posting::{DocId, Posting};
use crate::score::{term_score_fixed, Fixed};

/// The flat tables behind every [`ListBounds`] of one index: one entry per
/// block, in term order.
#[derive(Debug, Default)]
pub(crate) struct BoundTables {
    ubs: Vec<Fixed>,
    max_tfs: Vec<u32>,
}

/// What the oracle answers for a list whose postings pass but whose
/// stored bounds differ from the ones they give.
pub(crate) const BOUNDS_MISMATCH: IndexError =
    IndexError::CorruptIndex { context: "score bounds mismatch" };

impl BoundTables {
    /// The tables behind `bounds`, which all share one (empty tables for
    /// none).
    pub(crate) fn of(bounds: &[ListBounds]) -> Arc<BoundTables> {
        bounds.first().map(|b| Arc::clone(&b.tables)).unwrap_or_default()
    }

    /// Heap bytes of the tables behind `bounds` — and so behind every
    /// list's bounds of its index, which all share them.
    pub(crate) fn heap_bytes_of(bounds: &ListBounds) -> u64 {
        let tables = &bounds.tables;
        (tables.ubs.capacity() * std::mem::size_of::<Fixed>()
            + tables.max_tfs.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// The oracle (module docs): whether entries `blocks` of these tables
    /// are the bounds one pass over `list` gives, compared block by block
    /// as the pass goes, with `cols` as its decode buffer. Its one caller
    /// is a list's first touch.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if a block fails to decode, the
    /// decoded docIDs are not strictly increasing, or one lies beyond the
    /// corpus `dl_bars` describes, and [`BOUNDS_MISMATCH`] if they all
    /// pass but the bounds differ.
    pub(crate) fn matches(
        &self,
        blocks: Range<usize>,
        list: ListView<'_>,
        idf_bar: Fixed,
        dl_bars: &[Fixed],
        cols: &mut BlockColumns,
    ) -> Result<(), IndexError> {
        let ubs = self.ubs.get(blocks.clone()).unwrap_or(&[]);
        let max_tfs = self.max_tfs.get(blocks).unwrap_or(&[]);
        let mut same = ubs.len() == list.metas().len();
        oracle_pass(list, idf_bar, dl_bars, cols, |b, (ub, max_tf)| {
            same &= ubs.get(b) == Some(&ub) && max_tfs.get(b) == Some(&max_tf);
        })?;
        same.then_some(()).ok_or(BOUNDS_MISMATCH)
    }
}

/// Per-block score upper bounds for one posting list.
#[derive(Clone, Default)]
pub struct ListBounds {
    tables: Arc<BoundTables>,
    first: usize,
    blocks: usize,
    max_ub: Fixed,
}

/// This list's slice of the tables, not the whole index's.
impl std::fmt::Debug for ListBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListBounds")
            .field("ubs", &self.ubs())
            .field("max_tfs", &self.max_tfs())
            .field("max_ub", &self.max_ub)
            .finish()
    }
}

/// Equality is over the bounds, wherever their tables live.
impl PartialEq for ListBounds {
    fn eq(&self, other: &Self) -> bool {
        self.ubs() == other.ubs()
            && self.max_tfs() == other.max_tfs()
            && self.max_ub == other.max_ub
    }
}

impl Eq for ListBounds {}

/// Accumulates the bound tables of an index's lists in term order, until
/// [`finish`](Self::finish) hands out one [`ListBounds`] per list.
#[derive(Debug, Default)]
pub(crate) struct BoundsBuilder {
    ubs: Vec<Fixed>,
    max_tfs: Vec<u32>,
    /// Per list: first block, block count, list maximum.
    lists: Vec<(usize, usize, Fixed)>,
}

impl BoundsBuilder {
    /// Appends the bounds of a list laid out as `block_lens`-sized runs of
    /// `postings` (see [`ListBounds::compute`]).
    pub(crate) fn push_computed(
        &mut self,
        postings: &[Posting],
        block_lens: &[usize],
        idf_bar: Fixed,
        dl_bars: &[Fixed],
    ) {
        let first = self.ubs.len();
        let mut at = 0usize;
        for &len in block_lens {
            let block = &postings[at.min(postings.len())..(at + len).min(postings.len())];
            let pairs = block.iter().map(|p| (p.doc_id, p.tf));
            self.push_block(block_bound(pairs, idf_bar, dl_bars));
            at += len;
        }
        self.push_list(first);
    }

    /// Appends one list's stored `(ub, max_tf)` pairs, block by block.
    pub(crate) fn push_stored(&mut self, pairs: impl Iterator<Item = (Fixed, u32)>) {
        let first = self.ubs.len();
        pairs.for_each(|bound| self.push_block(bound));
        self.push_list(first);
    }

    fn push_block(&mut self, (ub, max_tf): (Fixed, u32)) {
        self.ubs.push(ub);
        self.max_tfs.push(max_tf);
    }

    /// Closes the list whose blocks were pushed from `first` on.
    fn push_list(&mut self, first: usize) {
        let max_ub = self.ubs[first..].iter().copied().max().unwrap_or(Fixed::ZERO);
        self.lists.push((first, self.ubs.len() - first, max_ub));
    }

    /// One [`ListBounds`] per pushed list, over the tables trimmed to size.
    pub(crate) fn finish(self) -> Vec<ListBounds> {
        let BoundsBuilder { mut ubs, mut max_tfs, lists } = self;
        ubs.shrink_to_fit();
        max_tfs.shrink_to_fit();
        let tables = Arc::new(BoundTables { ubs, max_tfs });
        lists
            .into_iter()
            .map(|(first, blocks, max_ub)| ListBounds {
                tables: Arc::clone(&tables),
                first,
                blocks,
                max_ub,
            })
            .collect()
    }

    /// The bounds of the one list pushed.
    fn finish_one(self) -> ListBounds {
        self.finish().pop().unwrap_or_default()
    }
}

impl ListBounds {
    /// Computes bounds for a list laid out as `block_lens`-sized runs of
    /// `postings` (the same partition handed to [`EncodedList::encode`]).
    ///
    /// `idf_bar` is the list's term constant; `dl_bars` the per-document
    /// normalization table. Postings referencing documents beyond
    /// `dl_bars` contribute a zero-`dl̄` (i.e. maximal) score rather than
    /// panicking — [`crate::InvertedIndex::from_lists`] rejects such lists
    /// before bounds are ever computed.
    pub fn compute(
        postings: &[Posting],
        block_lens: &[usize],
        idf_bar: Fixed,
        dl_bars: &[Fixed],
    ) -> Self {
        let mut bounds = BoundsBuilder::default();
        bounds.push_computed(postings, block_lens, idf_bar, dl_bars);
        bounds.finish_one()
    }

    /// Constructs bounds from raw per-block values, paired block by block
    /// (a longer one is cut to the shorter).
    pub fn from_raw_parts(ubs: Vec<Fixed>, max_tfs: Vec<u32>) -> Self {
        let mut bounds = BoundsBuilder::default();
        bounds.push_stored(ubs.into_iter().zip(max_tfs));
        bounds.finish_one()
    }

    /// Number of blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.blocks
    }

    /// Upper bound on the fixed-point score of any posting in block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_ub(&self, b: usize) -> Fixed {
        self.ubs()[b]
    }

    /// All per-block upper bounds, in block order.
    pub fn ubs(&self) -> &[Fixed] {
        self.tables.ubs.get(self.first..self.first + self.blocks).unwrap_or(&[])
    }

    /// All per-block maximum term frequencies, in block order.
    pub fn max_tfs(&self) -> &[u32] {
        self.tables.max_tfs.get(self.first..self.first + self.blocks).unwrap_or(&[])
    }

    /// Upper bound over the whole list (max of the block bounds) — the
    /// term's MaxScore.
    pub fn max_ub(&self) -> Fixed {
        self.max_ub
    }

    /// Structural consistency with the list the bounds describe.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if the block counts disagree
    /// or the cached list-level maximum does not match the blocks.
    pub fn validate_against(&self, list: &EncodedList) -> Result<(), IndexError> {
        if self.ubs().len() != list.num_blocks() || self.max_tfs().len() != list.num_blocks() {
            return Err(IndexError::CorruptIndex { context: "score bounds block count" });
        }
        let max = self.ubs().iter().copied().max().unwrap_or(Fixed::ZERO);
        if max != self.max_ub {
            return Err(IndexError::CorruptIndex { context: "score bounds list maximum" });
        }
        Ok(())
    }
}

/// The bound of one block, at build and at load alike: the datapath's
/// exact maximum over its `(docID, tf)` postings, and its largest tf. A
/// docID beyond `dl_bars` scores at `dl̄ = 0`.
fn block_bound(
    postings: impl Iterator<Item = (DocId, u32)>,
    idf_bar: Fixed,
    dl_bars: &[Fixed],
) -> (Fixed, u32) {
    postings.fold((Fixed::ZERO, 0), |(ub, max_tf), (d, tf)| {
        let dl = dl_bars.get(d as usize).copied().unwrap_or(Fixed::ZERO);
        (ub.max(term_score_fixed(idf_bar, dl, tf)), max_tf.max(tf))
    })
}

/// The oracle's one pass over `list` (module docs): hands `each` the
/// index and [`block_bound`] of every block, in order, after the block's
/// docIDs pass the order and corpus checks. No block decoder checks docID
/// order (a wrapped gap sum decodes to a smaller docID), so this pass
/// does, across block boundaries, and holds every docID inside `dl_bars`
/// rather than scoring a stray one as if it were there.
fn oracle_pass(
    list: ListView<'_>,
    idf_bar: Fixed,
    dl_bars: &[Fixed],
    cols: &mut BlockColumns,
    mut each: impl FnMut(usize, (Fixed, u32)),
) -> Result<(), IndexError> {
    // The least docID the next block may start with.
    let mut floor = 0u64;
    for b in 0..list.metas().len() {
        list.try_decode_columns_into(b, cols)?;
        let (docs, tfs) = (cols.docs(), cols.tfs());
        if let (Some(&first), Some(&last)) = (docs.first(), docs.last()) {
            let increasing = docs
                .iter()
                .zip(&docs[1..])
                .fold(u64::from(first) >= floor, |ok, (d, next)| ok & (d < next));
            if !increasing {
                return Err(IndexError::CorruptIndex { context: "docIDs not increasing" });
            }
            if last as usize >= dl_bars.len() {
                return Err(IndexError::CorruptIndex {
                    context: "posting list references docID beyond corpus",
                });
            }
            floor = u64::from(last) + 1;
        }
        each(b, block_bound(docs.iter().copied().zip(tfs.iter().copied()), idf_bar, dl_bars));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partitioner;
    use crate::posting::PostingList;
    use proptest::prelude::*;

    /// Bounds from an encoded list by decoding every block: the oracle's
    /// pass, handing back the bounds instead of comparing them.
    fn recompute(
        list: &EncodedList,
        idf_bar: Fixed,
        dl_bars: &[Fixed],
    ) -> Result<ListBounds, IndexError> {
        let mut bounds = BoundsBuilder::default();
        let cols = &mut BlockColumns::default();
        oracle_pass(list.verified()?, idf_bar, dl_bars, cols, |_, bound| {
            bounds.push_block(bound)
        })?;
        bounds.push_list(0);
        Ok(bounds.finish_one())
    }

    fn fixture(
        pairs: &[(u32, u32)],
        max_size: usize,
    ) -> (PostingList, Vec<usize>, Vec<Fixed>) {
        let list =
            PostingList::from_sorted(pairs.iter().map(|&(d, t)| Posting::new(d, t)).collect());
        let lens = Partitioner::dynamic(max_size).partition(&list);
        let n = pairs.last().map_or(0, |&(d, _)| d + 1) as usize;
        let dl_bars: Vec<Fixed> =
            (0..n).map(|d| Fixed::from_f64(1.0 + (d % 7) as f64 * 0.3)).collect();
        (list, lens, dl_bars)
    }

    #[test]
    fn compute_and_recompute_agree() {
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i * 3, 1 + i % 11)).collect();
        let (list, lens, dl_bars) = fixture(&pairs, 16);
        let idf = Fixed::from_f64(4.2);
        let direct = ListBounds::compute(list.as_slice(), &lens, idf, &dl_bars);
        let enc = EncodedList::encode(&list, &lens).unwrap();
        let via_decode = recompute(&enc, idf, &dl_bars).unwrap();
        assert_eq!(direct, via_decode);
        assert_eq!(direct.num_blocks(), enc.num_blocks());
        direct.validate_against(&enc).unwrap();
    }

    #[test]
    fn every_posting_is_below_its_block_bound() {
        let pairs: Vec<(u32, u32)> = (0..300).map(|i| (i * 2 + 1, 1 + (i * i) % 23)).collect();
        let (list, lens, dl_bars) = fixture(&pairs, 8);
        let idf = Fixed::from_f64(7.7);
        let bounds = ListBounds::compute(list.as_slice(), &lens, idf, &dl_bars);
        let mut at = 0usize;
        for (b, &len) in lens.iter().enumerate() {
            for p in &list.as_slice()[at..at + len] {
                let s = term_score_fixed(idf, dl_bars[p.doc_id as usize], p.tf);
                assert!(s <= bounds.block_ub(b), "posting above its block bound");
                assert!(s <= bounds.max_ub());
            }
            at += len;
        }
    }

    #[test]
    fn validate_against_catches_tampering() {
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (i, 1)).collect();
        let (list, lens, dl_bars) = fixture(&pairs, 8);
        let enc = EncodedList::encode(&list, &lens).unwrap();
        let good = ListBounds::compute(list.as_slice(), &lens, Fixed::ONE, &dl_bars);
        good.validate_against(&enc).unwrap();

        let mut bad = good.clone();
        bad.blocks -= 1;
        assert!(matches!(
            bad.validate_against(&enc),
            Err(IndexError::CorruptIndex { context: "score bounds block count" })
        ));

        let mut bad = good.clone();
        bad.max_ub = bad.max_ub.saturating_add(Fixed::ONE);
        assert!(matches!(
            bad.validate_against(&enc),
            Err(IndexError::CorruptIndex { context: "score bounds list maximum" })
        ));
    }

    #[test]
    fn a_builder_lays_lists_end_to_end_in_one_table() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i * 2, 1 + i % 9)).collect();
        let (list, lens, dl_bars) = fixture(&pairs, 8);
        let enc = EncodedList::encode(&list, &lens).unwrap();
        let idf = Fixed::from_f64(2.5);
        let mut builder = BoundsBuilder::default();
        builder.push_computed(list.as_slice(), &lens, idf, &dl_bars);
        let recomputed = recompute(&enc, idf, &dl_bars).unwrap();
        builder
            .push_stored(recomputed.ubs().iter().copied().zip(recomputed.max_tfs().to_vec()));
        builder.push_stored(std::iter::empty());
        let all = builder.finish();
        let alone = ListBounds::compute(list.as_slice(), &lens, idf, &dl_bars);
        assert_eq!(all[0], alone);
        assert_eq!(all[1], alone);
        assert_eq!(all[2].num_blocks(), 0);
        assert!(Arc::ptr_eq(&all[0].tables, &all[2].tables), "one table per builder");
        assert_eq!(all[1].first, lens.len());
    }

    #[test]
    fn empty_list_has_no_blocks() {
        let b = ListBounds::compute(&[], &[], Fixed::ONE, &[]);
        assert_eq!(b.num_blocks(), 0);
        assert_eq!(b.max_ub(), Fixed::ZERO);
        assert_eq!(ListBounds::from_raw_parts(Vec::new(), Vec::new()), b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Build ([`ListBounds::compute`], over the postings) and load
        /// ([`ListBounds::recompute`], over the encoded blocks) give the
        /// same bounds block for block: one-posting to 256-posting blocks
        /// (dense lists of all-equal gaps fill whole 256-posting blocks),
        /// documents at `dl̄ = 0`, and tf spikes of 4 and 5, where the
        /// datapath is not monotone in tf at `dl̄ = 0`.
        #[test]
        fn prop_build_and_load_bounds_agree_block_for_block(
            gaps in proptest::collection::vec(1u32..40, 1..700),
            dense in 0u32..3,
            max_size in prop_oneof![Just(1usize), Just(256usize), 1usize..=256],
            zero_dl_every in 1u32..5,
            spike_every in 1usize..40,
            idf_raw in 1u32..(200u32 << 16),
        ) {
            let mut doc = 0u32;
            let postings: Vec<Posting> = gaps.iter().enumerate().map(|(i, &g)| {
                doc += if dense == 0 { 1 } else { g };
                let tf = match i % spike_every {
                    0 => 4 + (i / spike_every % 2) as u32,
                    _ => 1 + g % 3,
                };
                Posting::new(doc, tf)
            }).collect();
            let list = PostingList::from_sorted(postings);
            let lens = Partitioner::dynamic(max_size).partition(&list);
            let dl_bars: Vec<Fixed> = (0..=doc).map(|d| match d % zero_dl_every {
                0 => Fixed::ZERO,
                r => Fixed::from_f64(0.2 + f64::from(r) * 0.4),
            }).collect();
            let idf = Fixed::from_raw(idf_raw);
            let built = ListBounds::compute(list.as_slice(), &lens, idf, &dl_bars);
            let enc = EncodedList::encode(&list, &lens).unwrap();
            let loaded = recompute(&enc, idf, &dl_bars).unwrap();
            prop_assert_eq!(built.num_blocks(), lens.len());
            prop_assert_eq!(built.ubs(), loaded.ubs());
            prop_assert_eq!(built.max_tfs(), loaded.max_tfs());
            prop_assert_eq!(built.max_ub(), loaded.max_ub());
            let (view, cols) = (enc.verified().unwrap(), &mut BlockColumns::default());
            prop_assert!(built.tables.matches(0..lens.len(), view, idf, &dl_bars, cols).is_ok());
        }

        /// The exact-maximum bound dominates every per-posting score, and
        /// the two computation paths (raw postings vs decoded blocks)
        /// agree bit-for-bit.
        #[test]
        fn prop_bounds_are_sound_and_consistent(
            gaps in proptest::collection::vec((1u32..50, 1u32..200), 1..200),
            chunk in 1usize..32,
            idf_raw in 1u32..(200u32 << 16),
        ) {
            let mut doc = 0u32;
            let pairs: Vec<(u32, u32)> = gaps.iter().map(|&(g, t)| {
                doc += g;
                (doc, t)
            }).collect();
            let (list, lens, dl_bars) = fixture(&pairs, chunk);
            let idf = Fixed::from_raw(idf_raw);
            let bounds = ListBounds::compute(list.as_slice(), &lens, idf, &dl_bars);
            let enc = EncodedList::encode(&list, &lens).unwrap();
            prop_assert_eq!(&bounds, &recompute(&enc, idf, &dl_bars).unwrap());
            let mut at = 0usize;
            for (b, &len) in lens.iter().enumerate() {
                for p in &list.as_slice()[at..at + len] {
                    let s = term_score_fixed(idf, dl_bars[p.doc_id as usize], p.tf);
                    prop_assert!(s <= bounds.block_ub(b));
                }
                at += len;
            }
        }
    }
}
