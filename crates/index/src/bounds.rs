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
//! They are the index file's bound column ([`crate::io`]), laid out block
//! for block as the metadata and skip columns are; a [`ListBounds`] is a
//! view of one list's slice of it, as a [`crate::ListView`] is of the
//! others.
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

use crate::block::{Column, ListView};
use crate::codec::BlockColumns;
use crate::error::IndexError;
use crate::posting::DocId;
use crate::score::{term_score_fixed, Fixed};

/// What the oracle answers for a list whose postings pass but whose
/// stored bounds differ from the ones they give.
pub(crate) const BOUNDS_MISMATCH: IndexError =
    IndexError::CorruptIndex { context: "score bounds mismatch" };

/// Per-block score upper bounds for one posting list: a view of its slice
/// of the index file's bound column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListBounds<'a> {
    ubs: Column<'a, Fixed>,
    max_tfs: Column<'a, u32>,
}

impl<'a> ListBounds<'a> {
    /// The bounds whose blocks' `ub`s and largest tfs are `ubs` and
    /// `max_tfs`, paired block by block.
    pub(crate) fn new(ubs: Column<'a, Fixed>, max_tfs: Column<'a, u32>) -> Self {
        ListBounds { ubs, max_tfs }
    }

    /// Number of blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.ubs.len()
    }

    /// Upper bound on the fixed-point score of any posting in block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block_ub(&self, b: usize) -> Fixed {
        self.ubs.at(b)
    }

    /// All per-block upper bounds, in block order.
    pub fn ubs(&self) -> Column<'a, Fixed> {
        self.ubs
    }

    /// All per-block maximum term frequencies, in block order.
    pub fn max_tfs(&self) -> Column<'a, u32> {
        self.max_tfs
    }

    /// Upper bound over the whole list (max of the block bounds) — the
    /// term's MaxScore. One pass over the list's bounds.
    pub fn max_ub(&self) -> Fixed {
        self.ubs.iter().max().unwrap_or(Fixed::ZERO)
    }
}

/// The oracle (module docs): whether `stored` are the bounds one pass over
/// `list` gives, compared block by block as the pass goes, with `cols` as
/// its decode buffer. Its one caller is a list's first touch.
///
/// # Errors
///
/// Returns [`IndexError::CorruptIndex`] if a block fails to decode, the
/// decoded docIDs are not strictly increasing, or one lies beyond the
/// corpus `dl_bars` describes, and [`BOUNDS_MISMATCH`] if they all pass
/// but the bounds differ.
pub(crate) fn matches(
    stored: ListBounds<'_>,
    list: ListView<'_>,
    idf_bar: Fixed,
    dl_bars: &[Fixed],
    cols: &mut BlockColumns,
) -> Result<(), IndexError> {
    let mut same = stored.num_blocks() == list.metas().len();
    oracle_pass(list, idf_bar, dl_bars, cols, |b, (ub, max_tf)| {
        same &= stored.ubs.get(b) == Some(ub) && stored.max_tfs.get(b) == Some(max_tf);
    })?;
    same.then_some(()).ok_or(BOUNDS_MISMATCH)
}

/// The bound of one block, at build and at load alike: the datapath's
/// exact maximum over its `(docID, tf)` postings, and its largest tf. A
/// docID beyond `dl_bars` scores at `dl̄ = 0`.
pub(crate) fn block_bound(
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
    use crate::index::InvertedIndex;
    use crate::partition::Partitioner;
    use crate::posting::{Posting, PostingList};
    use crate::score::Bm25Params;
    use proptest::prelude::*;

    /// The bounds the oracle's pass gives `index`'s list `id` —
    /// the load's side — against the ones the build stored.
    fn recompute(index: &InvertedIndex, id: u32) -> Vec<(Fixed, u32)> {
        let mut bounds = Vec::new();
        let list = index.encoded_list(id).verified().unwrap();
        let (idf, cols) = (index.term_info(id).idf_bar, &mut BlockColumns::default());
        oracle_pass(list, idf, index.dl_bars(), cols, |_, bound| bounds.push(bound)).unwrap();
        bounds
    }

    fn stored(bounds: ListBounds<'_>) -> Vec<(Fixed, u32)> {
        bounds.ubs().iter().zip(bounds.max_tfs()).collect()
    }

    /// A one-list index over `doc_lens`, built with explicit `idf_bar`.
    fn one_list(
        postings: Vec<Posting>,
        max_size: usize,
        doc_lens: Vec<u32>,
        idf_bar: Fixed,
    ) -> InvertedIndex {
        let list = PostingList::from_sorted(postings);
        let avgdl = crate::score::avgdl(&doc_lens);
        InvertedIndex::from_lists_with_stats(
            vec![("t".into(), list, idf_bar)],
            doc_lens,
            avgdl,
            Partitioner::dynamic(max_size),
            Bm25Params::default(),
        )
        .unwrap()
    }

    fn fixture(pairs: &[(u32, u32)], max_size: usize, idf: Fixed) -> InvertedIndex {
        let postings = pairs.iter().map(|&(d, t)| Posting::new(d, t)).collect();
        let n = pairs.last().map_or(0, |&(d, _)| d + 1);
        one_list(postings, max_size, (0..n).map(|d| 3 + d % 7).collect(), idf)
    }

    #[test]
    fn build_and_oracle_agree() {
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i * 3, 1 + i % 11)).collect();
        let idx = fixture(&pairs, 16, Fixed::from_f64(4.2));
        let bounds = idx.list_bounds(0);
        assert_eq!(stored(bounds), recompute(&idx, 0));
        assert_eq!(bounds.num_blocks(), idx.encoded_list(0).num_blocks());
        idx.validate().unwrap();
    }

    #[test]
    fn every_posting_is_below_its_block_bound() {
        let pairs: Vec<(u32, u32)> = (0..300).map(|i| (i * 2 + 1, 1 + (i * i) % 23)).collect();
        let idf = Fixed::from_f64(7.7);
        let idx = fixture(&pairs, 8, idf);
        let (list, bounds) = (idx.encoded_list(0), idx.list_bounds(0));
        for b in 0..list.num_blocks() {
            for p in list.decode_block(b) {
                let s = term_score_fixed(idf, idx.dl_bar(p.doc_id), p.tf);
                assert!(s <= bounds.block_ub(b), "posting above its block bound");
                assert!(s <= bounds.max_ub());
            }
        }
    }

    #[test]
    fn a_stored_pair_off_by_one_is_a_mismatch() {
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (i, 1 + i % 3)).collect();
        let idx = fixture(&pairs, 8, Fixed::ONE);
        let (list, cols) =
            (idx.encoded_list(0).verified().unwrap(), &mut BlockColumns::default());
        let good = stored(idx.list_bounds(0));
        for (word, delta) in [(0, 1), (1, 1), (1, -1)] {
            let mut ubs: Vec<u8> = Vec::new();
            let mut max_tfs: Vec<u8> = Vec::new();
            for (b, &(ub, max_tf)) in good.iter().enumerate() {
                let nudge = |w: u32, at| {
                    if b == 2 && word == at {
                        w.wrapping_add_signed(delta)
                    } else {
                        w
                    }
                };
                ubs.extend(nudge(ub.raw(), 0).to_le_bytes());
                max_tfs.extend(nudge(max_tf, 1).to_le_bytes());
            }
            let bounds = ListBounds::new(Column::new(&ubs), Column::new(&max_tfs));
            let got = matches(bounds, list, Fixed::ONE, idx.dl_bars(), cols);
            assert_eq!(got, Err(BOUNDS_MISMATCH), "word {word} by {delta}");
        }
        assert!(matches(idx.list_bounds(0), list, Fixed::ONE, idx.dl_bars(), cols).is_ok());
    }

    #[test]
    fn empty_list_has_no_blocks() {
        let b = ListBounds::default();
        assert_eq!(b.num_blocks(), 0);
        assert_eq!(b.max_ub(), Fixed::ZERO);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Build (over the postings) and load (the oracle's pass over the
        /// encoded blocks) give the same bounds block for block:
        /// one-posting to 256-posting blocks (dense lists of all-equal gaps
        /// fill whole 256-posting blocks), documents at `dl̄ = 0`, and tf
        /// spikes of 4 and 5, where the datapath is not monotone in tf at
        /// `dl̄ = 0`.
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
            // Lengths whose dl̄ is 0 at every `zero_dl_every`-th document:
            // b = 1 and length 0.
            let doc_lens: Vec<u32> = (0..=doc).map(|d| match d % zero_dl_every {
                0 => 0,
                r => 2 + r * 3,
            }).collect();
            let idx = {
                let list = PostingList::from_sorted(postings);
                let params = Bm25Params { k1: 1.2, b: 1.0 };
                let avgdl = crate::score::avgdl(&doc_lens);
                InvertedIndex::from_lists_with_stats(
                    vec![("t".into(), list, Fixed::from_raw(idf_raw))],
                    doc_lens,
                    avgdl,
                    Partitioner::dynamic(max_size),
                    params,
                ).unwrap()
            };
            prop_assert_eq!(stored(idx.list_bounds(0)), recompute(&idx, 0));
            prop_assert!(idx.validate().is_ok());
        }

        /// The exact-maximum bound dominates every per-posting score.
        #[test]
        fn prop_bounds_are_sound(
            gaps in proptest::collection::vec((1u32..50, 1u32..200), 1..200),
            chunk in 1usize..32,
            idf_raw in 1u32..(200u32 << 16),
        ) {
            let mut doc = 0u32;
            let pairs: Vec<(u32, u32)> = gaps.iter().map(|&(g, t)| {
                doc += g;
                (doc, t)
            }).collect();
            let idf = Fixed::from_raw(idf_raw);
            let idx = fixture(&pairs, chunk, idf);
            let (list, bounds) = (idx.encoded_list(0), idx.list_bounds(0));
            prop_assert_eq!(stored(bounds), recompute(&idx, 0));
            for b in 0..list.num_blocks() {
                for p in list.decode_block(b) {
                    let s = term_score_fixed(idf, idx.dl_bar(p.doc_id), p.tf);
                    prop_assert!(s <= bounds.block_ub(b));
                }
            }
        }
    }
}
