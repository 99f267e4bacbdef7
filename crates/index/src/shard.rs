//! Document-space sharding: the docID windows a query fans out over, and
//! an in-memory round-robin split.
//!
//! A [`DocWindow`] is a contiguous docID range `[lo, hi)` of one index.
//! The serving layer fans a query out over `n` windows of the index it
//! already holds, heap or mapped: nothing is copied or re-encoded, and
//! docIDs stay global, so a window's hits need no remap.
//!
//! A [`ShardedIndex`] splits the docID space round-robin: global document
//! `d` lives in shard `d % n` under the shard-local identifier `d / n`.
//! The mapping is pure arithmetic in both directions (no stored table),
//! and because it is monotone within a shard, every per-shard posting
//! list stays sorted and delta-encodes exactly as before.
//!
//! Two properties make shard results merge *bit-identically* with the
//! unsharded engine:
//!
//! 1. every shard is built with the **global** collection statistics
//!    (`avgdl` and per-term `idf̄`) via
//!    [`InvertedIndex::from_lists_with_stats`], so a document's BM25
//!    score is the same Q16.16 value no matter which shard scores it;
//! 2. every shard carries the **same dictionary** (terms absent from a
//!    shard get an empty posting list), so a term resolves to the same
//!    [`TermId`] everywhere and per-shard block bounds line up with the
//!    global term table.
//!
//! Nothing stores or serves a split: [`ShardedIndex::split`] (with the
//! sharded engines' `PartSource::Split`) stays only because `shard_bench`
//! and the repo benchmark's frozen fan-out replay call it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::IndexError;
use crate::index::{InvertedIndex, TermId};
use crate::partition::Partitioner;
use crate::posting::{DocId, Posting, PostingList};

/// One past the largest docID: the open end of [`DocWindow::ALL`] and of
/// the last window of every [`DocWindow::cut`]. A `u64` because it does
/// not fit a [`DocId`].
pub const DOC_END: u64 = DocId::MAX as u64 + 1;

/// A contiguous docID range `[lo, hi)` of one index: the unit of work a
/// fan-out hands to one pool task.
///
/// Kernels find a window's blocks per query on the skip list
/// ([`crate::EncodedList::window_blocks`]) and clip postings only in the
/// two edge blocks ([`crate::EncodedList::decode_window_into`]), so a
/// window costs nothing per posting and needs no stored table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocWindow {
    lo: DocId,
    hi: u64,
}

impl DocWindow {
    /// Every docID: the window an unsharded search walks.
    pub const ALL: DocWindow = DocWindow { lo: 0, hi: DOC_END };

    /// The windows between the `cuts`, taken in ascending order: `[0, c₀),
    /// [c₀, c₁), …, [cₖ, DOC_END)`. Together they hold every docID exactly
    /// once; a repeated cut gives an empty window.
    pub fn cut(cuts: &[DocId]) -> Vec<DocWindow> {
        let mut cuts = cuts.to_vec();
        cuts.sort_unstable();
        let los = std::iter::once(0).chain(cuts.iter().copied());
        let his = cuts.iter().map(|&c| u64::from(c)).chain(std::iter::once(DOC_END));
        los.zip(his).map(|(lo, hi)| DocWindow { lo, hi }).collect()
    }

    /// `n` windows of equal document count, to within one, over a corpus
    /// of `num_docs` documents: [`DocWindow::cut`] at `s · num_docs / n`.
    /// With `n > num_docs` some of them are empty.
    pub fn split(num_docs: u64, n: usize) -> Vec<DocWindow> {
        let n = n.max(1) as u128;
        let cuts: Vec<DocId> = (1..n)
            .map(|s| DocId::try_from(s * u128::from(num_docs) / n).unwrap_or(DocId::MAX))
            .collect();
        Self::cut(&cuts)
    }

    /// The first docID of the window.
    pub fn lo(&self) -> DocId {
        self.lo
    }

    /// One past the window's last docID ([`DOC_END`] for an open end).
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// Whether `doc` lies in the window.
    pub fn contains(&self, doc: DocId) -> bool {
        doc >= self.lo && u64::from(doc) < self.hi
    }

    /// True when the window holds no docID.
    pub fn is_empty(&self) -> bool {
        u64::from(self.lo) >= self.hi
    }
}

/// Floor on the shard partitioner's block-length parameter, so a
/// degenerate parent (or a huge shard count) cannot produce one-posting
/// blocks whose metadata outweighs their payload.
const MIN_SHARD_BLOCK_LEN: usize = 8;

/// The partitioner shard lists are encoded with: the parent's strategy
/// with its block-length parameter tightened to the parent's *observed*
/// postings-per-block granularity.
///
/// Round-robin subsampling smooths out both the gap burstiness and the
/// score outliers that make the dynamic partitioner cut the parent's
/// lists into short blocks, so re-partitioning a shard list with the
/// parent's own `max_size` yields blocks several times longer — and a
/// block is the unit of block-max skipping, so coarser blocks directly
/// erode pruning. Capping shard blocks at the parent's observed average
/// keeps the skip granularity (postings priced per bound check)
/// comparable to the unsharded index.
fn shard_partitioner(index: &InvertedIndex) -> Partitioner {
    match index.partitioner() {
        p @ Partitioner::Fixed { .. } => p,
        Partitioner::Dynamic { max_size } => {
            let stats = index.size_stats();
            let avg = if stats.num_blocks > 0 {
                stats.postings.div_ceil(stats.num_blocks) as usize
            } else {
                max_size
            };
            Partitioner::dynamic(avg.clamp(MIN_SHARD_BLOCK_LEN.min(max_size), max_size))
        }
    }
}

/// A corpus split round-robin across N shard sub-indexes, built with
/// [`ShardedIndex::split`]. (Serving fans out over [`DocWindow`]s of one
/// index instead, and copies nothing.) Each shard is a full
/// [`InvertedIndex`] over remapped shard-local docIDs, sharing the global
/// dictionary and global scoring constants.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<InvertedIndex>,
    n_docs: u64,
}

impl ShardedIndex {
    /// Splits `index` into `n` round-robin document shards.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::CorruptIndex`] if `n` is zero or a shard
    /// fails to encode (which would indicate corruption in the source
    /// index, since splitting only shrinks lists).
    pub fn split(index: &InvertedIndex, n: usize) -> Result<Self, IndexError> {
        if n == 0 {
            return Err(IndexError::CorruptIndex { context: "shard count must be nonzero" });
        }
        let doc_lens = index.doc_lens();
        let mut shard_doc_lens: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (d, &len) in doc_lens.iter().enumerate() {
            shard_doc_lens[d % n].push(len);
        }

        // One decoded pass per term, fanned out into per-shard lists with
        // remapped (local) docIDs. The global term order is preserved so
        // TermIds agree across every shard and with the source index.
        let mut shard_lists: Vec<Vec<(String, PostingList, crate::score::Fixed)>> =
            (0..n).map(|_| Vec::with_capacity(index.num_terms())).collect();
        for id in 0..index.num_terms() as TermId {
            let info = index.term_info(id);
            let mut split: Vec<Vec<Posting>> = vec![Vec::new(); n];
            for p in index.encoded_list(id).decode_all().iter() {
                let s = p.doc_id as usize % n;
                split[s].push(Posting::new(p.doc_id / n as u32, p.tf));
            }
            for (s, postings) in split.into_iter().enumerate() {
                shard_lists[s].push((
                    info.term.to_string(),
                    PostingList::from_sorted(postings),
                    info.idf_bar,
                ));
            }
        }

        let avgdl = index.avgdl();
        // A single "shard" is the index itself; only a real split tightens
        // the partitioner to preserve skip granularity.
        let partitioner = if n == 1 { index.partitioner() } else { shard_partitioner(index) };
        let mut shards = Vec::with_capacity(n);
        for (lists, lens) in shard_lists.into_iter().zip(shard_doc_lens) {
            shards.push(InvertedIndex::from_lists_with_stats(
                lists,
                lens,
                avgdl,
                partitioner,
                index.params(),
            )?);
        }
        Ok(ShardedIndex { shards, n_docs: index.num_docs() })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total documents across all shards (the global corpus size).
    pub fn num_docs(&self) -> u64 {
        self.n_docs
    }

    /// The shard sub-indexes, in shard order.
    pub fn shards(&self) -> &[InvertedIndex] {
        &self.shards
    }

    /// One shard.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard(&self, s: usize) -> &InvertedIndex {
        &self.shards[s]
    }

    /// Maps a shard-local docID back to its global docID.
    pub fn global_doc(&self, shard: usize, local: DocId) -> DocId {
        local * self.shards.len() as u32 + shard as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};
    use crate::partition::Partitioner;

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions {
            partitioner: Partitioner::fixed(4),
            ..Default::default()
        });
        b.add_document(&"alpha beta ".repeat(6));
        b.add_document("beta gamma");
        b.add_document(&"alpha ".repeat(3));
        for i in 0..40 {
            b.add_document(&format!("alpha filler{} beta", i % 5));
        }
        b.build()
    }

    #[test]
    fn windows_hold_every_doc_exactly_once() {
        for (n_docs, n) in [(10u64, 1usize), (10, 3), (10, 4), (2, 5), (0, 3)] {
            let windows = DocWindow::split(n_docs, n);
            assert_eq!(windows.len(), n);
            assert_eq!((windows[0].lo(), windows[n - 1].hi()), (0, DOC_END));
            for d in 0..n_docs as DocId + 3 {
                assert_eq!(windows.iter().filter(|w| w.contains(d)).count(), 1, "doc {d}");
            }
            let sizes: Vec<u64> = windows
                .iter()
                .map(|w| w.hi().min(n_docs).saturating_sub(u64::from(w.lo())))
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{n_docs} docs in {n}: {sizes:?}");
        }
        let cut: Vec<(DocId, u64)> =
            DocWindow::cut(&[7, 3, 3]).iter().map(|w| (w.lo(), w.hi())).collect();
        assert_eq!(cut, vec![(0, 3), (3, 3), (3, 7), (7, DOC_END)]);
        assert!(DocWindow::cut(&[3, 3])[1].is_empty());
    }

    #[test]
    fn a_window_decodes_its_blocks_and_clips_only_the_edges() {
        use crate::block::EncodedList;
        // Docs 0, 3, …, 117 in five blocks starting at 0, 24, 48, 72, 96.
        let list = PostingList::from_sorted((0..40).map(|i| Posting::new(i * 3, 1)).collect());
        let enc = EncodedList::encode(&list, &[8; 5]).unwrap();
        assert_eq!(enc.window_blocks(DocWindow::ALL), 0..5);
        for lo in 0..125 {
            for hi in lo..125 {
                let window = DocWindow::cut(&[lo, hi])[1];
                let blocks = enc.window_blocks(window);
                let mut got = Vec::new();
                for b in blocks.clone() {
                    let from = got.len();
                    let decoded = enc.decode_window_into(b, window, &mut got);
                    assert_eq!(decoded, 8);
                    if b != blocks.start && b + 1 != blocks.end {
                        assert_eq!(
                            got.len() - from,
                            8,
                            "[{lo}, {hi}) clipped inner block {b}"
                        );
                    }
                }
                let want: Vec<Posting> =
                    list.iter().copied().filter(|p| window.contains(p.doc_id)).collect();
                assert_eq!(got, want, "[{lo}, {hi})");
                // Tight: the first block holds `lo`, the last starts below `hi`.
                if !blocks.is_empty() {
                    assert!(enc.skips().get(blocks.start + 1).is_none_or(|s| s > lo));
                    assert!(u64::from(enc.skips().at(blocks.end - 1)) < window.hi());
                }
            }
        }
    }

    #[test]
    fn split_is_round_robin_with_remapped_ids() {
        let idx = sample_index();
        let sharded = ShardedIndex::split(&idx, 3).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.num_docs(), idx.num_docs());

        // Every global posting appears in exactly one shard at d / n.
        let id = idx.term_id("alpha").unwrap();
        for p in idx.encoded_list(id).decode_all().iter() {
            let s = p.doc_id as usize % 3;
            let shard = sharded.shard(s);
            let sid = shard.term_id("alpha").unwrap();
            let local = shard
                .encoded_list(sid)
                .decode_all()
                .iter()
                .find(|q| q.doc_id == p.doc_id / 3)
                .copied()
                .unwrap();
            assert_eq!(local.tf, p.tf);
            assert_eq!(sharded.global_doc(s, local.doc_id), p.doc_id);
        }
    }

    #[test]
    fn shards_share_dictionary_and_global_stats() {
        let idx = sample_index();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        for shard in sharded.shards() {
            assert_eq!(shard.num_terms(), idx.num_terms());
            assert!((shard.avgdl() - idx.avgdl()).abs() < 1e-12);
            for id in 0..idx.num_terms() as TermId {
                let gi = idx.term_info(id);
                let si = shard.term_info(id);
                assert_eq!(si.term, gi.term, "TermIds must agree across shards");
                assert_eq!(si.idf_bar, gi.idf_bar, "idf̄ must be the global value");
            }
        }
    }

    #[test]
    fn shard_scores_match_global_scores() {
        // The whole point: a document's Q16.16 score is identical whether
        // computed against the shard or the full index.
        let idx = sample_index();
        let sharded = ShardedIndex::split(&idx, 3).unwrap();
        let id = idx.term_id("beta").unwrap();
        for p in idx.encoded_list(id).decode_all().iter() {
            let s = p.doc_id as usize % 3;
            let local = p.doc_id / 3;
            let global_score = crate::score::term_score_fixed(
                idx.term_info(id).idf_bar,
                idx.dl_bar(p.doc_id),
                p.tf,
            );
            let shard = sharded.shard(s);
            let shard_score = crate::score::term_score_fixed(
                shard.term_info(id).idf_bar,
                shard.dl_bar(local),
                p.tf,
            );
            assert_eq!(shard_score, global_score);
        }
    }

    #[test]
    fn more_shards_than_docs_leaves_empty_shards() {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("solo doc");
        let idx = b.build();
        let sharded = ShardedIndex::split(&idx, 4).unwrap();
        assert_eq!(sharded.shard(0).num_docs(), 1);
        for s in 1..4 {
            assert_eq!(sharded.shard(s).num_docs(), 0);
            assert_eq!(sharded.shard(s).num_terms(), idx.num_terms());
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let idx = sample_index();
        assert!(matches!(ShardedIndex::split(&idx, 0), Err(IndexError::CorruptIndex { .. })));
    }
}
