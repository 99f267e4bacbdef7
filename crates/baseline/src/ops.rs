//! Set operations over compressed posting lists, with operation counting.
//!
//! These are the baseline's (and, functionally, the accelerator's)
//! semantics for the three query types of §2.2/§4.2: full decompression
//! for single-term queries, Small-versus-Small intersection with skip-list
//! membership testing, and linear-merge union. Every function fills an
//! [`OpCounts`] so the cost model can price the work.
//!
//! All hot-path decoding goes through [`iiu_index::EncodedList::decode_block_into`]
//! with buffers of the calling thread's [`DecodeScratch`]
//! ([`with_scratch`]), so steady-state query processing performs no
//! per-block allocation. The exhaustive SvS ([`intersect_svs`]) keeps only
//! the long list's current block: its probes ascend, so a block it has
//! left is never probed again, and each block is decoded at most once per
//! call. Its `cache_hits`/`cache_misses` tallies
//! count probes into that one block and probes that opened a new one.
//! There is no software block cache: the paper's 32-entry traversal cache
//! in front of the BSU (§4.4) is modelled by the simulator
//! (`iiu_sim::core`). Pruned mode ([`crate::pruned`]) moves forward only,
//! decodes a block at most once and leaves both tallies at zero.

use std::cell::RefCell;

use iiu_index::block::{EncodedList, ListView};
use iiu_index::codec::BlockColumns;
use iiu_index::{DocId, DocWindow, Fixed, IndexError, Posting, TermId};

/// Counters of the primitive operations a query performed.
///
/// The exhaustive engine and pruned mode ([`crate::pruned`]) fill the
/// decode and skip fields differently; this is the one definition of the
/// pruned reading. Pruned mode decodes a block at most once per query and
/// makes no SvS probes, so every block of the query's one or two lists is
/// either decoded or skipped:
///
/// * `blocks_decoded + blocks_skipped` = the lists' block count,
/// * `postings_decoded + postings_skipped` = the lists' posting count,
/// * `cache_hits + cache_misses` = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Postings decompressed (d-gap + tf decode and prefix-sum). Each
    /// block is decoded at most once per list per query, so this counts
    /// physical decodes in both modes.
    pub postings_decoded: u64,
    /// Blocks decompressed (as for `postings_decoded`).
    pub blocks_decoded: u64,
    /// Blocks never decompressed: long-list blocks no SvS probe landed in
    /// (exhaustive), or blocks the pruned cursor passed — or never reached
    /// — without decoding them.
    pub blocks_skipped: u64,
    /// Postings of the blocks pruned mode skipped (pruned mode only).
    pub postings_skipped: u64,
    /// Skip-list search probes: the binary search of the exhaustive SvS,
    /// the forward gallop of pruned mode.
    pub binary_probes: u64,
    /// Element comparisons: one per merge step in the merge and
    /// intersect loops (a step advances one side, or both on a match),
    /// and one per key examined by a search within a decoded block.
    pub comparisons: u64,
    /// Documents scored with BM25 (one per term contribution computed).
    pub docs_scored: u64,
    /// Candidates pushed through the top-k heap.
    pub topk_candidates: u64,
    /// Result postings produced.
    pub results: u64,
    /// Phrase-position verifications performed (host side).
    pub phrase_checks: u64,
    /// SvS probes into the block the previous probe opened (exhaustive
    /// SvS only).
    pub cache_hits: u64,
    /// SvS probes that opened a new long-list block (exhaustive SvS only).
    pub cache_misses: u64,
}

impl OpCounts {
    /// Merges another counter set into this one, field by field.
    ///
    /// Per-shard tallies are summed through this exact function, so it
    /// exhaustively destructures `other`: adding a counter to the struct
    /// without adding it here is a compile error, not a silently dropped
    /// tally.
    pub fn merge(&mut self, other: &OpCounts) {
        let OpCounts {
            postings_decoded,
            blocks_decoded,
            blocks_skipped,
            postings_skipped,
            binary_probes,
            comparisons,
            docs_scored,
            topk_candidates,
            results,
            phrase_checks,
            cache_hits,
            cache_misses,
        } = *other;
        self.postings_decoded += postings_decoded;
        self.blocks_decoded += blocks_decoded;
        self.blocks_skipped += blocks_skipped;
        self.postings_skipped += postings_skipped;
        self.binary_probes += binary_probes;
        self.comparisons += comparisons;
        self.docs_scored += docs_scored;
        self.topk_candidates += topk_candidates;
        self.results += results;
        self.phrase_checks += phrase_checks;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
    }
}

/// Reusable decode buffers: `decode_full`-style work lands in
/// `full_a`/`full_b`, the pruned two-term cursors' current blocks in
/// `cols_a`/`cols_b`, the exhaustive SvS keeps the long list's current
/// block in `full_b`, and the live read path scores into `scored`.
///
/// Ownership rule: each thread owns one, and every query it runs borrows
/// it through [`with_scratch`] for the duration of one op — whole queries,
/// fan-out parts, the pruned primer and live reads alike. The slices the
/// ops return to their callers are copied out (results), never aliases of
/// the scratch. No op reads what an earlier op left in a buffer, so a
/// scratch may serve any index or window next. Buffers are cleared, never
/// shrunk: a thread's scratch is as large as the largest query it ran.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    pub(crate) full_a: Vec<Posting>,
    pub(crate) full_b: Vec<Posting>,
    pub(crate) cols_a: BlockColumns,
    pub(crate) cols_b: BlockColumns,
    scored: Vec<(DocId, Fixed)>,
}

impl DecodeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Two posting buffers and a scored-candidates buffer, for a read path
    /// outside this crate (the live index) that decodes on its own.
    pub fn buffers(
        &mut self,
    ) -> (&mut Vec<Posting>, &mut Vec<Posting>, &mut Vec<(DocId, Fixed)>) {
        (&mut self.full_a, &mut self.full_b, &mut self.scored)
    }
}

thread_local! {
    /// The calling thread's decode scratch.
    static SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
}

/// Runs `f` on the calling thread's decode scratch. A call made while the
/// thread's scratch is already borrowed (a fan-out nested in a part) gets
/// a fresh one.
pub fn with_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DecodeScratch::new()),
    })
}

/// Decompresses an entire list into `out` (cleared first), counting blocks
/// and postings. The zero-alloc form of [`decode_full`].
pub fn decode_full_into(list: &EncodedList, counts: &mut OpCounts, out: &mut Vec<Posting>) {
    decode_window_into(list, DocWindow::ALL, counts, out);
}

/// Decompresses the postings of `list` that lie in `window` into `out`
/// (cleared first), counting the blocks and postings decoded.
pub fn decode_window_into(
    list: &EncodedList,
    window: DocWindow,
    counts: &mut OpCounts,
    out: &mut Vec<Posting>,
) {
    out.clear();
    if window == DocWindow::ALL {
        out.reserve(list.num_postings() as usize);
    }
    let list = verified(list);
    for b in list.window_blocks(window) {
        let decoded = list.try_decode_window_into(b, window, out);
        counts.postings_decoded += decoded.unwrap_or_else(|e| decode_failed(b, e)) as u64;
        counts.blocks_decoded += 1;
    }
}

/// `list`'s [`ListView`] for one query walk. Engines run the list's
/// deferred first-touch check when they resolve a query term, and the
/// verdict is kept, so a list that fails it here was never resolved.
///
/// # Panics
///
/// Panics if the list fails that check: a caller that skipped term
/// resolution, not bad input.
pub(crate) fn verified(list: &EncodedList) -> ListView<'_> {
    match list.verified() {
        Ok(view) => view,
        Err(e) => panic!("list not verified at term resolve: {e}"),
    }
}

/// Panics with the error of a failed block decode: the lists a walk reads
/// were checked when they were built or opened and when the query's terms
/// were resolved, so a decode of them fails only on a broken invariant.
#[cold]
pub(crate) fn decode_failed(blk: usize, e: IndexError) -> ! {
    panic!("decode of block {blk} failed: {e}")
}

/// Decompresses an entire list (single-term query path), allocating the
/// result. Hot paths use [`decode_full_into`] with a scratch buffer.
pub fn decode_full(list: &EncodedList, counts: &mut OpCounts) -> Vec<Posting> {
    let mut out = Vec::new();
    decode_full_into(list, counts, &mut out);
    out
}

/// Small-versus-Small intersection (§2.2): decompresses the shorter list in
/// full, then for each of its docIDs binary-searches the longer list's skip
/// list to find the one candidate block, decompressing only those blocks.
/// `_long_term` is unused: it stays so existing five-argument callers
/// compile.
///
/// Returns matched postings as `(docID, tf_short, tf_long)`.
pub fn intersect_svs(
    short: &EncodedList,
    long: &EncodedList,
    _long_term: TermId,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<(DocId, u32, u32)> {
    intersect_svs_window(short, long, DocWindow::ALL, counts, scratch)
}

/// [`intersect_svs`] over the documents of `window`: the short list is
/// decoded inside the window, so every probe lands in one of the long
/// list's window blocks, and only those count as skipped when no probe
/// lands in them.
///
/// The short list ascends, so its probes do too: once a probe leaves a
/// long-list block, no later probe returns to it. The long list's current
/// block is therefore the only one worth keeping, and it lives in the
/// scratch's `full_b`; each block is decoded at most once per call.
pub fn intersect_svs_window(
    short: &EncodedList,
    long: &EncodedList,
    window: DocWindow,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<(DocId, u32, u32)> {
    debug_assert!(short.num_postings() <= long.num_postings());
    let DecodeScratch { full_a, full_b, .. } = scratch;
    decode_window_into(short, window, counts, full_a);
    let long = verified(long);
    let (skips, metas) = (long.skips(), long.metas());
    let mut out = Vec::new();
    let mut last_block: Option<usize> = None;
    let mut opened = 0u64;

    for p in full_a.iter() {
        // Binary search over the skip list for the last skip <= docID.
        let mut lo = 0usize;
        let mut hi = skips.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            counts.binary_probes += 1;
            if skips.at(mid) <= p.doc_id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let Some(block_idx) = lo.checked_sub(1) else {
            continue; // docID precedes the first block
        };

        if last_block == Some(block_idx) {
            counts.cache_hits += 1;
        } else {
            full_b.clear();
            let decoded = long.try_decode_window_into(block_idx, DocWindow::ALL, full_b);
            decoded.unwrap_or_else(|e| decode_failed(block_idx, e));
            counts.cache_misses += 1;
            counts.blocks_decoded += 1;
            counts.postings_decoded += u64::from(metas.at(block_idx).count);
            opened += 1;
            last_block = Some(block_idx);
        }
        let block: &[Posting] = full_b;

        // Binary search within the decompressed block.
        let mut lo = 0usize;
        let mut hi = block.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            counts.comparisons += 1;
            if block[mid].doc_id < p.doc_id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < block.len() && block[lo].doc_id == p.doc_id {
            out.push((p.doc_id, p.tf, block[lo].tf));
        }
    }

    // A short posting lies in the window, so every opened block is one of
    // the window's blocks.
    counts.blocks_skipped += long.window_blocks(window).len() as u64 - opened;
    counts.results += out.len() as u64;
    out
}

/// Linear-merge union (§2.2, §4.2): decompresses both lists and merges like
/// a 2-way merge sort; matched docIDs carry both term frequencies. Both
/// full decodes land in `scratch` buffers — no per-block allocation.
///
/// Returns `(docID, tf_a, tf_b)` with a zero tf marking "absent from that
/// list".
pub fn union_merge(
    a: &EncodedList,
    b: &EncodedList,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<(DocId, u32, u32)> {
    union_merge_window(a, b, DocWindow::ALL, counts, scratch)
}

/// [`union_merge`] over the documents of `window`.
pub fn union_merge_window(
    a: &EncodedList,
    b: &EncodedList,
    window: DocWindow,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<(DocId, u32, u32)> {
    let DecodeScratch { full_a, full_b, .. } = scratch;
    decode_window_into(a, window, counts, full_a);
    decode_window_into(b, window, counts, full_b);
    let (pa, pb): (&[Posting], &[Posting]) = (full_a, full_b);
    let mut out = Vec::with_capacity(pa.len() + pb.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < pa.len() && j < pb.len() {
        counts.comparisons += 1;
        match pa[i].doc_id.cmp(&pb[j].doc_id) {
            std::cmp::Ordering::Less => {
                out.push((pa[i].doc_id, pa[i].tf, 0));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((pb[j].doc_id, 0, pb[j].tf));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((pa[i].doc_id, pa[i].tf, pb[j].tf));
                i += 1;
                j += 1;
            }
        }
    }
    // Flush the remainder (the paper's "remaining postings from the other
    // DCU are flushed to memory").
    for p in &pa[i..] {
        out.push((p.doc_id, p.tf, 0));
    }
    for p in &pb[j..] {
        out.push((p.doc_id, 0, p.tf));
    }
    counts.results += out.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiu_index::{Partitioner, Posting, PostingList};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn merge_sums_every_field_exactly() {
        // Give every field a distinct value so a swapped or dropped field
        // in merge() cannot cancel out.
        fn distinct(base: u64) -> OpCounts {
            OpCounts {
                postings_decoded: base,
                blocks_decoded: base * 2,
                blocks_skipped: base * 3,
                postings_skipped: base * 4,
                binary_probes: base * 5,
                comparisons: base * 6,
                docs_scored: base * 7,
                topk_candidates: base * 8,
                results: base * 9,
                phrase_checks: base * 10,
                cache_hits: base * 11,
                cache_misses: base * 12,
            }
        }
        let mut a = distinct(100);
        let b = distinct(1000);
        a.merge(&b);
        assert_eq!(a, distinct(1100), "every field must sum: {a:?}");

        // Merging a default is the identity; merge order is immaterial.
        let mut c = distinct(7);
        c.merge(&OpCounts::default());
        assert_eq!(c, distinct(7));
        let mut d = OpCounts::default();
        d.merge(&distinct(7));
        assert_eq!(d, distinct(7));
    }

    fn encode(ids: &[(u32, u32)], max_size: usize) -> EncodedList {
        let list =
            PostingList::from_sorted(ids.iter().map(|&(d, t)| Posting::new(d, t)).collect());
        let part = Partitioner::dynamic(max_size).partition(&list);
        EncodedList::encode(&list, &part).unwrap()
    }

    #[test]
    fn decode_full_counts_everything() {
        let list = encode(&[(0, 1), (5, 2), (9, 1), (100, 3)], 2);
        let mut c = OpCounts::default();
        let postings = decode_full(&list, &mut c);
        assert_eq!(postings.len(), 4);
        assert_eq!(c.postings_decoded, 4);
        assert_eq!(c.blocks_decoded, list.num_blocks() as u64);
    }

    #[test]
    fn decode_full_into_reuses_the_buffer() {
        let list = encode(&[(0, 1), (5, 2), (9, 1), (100, 3)], 2);
        let mut c = OpCounts::default();
        let mut buf = Vec::new();
        decode_full_into(&list, &mut c, &mut buf);
        assert_eq!(buf.len(), 4);
        let cap = buf.capacity();
        decode_full_into(&list, &mut c, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), cap, "second decode must not reallocate");
    }

    #[test]
    fn intersect_paper_example() {
        // L(business) ∩ L(cameo) = [11, 38, 46] (§2.2).
        let business = encode(&[(0, 1), (2, 1), (11, 1), (20, 1), (38, 1), (46, 1)], 2);
        let cameo = encode(&[(1, 2), (11, 2), (38, 2), (39, 2), (46, 2), (55, 2), (62, 2)], 2);
        let mut c = OpCounts::default();
        let mut s = DecodeScratch::new();
        let result = intersect_svs(&business, &cameo, 1, &mut c, &mut s);
        assert_eq!(result.iter().map(|&(d, _, _)| d).collect::<Vec<_>>(), vec![11, 38, 46]);
        assert_eq!(result[0], (11, 1, 2));
        assert_eq!(c.results, 3);
        assert!(c.binary_probes > 0);
        // Probes 2/11/20 land in the long list's block 0, then 38 and 46
        // each open a new block: 3 cold misses, 2 consecutive-probe hits.
        // (`blocks_decoded` additionally counts the short list's 3 blocks.)
        assert_eq!(c.cache_misses, 3);
        assert_eq!(c.cache_hits, 2);
    }

    #[test]
    fn intersect_skips_unneeded_blocks() {
        // Short list hits only the tail of the long list: head blocks
        // must be skipped, not decompressed.
        let long: Vec<(u32, u32)> = (0..1000).map(|i| (i * 2, 1)).collect();
        let long = encode(&long, 64);
        let short = encode(&[(1990, 1), (1998, 1)], 64);
        let mut c = OpCounts::default();
        let mut s = DecodeScratch::new();
        let result = intersect_svs(&short, &long, 0, &mut c, &mut s);
        assert_eq!(result.len(), 2);
        assert!(c.blocks_skipped > 10, "expected most blocks skipped, got {c:?}");
        assert!(c.blocks_decoded < 5);
    }

    #[test]
    fn intersect_docid_before_first_skip() {
        let long = encode(&[(100, 1), (200, 1)], 2);
        let short = encode(&[(5, 1), (100, 1)], 2);
        let mut c = OpCounts::default();
        let mut s = DecodeScratch::new();
        let result = intersect_svs(&short, &long, 0, &mut c, &mut s);
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].0, 100);
    }

    #[test]
    fn svs_memo_opens_each_probed_block_once() {
        // 256 postings in blocks of at most 16; the probes cluster in two
        // blocks, two fall between postings, and the window cuts off the
        // head and the tail.
        let long: Vec<(u32, u32)> = (0..256).map(|i| (i * 3, 1)).collect();
        let long = encode(&long, 16);
        let short = encode(&[(50, 1), (51, 1), (54, 1), (600, 1), (603, 1), (604, 1)], 2);
        for window in [DocWindow::ALL, DocWindow::cut(&[48, 700])[1]] {
            let mut short_only = OpCounts::default();
            decode_window_into(&short, window, &mut short_only, &mut Vec::new());
            let probes = short_only.postings_decoded;

            let mut c = OpCounts::default();
            let out =
                intersect_svs_window(&short, &long, window, &mut c, &mut DecodeScratch::new());
            assert_eq!(out, vec![(51, 1, 1), (54, 1, 1), (600, 1, 1), (603, 1, 1)]);
            assert_eq!(c.cache_misses, 2, "{c:?}");
            assert_eq!(c.cache_misses, c.blocks_decoded - short_only.blocks_decoded);
            assert_eq!(c.cache_hits + c.cache_misses, probes, "every probe lands in a block");
            assert_eq!(
                c.blocks_skipped + c.cache_misses,
                long.window_blocks(window).len() as u64,
                "{c:?}"
            );
        }
    }

    #[test]
    fn union_paper_example() {
        let business = encode(&[(0, 1), (2, 1), (11, 1), (20, 1), (38, 1), (46, 1)], 3);
        let cameo = encode(&[(1, 2), (11, 2), (38, 2), (39, 2), (46, 2), (55, 2), (62, 2)], 3);
        let mut c = OpCounts::default();
        let mut s = DecodeScratch::new();
        let result = union_merge(&business, &cameo, &mut c, &mut s);
        assert_eq!(
            result.iter().map(|&(d, _, _)| d).collect::<Vec<_>>(),
            vec![0, 1, 2, 11, 20, 38, 39, 46, 55, 62]
        );
        // Matched docID carries both tfs.
        let row11 = result.iter().find(|r| r.0 == 11).unwrap();
        assert_eq!((row11.1, row11.2), (1, 2));
        let row55 = result.iter().find(|r| r.0 == 55).unwrap();
        assert_eq!((row55.1, row55.2), (0, 2));
    }

    #[test]
    fn union_with_empty_list() {
        let a = encode(&[(3, 1), (9, 2)], 2);
        let b = EncodedList::default();
        let mut c = OpCounts::default();
        let mut s = DecodeScratch::new();
        let result = union_merge(&a, &b, &mut c, &mut s);
        assert_eq!(result.len(), 2);
        assert_eq!(result[0], (3, 1, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_intersection_matches_btreeset(
            a in proptest::collection::btree_set(0u32..3000, 1..150),
            b in proptest::collection::btree_set(0u32..3000, 1..150),
        ) {
            let ea = encode(&a.iter().map(|&d| (d, 1)).collect::<Vec<_>>(), 16);
            let eb = encode(&b.iter().map(|&d| (d, 2)).collect::<Vec<_>>(), 16);
            let (short, long) = if a.len() <= b.len() { (&ea, &eb) } else { (&eb, &ea) };
            let mut c = OpCounts::default();
            let mut s = DecodeScratch::new();
            let got: Vec<u32> = intersect_svs(short, long, 1, &mut c, &mut s)
                .into_iter().map(|(d, _, _)| d).collect();
            let want: Vec<u32> = a.intersection(&b).copied().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_union_matches_btreemap(
            a in proptest::collection::btree_set(0u32..3000, 0..150),
            b in proptest::collection::btree_set(0u32..3000, 0..150),
        ) {
            let ea = encode(&a.iter().map(|&d| (d, 1)).collect::<Vec<_>>(), 16);
            let eb = encode(&b.iter().map(|&d| (d, 2)).collect::<Vec<_>>(), 16);
            let mut c = OpCounts::default();
            let mut s = DecodeScratch::new();
            let got = union_merge(&ea, &eb, &mut c, &mut s);
            let mut want: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
            for &d in &a { want.entry(d).or_insert((0, 0)).0 = 1; }
            for &d in &b { want.entry(d).or_insert((0, 0)).1 = 2; }
            let want: Vec<(u32, u32, u32)> =
                want.into_iter().map(|(d, (x, y))| (d, x, y)).collect();
            prop_assert_eq!(got, want);
        }

        /// Scratch reuse across many randomized queries never changes
        /// results or any tally versus a fresh scratch.
        #[test]
        fn prop_scratch_reuse_is_invisible(
            a in proptest::collection::btree_set(0u32..2000, 1..100),
            b in proptest::collection::btree_set(0u32..2000, 1..100),
        ) {
            let ea = encode(&a.iter().map(|&d| (d, 1)).collect::<Vec<_>>(), 8);
            let eb = encode(&b.iter().map(|&d| (d, 2)).collect::<Vec<_>>(), 8);
            let (short, long) = if a.len() <= b.len() { (&ea, &eb) } else { (&eb, &ea) };

            let mut reused = DecodeScratch::new();
            let mut c1 = OpCounts::default();
            let first = intersect_svs(short, long, 9, &mut c1, &mut reused);
            let mut c2 = OpCounts::default();
            let second = intersect_svs(short, long, 9, &mut c2, &mut reused);
            let mut fresh = DecodeScratch::new();
            let mut c3 = OpCounts::default();
            let third = intersect_svs(short, long, 9, &mut c3, &mut fresh);

            prop_assert_eq!(&first, &second);
            prop_assert_eq!(&first, &third);
            prop_assert_eq!(c1, c2);
            prop_assert_eq!(c1, c3);

            let mut u1 = OpCounts::default();
            let mut u2 = OpCounts::default();
            let ua = union_merge(&ea, &eb, &mut u1, &mut reused);
            let ub = union_merge(&ea, &eb, &mut u2, &mut fresh);
            prop_assert_eq!(ua, ub);
            prop_assert_eq!(u1, u2);
        }
    }
}
