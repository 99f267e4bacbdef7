//! Block-max pruned top-k execution: the scoring loops fused with a
//! [`FusedTopK`] heap so whole blocks whose score upper bound cannot beat
//! the current heap minimum are skipped instead of decoded.
//!
//! # Equivalence guarantee
//!
//! Every function here returns *bit-identical* hits to its exhaustive
//! counterpart in [`crate::engine::CpuEngine`]. The argument, shared by
//! all three query shapes:
//!
//! * admission is strict (`candidate > heap minimum`), so the heap's
//!   threshold `t` only grows;
//! * a candidate is only dropped when an upper bound on its *final* score
//!   is `<= t` at decision time — and since `t` is monotone, the candidate
//!   would also have been *refused* by the heap at its own position in the
//!   exhaustive stream;
//! * every candidate that is pushed is pushed once, with its full score,
//!   in ascending docID order;
//! * therefore the sequence of **admitted** pushes is identical in both
//!   modes, and the final heap contents (and
//!   [`crate::topk::rank_cmp`]-sorted output) are equal.
//!
//! # Two-term queries: one forward cursor, one interval rule
//!
//! AND and OR share one walk (`search_pair`): a `BlockCursor` per list moves
//! forward block by block, decoding a block only when something inside it
//! has to be looked at, and each step handles one docID interval on which
//! the two *current* blocks are the only source of postings. With `ua`,
//! `ub` the two blocks' stored bounds and `t` the threshold read once for
//! the interval, `Rule::choose` picks what to do (a document only in
//! `a` scores at most `ua`, only in `b` at most `ub`, in both at most
//! `ua + ub`):
//!
//! | condition | action |
//! |---|---|
//! | `ua + ub <= t` | skip the interval in both lists, decoding nothing |
//! | `ua <= t` and `ub <= t` | score only documents present in both |
//! | exactly one bound `> t` | score that list's postings, adding the other's tf where it matches |
//! | both `> t`, or the heap is filling | plain merge |
//! | stretch of one block before the other cursor | single-list run: skipped when `u <= t`, scored alone otherwise |
//!
//! An intersection is the same walk with "only in one list" never a
//! candidate (`u <= t` read as true), so it only ever skips or matches. A
//! document in both lists is looked up in the other block *before* it is
//! pushed, so it is never offered with a partial score; a stale `t` is
//! merely conservative because `t` only grows.
//!
//! Each list is verified once, when its cursor is built
//! ([`iiu_index::EncodedList::verified`]), and a block is decoded for the first
//! interval that needs it: with its tfs when that interval scores every
//! posting the block puts in it, docIDs only when it scores matched
//! documents alone — then a matched posting's tf is read from the block's
//! payload as it is scored.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use iiu_index::block::{BlockTfs, ListView};
use iiu_index::codec::BlockColumns;
use iiu_index::score::term_score_fixed;
use iiu_index::{Column, DocId, DocWindow, Fixed, InvertedIndex, Skips, TermId};

use crate::ops::{decode_failed, verified, DecodeScratch, OpCounts};
use crate::topk::{FusedTopK, Hit, SharedThreshold};

/// A [`FusedTopK`] wired into an optional cross-shard
/// [`SharedThreshold`]: every local threshold increase is published, and
/// [`threshold`](Self::threshold) reads the max of the local threshold
/// and the strict foreign one. With `shared == None` this is exactly the
/// bare heap — the single-shard paths are bit- and work-identical to
/// before the gate existed.
struct GatedHeap<'a> {
    heap: FusedTopK,
    shared: Option<&'a SharedThreshold>,
}

impl<'a> GatedHeap<'a> {
    fn new(k: usize, shared: Option<&'a SharedThreshold>) -> Self {
        let g = GatedHeap { heap: FusedTopK::new(k), shared };
        g.publish(); // k == 0 prices out everything immediately
        g
    }

    fn publish(&self) {
        if let (Some(sh), Some(t)) = (self.shared, self.heap.threshold()) {
            sh.publish(t);
        }
    }

    fn push(&mut self, doc_id: DocId, score: Fixed) {
        self.heap.push(doc_id, score);
        self.publish();
    }

    /// The effective pruning threshold for the non-strict skip rule
    /// (`bound <= threshold`): the local heap threshold, raised to the
    /// strict reading of the shared one when a foreign shard has priced
    /// out more.
    fn threshold(&self) -> Option<Fixed> {
        let local = self.heap.threshold();
        let foreign = self.shared.and_then(SharedThreshold::strict);
        match (local, foreign) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    fn into_hits(self) -> Vec<Hit> {
        self.heap.into_hits()
    }
}

/// Single-term query over the documents of `window` with block-max
/// skipping: blocks whose bound is at or below the heap threshold are
/// never decoded.
///
/// With a cross-shard threshold the heap publishes its threshold as it
/// grows and skips additionally under the strict foreign threshold. The
/// returned hits always contain every member of the *global* top-k that
/// lives in the window, so a [`crate::topk::rank_cmp`] merge across
/// windows is bit-identical to the unsharded engine.
///
/// # Panics
///
/// Panics if a list fails its deferred first-touch check
/// ([`iiu_index::EncodedList::verified`]); the engines run that check when they
/// resolve a query's terms, so a list they hand over has passed it.
pub fn search_single_pruned(
    index: &InvertedIndex,
    id: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
    shared: Option<&SharedThreshold>,
) -> Vec<Hit> {
    let list = verified(index.encoded_list(id));
    let (metas, ubs) = (list.metas(), index.list_bounds(id).ubs());
    let idf = index.term_info(id).idf_bar;
    let mut heap = GatedHeap::new(k, shared);
    let buf = &mut scratch.full_a;
    for b in list.window_blocks(window) {
        if let Some(t) = heap.threshold() {
            if ubs.at(b) <= t {
                counts.blocks_skipped += 1;
                counts.postings_skipped += u64::from(metas.at(b).count);
                continue;
            }
        }
        buf.clear();
        let decoded = list.try_decode_window_into(b, window, buf);
        counts.postings_decoded += decoded.unwrap_or_else(|e| decode_failed(b, e)) as u64;
        counts.blocks_decoded += 1;
        for p in buf.iter() {
            let s = term_score_fixed(idf, index.dl_bar(p.doc_id), p.tf);
            counts.docs_scored += 1;
            counts.topk_candidates += 1;
            heap.push(p.doc_id, s);
        }
    }
    let hits = heap.into_hits();
    counts.results += hits.len() as u64;
    hits
}

/// Serial budget for [`prime_single_threshold`]: stop refining once this
/// many postings have been scored even if later blocks could still move
/// the kth-best score. Bounds coordinator time on lists whose block upper
/// bounds are flat.
const PRIME_MAX_POSTINGS: usize = 256;

/// Primes a cross-shard threshold before fan-out: scores the postings of
/// the highest-bound blocks — walking blocks in descending score upper
/// bound until the `k`-th best score seen matches or beats every
/// remaining block's upper bound (or a serial budget runs out) — and
/// publishes that `k`-th best score.
///
/// Without priming every shard starts with a cold heap and re-pays the
/// threshold ramp-up the unsharded scan pays once, which is exactly the
/// serial fraction that kills single-term scaling. The dynamic
/// partitioner isolates score outliers into short blocks, so this walk
/// typically decodes a handful of tiny blocks holding the list's hottest
/// postings — a near-global threshold for a few hundred nanoseconds of
/// serial work. The published value is the score of a real document that
/// `k - 1` others match or beat — the same invariant a shard's own heap
/// publishes — so foreign shards reading it strictly still return every
/// global top-k member and the merged output stays bit-identical.
///
/// Only postings in `window` are scored, and the published score must
/// belong to a document the fan-out covers: pass [`DocWindow::ALL`] when
/// every window of one index takes part, else the window of one part
/// that does.
///
/// All work is tallied into `counts`; the caller prices it onto the
/// serial (pre-dispatch) part of the critical path. Does nothing when `k`
/// is 0 or the whole list holds fewer than `k` postings.
///
/// # Panics
///
/// Panics if a list fails its deferred first-touch check
/// ([`iiu_index::EncodedList::verified`]); the engines run that check when they
/// resolve a query's terms, so a list they hand over has passed it.
pub fn prime_single_threshold(
    index: &InvertedIndex,
    id: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
    shared: &SharedThreshold,
) {
    if k == 0 {
        return;
    }
    let list = verified(index.encoded_list(id));
    if (list.num_postings() as usize) < k {
        return;
    }
    let ubs = index.list_bounds(id).ubs();
    let mut order: Vec<usize> = list.window_blocks(window).collect();
    order.sort_unstable_by(|&a, &b| {
        counts.comparisons += 1;
        ubs.at(b).cmp(&ubs.at(a))
    });
    let idf = index.term_info(id).idf_bar;
    let buf = &mut scratch.full_a;
    let mut scores: Vec<Fixed> = Vec::with_capacity(k * 2);
    let mut scored = 0usize;
    for &b in &order {
        if scores.len() >= k {
            // Once k real scores are in hand, keep walking only while the
            // next block's upper bound can still displace the kth best;
            // when it can't, `scores[k-1]` is this shard's exact kth score
            // — the tightest threshold the shard can contribute. The cap
            // bounds the serial spend when upper bounds are flat.
            counts.comparisons += 1;
            if ubs.at(b) <= scores[k - 1] || scored >= PRIME_MAX_POSTINGS {
                break;
            }
        }
        buf.clear();
        let decoded = list.try_decode_window_into(b, window, buf);
        counts.postings_decoded += decoded.unwrap_or_else(|e| decode_failed(b, e)) as u64;
        counts.blocks_decoded += 1;
        for p in buf.iter() {
            counts.docs_scored += 1;
            counts.topk_candidates += 1;
            scores.push(term_score_fixed(idf, index.dl_bar(p.doc_id), p.tf));
        }
        scored += buf.len();
        scores.sort_unstable_by(|x, y| y.cmp(x));
        scores.truncate(k);
    }
    if let Some(&kth) = scores.get(k - 1) {
        shared.publish(kth);
    }
}

/// First index `i >= from` with `xs[i] >= target` (`xs.len()` if there
/// is none) in an ascending sequence: doubling steps from `from`, then a
/// binary search inside the bracket, so a short hop costs a probe or two
/// and a long one stays logarithmic. The one forward search of pruned
/// mode — over skip columns and inside decoded blocks alike. `probes` is
/// charged one unit per key examined.
#[inline]
fn gallop(xs: impl Ascending, from: usize, target: u64, probes: &mut u64) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1usize);
    while hi < xs.len() && xs.key(hi) < target {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(xs.len());
    *probes +=
        u64::from(step.trailing_zeros() + 1 + (usize::BITS - (hi - lo).leading_zeros()));
    xs.first_at_least(lo..hi, target)
}

/// An ascending run of docIDs [`gallop`] searches: a decoded block, or a
/// list's skip column read in place.
trait Ascending: Copy {
    fn len(self) -> usize;
    fn key(self, i: usize) -> u64;
    /// The first index in `range` whose key is at least `target`.
    fn first_at_least(self, range: std::ops::Range<usize>, target: u64) -> usize;
}

impl Ascending for &[DocId] {
    #[inline]
    fn len(self) -> usize {
        <[DocId]>::len(self)
    }

    #[inline]
    fn key(self, i: usize) -> u64 {
        u64::from(self[i])
    }

    #[inline]
    fn first_at_least(self, range: std::ops::Range<usize>, target: u64) -> usize {
        range.start + self[range].partition_point(|&d| u64::from(d) < target)
    }
}

impl Ascending for Skips<'_> {
    #[inline]
    fn len(self) -> usize {
        Skips::len(&self)
    }

    #[inline]
    fn key(self, i: usize) -> u64 {
        u64::from(self.at(i))
    }

    #[inline]
    fn first_at_least(self, range: std::ops::Range<usize>, target: u64) -> usize {
        range.start + self.slice(range).partition_point(|s| u64::from(s) < target)
    }
}

/// A forward-only cursor over the blocks of one encoded list that meet a
/// [`DocWindow`], decoding lazily: it can sit on a block, and be moved
/// past it, without ever decoding it.
///
/// The current block `blk` is either *decoded* — `cols.docs()[pos]` is the
/// next posting's docID, and `pos < cols.docs().len()` always — or
/// *pending*, in which case only its skip value, its bound and `floor`
/// are known: `floor` is the docID a [`skip_to`](Self::skip_to) landed on
/// inside the block, to be applied if the block is decoded after all.
/// Every block is decoded at most once; [`finish`](Self::finish) tallies
/// the rest as skipped.
///
/// A block is decoded for the interval that first needs it, in one of two
/// representations: with its tfs in `cols.tfs` when that interval scores
/// every posting the block puts in it, or docIDs only when it scores
/// matched documents alone; a matched posting's tf is then read from the
/// block's payload (`packed`) as it is scored.
///
/// The window's `lo` is the first floor, and its `hi` ends the last block
/// and is the position of an exhausted cursor
/// ([`DOC_END`](iiu_index::DOC_END) on the unsharded path). A decode cuts
/// the block at `hi`, which only the window's last block reaches.
struct BlockCursor<'b, 'i> {
    list: ListView<'i>,
    /// Skip values up to the window's last block.
    skips: Skips<'i>,
    ubs: Column<'i, Fixed>,
    idf: Fixed,
    window: DocWindow,
    /// The window's first block, where the cursor starts.
    first: usize,
    /// Postings in the window's blocks.
    postings: u64,
    /// Current block; `skips.len()` once the window is exhausted.
    blk: usize,
    cols: &'b mut BlockColumns,
    /// Where a block decoded docIDs-only reads its tfs; `None` when
    /// `cols.tfs` holds them.
    packed: Option<BlockTfs<'i>>,
    decoded: bool,
    pos: usize,
    floor: DocId,
    blocks_decoded: u64,
    postings_decoded: u64,
}

impl<'b, 'i> BlockCursor<'b, 'i> {
    fn new(
        list: ListView<'i>,
        ubs: Column<'i, Fixed>,
        idf: Fixed,
        window: DocWindow,
        cols: &'b mut BlockColumns,
    ) -> Self {
        let blocks = list.window_blocks(window);
        let postings = if blocks.len() == list.metas().len() {
            list.num_postings()
        } else {
            list.metas().slice(blocks.clone()).iter().map(|m| u64::from(m.count)).sum()
        };
        BlockCursor {
            list,
            skips: list.skips().slice(0..blocks.end),
            ubs: ubs.slice(0..blocks.end),
            idf,
            window,
            first: blocks.start,
            postings,
            blk: blocks.start,
            cols,
            packed: None,
            decoded: false,
            pos: 0,
            floor: window.lo(),
            blocks_decoded: 0,
            postings_decoded: 0,
        }
    }

    /// A lower bound on the next posting's docID — exact once the block
    /// is decoded — and the window's end when the cursor is exhausted.
    fn low(&self) -> u64 {
        match self.skips.get(self.blk) {
            None => self.window.hi(),
            Some(_) if self.decoded => u64::from(self.cols.docs()[self.pos]),
            Some(first) => u64::from(first.max(self.floor)),
        }
    }

    /// Exclusive end of the current block's docID range: the next skip
    /// value, or the window's end for its last block.
    fn end(&self) -> u64 {
        self.skips.get(self.blk + 1).map_or(self.window.hi(), u64::from)
    }

    /// The current block's stored score bound.
    fn ub(&self) -> Fixed {
        self.ubs.at(self.blk)
    }

    /// Moves forward so that every remaining posting is `>= target`,
    /// decoding nothing: across blocks by galloping the skip array, inside
    /// a decoded block by galloping from the current position, inside a
    /// pending one by raising `floor`.
    fn skip_to(&mut self, target: u64, counts: &mut OpCounts) {
        let stop = self.window.hi();
        if target >= self.end() {
            self.blk = if target >= stop {
                self.skips.len()
            } else {
                // The last block that starts at or before `target`.
                gallop(self.skips, self.blk + 1, target + 1, &mut counts.binary_probes) - 1
            };
            self.decoded = false;
        } else if self.decoded {
            let docs = self.cols.docs();
            self.consume(gallop(docs, self.pos, target, &mut counts.comparisons));
            return;
        }
        if target < stop {
            self.floor = self.floor.max(target as DocId);
        }
    }

    /// Decodes the pending current block — with its tfs when `tfs`, else
    /// docIDs only — and drops what lies below `floor` or outside the
    /// window. Returns false when that leaves nothing: the cursor is then
    /// on the next block, still pending, and the caller must start over
    /// from that block's bound rather than read a posting.
    fn decode(&mut self, tfs: bool, counts: &mut OpCounts) -> bool {
        debug_assert!(!self.decoded);
        let (blk, cols) = (self.blk, &mut *self.cols);
        let decoded = if tfs {
            self.list.try_decode_columns_into(blk, cols).map(|()| None)
        } else {
            self.list.try_decode_docs_into(blk, cols).map(Some)
        };
        self.packed = decoded.unwrap_or_else(|e| decode_failed(blk, e));
        tally(if tfs { TFS_DECODE } else { DOCS_DECODE });
        self.postings_decoded += cols.docs().len() as u64;
        self.blocks_decoded += 1;
        self.decoded = true;
        let hi = self.window.hi();
        if cols.docs().last().is_some_and(|&d| u64::from(d) >= hi) {
            cols.truncate(cols.docs().partition_point(|&d| u64::from(d) < hi));
        }
        let from = if self.floor > self.skips.at(blk) {
            gallop(cols.docs(), 0, u64::from(self.floor), &mut counts.comparisons)
        } else {
            0
        };
        self.consume(from);
        self.decoded
    }

    /// Index one past the last decoded posting below `stop`.
    fn limit(&self, stop: u64, counts: &mut OpCounts) -> usize {
        if stop >= self.end() {
            self.cols.docs().len()
        } else {
            gallop(self.cols.docs(), self.pos, stop, &mut counts.comparisons)
        }
    }

    /// The decoded postings from the current position up to index `lim`.
    fn run(&self, lim: usize) -> AnyRun<'_> {
        let docs = &self.cols.docs()[self.pos..lim];
        match self.packed {
            Some(tfs) => AnyRun::Packed(Run { docs, tfs: Packed { tfs, base: self.pos } }),
            None => AnyRun::Decoded(Run { docs, tfs: &self.cols.tfs()[self.pos..lim] }),
        }
    }

    /// Moves the position to index `lim` of the decoded block, and on to
    /// the next block (pending) when that uses the block up.
    fn consume(&mut self, lim: usize) {
        self.pos = lim;
        if lim == self.cols.docs().len() {
            self.blk += 1;
            self.decoded = false;
        }
    }

    /// Adds this list's share of the query's tallies: what was decoded,
    /// and everything else as skipped.
    fn finish(self, counts: &mut OpCounts) {
        counts.blocks_decoded += self.blocks_decoded;
        counts.postings_decoded += self.postings_decoded;
        counts.blocks_skipped += (self.skips.len() - self.first) as u64 - self.blocks_decoded;
        counts.postings_skipped += self.postings - self.postings_decoded;
    }
}

/// Where the tfs of a run of decoded postings are read from: the tf of
/// the run's posting `k`, and the same source from posting `k` on.
trait TfSource: Copy {
    fn tf(self, k: usize) -> u32;
    fn from(self, k: usize) -> Self;

    /// Calls `f` with each of `docs` and its tf.
    #[inline]
    fn each(self, docs: &[DocId], mut f: impl FnMut(DocId, u32)) {
        for (k, &d) in docs.iter().enumerate() {
            f(d, self.tf(k));
        }
    }
}

/// Tfs decoded with the docIDs.
impl TfSource for &[u32] {
    #[inline]
    fn tf(self, k: usize) -> u32 {
        self[k]
    }

    fn from(self, k: usize) -> Self {
        &self[k..]
    }

    #[inline]
    fn each(self, docs: &[DocId], mut f: impl FnMut(DocId, u32)) {
        for (&d, &tf) in docs.iter().zip(self) {
            f(d, tf);
        }
    }
}

/// The tfs of a block decoded docIDs-only, still packed in its payload,
/// from the block's posting `base` on.
#[derive(Clone, Copy)]
struct Packed<'r> {
    tfs: BlockTfs<'r>,
    base: usize,
}

impl TfSource for Packed<'_> {
    #[inline]
    fn tf(self, k: usize) -> u32 {
        self.tfs.get(self.base + k)
    }

    fn from(self, k: usize) -> Self {
        Packed { base: self.base + k, ..self }
    }
}

/// A stretch of one decoded block: its docIDs and where their tfs are.
#[derive(Clone, Copy)]
struct Run<'r, T> {
    docs: &'r [DocId],
    tfs: T,
}

impl<T: TfSource> Run<'_, T> {
    /// The tf of the run's posting `k`.
    #[inline]
    fn tf(&self, k: usize) -> u32 {
        self.tfs.tf(k)
    }

    /// The run from its posting `k` on.
    fn from(self, k: usize) -> Self {
        Run { docs: &self.docs[k..], tfs: self.tfs.from(k) }
    }
}

/// A run as a cursor hands it out, whichever its tf source.
enum AnyRun<'r> {
    Decoded(Run<'r, &'r [u32]>),
    Packed(Run<'r, Packed<'r>>),
}

/// Evaluates `$body` with `$r` bound to the [`Run`] inside the
/// [`AnyRun`] `$run`: one copy of `$body` per tf source, so that the
/// scoring loops read a tf without asking where it is.
macro_rules! with_run {
    ($run:expr, $r:ident => $body:expr) => {
        match $run {
            AnyRun::Decoded($r) => $body,
            AnyRun::Packed($r) => $body,
        }
    };
}

/// What to do with one docID interval served by one block of each list,
/// given the blocks' bounds `ua`, `ub` and the threshold `t` (the table
/// in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// `ua + ub <= t`: nothing in the interval can enter the heap.
    Skip,
    /// Neither list can enter alone: only documents in both are scored.
    Matches,
    /// Only `a`'s postings can enter alone: they are scored, with `b`'s
    /// contribution where `b` has the document too.
    DriveA,
    /// [`Rule::DriveA`] with the lists swapped.
    DriveB,
    /// Either list can enter alone (or the heap is still filling).
    Merge,
}

impl Rule {
    fn choose(ua: Fixed, ub: Fixed, t: Option<Fixed>, conj: bool) -> Rule {
        // A document in one list only is no candidate of a conjunction.
        let dead = |u: Fixed| conj || t.is_some_and(|t| u <= t);
        if t.is_some_and(|t| ua.saturating_add(ub) <= t) {
            return Rule::Skip;
        }
        match (dead(ua), dead(ub)) {
            (true, true) => Rule::Matches,
            (false, true) => Rule::DriveA,
            (true, false) => Rule::DriveB,
            (false, false) => Rule::Merge,
        }
    }
}

/// Slots of the test tally after the [`Rule`] discriminants: a
/// single-list run skipped, [`PairScorer::matches`] merging linearly or
/// galloping, and a block decoded docIDs-only or with its tfs.
const LONE_SKIP: usize = 5;
const LINEAR_MERGE: usize = 6;
const GALLOP_MERGE: usize = 7;
const DOCS_DECODE: usize = 8;
const TFS_DECODE: usize = 9;
#[cfg(test)]
const TALLY_SLOTS: usize = 10;

#[cfg(test)]
thread_local! {
    /// How often each [`Rule`] (and each slot after them) was taken on
    /// this thread.
    static RULES_TAKEN: std::cell::Cell<[u32; TALLY_SLOTS]> =
        const { std::cell::Cell::new([0; TALLY_SLOTS]) };
}

#[inline(always)]
fn tally(_slot: usize) {
    #[cfg(test)]
    RULES_TAKEN.with(|t| {
        let mut taken = t.get();
        taken[_slot] += 1;
        t.set(taken);
    });
}

/// The scoring loops of one two-term query: score, count, push.
struct PairScorer<'q, 'h> {
    index: &'q InvertedIndex,
    heap: GatedHeap<'h>,
    counts: &'q mut OpCounts,
}

/// [`PairScorer::matches`] merges two runs linearly unless one is more
/// than this many times longer than the other; then it gallops the longer
/// from each posting of the shorter.
const GALLOP_SKEW: usize = 8;

impl PairScorer<'_, '_> {
    fn score(&mut self, idf: Fixed, dl: Fixed, tf: u32) -> Fixed {
        self.counts.docs_scored += 1;
        term_score_fixed(idf, dl, tf)
    }

    fn push(&mut self, doc_id: DocId, score: Fixed) {
        self.counts.topk_candidates += 1;
        self.heap.push(doc_id, score);
    }

    fn push_one(&mut self, idf: Fixed, doc_id: DocId, tf: u32) {
        let s = self.score(idf, self.index.dl_bar(doc_id), tf);
        self.push(doc_id, s);
    }

    fn push_both(&mut self, doc_id: DocId, idf_a: Fixed, tf_a: u32, idf_b: Fixed, tf_b: u32) {
        let dl = self.index.dl_bar(doc_id);
        let s = self.score(idf_a, dl, tf_a).saturating_add(self.score(idf_b, dl, tf_b));
        self.push(doc_id, s);
    }

    /// Scores every posting of a single-list run.
    fn lone<T: TfSource>(&mut self, idf: Fixed, run: Run<'_, T>) {
        run.tfs.each(run.docs, |d, tf| self.push_one(idf, d, tf));
    }

    /// Scores the documents present in both runs: a linear merge when the
    /// runs are of comparable length, else a leapfrog that gallops the
    /// longer one (see [`GALLOP_SKEW`]).
    fn matches<A: TfSource, B: TfSource>(
        &mut self,
        idf_a: Fixed,
        ra: Run<'_, A>,
        idf_b: Fixed,
        rb: Run<'_, B>,
    ) {
        let (da, db) = (ra.docs, rb.docs);
        let (mut i, mut j) = (0, 0);
        if da.len() <= GALLOP_SKEW * db.len() && db.len() <= GALLOP_SKEW * da.len() {
            tally(LINEAR_MERGE);
            let mut matched = 0;
            while i < da.len() && j < db.len() {
                let (x, y) = (da[i], db[j]);
                if x < y {
                    i += 1;
                } else if x > y {
                    j += 1;
                } else {
                    self.push_both(x, idf_a, ra.tf(i), idf_b, rb.tf(j));
                    matched += 1;
                    i += 1;
                    j += 1;
                }
            }
            // One comparison per merge step: a step moves `i`, `j` or both.
            self.counts.comparisons += (i + j - matched) as u64;
            return;
        }
        tally(GALLOP_MERGE);
        while i < da.len() && j < db.len() {
            self.counts.comparisons += 1;
            match da[i].cmp(&db[j]) {
                std::cmp::Ordering::Less => {
                    i = gallop(da, i + 1, u64::from(db[j]), &mut self.counts.comparisons);
                }
                std::cmp::Ordering::Greater => {
                    j = gallop(db, j + 1, u64::from(da[i]), &mut self.counts.comparisons);
                }
                std::cmp::Ordering::Equal => {
                    self.push_both(da[i], idf_a, ra.tf(i), idf_b, rb.tf(j));
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Scores every posting of `driver`, looking each up in `probed` first
    /// so that a document in both is pushed once with its full score.
    fn drive<D: TfSource, P: TfSource>(
        &mut self,
        idf_d: Fixed,
        driver: Run<'_, D>,
        idf_p: Fixed,
        probed: Run<'_, P>,
    ) {
        let mut j = 0;
        for (k, &d) in driver.docs.iter().enumerate() {
            j = gallop(probed.docs, j, u64::from(d), &mut self.counts.comparisons);
            if probed.docs.get(j) == Some(&d) {
                self.push_both(d, idf_d, driver.tf(k), idf_p, probed.tf(j));
            } else {
                self.push_one(idf_d, d, driver.tf(k));
            }
        }
    }

    /// Plain two-way merge: every document of either run, once.
    fn merge<A: TfSource, B: TfSource>(
        &mut self,
        idf_a: Fixed,
        ra: Run<'_, A>,
        idf_b: Fixed,
        rb: Run<'_, B>,
    ) {
        let (da, db) = (ra.docs, rb.docs);
        let (mut i, mut j) = (0, 0);
        while i < da.len() && j < db.len() {
            self.counts.comparisons += 1;
            match da[i].cmp(&db[j]) {
                std::cmp::Ordering::Less => {
                    self.push_one(idf_a, da[i], ra.tf(i));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.push_one(idf_b, db[j], rb.tf(j));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.push_both(da[i], idf_a, ra.tf(i), idf_b, rb.tf(j));
                    i += 1;
                    j += 1;
                }
            }
        }
        self.lone(idf_a, ra.from(i));
        self.lone(idf_b, rb.from(j));
    }
}

/// The walk behind both two-term shapes (`conj`: intersection). Each step
/// looks at the two cursors' positions `la`, `lb` and handles the docIDs
/// up to the nearest block end:
///
/// * with a block still pending and `la != lb`, the stretch of the lower
///   block before the other cursor holds postings of that list only — it
///   is skipped on its own bound (for an intersection: always, and as far
///   as the other cursor, galloping the skip array) or scored alone;
/// * otherwise both current blocks serve the interval and [`Rule::choose`]
///   decides: skip it in both lists, or decode what is still pending —
///   one block per step, so that the other is looked at again against the
///   position the first turned out to have — and run the rule's loop.
///
/// A block is decoded docIDs only for [`Rule::Matches`] — every interval
/// of an intersection — and with its tfs for the intervals that score
/// postings of one list alone: a single-list run, [`Rule::Merge`], and
/// both sides of [`Rule::DriveA`] / [`Rule::DriveB`] (a docIDs-only probed
/// side measured no faster).
///
/// The threshold is read once per step.
#[allow(clippy::too_many_arguments)]
fn search_pair(
    index: &InvertedIndex,
    ia: TermId,
    ib: TermId,
    conj: bool,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
    shared: Option<&SharedThreshold>,
) -> Vec<Hit> {
    let DecodeScratch { cols_a, cols_b, .. } = scratch;
    let cursor = |id: TermId, cols| {
        let (list, idf) = (verified(index.encoded_list(id)), index.term_info(id).idf_bar);
        BlockCursor::new(list, index.list_bounds(id).ubs(), idf, window, cols)
    };
    let (mut a, mut b) = (cursor(ia, cols_a), cursor(ib, cols_b));
    let mut q = PairScorer { index, heap: GatedHeap::new(k, shared), counts };

    loop {
        let (la, lb) = (a.low(), b.low());
        // An intersection ends with either list, a union with both.
        if (if conj { la.max(lb) } else { la.min(lb) }) >= window.hi() {
            break;
        }
        let t = q.heap.threshold();

        if la != lb && !(a.decoded && b.decoded) {
            let (c, other) = if la < lb { (&mut a, lb) } else { (&mut b, la) };
            let stop = c.end().min(other);
            if conj || t.is_some_and(|t| c.ub() <= t) {
                tally(LONE_SKIP);
                c.skip_to(if conj { other } else { stop }, q.counts);
            } else if c.decoded || c.decode(true, q.counts) {
                let lim = c.limit(stop, q.counts);
                with_run!(c.run(lim), r => q.lone(c.idf, r));
                c.consume(lim);
            }
            continue;
        }

        let stop = a.end().min(b.end());
        let rule = Rule::choose(a.ub(), b.ub(), t, conj);
        tally(rule as usize);
        if rule == Rule::Skip {
            a.skip_to(stop, q.counts);
            b.skip_to(stop, q.counts);
            continue;
        }
        if !(a.decoded && b.decoded) {
            // One block per step: where the first really starts may let
            // the other go undecoded.
            let pending = if a.decoded { &mut b } else { &mut a };
            pending.decode(rule != Rule::Matches, q.counts);
            continue;
        }
        let (na, nb) = (a.limit(stop, q.counts), b.limit(stop, q.counts));
        with_run!(a.run(na), ra => with_run!(b.run(nb), rb => match rule {
            Rule::Skip => {} // taken above, before anything was decoded
            Rule::Matches => q.matches(a.idf, ra, b.idf, rb),
            Rule::DriveA => q.drive(a.idf, ra, b.idf, rb),
            Rule::DriveB => q.drive(b.idf, rb, a.idf, ra),
            Rule::Merge => q.merge(a.idf, ra, b.idf, rb),
        }));
        a.consume(na);
        b.consume(nb);
    }

    a.finish(q.counts);
    b.finish(q.counts);
    let hits = q.heap.into_hits();
    counts.results += hits.len() as u64;
    hits
}

/// Intersection of a short and a long list over the documents of
/// `window`, scoring only documents present in both whose blocks'
/// combined bound can still beat the threshold (the walk described in the
/// module docs), with an optional cross-shard threshold (see
/// [`search_single_pruned`]).
///
/// # Panics
///
/// Panics if a list fails its deferred first-touch check
/// ([`iiu_index::EncodedList::verified`]); the engines run that check when they
/// resolve a query's terms, so a list they hand over has passed it.
#[allow(clippy::too_many_arguments)]
pub fn search_intersection_pruned(
    index: &InvertedIndex,
    short_id: TermId,
    long_id: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
    shared: Option<&SharedThreshold>,
) -> Vec<Hit> {
    search_pair(index, short_id, long_id, true, window, k, counts, scratch, shared)
}

/// Union of two lists over the documents of `window` under the
/// interval-aligned block-max rule (the walk described in the module
/// docs), with an optional cross-shard threshold (see
/// [`search_single_pruned`]).
///
/// # Panics
///
/// Panics if a list fails its deferred first-touch check
/// ([`iiu_index::EncodedList::verified`]); the engines run that check when they
/// resolve a query's terms, so a list they hand over has passed it.
#[allow(clippy::too_many_arguments)]
pub fn search_union_pruned(
    index: &InvertedIndex,
    ia: TermId,
    ib: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
    shared: Option<&SharedThreshold>,
) -> Vec<Hit> {
    search_pair(index, ia, ib, false, window, k, counts, scratch, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CpuEngine;
    use iiu_index::{Bm25Params, EncodedList, Partitioner, Posting, PostingList, DOC_END};

    fn list(postings: &[(DocId, u32)]) -> PostingList {
        PostingList::from_sorted(postings.iter().map(|&(d, tf)| Posting::new(d, tf)).collect())
    }

    /// The list encoded in `block_len`-posting blocks, and the bytes of
    /// a bound column for it: bounds are not what these cursor tests look
    /// at.
    fn encode(postings: &[(DocId, u32)], block_len: usize) -> (EncodedList, Vec<u8>) {
        let list = list(postings);
        let lens = Partitioner::fixed(block_len).partition(&list);
        let encoded = EncodedList::encode(&list, &lens).unwrap();
        (encoded, Fixed::ONE.raw().to_le_bytes().repeat(lens.len()))
    }

    fn view(enc: &EncodedList) -> ListView<'_> {
        enc.verified().unwrap()
    }

    #[test]
    fn gallop_agrees_with_partition_point_from_every_start() {
        let xs: Vec<u32> = (0..70).map(|i| i * 3 + i / 7).collect();
        for from in 0..=xs.len() {
            for target in 0..=u64::from(xs[xs.len() - 1]) + 2 {
                let mut probes = 0;
                let got = gallop(&xs[..], from, target, &mut probes);
                let want = from + xs[from..].partition_point(|&x| u64::from(x) < target);
                assert_eq!(got, want, "from {from} target {target}");
                assert!(probes > 0);
            }
        }
    }

    #[test]
    fn last_block_ends_past_the_largest_doc_id_and_skipping_there_exhausts() {
        let tail = DocId::MAX - 2;
        let (enc, bounds) = encode(&[(1, 1), (5, 1), (tail, 1), (tail + 1, 1)], 2);
        let mut counts = OpCounts::default();
        let mut cols = BlockColumns::default();
        let mut c = BlockCursor::new(
            view(&enc),
            Column::new(&bounds),
            Fixed::ONE,
            DocWindow::ALL,
            &mut cols,
        );
        assert_eq!((c.low(), c.end()), (1, u64::from(tail)));
        c.skip_to(u64::from(tail), &mut counts);
        assert_eq!(c.blk, 1);
        assert_eq!(c.end(), u64::from(DocId::MAX) + 1, "no wrap to 0");
        assert_eq!(c.end(), DOC_END);

        // The largest docID itself still lands on the last block, which
        // then turns out to hold nothing that high.
        c.skip_to(u64::from(DocId::MAX), &mut counts);
        assert_eq!((c.blk, c.low()), (1, u64::from(DocId::MAX)));
        assert!(!c.decode(true, &mut counts));
        assert_eq!(c.low(), DOC_END);

        let mut cols = BlockColumns::default();
        let mut c = BlockCursor::new(
            view(&enc),
            Column::new(&bounds),
            Fixed::ONE,
            DocWindow::ALL,
            &mut cols,
        );
        c.skip_to(u64::from(tail), &mut counts);
        let end = c.end();
        c.skip_to(end, &mut counts);
        assert_eq!((c.blk, c.low()), (2, DOC_END), "skipping to the end exhausts the list");
        let mut tallies = OpCounts::default();
        c.finish(&mut tallies);
        assert_eq!((tallies.blocks_decoded, tallies.blocks_skipped), (0, 2));
        assert_eq!(tallies.postings_skipped, 4);
    }

    #[test]
    fn a_pending_floor_can_leave_a_lazily_decoded_block_empty() {
        // 50 lies inside block 0's range [10, 100) but above all it holds.
        let (enc, bounds) = encode(&[(10, 1), (20, 1), (30, 1), (100, 2), (110, 2)], 3);
        let mut counts = OpCounts::default();
        let mut cols = BlockColumns::default();
        let mut c = BlockCursor::new(
            view(&enc),
            Column::new(&bounds),
            Fixed::ONE,
            DocWindow::ALL,
            &mut cols,
        );
        c.skip_to(50, &mut counts);
        assert_eq!((c.blk, c.decoded, c.low()), (0, false, 50));
        assert!(!c.decode(true, &mut counts), "nothing at or above the floor");
        assert_eq!((c.blk, c.decoded, c.low()), (1, false, 100), "moved on, still pending");

        // A floor inside the block keeps what lies at or above it.
        c.skip_to(105, &mut counts);
        assert!(c.decode(true, &mut counts));
        assert_eq!((c.low(), c.limit(DOC_END, &mut counts) - c.pos), (110, 1));
        c.skip_to(111, &mut counts);
        assert_eq!(c.low(), DOC_END);
        let mut tallies = OpCounts::default();
        c.finish(&mut tallies);
        assert_eq!((tallies.blocks_decoded, tallies.blocks_skipped), (2, 0));
        assert_eq!(tallies.postings_decoded, 5);
    }

    #[test]
    fn rule_table() {
        let f = Fixed::from_raw;
        let t = Some(f(10));
        for conj in [false, true] {
            assert_eq!(Rule::choose(f(4), f(6), t, conj), Rule::Skip, "sum == t is dead");
            assert_eq!(Rule::choose(f(5), f(6), t, conj), Rule::Matches);
            assert_eq!(Rule::choose(f(10), f(10), t, conj), Rule::Matches);
            assert_eq!(
                Rule::choose(f(u32::MAX), f(u32::MAX), Some(f(u32::MAX)), conj),
                Rule::Skip
            );
        }
        assert_eq!(Rule::choose(f(11), f(6), t, false), Rule::DriveA);
        assert_eq!(Rule::choose(f(6), f(11), t, false), Rule::DriveB);
        assert_eq!(Rule::choose(f(11), f(11), t, false), Rule::Merge);
        assert_eq!(Rule::choose(f(0), f(0), None, false), Rule::Merge, "filling heap");
        // One list alone is never a candidate of an intersection.
        assert_eq!(Rule::choose(f(11), f(11), t, true), Rule::Matches);
        assert_eq!(Rule::choose(f(0), f(0), None, true), Rule::Matches);
    }

    /// Two equally long lists over equally long documents, four postings
    /// to a block and block boundaries aligned, so that a score is a
    /// function of the two tfs alone. With k = 2 the regions, in docID
    /// order, take the walk through every rule:
    ///
    /// | docs | a tf | b tf | rule (union) |
    /// |---|---|---|---|
    /// | 0..4 | 1 | 1 | merge — the heap is filling; t becomes s(1)+s(1) |
    /// | 4..12 | 1 | 1 | skip: `ua + ub == t` |
    /// | 12..20 | 1 | — | single-list run of `a`, skipped: `ua <= t` |
    /// | 20..24 | 50,1,1,1 | 1 | drive `a`: `ua > t >= ub` |
    /// | 24..28 | 1 | 50,1,1,1 | drive `b` |
    /// | 28..32 | 4 | 4 | matches: each bound `<= t`, their sum above |
    /// | 32..40 | — | 1 | single-list run of `b`, skipped |
    fn every_rule_index() -> InvertedIndex {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for d in 0..40u32 {
            let (tf_a, tf_b) = match d {
                0..=11 => (1, 1),
                12..=19 => (1, 0),
                20 => (50, 1),
                24 => (1, 50),
                21..=27 => (1, 1),
                28..=31 => (4, 4),
                _ => (0, 1),
            };
            if tf_a > 0 {
                a.push((d, tf_a));
            }
            if tf_b > 0 {
                b.push((d, tf_b));
            }
        }
        assert_eq!(a.len(), b.len(), "equal df, hence equal idf");
        InvertedIndex::from_lists(
            vec![("a".to_string(), list(&a)), ("b".to_string(), list(&b))],
            vec![100; 40],
            Partitioner::fixed(4),
            Bm25Params::default(),
        )
        .unwrap()
    }

    /// Runs `query` and returns its outcome with the rules it took.
    fn rules_taken<T>(query: impl FnOnce() -> T) -> (T, [u32; TALLY_SLOTS]) {
        RULES_TAKEN.with(|t| t.set([0; TALLY_SLOTS]));
        let out = query();
        (out, RULES_TAKEN.with(std::cell::Cell::get))
    }

    /// The definition of the pruned two-term tallies (see the
    /// [`OpCounts`] field docs).
    fn assert_pair_tallies(index: &InvertedIndex, c: &OpCounts) {
        let (la, lb) = (index.encoded_list(0), index.encoded_list(1));
        assert_eq!(
            c.blocks_decoded + c.blocks_skipped,
            (la.num_blocks() + lb.num_blocks()) as u64,
            "every block is decoded once or skipped: {c:?}"
        );
        assert_eq!(
            c.postings_decoded + c.postings_skipped,
            la.num_postings() + lb.num_postings(),
            "decodes are physical, at most one per block: {c:?}"
        );
        assert_eq!(c.cache_hits + c.cache_misses, 0, "pruned mode has no block cache");
    }

    #[test]
    fn union_reaches_every_interval_rule_and_scores_less_than_exhaustive() {
        let index = every_rule_index();
        let pruned = CpuEngine::new(&index).with_pruning(true);
        let (out, taken) = rules_taken(|| pruned.search_union("a", "b", 2).unwrap());
        for (slot, name) in [
            (Rule::Skip as usize, "skip"),
            (Rule::Matches as usize, "matches"),
            (Rule::DriveA as usize, "drive a"),
            (Rule::DriveB as usize, "drive b"),
            (Rule::Merge as usize, "merge"),
            (LONE_SKIP, "single-list run skipped"),
        ] {
            assert!(taken[slot] > 0, "rule '{name}' never taken: {taken:?}");
        }
        assert_pair_tallies(&index, &out.counts);
        assert!(out.counts.blocks_skipped > 0 && out.counts.blocks_decoded > 0);

        let exhaustive = CpuEngine::new(&index).search_union("a", "b", 2).unwrap();
        assert_eq!(out.hits, exhaustive.hits);
        assert_eq!(exhaustive.counts.docs_scored, 64);
        assert!(
            out.counts.docs_scored < exhaustive.counts.docs_scored,
            "pruned OR scored {} of {}",
            out.counts.docs_scored,
            exhaustive.counts.docs_scored
        );
    }

    #[test]
    fn intersection_drops_block_pairs_on_their_bounds_without_scoring() {
        let index = every_rule_index();
        let pruned = CpuEngine::new(&index).with_pruning(true);
        let (out, taken) = rules_taken(|| pruned.search_intersection("a", "b", 2).unwrap());
        assert!(taken[Rule::Skip as usize] > 0, "bound-drop never taken: {taken:?}");
        assert_eq!(
            taken[Rule::DriveA as usize]
                + taken[Rule::DriveB as usize]
                + taken[Rule::Merge as usize],
            0,
            "an intersection only skips or matches"
        );
        assert_eq!(taken[TFS_DECODE], 0, "an intersection decodes no tf: {taken:?}");
        assert!(taken[DOCS_DECODE] > 0);
        assert_pair_tallies(&index, &out.counts);

        let exhaustive = CpuEngine::new(&index).search_intersection("a", "b", 2).unwrap();
        assert_eq!(out.hits, exhaustive.hits);
        assert_eq!(out.counts.docs_scored % 2, 0, "only documents in both lists are scored");
        assert!(out.counts.docs_scored < exhaustive.counts.docs_scored);

        // k = 0 prices out everything: nothing is decoded at all.
        let none = pruned.search_intersection("a", "b", 0).unwrap();
        assert!(none.hits.is_empty());
        assert_eq!(none.counts.blocks_decoded, 0);
        assert_pair_tallies(&index, &none.counts);
    }

    /// `a` holds every document of 0..4000, `b` every one of 0..640 and
    /// every 20th after, at 64 postings to a block: where both are dense
    /// an interval holds comparable runs, where `b` is sparse one block of
    /// `a` meets two or three postings of `b`.
    fn skewed_index() -> InvertedIndex {
        let tf = |d: u32| 1 + d % 5;
        let a: Vec<(DocId, u32)> = (0..4000).map(|d| (d, tf(d))).collect();
        let b: Vec<(DocId, u32)> =
            (0..4000).filter(|&d| d < 640 || d % 20 == 0).map(|d| (d, tf(d + 2))).collect();
        InvertedIndex::from_lists(
            vec![("a".to_string(), list(&a)), ("b".to_string(), list(&b))],
            (0..4000).map(|d| 40 + d % 97).collect(),
            Partitioner::fixed(64),
            Bm25Params::default(),
        )
        .unwrap()
    }

    #[test]
    fn matches_merges_comparable_runs_linearly_and_gallops_skewed_ones() {
        let index = skewed_index();
        let exhaustive = CpuEngine::new(&index);
        let pruned = CpuEngine::new(&index).with_pruning(true);
        // k = 1000 keeps the heap filling to the end, so every interval is
        // matched; k = 10 lets the bounds skip the sparse stretch.
        for k in [10, 1000] {
            let (out, taken) =
                rules_taken(|| pruned.search_intersection("a", "b", k).unwrap());
            assert!(taken[LINEAR_MERGE] > 0, "k={k}: no linear merge: {taken:?}");
            if k == 1000 {
                assert!(taken[GALLOP_MERGE] > 0, "no galloping merge: {taken:?}");
            }
            assert_eq!(out.hits, exhaustive.search_intersection("a", "b", k).unwrap().hits);
            assert_pair_tallies(&index, &out.counts);
        }
    }

    #[test]
    fn a_union_with_a_filling_heap_scores_from_blocks_decoded_with_their_tfs() {
        let index = skewed_index();
        let exhaustive = CpuEngine::new(&index);
        let pruned = CpuEngine::new(&index).with_pruning(true);
        // More hits asked for than documents: the heap fills to the end,
        // so every interval is a merge or a single-list run, and every
        // posting is scored.
        let (out, taken) = rules_taken(|| pruned.search_union("a", "b", 5000).unwrap());
        assert!(taken[Rule::Merge as usize] > 0, "{taken:?}");
        assert_eq!(taken[Rule::Matches as usize] + taken[Rule::Skip as usize], 0, "{taken:?}");
        assert_eq!(taken[DOCS_DECODE], 0, "every block decoded with its tfs: {taken:?}");
        let want = exhaustive.search_union("a", "b", 5000).unwrap();
        assert_eq!(out.hits, want.hits);
        assert_eq!(out.counts.docs_scored, want.counts.docs_scored);
        assert_pair_tallies(&index, &out.counts);

        // With the heap filling for a while and then pricing blocks out,
        // the union takes drives as well, on the same equality.
        let (out, taken) = rules_taken(|| pruned.search_union("a", "b", 10).unwrap());
        let drives = taken[Rule::DriveA as usize] + taken[Rule::DriveB as usize];
        assert!(drives > 0 && taken[Rule::Merge as usize] > 0, "{taken:?}");
        assert_eq!(out.hits, exhaustive.search_union("a", "b", 10).unwrap().hits);
        assert_pair_tallies(&index, &out.counts);
    }
}
