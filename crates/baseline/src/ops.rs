//! Set operations over compressed posting lists, with operation counting.
//!
//! These are the baseline's (and, functionally, the accelerator's)
//! semantics for the three query types of §2.2/§4.2: full decompression
//! for single-term queries, Small-versus-Small intersection with skip-list
//! membership testing, and linear-merge union. Every function fills an
//! [`OpCounts`] so the cost model can price the work.
//!
//! All hot-path decoding goes through [`iiu_index::EncodedList::decode_block_into`]
//! with buffers owned by a [`DecodeScratch`], so steady-state query
//! processing performs no per-block allocation. The scratch also carries a
//! small LRU cache of decoded blocks — the software analogue of the paper's
//! 32-entry traversal cache — that serves the repeated membership probes of
//! the exhaustive SvS ([`intersect_svs`]) without re-decoding (cache hits
//! and misses are tallied in [`OpCounts`]; the exhaustive
//! `blocks_decoded`/`postings_decoded` tallies count *logical* decodes and
//! are unaffected by caching, so the cost model's pricing is stable).
//! Pruned mode ([`crate::pruned`]) moves forward only, decodes a block at
//! most once and never consults the cache.

use iiu_index::block::EncodedList;
use iiu_index::codec::BlockColumns;
use iiu_index::{DocId, DocWindow, Posting, TermId};

/// Counters of the primitive operations a query performed.
///
/// The exhaustive engine and pruned mode ([`crate::pruned`]) fill the
/// decode and skip fields differently; this is the one definition of the
/// pruned reading. Pruned mode decodes a block at most once per query and
/// has no block cache, so its decode tallies are *physical*, and every
/// block of the query's one or two lists is either decoded or skipped:
///
/// * `blocks_decoded + blocks_skipped` = the lists' block count,
/// * `postings_decoded + postings_skipped` = the lists' posting count,
/// * `cache_hits + cache_misses` = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Postings decompressed (d-gap + tf decode and prefix-sum). The
    /// exhaustive engine counts logical decodes: a decoded-block cache hit
    /// still tallies here. Pruned mode counts physical decodes.
    pub postings_decoded: u64,
    /// Blocks decompressed (logical or physical as for `postings_decoded`).
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
    /// Probe-path block requests served from the decoded-block cache
    /// (exhaustive SvS only).
    pub cache_hits: u64,
    /// Probe-path block requests that had to decode for real (exhaustive
    /// SvS only).
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

/// Number of decoded blocks the probe cache retains, matching the paper's
/// 32-entry traversal cache (§4.4).
pub const BLOCK_CACHE_ENTRIES: usize = 32;

/// An LRU cache of decoded blocks keyed by `(term, block)` — the software
/// analogue of the traversal cache the paper puts in front of the BSU.
/// Entries recycle their posting buffers on eviction, so a warm cache
/// allocates nothing.
///
/// Capacity is [`BLOCK_CACHE_ENTRIES`]; lookup is a linear scan, which at
/// 32 entries is cheaper than hashing.
#[derive(Debug, Clone)]
pub struct BlockCache {
    cap: usize,
    tick: u64,
    /// Index of the most recently used entry: consecutive probes of the
    /// same block (the common case in SvS) skip the scan entirely.
    mru: usize,
    /// The realm (index identity) entries are currently keyed under. A
    /// `(term, block)` pair is only unique within one index; a scratch
    /// serving multiple shards (the shared work pool) must switch realms
    /// between tasks or stale postings from another shard would alias.
    realm: u64,
    entries: Vec<CacheEntry>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    realm: u64,
    term: TermId,
    block: u32,
    last_used: u64,
    postings: Vec<Posting>,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::with_capacity(BLOCK_CACHE_ENTRIES)
    }
}

impl BlockCache {
    /// Creates a cache holding at most `cap` decoded blocks (0 disables
    /// caching: every probe is a miss that decodes into a recycled buffer).
    pub fn with_capacity(cap: usize) -> Self {
        BlockCache { cap, tick: 0, mru: 0, realm: 0, entries: Vec::with_capacity(cap.min(64)) }
    }

    /// Switches the cache to `realm` (an index identity such as a shard
    /// number). Entries cached under other realms stop matching but stay
    /// resident, so a worker alternating between shards keeps whatever
    /// warm blocks fit in the LRU budget.
    pub fn set_realm(&mut self, realm: u64) {
        self.realm = realm;
    }

    /// Returns the decoded postings of `list`'s block `block_idx`, from
    /// cache when possible, decoding (into a recycled buffer) otherwise.
    /// `counts` tallies the hit or miss.
    pub(crate) fn get_or_decode(
        &mut self,
        list: &EncodedList,
        term: TermId,
        block_idx: usize,
        counts: &mut OpCounts,
    ) -> &[Posting] {
        self.tick += 1;
        let block = block_idx as u32;
        // MRU fast path: the SvS probe loop asks for the same block many
        // times in a row, and this check keeps that O(1).
        let hit = |e: &CacheEntry| e.realm == self.realm && e.term == term && e.block == block;
        let mru_matches = self.entries.get(self.mru).is_some_and(hit);
        let pos = if mru_matches { Some(self.mru) } else { self.entries.iter().position(hit) };
        if let Some(pos) = pos {
            counts.cache_hits += 1;
            self.entries[pos].last_used = self.tick;
            self.mru = pos;
            return &self.entries[pos].postings;
        }
        counts.cache_misses += 1;
        let pos = if self.entries.len() < self.cap.max(1) {
            self.entries.push(CacheEntry {
                realm: self.realm,
                term,
                block,
                last_used: self.tick,
                postings: Vec::new(),
            });
            self.entries.len() - 1
        } else {
            // Evict the least recently used entry, keeping its buffer.
            let pos = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.entries[pos].realm = self.realm;
            self.entries[pos].term = term;
            self.entries[pos].block = block;
            self.entries[pos].last_used = self.tick;
            self.entries[pos].postings.clear();
            pos
        };
        self.mru = pos;
        let entry = &mut self.entries[pos];
        if entry.postings.is_empty() {
            list.decode_block_into(block_idx, &mut entry.postings);
        }
        // A zero-capacity cache keeps one recycled slot that is always
        // repopulated; cap >= 1 keeps decoded contents.
        if self.cap == 0 {
            entry.term = TermId::MAX;
            entry.block = u32::MAX;
        }
        &self.entries[pos].postings
    }

    /// Drops all cached blocks (buffers are freed too).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.tick = 0;
        self.mru = 0;
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Reusable decode buffers for one query engine. Owning one per engine
/// (rather than allocating inside every op) is what makes the hot path
/// allocation-free: `decode_full`-style work lands in `full_a`/`full_b`,
/// the pruned two-term cursors' current blocks in `cols_a`/`cols_b`, and
/// the exhaustive SvS's membership probes go through the [`BlockCache`].
///
/// Ownership rule: a `DecodeScratch` belongs to exactly one engine and is
/// borrowed mutably for the duration of one op — the slices the ops return
/// to their callers are copied out (results), never aliases of the scratch.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    pub(crate) full_a: Vec<Posting>,
    pub(crate) full_b: Vec<Posting>,
    pub(crate) cols_a: BlockColumns,
    pub(crate) cols_b: BlockColumns,
    pub(crate) cache: BlockCache,
}

impl DecodeScratch {
    /// Creates an empty scratch with the default
    /// [`BLOCK_CACHE_ENTRIES`]-entry block cache.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// Creates a scratch whose block cache holds `cap` entries (0 disables
    /// reuse across probes but still recycles the decode buffer).
    pub fn with_cache_capacity(cap: usize) -> Self {
        DecodeScratch { cache: BlockCache::with_capacity(cap), ..DecodeScratch::default() }
    }

    /// The decoded-block cache.
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Re-keys the block cache under `realm` (see
    /// [`BlockCache::set_realm`]). The shared shard pool calls this with
    /// the task's shard number before every task, so one worker's warm
    /// cache can never leak another shard's postings.
    pub fn set_realm(&mut self, realm: u64) {
        self.cache.set_realm(realm);
    }
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
    for b in list.window_blocks(window) {
        counts.postings_decoded += list.decode_window_into(b, window, out) as u64;
        counts.blocks_decoded += 1;
    }
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
/// Candidate blocks come from `scratch`'s decoded-block cache; `long_term`
/// keys the cache entries.
///
/// Returns matched postings as `(docID, tf_short, tf_long)`.
pub fn intersect_svs(
    short: &EncodedList,
    long: &EncodedList,
    long_term: TermId,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<(DocId, u32, u32)> {
    intersect_svs_window(short, long, long_term, DocWindow::ALL, counts, scratch)
}

/// [`intersect_svs`] over the documents of `window`: the short list is
/// decoded inside the window, so every probe lands in one of the long
/// list's window blocks, and only those count as skipped when no probe
/// lands in them.
pub fn intersect_svs_window(
    short: &EncodedList,
    long: &EncodedList,
    long_term: TermId,
    window: DocWindow,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<(DocId, u32, u32)> {
    debug_assert!(short.num_postings() <= long.num_postings());
    let DecodeScratch { full_a, cache, .. } = scratch;
    decode_window_into(short, window, counts, full_a);
    let short_postings: &[Posting] = full_a;
    let (skips, metas) = (long.skips(), long.metas());
    let mut out = Vec::new();
    let mut last_block: Option<usize> = None;
    let long_blocks = long.window_blocks(window);
    let mut decoded_blocks = vec![false; long_blocks.len()];

    for p in short_postings {
        // Binary search over the skip list for the last skip <= docID.
        let mut lo = 0usize;
        let mut hi = skips.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            counts.binary_probes += 1;
            if skips[mid] <= p.doc_id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let Some(block_idx) = lo.checked_sub(1) else {
            continue; // docID precedes the first block
        };

        // Logical decode accounting matches the pre-cache baseline: a new
        // block (relative to the previous probe) counts as decoded whether
        // or not the cache already holds it.
        if last_block != Some(block_idx) {
            counts.blocks_decoded += 1;
            // A short posting lies in the window, so its block does too.
            if let Some(d) = decoded_blocks.get_mut(block_idx - long_blocks.start) {
                *d = true;
            }
            counts.postings_decoded += u64::from(metas[block_idx].count);
            last_block = Some(block_idx);
        }
        let block = cache.get_or_decode(long, long_term, block_idx, counts);

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

    counts.blocks_skipped += decoded_blocks.iter().filter(|&&d| !d).count() as u64;
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
    fn block_cache_serves_repeat_probes_without_changing_tallies() {
        let long: Vec<(u32, u32)> = (0..256).map(|i| (i * 3, 1)).collect();
        let long = encode(&long, 16);
        // Probes cluster in two far-apart blocks: consecutive probes of the
        // same block hit the cache, and a repeat of the whole query on the
        // same scratch is served entirely from cache — while the logical
        // blocks_decoded tally stays identical to the uncached engine.
        let short = encode(&[(0, 1), (3, 1), (6, 1), (600, 1), (603, 1), (606, 1)], 2);
        let mut warm_counts = OpCounts::default();
        let mut s = DecodeScratch::new();
        let warm = intersect_svs(&short, &long, 7, &mut warm_counts, &mut s);

        let mut cold_counts = OpCounts::default();
        let mut cold_scratch = DecodeScratch::with_cache_capacity(0);
        let cold = intersect_svs(&short, &long, 7, &mut cold_counts, &mut cold_scratch);

        assert_eq!(warm, cold, "cache must not change results");
        assert_eq!(warm_counts.blocks_decoded, cold_counts.blocks_decoded);
        assert_eq!(warm_counts.postings_decoded, cold_counts.postings_decoded);
        assert!(warm_counts.cache_hits > 0, "alternating probes must hit: {warm_counts:?}");
        assert_eq!(cold_counts.cache_hits, 0, "cap 0 disables the cache");

        // A second identical query on the same scratch is all hits.
        let mut again = OpCounts::default();
        let rerun = intersect_svs(&short, &long, 7, &mut again, &mut s);
        assert_eq!(rerun, warm);
        assert_eq!(again.cache_misses, 0, "warm cache must serve every probe: {again:?}");
        assert_eq!(again.blocks_decoded, warm_counts.blocks_decoded);
    }

    #[test]
    fn block_cache_evicts_lru_beyond_capacity() {
        let long: Vec<(u32, u32)> = (0..4096).map(|i| (i, 1)).collect();
        let long = encode(&long, 8); // hundreds of blocks
        let probes: Vec<(u32, u32)> = (0..400).map(|i| (i * 10, 1)).collect();
        let short = encode(&probes, 64);
        let mut c = OpCounts::default();
        let mut s = DecodeScratch::new();
        let _ = intersect_svs(&short, &long, 3, &mut c, &mut s);
        assert!(s.cache().len() <= BLOCK_CACHE_ENTRIES);
        assert!(c.cache_misses as usize > BLOCK_CACHE_ENTRIES);
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
        /// results or block/posting tallies versus a fresh scratch.
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
            prop_assert_eq!(c1.blocks_decoded, c2.blocks_decoded);
            prop_assert_eq!(c1.postings_decoded, c2.postings_decoded);
            prop_assert_eq!(c1.blocks_decoded, c3.blocks_decoded);
            prop_assert_eq!(c1.comparisons, c3.comparisons);

            let mut u1 = OpCounts::default();
            let mut u2 = OpCounts::default();
            let ua = union_merge(&ea, &eb, &mut u1, &mut reused);
            let ub = union_merge(&ea, &eb, &mut u2, &mut fresh);
            prop_assert_eq!(ua, ub);
            prop_assert_eq!(u1, u2);
        }
    }
}
