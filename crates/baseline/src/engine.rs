//! The Lucene-like query engine: functional results plus priced operation
//! counts.

use iiu_index::score::term_score_fixed;
use iiu_index::{DocWindow, IndexError, InvertedIndex, TermId};

use crate::cost::{CpuCostModel, PhaseBreakdown};
use crate::ops::{self, DecodeScratch, OpCounts};
use crate::pruned;
use crate::topk::{top_k, Hit, SharedThreshold};

/// The result of one query: ranked hits, raw operation counts, and the
/// cost model's per-phase timing.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Top-k hits in descending score order.
    pub hits: Vec<Hit>,
    /// Number of candidate documents before top-k selection.
    pub candidates: u64,
    /// Operation counts accumulated while processing.
    pub counts: OpCounts,
    /// Per-phase time under the CPU cost model.
    pub phases: PhaseBreakdown,
}

impl QueryOutcome {
    /// Modeled end-to-end latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.phases.total_ns()
    }
}

/// A software search engine over the IIU index, mimicking Lucene's query
/// processing (block decompression, SvS intersection, merge union, BM25,
/// heap top-k).
///
/// Scoring uses the same Q16.16 fixed-point datapath as the simulated
/// hardware so that both engines return bit-identical scores; the paper's
/// baseline comparison is about *time*, which the calibrated
/// [`CpuCostModel`] prices from operation counts.
///
/// The engine is a view: an index and a mode, `Copy`, free to build per
/// query. Each query borrows the calling thread's [`DecodeScratch`]
/// ([`ops::with_scratch`]), so the steady-state hot path allocates only
/// for results.
///
/// With [`CpuEngine::with_pruning`] the engine runs in block-max pruned
/// mode ([`crate::pruned`]): top-k is fused into the scoring loop and
/// blocks whose score upper bound cannot beat the heap threshold are
/// skipped (two-term queries walk both lists with one forward block
/// cursor each and make no SvS probes). Results are
/// bit-identical to the exhaustive mode; only the operation counts (and
/// therefore modeled latency) change.
#[derive(Debug, Clone, Copy)]
pub struct CpuEngine<'a> {
    index: &'a InvertedIndex,
    pruned: bool,
}

impl<'a> CpuEngine<'a> {
    /// Creates an engine in exhaustive mode.
    pub fn new(index: &'a InvertedIndex) -> Self {
        CpuEngine { index, pruned: false }
    }

    /// Enables or disables block-max pruned execution (builder style).
    #[must_use]
    pub fn with_pruning(mut self, pruned: bool) -> Self {
        self.pruned = pruned;
        self
    }

    /// True when the engine skips blocks via score bounds.
    pub fn pruning(&self) -> bool {
        self.pruned
    }

    /// The underlying index.
    pub fn index(&self) -> &'a InvertedIndex {
        self.index
    }

    fn resolve(&self, term: &str) -> Result<TermId, IndexError> {
        let id = self
            .index
            .term_id(term)
            .ok_or_else(|| IndexError::UnknownTerm { term: term.to_owned() })?;
        // Mmap-backed lists defer their checks to first touch; checking
        // here turns late corruption into a typed error instead of letting
        // a panicking decode wrapper see it mid-query.
        self.index.verify_term(id)?;
        Ok(id)
    }

    /// Answers `shape` over the whole index on this thread's scratch and
    /// prices it.
    fn run(&self, shape: Shape, k: usize) -> QueryOutcome {
        let mut counts = OpCounts::default();
        let hits = ops::with_scratch(|scratch| {
            let (index, all) = (self.index, DocWindow::ALL);
            answer(index, shape, all, k, self.pruned, None, &mut counts, scratch)
        });
        let candidates = counts.topk_candidates;
        let phases = CpuCostModel::default().price(&counts);
        QueryOutcome { hits, candidates, counts, phases }
    }

    /// Single-term query: decompress, score, top-k (§2.2 workflow).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if `term` is not indexed.
    pub fn search_single(&self, term: &str, k: usize) -> Result<QueryOutcome, IndexError> {
        Ok(self.run(Shape::Single(self.resolve(term)?), k))
    }

    /// Intersection query via Small-versus-Small (§2.2).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if either term is not indexed.
    pub fn search_intersection(
        &self,
        term_a: &str,
        term_b: &str,
        k: usize,
    ) -> Result<QueryOutcome, IndexError> {
        Ok(self.run(Shape::And(self.resolve(term_a)?, self.resolve(term_b)?), k))
    }

    /// Union query via linear merge (§2.2).
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if either term is not indexed.
    pub fn search_union(
        &self,
        term_a: &str,
        term_b: &str,
        k: usize,
    ) -> Result<QueryOutcome, IndexError> {
        Ok(self.run(Shape::Or(self.resolve(term_a)?, self.resolve(term_b)?), k))
    }
}

/// A primitive query over resolved terms: what every engine dispatches.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape {
    /// One term.
    Single(TermId),
    /// Two terms, intersected (SvS order is chosen per index).
    And(TermId, TermId),
    /// Two terms, unioned.
    Or(TermId, TermId),
}

/// The one pruned-or-exhaustive dispatch: answers `shape` over the
/// documents of `window` of `index`, block-max pruned when `pruned` (with
/// the cross-part threshold `shared`, if any) and exhaustively otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer(
    index: &InvertedIndex,
    shape: Shape,
    window: DocWindow,
    k: usize,
    pruned: bool,
    shared: Option<&SharedThreshold>,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<Hit> {
    match (shape, pruned) {
        (Shape::Single(id), true) => {
            pruned::search_single_pruned(index, id, window, k, counts, scratch, shared)
        }
        (Shape::Single(id), false) => exhaustive_single(index, id, window, k, counts, scratch),
        (Shape::And(ia, ib), _) => {
            // SvS order by this index's own lists: a split shard may invert
            // the global order (hits are symmetric, only work differs).
            let (short, long) = short_first(index, ia, ib);
            if pruned {
                pruned::search_intersection_pruned(
                    index, short, long, window, k, counts, scratch, shared,
                )
            } else {
                exhaustive_intersection(index, short, long, window, k, counts, scratch)
            }
        }
        (Shape::Or(ia, ib), true) => {
            pruned::search_union_pruned(index, ia, ib, window, k, counts, scratch, shared)
        }
        (Shape::Or(ia, ib), false) => {
            exhaustive_union(index, ia, ib, window, k, counts, scratch)
        }
    }
}

/// SvS orders by list length: the term with the shorter list (by `df`)
/// comes first and drives the probing.
fn short_first(index: &InvertedIndex, a: TermId, b: TermId) -> (TermId, TermId) {
    if index.term_info(a).df <= index.term_info(b).df {
        (a, b)
    } else {
        (b, a)
    }
}

/// Exhaustive single-term query over the documents of `window`:
/// decompress, score, top-k (§2.2 workflow).
fn exhaustive_single(
    index: &InvertedIndex,
    id: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<Hit> {
    let idf_bar = index.term_info(id).idf_bar;
    ops::decode_window_into(index.encoded_list(id), window, counts, &mut scratch.full_a);
    let hits: Vec<Hit> = scratch
        .full_a
        .iter()
        .map(|p| Hit {
            doc_id: p.doc_id,
            score: term_score_fixed(idf_bar, index.dl_bar(p.doc_id), p.tf).to_f64(),
        })
        .collect();
    counts.docs_scored = hits.len() as u64;
    counts.topk_candidates = hits.len() as u64;
    counts.results = hits.len() as u64;
    top_k(hits, k)
}

/// Exhaustive Small-versus-Small intersection over the documents of
/// `window` (§2.2).
fn exhaustive_intersection(
    index: &InvertedIndex,
    short_id: TermId,
    long_id: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<Hit> {
    let short = index.encoded_list(short_id);
    let long = index.encoded_list(long_id);
    let idf_short = index.term_info(short_id).idf_bar;
    let idf_long = index.term_info(long_id).idf_bar;
    let matches = ops::intersect_svs_window(short, long, window, counts, scratch);
    let hits: Vec<Hit> = matches
        .iter()
        .map(|&(doc_id, tf_s, tf_l)| {
            let dl = index.dl_bar(doc_id);
            let s = term_score_fixed(idf_short, dl, tf_s)
                .saturating_add(term_score_fixed(idf_long, dl, tf_l));
            Hit { doc_id, score: s.to_f64() }
        })
        .collect();
    counts.docs_scored = 2 * hits.len() as u64;
    counts.topk_candidates = hits.len() as u64;
    top_k(hits, k)
}

/// Exhaustive linear-merge union over the documents of `window` (§2.2).
fn exhaustive_union(
    index: &InvertedIndex,
    ia: TermId,
    ib: TermId,
    window: DocWindow,
    k: usize,
    counts: &mut OpCounts,
    scratch: &mut DecodeScratch,
) -> Vec<Hit> {
    let la = index.encoded_list(ia);
    let lb = index.encoded_list(ib);
    let idf_a = index.term_info(ia).idf_bar;
    let idf_b = index.term_info(ib).idf_bar;
    let merged = ops::union_merge_window(la, lb, window, counts, scratch);
    let mut scored = 0u64;
    let hits: Vec<Hit> = merged
        .iter()
        .map(|&(doc_id, tf_a, tf_b)| {
            let dl = index.dl_bar(doc_id);
            let mut s = iiu_index::Fixed::ZERO;
            if tf_a > 0 {
                s = s.saturating_add(term_score_fixed(idf_a, dl, tf_a));
                scored += 1;
            }
            if tf_b > 0 {
                s = s.saturating_add(term_score_fixed(idf_b, dl, tf_b));
                scored += 1;
            }
            Hit { doc_id, score: s.to_f64() }
        })
        .collect();
    counts.docs_scored = scored;
    counts.topk_candidates = hits.len() as u64;
    top_k(hits, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiu_index::{BuildOptions, IndexBuilder};

    fn engine_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("business lausanne report"); // 0
        b.add_document("cameo appearance"); // 1
        b.add_document("business cameo business"); // 2
        b.add_document("weather report"); // 3
        b.add_document("business weather cameo"); // 4
        b.build()
    }

    #[test]
    fn single_term_ranks_by_tf() {
        let idx = engine_index();
        let engine = CpuEngine::new(&idx);
        let out = engine.search_single("business", 10).unwrap();
        assert_eq!(out.hits.len(), 3);
        // doc 2 has tf 2 and the shortest competitive length.
        assert_eq!(out.hits[0].doc_id, 2);
        assert!(out.latency_ns() > 0.0);
        assert_eq!(out.counts.postings_decoded, 3);
    }

    #[test]
    fn intersection_returns_common_docs() {
        let idx = engine_index();
        let engine = CpuEngine::new(&idx);
        let out = engine.search_intersection("business", "cameo", 10).unwrap();
        let docs: Vec<u32> = out.hits.iter().map(|h| h.doc_id).collect();
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 4]);
        assert_eq!(out.counts.docs_scored, 4);
    }

    #[test]
    fn intersection_is_symmetric() {
        let idx = engine_index();
        let engine = CpuEngine::new(&idx);
        let ab = engine.search_intersection("business", "cameo", 10).unwrap();
        let ba = engine.search_intersection("cameo", "business", 10).unwrap();
        assert_eq!(ab.hits, ba.hits);
    }

    #[test]
    fn union_covers_both_lists() {
        let idx = engine_index();
        let engine = CpuEngine::new(&idx);
        let out = engine.search_union("business", "cameo", 10).unwrap();
        let mut docs: Vec<u32> = out.hits.iter().map(|h| h.doc_id).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 1, 2, 4]);
        // Docs containing both terms outrank single-term docs of similar length.
        assert_eq!(out.hits[0].doc_id, 2);
    }

    #[test]
    fn unknown_term_is_an_error() {
        let idx = engine_index();
        let engine = CpuEngine::new(&idx);
        assert!(engine.search_single("zebra", 5).is_err());
        assert!(engine.search_intersection("zebra", "business", 5).is_err());
        assert!(engine.search_union("business", "zebra", 5).is_err());
    }

    #[test]
    fn k_truncates_results() {
        let idx = engine_index();
        let engine = CpuEngine::new(&idx);
        let out = engine.search_single("business", 1).unwrap();
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.candidates, 3);
    }

    #[test]
    fn pruned_mode_matches_exhaustive_on_every_query_shape() {
        let idx = engine_index();
        let plain = CpuEngine::new(&idx);
        let pruned = CpuEngine::new(&idx).with_pruning(true);
        assert!(pruned.pruning() && !plain.pruning());
        for k in [0usize, 1, 2, 10] {
            let a = plain.search_single("business", k).unwrap();
            let b = pruned.search_single("business", k).unwrap();
            assert_eq!(a.hits, b.hits, "single k={k}");
            let a = plain.search_intersection("business", "cameo", k).unwrap();
            let b = pruned.search_intersection("business", "cameo", k).unwrap();
            assert_eq!(a.hits, b.hits, "and k={k}");
            let a = plain.search_union("business", "cameo", k).unwrap();
            let b = pruned.search_union("business", "cameo", k).unwrap();
            assert_eq!(a.hits, b.hits, "or k={k}");
        }
    }

    #[test]
    fn pruned_single_skips_blocks_on_a_skewed_list() {
        // One high-tf posting per far-apart block region, k=1: after the
        // best doc is seen, lower-bound blocks must be skipped.
        let mut b = iiu_index::IndexBuilder::new(iiu_index::BuildOptions {
            partitioner: iiu_index::Partitioner::fixed(4),
            ..Default::default()
        });
        b.add_document(&"hot ".repeat(50));
        for _ in 0..200 {
            b.add_document("hot cold");
        }
        let idx = b.build();
        let pruned = CpuEngine::new(&idx).with_pruning(true);
        let out = pruned.search_single("hot", 1).unwrap();
        assert!(out.counts.blocks_skipped > 0, "no blocks skipped: {:?}", out.counts);
        assert!(out.counts.postings_skipped > 0);
        let plain = CpuEngine::new(&idx);
        assert_eq!(plain.search_single("hot", 1).unwrap().hits, out.hits);
        assert!(
            out.counts.postings_decoded
                < plain.search_single("hot", 1).unwrap().counts.postings_decoded
        );
    }
}
