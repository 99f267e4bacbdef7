//! The search engines of the reproduction, behind one interface:
//!
//! * [`CpuSearchEngine`] — the Lucene-like software baseline, priced by the
//!   calibrated CPU cost model;
//! * [`ShardedSearchEngine`] — the same baseline fanned across docID
//!   windows of one index (or the shards of an in-memory
//!   [`ShardedIndex`](iiu_index::ShardedIndex)) with a shared pruning
//!   threshold (intra-query parallelism on the host);
//! * [`IiuSearchEngine`] — the cycle-level accelerator simulation plus the
//!   host-side top-k pass.
//!
//! All return bit-identical hits for the same query (the scoring datapath
//! is shared), so every comparison between them is about *time*, exactly
//! like the paper's evaluation.

use std::borrow::Cow;

use iiu_baseline::topk::{top_k, Hit};
use iiu_baseline::{
    CpuCostModel, CpuEngine, OpCounts, PartSource, PhaseBreakdown, ShardPoolConfig,
    ShardedEngine, ShardedOutcome,
};
use iiu_index::score::term_score_fixed;
use iiu_index::{
    DocId, DocWindow, Fixed, IndexError, InvertedIndex, PositionIndex, ShardChaosPlan,
};
use iiu_sim::{HostModel, IiuMachine, SimConfig, SimQuery};

use crate::error::{Degradation, SearchError};
use crate::query::{Primitive, Query};

/// Where a query's time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Fixed dispatch/software overhead.
    pub dispatch_ns: f64,
    /// Device time: CPU query processing for the baseline, accelerator
    /// cycles for IIU.
    pub device_ns: f64,
    /// Host top-k selection time.
    pub topk_ns: f64,
}

impl LatencyBreakdown {
    /// Total latency.
    pub fn total_ns(&self) -> f64 {
        self.dispatch_ns + self.device_ns + self.topk_ns
    }
}

/// A ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Top-k hits, descending score.
    pub hits: Vec<Hit>,
    /// Candidate documents before top-k selection.
    pub candidates: u64,
    /// Modeled time breakdown.
    pub breakdown: LatencyBreakdown,
    /// How the query was weakened to keep serving (unknown terms pruned).
    /// Empty for a fully-served query.
    pub degraded: Vec<Degradation>,
}

impl SearchResponse {
    /// Modeled end-to-end latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.breakdown.total_ns()
    }

    /// True if any part of the query was pruned rather than served.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// The empty response a fully-pruned query yields.
    pub(crate) fn empty(degraded: Vec<Degradation>) -> Self {
        SearchResponse {
            hits: Vec::new(),
            candidates: 0,
            breakdown: LatencyBreakdown::default(),
            degraded,
        }
    }
}

/// A query engine: takes a boolean [`Query`], returns ranked hits with a
/// modeled latency.
///
/// Unknown terms are not errors: both engines prune them — an unknown term
/// under `OR` drops out, one under `AND` (or in a phrase) short-circuits
/// that conjunction to empty — and report each pruning in
/// [`SearchResponse::degraded`].
pub trait SearchEngine {
    /// Runs `query`, returning the top `k` hits.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::Index`] for index-plane failures (e.g. a
    /// phrase query without a positional sidecar) and
    /// [`SearchError::Sim`] if the accelerator simulation stalls.
    fn search(&mut self, query: &Query, k: usize) -> Result<SearchResponse, SearchError>;
}

// ---------------------------------------------------------------------------
// Unknown-term pruning (graceful degradation)
// ---------------------------------------------------------------------------

/// A pruned subtree: what survives, plus unknown terms whose degradation
/// kind is still undecided (a bare unknown term is only classified once we
/// see whether an `AND` or an `OR` absorbs the hole it left).
struct Pruned<'q> {
    query: Option<Cow<'q, Query>>,
    pending: Vec<String>,
}

fn classify_pending(pending: Vec<String>, and_like: bool, degraded: &mut Vec<Degradation>) {
    for term in pending {
        degraded.push(if and_like {
            Degradation::UnknownTermEmptyAnd { term }
        } else {
            Degradation::UnknownTermDropped { term }
        });
    }
}

/// Rewrites `q` without its unknown terms, recording every pruning in
/// `degraded`. `None` means the whole query pruned away (serve empty);
/// a query whose every term is known comes back borrowed.
fn prune_query<'q>(
    index: &InvertedIndex,
    q: &'q Query,
    degraded: &mut Vec<Degradation>,
) -> Option<Cow<'q, Query>> {
    prune_query_with(&|t| index.term_id(t).is_some(), q, degraded)
}

/// [`prune_query`] generalized over a term-existence predicate, so engines
/// without an [`InvertedIndex`] vocabulary (the live incremental index)
/// share the exact degradation semantics.
pub(crate) fn prune_query_with<'q>(
    has_term: &dyn Fn(&str) -> bool,
    q: &'q Query,
    degraded: &mut Vec<Degradation>,
) -> Option<Cow<'q, Query>> {
    let pruned = prune_tree(has_term, q, degraded);
    // Whatever is still unclassified at the root vanished without an AND
    // forcing emptiness, so it "dropped out".
    classify_pending(pruned.pending, false, degraded);
    pruned.query
}

fn prune_tree<'q>(
    has_term: &dyn Fn(&str) -> bool,
    q: &'q Query,
    degraded: &mut Vec<Degradation>,
) -> Pruned<'q> {
    match q {
        Query::Term(t) => {
            if has_term(t) {
                Pruned { query: Some(Cow::Borrowed(q)), pending: Vec::new() }
            } else {
                Pruned { query: None, pending: vec![t.clone()] }
            }
        }
        Query::Phrase(terms) => {
            let unknown: Vec<String> =
                terms.iter().filter(|t| !has_term(t)).cloned().collect();
            if unknown.is_empty() {
                Pruned { query: Some(Cow::Borrowed(q)), pending: Vec::new() }
            } else {
                // A phrase is a conjunction: one unknown word empties it.
                classify_pending(unknown, true, degraded);
                Pruned { query: None, pending: Vec::new() }
            }
        }
        Query::And(a, b) => {
            let pa = prune_tree(has_term, a, degraded);
            let pb = prune_tree(has_term, b, degraded);
            let mut pending = pa.pending;
            pending.extend(pb.pending);
            match (pa.query, pb.query) {
                (Some(x), Some(y)) => {
                    Pruned { query: Some(rebuild(q, x, y, Query::and)), pending }
                }
                _ => {
                    classify_pending(pending, true, degraded);
                    Pruned { query: None, pending: Vec::new() }
                }
            }
        }
        Query::Or(a, b) => {
            let pa = prune_tree(has_term, a, degraded);
            let pb = prune_tree(has_term, b, degraded);
            let mut pending = pa.pending;
            pending.extend(pb.pending);
            match (pa.query, pb.query) {
                (Some(x), Some(y)) => {
                    Pruned { query: Some(rebuild(q, x, y, Query::or)), pending }
                }
                (Some(x), None) | (None, Some(x)) => {
                    classify_pending(pending, false, degraded);
                    Pruned { query: Some(x), pending: Vec::new() }
                }
                (None, None) => {
                    classify_pending(pending, false, degraded);
                    Pruned { query: None, pending: Vec::new() }
                }
            }
        }
    }
}

/// The pruned form of the binary node `q` whose children pruned to `a` and
/// `b`: `q` itself when neither child changed, else a new node.
fn rebuild<'q>(
    q: &'q Query,
    a: Cow<'q, Query>,
    b: Cow<'q, Query>,
    node: fn(Query, Query) -> Query,
) -> Cow<'q, Query> {
    match (a, b) {
        (Cow::Borrowed(_), Cow::Borrowed(_)) => Cow::Borrowed(q),
        (a, b) => Cow::Owned(node(a.into_owned(), b.into_owned())),
    }
}

// ---------------------------------------------------------------------------
// Shared functional evaluation of arbitrary expression trees
// ---------------------------------------------------------------------------

/// Evaluates an expression tree on decoded, scored lists (the §4.5
/// "operations on an uncompressed list" path), accumulating operation
/// counts for the cost model. `leaf` turns a term into its scored list in
/// docID order and tallies its own work; phrases verify their candidates
/// against `positions`.
pub(crate) fn eval_tree<L>(
    q: &Query,
    positions: Option<&PositionIndex>,
    counts: &mut OpCounts,
    leaf: &mut L,
) -> Result<Vec<(DocId, Fixed)>, IndexError>
where
    L: FnMut(&str, &mut OpCounts) -> Result<Vec<(DocId, Fixed)>, IndexError>,
{
    match q {
        Query::Term(t) => leaf(t, counts),
        Query::Phrase(terms) => {
            let pos_index = positions.ok_or(IndexError::PositionsUnavailable)?;
            // Candidates: intersection of every term's list (the part IIU
            // accelerates); verification: consecutive-position check.
            let mut acc: Option<Vec<(DocId, Fixed)>> = None;
            for t in terms {
                let lt = leaf(t, counts)?;
                acc = Some(match acc {
                    None => lt,
                    Some(prev) => merge_lists(&prev, &lt, true, counts),
                });
            }
            let candidates = acc.unwrap_or_default();
            counts.phrase_checks += candidates.len() as u64;
            Ok(candidates
                .into_iter()
                .filter(|&(d, _)| pos_index.phrase_in_doc(terms, d))
                .collect())
        }
        Query::And(a, b) | Query::Or(a, b) => {
            let la = eval_tree(a, positions, counts, leaf)?;
            let lb = eval_tree(b, positions, counts, leaf)?;
            Ok(merge_lists(&la, &lb, matches!(q, Query::And(..)), counts))
        }
    }
}

/// The [`eval_tree`] leaf over the documents of `window` of `index`:
/// decode the term's blocks in the window and score every posting.
fn window_leaf(
    index: &InvertedIndex,
    window: DocWindow,
) -> impl FnMut(&str, &mut OpCounts) -> Result<Vec<(DocId, Fixed)>, IndexError> + '_ {
    // One reused buffer per evaluation, not one allocation per block; a
    // corrupt payload surfaces as Err instead of a decode panic.
    let mut block = Vec::new();
    move |t, counts| {
        let id = t_id(index, t)?;
        let list = index.encoded_list(id).verified()?;
        let idf = index.term_info(id).idf_bar;
        let whole = window == DocWindow::ALL;
        let mut scored =
            Vec::with_capacity(if whole { list.num_postings() as usize } else { 0 });
        for b in list.window_blocks(window) {
            counts.blocks_decoded += 1;
            block.clear();
            counts.postings_decoded +=
                list.try_decode_window_into(b, window, &mut block)? as u64;
            counts.docs_scored += block.len() as u64;
            for p in &block {
                scored.push((p.doc_id, term_score_fixed(idf, index.dl_bar(p.doc_id), p.tf)));
            }
        }
        Ok(scored)
    }
}

fn t_id(index: &InvertedIndex, term: &str) -> Result<u32, IndexError> {
    index.term_id(term).ok_or_else(|| IndexError::UnknownTerm { term: term.to_owned() })
}

pub(crate) fn to_hits(scored: &[(DocId, Fixed)], k: usize) -> Vec<Hit> {
    top_k(scored.iter().map(|&(doc_id, s)| Hit { doc_id, score: s.to_f64() }), k)
}

/// The answer to an exhaustive evaluation: the top `k` of `scored` (every
/// candidate, in docID order) and `counts` priced by the calibrated cost
/// model, with `scored`'s length as the top-k work.
pub(crate) fn respond(
    mut counts: OpCounts,
    scored: &[(DocId, Fixed)],
    k: usize,
    degraded: Vec<Degradation>,
) -> SearchResponse {
    counts.topk_candidates = scored.len() as u64;
    let phases = CpuCostModel::default().price(&counts);
    priced(to_hits(scored, k), scored.len() as u64, phases, degraded)
}

/// A CPU engine's response: `phases` is its modeled time, top-k apart.
fn priced(
    hits: Vec<Hit>,
    candidates: u64,
    phases: PhaseBreakdown,
    degraded: Vec<Degradation>,
) -> SearchResponse {
    SearchResponse {
        hits,
        candidates,
        breakdown: LatencyBreakdown {
            dispatch_ns: 0.0,
            device_ns: phases.total_ns() - phases.topk_ns,
            topk_ns: phases.topk_ns,
        },
        degraded,
    }
}

// ---------------------------------------------------------------------------
// CPU (baseline) engine
// ---------------------------------------------------------------------------

/// The Lucene-like baseline behind the [`SearchEngine`] interface: like
/// [`CpuEngine`], a view that is free to build per query.
#[derive(Debug, Clone, Copy)]
pub struct CpuSearchEngine<'a> {
    inner: CpuEngine<'a>,
    positions: Option<&'a PositionIndex>,
}

impl<'a> CpuSearchEngine<'a> {
    /// Creates a baseline engine in exhaustive mode.
    pub fn new(index: &'a InvertedIndex) -> Self {
        CpuSearchEngine { inner: CpuEngine::new(index), positions: None }
    }

    /// Attaches a positional sidecar, enabling [`Query::Phrase`] queries.
    pub fn with_position_index(mut self, positions: &'a PositionIndex) -> Self {
        self.positions = Some(positions);
        self
    }

    /// Enables block-max pruned top-k for the primitive query shapes
    /// (single term, two-term AND/OR). Results are bit-identical to the
    /// exhaustive mode; general expression trees always evaluate
    /// exhaustively.
    #[must_use]
    pub fn with_pruning(mut self, pruned: bool) -> Self {
        self.inner = self.inner.with_pruning(pruned);
        self
    }

    /// True when primitive shapes use block-max pruning.
    pub fn pruning(&self) -> bool {
        self.inner.pruning()
    }

    /// The wrapped low-level engine.
    pub fn inner(&self) -> &CpuEngine<'a> {
        &self.inner
    }
}

impl SearchEngine for CpuSearchEngine<'_> {
    fn search(&mut self, query: &Query, k: usize) -> Result<SearchResponse, SearchError> {
        let mut degraded = Vec::new();
        let Some(query) = prune_query(self.inner.index(), query, &mut degraded) else {
            return Ok(SearchResponse::empty(degraded));
        };
        // Primitive shapes take the specialized paths (SvS etc.).
        let o = match query.primitive() {
            Some(Primitive::Single(t)) => self.inner.search_single(t, k)?,
            Some(Primitive::And(x, y)) => self.inner.search_intersection(x, y, k)?,
            Some(Primitive::Or(x, y)) => self.inner.search_union(x, y, k)?,
            None => {
                // General expression tree.
                let mut counts = OpCounts::default();
                let mut leaf = window_leaf(self.inner.index(), DocWindow::ALL);
                let scored = eval_tree(&query, self.positions, &mut counts, &mut leaf)?;
                return Ok(respond(counts, &scored, k, degraded));
            }
        };
        Ok(priced(o.hits, o.candidates, o.phases, degraded))
    }
}

// ---------------------------------------------------------------------------
// Sharded CPU engine
// ---------------------------------------------------------------------------

/// The baseline engine fanned across the parts of a [`PartSource`] —
/// docID windows of one index, or the shards of a split — behind the
/// [`SearchEngine`] interface.
///
/// Primitive shapes (single term, two-term AND/OR) execute on every part
/// in parallel — pruned mode exchanges a shared threshold between parts —
/// and merge under the common rank order, so hits are bit-identical to
/// [`CpuSearchEngine`] over the unsharded index. General expression trees
/// also fan out: each part evaluates the whole tree over its documents
/// exhaustively, and the host merges the scored lists. Phrase queries need
/// the (global-docID) positional sidecar and are not supported sharded;
/// they fail with [`IndexError::PositionsUnavailable`].
///
/// The modeled latency prices the critical-path (slowest) part plus the
/// host-side merge, not the sum of all parts.
#[derive(Debug)]
pub struct ShardedSearchEngine {
    inner: ShardedEngine,
}

impl ShardedSearchEngine {
    /// Creates an engine (and its pool and executor) over the parts of
    /// `source`.
    pub fn new(source: impl Into<PartSource>) -> Self {
        ShardedSearchEngine { inner: ShardedEngine::new(source) }
    }

    /// Creates an engine whose pool (and executor) follows the given
    /// supervision policy (fan-out deadline, quarantine, respawn backoff).
    pub fn with_config(source: impl Into<PartSource>, cfg: ShardPoolConfig) -> Self {
        ShardedSearchEngine { inner: ShardedEngine::with_config(source, cfg) }
    }

    /// Sets the fail-closed policy (builder style): when `true`, a query
    /// that cannot cover every shard fails instead of answering partially
    /// with [`Degradation::ShardsUnavailable`].
    #[must_use]
    pub fn with_fail_closed(mut self, fail_closed: bool) -> Self {
        self.inner = self.inner.with_fail_closed(fail_closed);
        self
    }

    /// Installs a shard-level fault-injection plan (builder style); quiet
    /// by default. Chaos campaigns use this to panic, stall, or kill
    /// shard workers on deterministic schedules.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ShardChaosPlan) -> Self {
        self.inner = self.inner.with_chaos(chaos);
        self
    }

    /// Enables block-max pruned top-k with cross-shard threshold sharing
    /// for the primitive query shapes. Bit-identical to exhaustive mode.
    #[must_use]
    pub fn with_pruning(mut self, pruned: bool) -> Self {
        self.inner = self.inner.with_pruning(pruned);
        self
    }

    /// True when primitive shapes use block-max pruning.
    pub fn pruning(&self) -> bool {
        self.inner.pruning()
    }

    /// Number of shards queries fan out across.
    pub fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    /// The wrapped sharded engine (per-shard counts, pool access).
    pub fn inner(&self) -> &ShardedEngine {
        &self.inner
    }

    /// Runs a query through a shared reference. Unlike the
    /// [`SearchEngine`] trait (whose `&mut self` receiver suits the
    /// single-threaded engines), sharded execution keeps all per-query
    /// state on the executor threads, so concurrent callers can share one
    /// engine — and one shard pool — behind an `Arc`.
    ///
    /// # Errors
    ///
    /// Same contract as [`SearchEngine::search`].
    pub fn search_ref(&self, query: &Query, k: usize) -> Result<SearchResponse, SearchError> {
        let mut degraded = Vec::new();
        let Some(query) = prune_query(self.inner.dictionary(), query, &mut degraded) else {
            return Ok(SearchResponse::empty(degraded));
        };
        if let Query::Phrase(_) = *query {
            return Err(SearchError::Index(IndexError::PositionsUnavailable));
        }
        let (hits, candidates, phases, missing) = match query.primitive() {
            Some(Primitive::Single(t)) => Self::parts(self.inner.search_single(t, k)?),
            Some(Primitive::And(x, y)) => {
                Self::parts(self.inner.search_intersection(x, y, k)?)
            }
            Some(Primitive::Or(x, y)) => Self::parts(self.inner.search_union(x, y, k)?),
            None => self.eval_sharded(&query, k)?,
        };
        if !missing.is_empty() {
            degraded
                .push(Degradation::ShardsUnavailable { missing, total: self.num_shards() });
        }
        Ok(priced(hits, candidates, phases, degraded))
    }

    /// What a response takes from a primitive shape's fanned-out outcome.
    fn parts(o: ShardedOutcome) -> (Vec<Hit>, u64, PhaseBreakdown, Vec<usize>) {
        (o.hits, o.candidates, o.phases, o.missing)
    }

    /// Fans a general expression tree out: every part evaluates the whole
    /// tree over its own documents and maps its docIDs to global ones, and
    /// the host concatenates and selects top-k. Fail-soft: parts that do
    /// not answer (panic, deadline, quarantine, dead worker) are reported
    /// in the returned `missing` list and the merge covers the survivors —
    /// exhaustive tree evaluation has no cross-part coupling, so the
    /// surviving hits are exact over the surviving documents. An
    /// index-plane `Err` from any part still fails the query: that is a
    /// data problem, not an availability problem.
    fn eval_sharded(
        &self,
        query: &Query,
        k: usize,
    ) -> Result<(Vec<Hit>, u64, PhaseBreakdown, Vec<usize>), SearchError> {
        let q = query.clone();
        let per_shard = self
            .inner
            .run_shards(move |_, part, _| {
                let mut counts = OpCounts::default();
                let mut leaf = window_leaf(part.index, part.window);
                let scored = eval_tree(&q, None, &mut counts, &mut leaf);
                scored.map(|s| {
                    let s: Vec<_> =
                        s.into_iter().map(|(d, sc)| (part.global_doc(d), sc)).collect();
                    (s, counts)
                })
            })
            .slots;
        let cost = CpuCostModel::default();
        let mut all = Vec::new();
        let mut missing = Vec::new();
        let mut crit = PhaseBreakdown::default();
        for (s, r) in per_shard.into_iter().enumerate() {
            let Some(r) = r else {
                missing.push(s);
                continue;
            };
            let (scored, mut counts) = r?;
            counts.topk_candidates = scored.len() as u64;
            let phases = cost.price(&counts);
            if phases.total_ns() > crit.total_ns() {
                crit = phases;
            }
            all.extend(scored);
        }
        if missing.len() == self.num_shards() {
            return Err(SearchError::Index(IndexError::CorruptIndex {
                context: "all shards unavailable",
            }));
        }
        if self.inner.fail_closed() && !missing.is_empty() {
            return Err(SearchError::Index(IndexError::CorruptIndex {
                context: "shard execution failed",
            }));
        }
        crit.topk_ns += cost.price_topk(all.len() as u64);
        let candidates = all.len() as u64;
        // Global docID order is what rank_cmp ties on; sort so to_hits sees
        // the same candidate order as the unsharded evaluation.
        all.sort_by_key(|&(d, _)| d);
        Ok((to_hits(&all, k), candidates, crit, missing))
    }
}

impl From<ShardedEngine> for ShardedSearchEngine {
    /// Wraps an engine built on a pool of the caller's choosing, such as
    /// one whose parts run on a query service's executor.
    fn from(inner: ShardedEngine) -> Self {
        ShardedSearchEngine { inner }
    }
}

impl SearchEngine for ShardedSearchEngine {
    fn search(&mut self, query: &Query, k: usize) -> Result<SearchResponse, SearchError> {
        self.search_ref(query, k)
    }
}

// ---------------------------------------------------------------------------
// IIU engine
// ---------------------------------------------------------------------------

/// The accelerator behind the [`SearchEngine`] interface: primitive queries
/// run on the cycle-level simulator; deeper expression trees follow §4.5 —
/// subtrees evaluate recursively (in parallel across subtrees) and the set
/// operations over uncompressed intermediate lists bypass the DCUs at one
/// element per cycle through the merge datapath.
#[derive(Debug)]
pub struct IiuSearchEngine<'a> {
    machine: IiuMachine<'a>,
    host: HostModel,
    cores: usize,
    positions: Option<&'a PositionIndex>,
}

impl<'a> IiuSearchEngine<'a> {
    /// Creates an engine with the default configuration, allocating all
    /// cores to each query (minimum-latency intra-query mode, Fig. 12a).
    pub fn new(index: &'a InvertedIndex) -> Self {
        let cfg = SimConfig::default();
        IiuSearchEngine {
            machine: IiuMachine::new(index, cfg),
            host: HostModel::default(),
            cores: cfg.n_cores,
            positions: None,
        }
    }

    /// Attaches a positional sidecar, enabling [`Query::Phrase`] queries
    /// (intersection on the accelerator, verification on the host).
    pub fn with_position_index(mut self, positions: &'a PositionIndex) -> Self {
        self.positions = Some(positions);
        self
    }

    /// Creates an engine with explicit configuration and per-query core
    /// allocation (the `numCores` argument of the paper's `search()` API).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or exceeds `cfg.n_cores`.
    pub fn with_config(index: &'a InvertedIndex, cfg: SimConfig, cores: usize) -> Self {
        assert!(cores >= 1 && cores <= cfg.n_cores, "core allocation out of range");
        IiuSearchEngine {
            machine: IiuMachine::new(index, cfg),
            host: HostModel::default(),
            cores,
            positions: None,
        }
    }

    /// The underlying machine (for detailed statistics).
    pub fn machine(&self) -> &IiuMachine<'a> {
        &self.machine
    }

    /// The host model used for dispatch/top-k pricing.
    pub fn host(&self) -> HostModel {
        self.host
    }

    fn index(&self) -> &'a InvertedIndex {
        self.machine.index()
    }

    /// Recursively evaluates an expression tree: a term or a two-term set
    /// operation is one accelerator run; other internal nodes merge at one
    /// element per cycle (set operations on uncompressed lists, DCU
    /// bypassed).
    /// Sibling subtrees run concurrently (inter-query parallelism), so a
    /// node's start time is the max of its children.
    /// Returns `(results, accelerator cycles, host phrase verifications)`.
    fn eval_iiu(&self, q: &Query) -> Result<EvalOutcome, SearchError> {
        let index = self.index();
        let sq = match q {
            Query::Term(t) => SimQuery::Single(t_id(index, t)?),
            Query::Phrase(terms) => {
                let pos_index = self.positions.ok_or(IndexError::PositionsUnavailable)?;
                // Chain the terms into intersections (accelerated), then
                // verify consecutive positions on the host.
                let chain = terms
                    .iter()
                    .map(|t| Query::term(t.clone()))
                    .reduce(Query::and)
                    .ok_or(IndexError::PositionsUnavailable)?;
                let (candidates, cycles, _) = self.eval_iiu(&chain)?;
                let checks = candidates.len() as u64;
                let verified = candidates
                    .into_iter()
                    .filter(|&(d, _)| pos_index.phrase_in_doc(terms, d))
                    .collect();
                return Ok((verified, cycles, checks));
            }
            // Two-term set operations map straight onto the accelerator.
            Query::And(a, b) | Query::Or(a, b) => match q.primitive() {
                Some(Primitive::And(x, y)) => {
                    SimQuery::Intersect(t_id(index, x)?, t_id(index, y)?)
                }
                Some(Primitive::Or(x, y)) => SimQuery::Union(t_id(index, x)?, t_id(index, y)?),
                _ => {
                    let (la, ca, va) = self.eval_iiu(a)?;
                    let (lb, cb, vb) = self.eval_iiu(b)?;
                    let mut counts = OpCounts::default();
                    let intersect = matches!(q, Query::And(_, _));
                    let merged = merge_lists(&la, &lb, intersect, &mut counts);
                    // One comparison per cycle through the merge unit.
                    let cycles = ca.max(cb) + counts.comparisons;
                    return Ok((merged, cycles, va + vb));
                }
            },
        };
        let run = self.machine.run_query(sq, self.cores)?;
        Ok((run.results, run.cycles, 0))
    }
}

/// `(scored results, accelerator cycles, host phrase verifications)`.
type EvalOutcome = (Vec<(DocId, Fixed)>, u64, u64);

/// Linear merge of two scored lists; `intersect` keeps only matches.
pub(crate) fn merge_lists(
    la: &[(DocId, Fixed)],
    lb: &[(DocId, Fixed)],
    intersect: bool,
    counts: &mut OpCounts,
) -> Vec<(DocId, Fixed)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < la.len() && j < lb.len() {
        counts.comparisons += 1;
        match la[i].0.cmp(&lb[j].0) {
            std::cmp::Ordering::Less => {
                if !intersect {
                    out.push(la[i]);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if !intersect {
                    out.push(lb[j]);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((la[i].0, la[i].1.saturating_add(lb[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    if !intersect {
        out.extend_from_slice(&la[i..]);
        out.extend_from_slice(&lb[j..]);
        counts.comparisons += (la.len() - i + lb.len() - j) as u64;
    }
    out
}

impl SearchEngine for IiuSearchEngine<'_> {
    fn search(&mut self, query: &Query, k: usize) -> Result<SearchResponse, SearchError> {
        let index = self.index();
        let mut degraded = Vec::new();
        let Some(query) = prune_query(index, query, &mut degraded) else {
            return Ok(SearchResponse::empty(degraded));
        };
        let query = &query;
        let (results, cycles, phrase_checks) = self.eval_iiu(query)?;

        let candidates = results.len() as u64;
        let clock = self.machine.config().clock_ghz;
        // Phrase verification runs on the host, alongside top-k.
        let verify_ns = phrase_checks as f64 * 40.0 / (self.host.freq_ghz * self.host.ipc);
        Ok(SearchResponse {
            hits: to_hits(&results, k),
            candidates,
            breakdown: LatencyBreakdown {
                dispatch_ns: self.host.dispatch_ns,
                device_ns: cycles as f64 / clock,
                topk_ns: self.host.topk_ns(candidates) + verify_ns,
            },
            degraded,
        })
    }
}
