//! Top-k selection with a size-k min-heap (the paper's Fig. 13 pseudocode,
//! executed on the host CPU in both the baseline and the IIU system).
//!
//! [`rank_cmp`] is the single definition of result order — descending
//! score, ties broken by ascending docID — shared by the exhaustive heap,
//! the pruned-mode [`FusedTopK`], and the simulator's host heap, so pruned
//! vs exhaustive comparisons can be exact rather than set-based.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

use iiu_index::{DocId, Fixed};

/// A scored document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Document identifier.
    pub doc_id: DocId,
    /// Query score (larger is better).
    pub score: f64,
}

/// The canonical result ordering: descending score, equal scores by
/// ascending docID. `Less` means `a` ranks ahead of `b`. Every ranked
/// surface (exhaustive top-k, the fused pruning heap, the simulator's
/// host heap) sorts with this one function.
pub fn rank_cmp(a: &Hit, b: &Hit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.doc_id.cmp(&b.doc_id))
}

/// Wrapper giving `Hit` the min-heap ordering the algorithm needs:
/// `BinaryHeap` is a max-heap, so its top is the *worst-ranked* hit under
/// [`rank_cmp`] — the minimum score, ties evicting the largest docID —
/// and the final drain matches a full [`rank_cmp`] sort.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinScore(Hit);

impl Eq for MinScore {}

impl Ord for MinScore {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(&self.0, &other.0)
    }
}

impl PartialOrd for MinScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Selects the `k` highest-scoring hits, returned in descending score
/// order (ties broken by ascending docID).
///
/// This is exactly the paper's algorithm: a size-k priority queue that
/// admits a candidate only if it beats the current minimum.
///
/// # Example
///
/// ```
/// use iiu_baseline::topk::{top_k, Hit};
/// let hits = vec![
///     Hit { doc_id: 1, score: 0.5 },
///     Hit { doc_id: 2, score: 2.0 },
///     Hit { doc_id: 3, score: 1.0 },
/// ];
/// let top = top_k(hits, 2);
/// assert_eq!(top[0].doc_id, 2);
/// assert_eq!(top[1].doc_id, 3);
/// ```
pub fn top_k(candidates: impl IntoIterator<Item = Hit>, k: usize) -> Vec<Hit> {
    if k == 0 {
        return Vec::new();
    }
    let mut pq: BinaryHeap<MinScore> = BinaryHeap::with_capacity(k + 1);
    for hit in candidates {
        if pq.len() < k {
            pq.push(MinScore(hit));
        } else if let Some(min) = pq.peek() {
            if min.0.score < hit.score {
                pq.pop();
                pq.push(MinScore(hit));
            }
        }
    }
    let mut out: Vec<Hit> = pq.into_iter().map(|m| m.0).collect();
    out.sort_by(rank_cmp);
    out
}

/// A fixed-point hit in the fused heap (scores stay in the Q16.16 domain
/// so the admission threshold can be compared against block bounds without
/// conversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FixedHit {
    doc_id: DocId,
    score: Fixed,
}

/// Min-heap ordering for [`FixedHit`], the `Fixed`-domain mirror of
/// [`MinScore`]. `Fixed → f64` conversion is exact and monotone, so this
/// heap admits and evicts exactly the hits the f64 heap would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MinFixed(FixedHit);

impl Ord for MinFixed {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.score.cmp(&self.0.score).then_with(|| self.0.doc_id.cmp(&other.0.doc_id))
    }
}

impl PartialOrd for MinFixed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A size-k min-heap over fixed-point scores that exposes its admission
/// threshold, so scoring loops can skip whole blocks whose upper bound
/// cannot beat it (block-max pruning).
///
/// Admission is strict (`candidate > current minimum`), exactly like
/// [`top_k`]; with skipping gated on `bound <= threshold`, the pruned and
/// exhaustive paths admit the *same sequence* of hits and therefore return
/// bit-identical results.
#[derive(Debug, Clone)]
pub struct FusedTopK {
    k: usize,
    heap: BinaryHeap<MinFixed>,
}

impl FusedTopK {
    /// Creates an empty heap selecting the best `k` hits.
    pub fn new(k: usize) -> Self {
        FusedTopK { k, heap: BinaryHeap::with_capacity(k.saturating_add(1).min(1 << 20)) }
    }

    /// Number of hits currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no hit has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers a candidate; admitted only while the heap is filling or when
    /// it strictly beats the current minimum (ties never evict).
    pub fn push(&mut self, doc_id: DocId, score: Fixed) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(MinFixed(FixedHit { doc_id, score }));
        } else if let Some(min) = self.heap.peek() {
            if min.0.score < score {
                self.heap.pop();
                self.heap.push(MinFixed(FixedHit { doc_id, score }));
            }
        }
    }

    /// The pruning threshold: any candidate with `score <= threshold` is
    /// guaranteed to be refused, so blocks whose upper bound is at or
    /// below it may be skipped without changing the result.
    ///
    /// `None` while the heap is still filling (nothing may be skipped);
    /// for `k == 0` every candidate is refused, so the threshold is the
    /// maximum representable score.
    pub fn threshold(&self) -> Option<Fixed> {
        if self.k == 0 {
            return Some(Fixed::from_raw(u32::MAX));
        }
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|m| m.0.score)
    }

    /// Drains into [`Hit`]s in canonical [`rank_cmp`] order — the same
    /// shape [`top_k`] returns.
    pub fn into_hits(self) -> Vec<Hit> {
        let mut out: Vec<Hit> = self
            .heap
            .into_iter()
            .map(|m| Hit { doc_id: m.0.doc_id, score: m.0.score.to_f64() })
            .collect();
        out.sort_by(rank_cmp);
        out
    }
}

/// A pruning threshold shared across shards executing one query.
///
/// Each shard publishes its local [`FusedTopK::threshold`] as it grows;
/// late shards then read the maximum published so far and skip blocks
/// earlier shards already priced out. Two rules make this safe:
///
/// * **Publication is monotone.** [`publish`](Self::publish) uses
///   `fetch_max`, never a plain store: with a racy store, a shard holding
///   a *stale* low threshold could overwrite a higher one already
///   published, and a shard that read between the two values would skip a
///   block it was never entitled to skip. `fetch_max` makes the visible
///   value non-decreasing under every interleaving, so any value a shard
///   reads was genuinely reached by some shard's heap. `Relaxed` ordering
///   suffices — the value itself carries the invariant; no other memory
///   is published alongside it.
/// * **Foreign thresholds are strict.** A published value `S` proves that
///   some shard holds k hits scoring `>= S` — so scores `< S` are out of
///   the global top-k, but a score *equal* to `S` may still belong in it
///   (a tie at the global k-th boundary, won on docID).
///   [`strict`](Self::strict) therefore returns `S − 1`: under the
///   engines' skip rule `bound <= threshold`, that prices out exactly the
///   provably-dead scores `< S` and never a boundary tie. (A shard's *own* heap
///   threshold stays usable non-strictly, exactly as in single-shard
///   pruning, because local pushes happen in ascending docID order.)
///
/// The raw value is the Q16.16 bit pattern of the threshold; `0` (no
/// score can be below zero) doubles as "nothing published yet".
#[derive(Debug, Default)]
pub struct SharedThreshold(AtomicU32);

impl SharedThreshold {
    /// A threshold with nothing published yet.
    pub fn new() -> Self {
        SharedThreshold(AtomicU32::new(0))
    }

    /// Raises the shared threshold to at least `t`. Monotone under any
    /// interleaving: a concurrent publish of a smaller value can never
    /// lower what other shards see.
    ///
    /// Read before write: shards publish after every heap push, and all
    /// but the O(k log n) pushes that really raise the threshold offer a
    /// value at or below the published one. A `fetch_max` of such a value
    /// changes nothing yet still takes the cache line exclusive, so two
    /// shards running side by side would pass the line back and forth once
    /// per scored posting. The load keeps the line shared for those; the
    /// `fetch_max` stays for the raises, so a value that went up between
    /// the load and the write still cannot be lowered.
    pub fn publish(&self, t: Fixed) {
        let t = t.raw();
        if self.0.load(AtomicOrdering::Relaxed) < t {
            self.0.fetch_max(t, AtomicOrdering::Relaxed);
        }
    }

    /// The highest score provably refused by every shard, usable with the
    /// engines' non-strict skip rule (`bound <= threshold`). `None` until
    /// a nonzero threshold has been published.
    pub fn strict(&self) -> Option<Fixed> {
        let raw = self.0.load(AtomicOrdering::Relaxed);
        (raw > 0).then(|| Fixed::from_raw(raw - 1))
    }

    /// The raw published maximum (tests and introspection).
    pub fn raw(&self) -> u32 {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hit(doc_id: u32, score: f64) -> Hit {
        Hit { doc_id, score }
    }

    #[test]
    fn shared_threshold_is_monotone_and_strict() {
        let s = SharedThreshold::new();
        assert_eq!(s.strict(), None, "nothing published yet");
        s.publish(Fixed::from_f64(2.0));
        assert_eq!(s.raw(), Fixed::from_f64(2.0).raw());
        // Publishing a smaller value must not lower the visible maximum.
        s.publish(Fixed::from_f64(1.0));
        assert_eq!(s.raw(), Fixed::from_f64(2.0).raw());
        s.publish(Fixed::from_f64(3.0));
        assert_eq!(s.raw(), Fixed::from_f64(3.0).raw());
        // Strict reading: one ulp below the published value, so a
        // boundary tie (score == published) is never priced out.
        assert_eq!(s.strict(), Some(Fixed::from_raw(Fixed::from_f64(3.0).raw() - 1)));
    }

    #[test]
    fn shared_threshold_publish_races_keep_the_maximum() {
        // Regression for the publish protocol: hammer one threshold from
        // two threads publishing interleaved rising-and-falling values. A
        // racy relaxed *store* would let a stale low value overwrite a
        // higher one; `fetch_max` must keep the running maximum exact at
        // every step and end at the global maximum.
        let s = std::sync::Arc::new(SharedThreshold::new());
        let mut handles = Vec::new();
        for lane in 0..2u32 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                // Lane 0 publishes 1..=1000 ascending; lane 1 descending,
                // so late publishes in lane 1 are stale by construction.
                for i in 1..=1000u32 {
                    let v = if lane == 0 { i } else { 1001 - i };
                    s.publish(Fixed::from_raw(v));
                    let seen = s.raw();
                    assert!(seen >= v, "visible threshold dropped below a published value");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.raw(), 1000);
    }

    #[test]
    fn shared_threshold_readers_only_see_published_values() {
        // Two lanes publish seeded random values (most of them below the
        // running maximum, so both the skipped-write and the `fetch_max`
        // arm of `publish` run) and read between publishes. Every value a
        // reader sees must be one some lane really published — never a
        // torn or invented one — and the last one standing is the global
        // maximum.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lanes: Vec<Vec<u32>> = (0..2u64)
            .map(|lane| {
                let mut rng = StdRng::seed_from_u64(0x7E57 + lane);
                (0..20_000).map(|_| rng.gen_range(1..=1_000_000u32)).collect()
            })
            .collect();
        let published: std::collections::HashSet<u32> =
            lanes.iter().flatten().copied().collect();
        let s = SharedThreshold::new();
        let barrier = std::sync::Barrier::new(lanes.len());
        let seen: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter()
                .map(|values| {
                    let (s, barrier) = (&s, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut seen = Vec::with_capacity(2 * values.len());
                        for &v in values {
                            s.publish(Fixed::from_raw(v));
                            let raw = s.raw();
                            assert!(raw >= v, "a publish was lost: {raw} < {v}");
                            seen.push(raw);
                            // `strict` is the same value, one ulp down.
                            seen.push(s.strict().map_or(0, |f| f.raw() + 1));
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for lane in &seen {
            assert!(lane.iter().all(|v| published.contains(v)), "read an unpublished value");
            assert!(lane.windows(2).all(|w| w[0] <= w[1]), "visible threshold went down");
        }
        assert_eq!(s.raw(), *published.iter().max().unwrap());
    }

    #[test]
    fn fewer_candidates_than_k() {
        let top = top_k(vec![hit(1, 1.0), hit(2, 2.0)], 10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].doc_id, 2);
    }

    #[test]
    fn k_zero_returns_nothing() {
        assert!(top_k(vec![hit(1, 1.0)], 0).is_empty());
    }

    #[test]
    fn exact_selection_and_order() {
        let cands: Vec<Hit> = (0..100).map(|i| hit(i, f64::from(i % 10))).collect();
        let top = top_k(cands, 5);
        assert_eq!(top.len(), 5);
        assert!(top.iter().all(|h| h.score == 9.0));
        // Ties break by ascending docID.
        assert_eq!(top.iter().map(|h| h.doc_id).collect::<Vec<_>>(), vec![9, 19, 29, 39, 49]);
    }

    #[test]
    fn equal_minimum_is_not_replaced() {
        // A candidate equal to the heap minimum must not evict it
        // (pq.top().value < curr.score is strict in the paper).
        let top = top_k(vec![hit(1, 5.0), hit(2, 5.0), hit(3, 5.0)], 1);
        assert_eq!(top[0].doc_id, 1);
    }

    #[test]
    fn rank_cmp_orders_by_score_then_docid() {
        assert_eq!(rank_cmp(&hit(5, 2.0), &hit(1, 1.0)), std::cmp::Ordering::Less);
        assert_eq!(rank_cmp(&hit(1, 1.0), &hit(5, 2.0)), std::cmp::Ordering::Greater);
        assert_eq!(rank_cmp(&hit(1, 1.0), &hit(5, 1.0)), std::cmp::Ordering::Less);
        assert_eq!(rank_cmp(&hit(3, 1.0), &hit(3, 1.0)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn fused_threshold_lifecycle() {
        let mut f = FusedTopK::new(2);
        assert_eq!(f.threshold(), None, "filling heap must not prune");
        f.push(1, Fixed::from_f64(1.0));
        assert_eq!(f.threshold(), None);
        f.push(2, Fixed::from_f64(3.0));
        assert_eq!(f.threshold(), Some(Fixed::from_f64(1.0)));
        // Equal to the minimum: refused, threshold unchanged.
        f.push(3, Fixed::from_f64(1.0));
        assert_eq!(f.threshold(), Some(Fixed::from_f64(1.0)));
        // Strictly above: admitted, threshold grows.
        f.push(4, Fixed::from_f64(2.0));
        assert_eq!(f.threshold(), Some(Fixed::from_f64(2.0)));
        let hits = f.into_hits();
        assert_eq!(hits.iter().map(|h| h.doc_id).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn fused_k_zero_refuses_everything() {
        let mut f = FusedTopK::new(0);
        assert_eq!(f.threshold(), Some(Fixed::from_raw(u32::MAX)));
        f.push(1, Fixed::from_raw(u32::MAX));
        assert!(f.is_empty());
        assert!(f.into_hits().is_empty());
    }

    proptest! {
        /// The fused Fixed-domain heap returns exactly what [`top_k`]
        /// returns for the same candidate stream (scores converted the
        /// way the engines convert them).
        #[test]
        fn prop_fused_matches_top_k(
            raws in proptest::collection::vec(0u32..5_000_000, 0..300),
            k in 0usize..50,
        ) {
            let mut fused = FusedTopK::new(k);
            for (i, &r) in raws.iter().enumerate() {
                fused.push(i as u32, Fixed::from_raw(r));
            }
            let cands: Vec<Hit> = raws.iter().enumerate()
                .map(|(i, &r)| hit(i as u32, Fixed::from_raw(r).to_f64()))
                .collect();
            let want = top_k(cands, k);
            let got = fused.into_hits();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.doc_id, w.doc_id);
                prop_assert_eq!(g.score, w.score);
            }
        }

        #[test]
        fn prop_matches_full_sort(
            scores in proptest::collection::vec(0u32..1000, 0..300),
            k in 0usize..50,
        ) {
            let cands: Vec<Hit> = scores.iter().enumerate()
                .map(|(i, &s)| hit(i as u32, f64::from(s)))
                .collect();
            let got = top_k(cands.clone(), k);
            let mut want = cands;
            want.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap()
                .then_with(|| a.doc_id.cmp(&b.doc_id)));
            want.truncate(k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.score, w.score);
                prop_assert_eq!(g.doc_id, w.doc_id);
            }
        }
    }
}
