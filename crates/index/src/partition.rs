//! Block partitioning of posting lists (paper §3.2).
//!
//! The IIU scheme chooses block boundaries with dynamic programming so that
//! the total storage cost `Σ C(B_i)` with
//! `C(B_i) = (b_dn + b_tf) · |B_i| + 96` bits is minimized, subject to a
//! `maxSize` limit on the block length (blocks hold at most `maxSize`
//! postings) that controls the space/parallelism tradeoff (Fig. 14; the
//! paper settles on `maxSize = 256`). A fixed-length partitioner
//! (Lucene-style 128-posting blocks) is provided as the baseline.
//!
//! The DP returns the exact optimum, not an approximation, and the same
//! block lengths (ties included) as a full scan of every block start. It
//! stops each backward scan as soon as no earlier start can win (the proof
//! is on `dynamic_partition`), which leaves the worst case at
//! `O(n · maxSize)` but cuts the candidates per posting on the generated
//! 100k-doc corpus at `maxSize = 256` from ~88 to ~22. Each candidate costs
//! a slope-table load instead of a virtual codec call.

use std::sync::OnceLock;

use crate::bitpack::bits_for;
use crate::block::MAX_BLOCK_LEN;
use crate::codec::CodecId;
use crate::posting::PostingList;

/// The paper's default `maxSize` (§3.2, chosen from the Fig. 14 sweep).
pub const DEFAULT_MAX_SIZE: usize = 256;

/// Lucene's fixed block length, used by the baseline scheme.
pub const LUCENE_BLOCK_LEN: usize = 128;

/// Strategy for splitting a posting list into blocks.
///
/// # Example
///
/// ```
/// use iiu_index::{Partitioner, Posting, PostingList};
/// let list = PostingList::from_sorted(
///     (0..300u32).map(|i| Posting::new(i * 7, 1)).collect(),
/// );
/// let dynamic = Partitioner::dynamic(256).partition(&list);
/// assert_eq!(dynamic.iter().sum::<usize>(), 300);
/// let fixed = Partitioner::fixed(128).partition(&list);
/// assert_eq!(fixed, vec![128, 128, 44]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Fixed-length blocks of the given size (static partitioning; the
    /// Lucene baseline uses 128).
    Fixed {
        /// Block length in postings.
        block_len: usize,
    },
    /// Cost-optimal dynamic programming partitioning with blocks of at most
    /// `max_size` postings.
    Dynamic {
        /// Upper bound on block length (the paper's `maxSize`).
        max_size: usize,
    },
}

impl Partitioner {
    /// Fixed-length partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is 0 or exceeds [`MAX_BLOCK_LEN`].
    pub fn fixed(block_len: usize) -> Self {
        assert!(
            (1..=MAX_BLOCK_LEN).contains(&block_len),
            "block length must be in 1..={MAX_BLOCK_LEN}"
        );
        Partitioner::Fixed { block_len }
    }

    /// Dynamic partitioning with the given `maxSize`.
    ///
    /// # Panics
    ///
    /// Panics if `max_size` is 0 or exceeds [`MAX_BLOCK_LEN`].
    pub fn dynamic(max_size: usize) -> Self {
        assert!(
            (1..=MAX_BLOCK_LEN).contains(&max_size),
            "maxSize must be in 1..={MAX_BLOCK_LEN}"
        );
        Partitioner::Dynamic { max_size }
    }

    /// Computes block lengths for `list` under the default codec's cost
    /// model (the paper's Eq. 3). The lengths sum to `list.len()`; an
    /// empty list yields an empty partition.
    pub fn partition(&self, list: &PostingList) -> Vec<usize> {
        self.partition_for(list, CodecId::default())
    }

    /// Computes block lengths for `list`, minimizing `codec`'s
    /// bits-per-posting model ([`crate::codec::BlockCodec::block_cost_bits`])
    /// instead of the hardcoded `(b_dn + b_tf)·|B| + 96`. Fixed
    /// partitioning ignores the model by construction.
    pub fn partition_for(&self, list: &PostingList, codec: CodecId) -> Vec<usize> {
        match *self {
            Partitioner::Fixed { block_len } => fixed_partition(list.len(), block_len),
            Partitioner::Dynamic { max_size } => dynamic_partition(list, max_size, codec),
        }
    }

    /// Total model cost in bits of the partition this strategy chooses for
    /// `list` under the default codec (Eq. 3 summed over blocks).
    pub fn cost_bits(&self, list: &PostingList) -> u64 {
        self.cost_bits_for(list, CodecId::default())
    }

    /// Total model cost in bits under `codec`'s cost model of the
    /// partition this strategy chooses for `list` *under that model*.
    pub fn cost_bits_for(&self, list: &PostingList, codec: CodecId) -> u64 {
        partition_cost_bits_for(list, &self.partition_for(list, codec), codec)
    }
}

impl Default for Partitioner {
    fn default() -> Self {
        Partitioner::Dynamic { max_size: DEFAULT_MAX_SIZE }
    }
}

/// Splits `n` postings into fixed-length chunks.
fn fixed_partition(n: usize, block_len: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n / block_len + 1);
    let mut left = n;
    while left > 0 {
        let take = left.min(block_len);
        out.push(take);
        left -= take;
    }
    out
}

/// Number of distinct widths of a `u32` (0..=32 bits).
const WIDTHS: usize = 33;

/// One codec's block cost model, tabulated over every width pair:
/// `block_cost_bits(len, g, t) = len · slope[g][t] + overhead`, the affine
/// form [`crate::codec::BlockCodec::block_cost_bits`] promises. Built once
/// per process, so the DP's inner loop is a table load rather than a call
/// through `&dyn BlockCodec`.
struct CostModel {
    slope: [[u64; WIDTHS]; WIDTHS],
    overhead: u64,
}

impl CostModel {
    fn of(codec: CodecId) -> &'static CostModel {
        static MODELS: OnceLock<[CostModel; CodecId::ALL.len()]> = OnceLock::new();
        let models = MODELS.get_or_init(|| CodecId::ALL.map(CostModel::tabulate));
        &models[usize::from(codec.as_u8())]
    }

    fn tabulate(codec: CodecId) -> CostModel {
        let ops = codec.ops();
        let overhead = ops.block_cost_bits(0, 0, 0);
        let mut slope = [[0; WIDTHS]; WIDTHS];
        for (g, row) in (0u8..).zip(&mut slope) {
            for (t, s) in (0u8..).zip(row) {
                *s = ops.block_cost_bits(1, g, t) - overhead;
            }
        }
        CostModel { slope, overhead }
    }
}

/// Cost-optimal partition by dynamic programming.
///
/// `cost[i]` is the minimal cost of the first `i` postings;
/// `cost[i] = min_{1 <= len <= maxSize} cost[i - len] + C(block of len ending at i)`.
/// For each block end `i` the block start `j` is scanned downward from
/// `i - 1`, widening the running maxima of the stored d-gap and tf widths
/// one posting at a time. The scan stops early, exactly:
///
/// > Let `s` be the slope of block `[j−1, i)` and `j' < j` any earlier
/// > start. `[j', j)` is a legal block, so `cost[j] ≤ cost[j'] + C[j', j)`.
/// > `[j', i)` holds every width of `[j', j)` and of `[j−1, i)`, and the
/// > slope is monotone in both widths, so `C[j', i) − C[j', j) ≥ (i−j)·s`.
/// > Hence `cost[j'] + C[j', i) ≥ cost[j] + (i−j)·s`: once that reaches
/// > the best cost so far, no earlier start can beat it strictly.
///
/// A start replaces the best only when strictly cheaper, so ties keep the
/// latest start, and the early stop leaves both the optimum and the
/// tie-break of the full `O(n · maxSize)` scan unchanged. The worst case is
/// still `O(n · maxSize)` (equal gaps scan back to the previous block
/// boundary); on skewed gaps the scan stops after a few dozen candidates.
/// Space is `O(n)`, all of it freed on return.
fn dynamic_partition(list: &PostingList, max_size: usize, codec: CodecId) -> Vec<usize> {
    let postings = list.as_slice();
    let n = postings.len();
    if n == 0 {
        return Vec::new();
    }
    let model = CostModel::of(codec);

    // gap_w[k] = width of posting k's stored d-gap when it is *not* a block
    // start (block starts store 0; their docID comes from the skip value).
    let gap_w: Vec<u8> = std::iter::once(0)
        .chain(postings.windows(2).map(|w| bits_for(w[1].doc_id - w[0].doc_id)))
        .collect();
    let tf_w: Vec<u8> = postings.iter().map(|p| bits_for(p.tf)).collect();

    let mut cost = Vec::with_capacity(n + 1);
    let mut parent = Vec::with_capacity(n + 1);
    cost.push(0u64);
    parent.push(0usize);

    for i in 1..=n {
        let lo = i.saturating_sub(max_size);
        // Start j = i - 1: a one-posting block.
        let (mut g, mut t) = (0u8, tf_w[i - 1]);
        let mut len = 1u64;
        let mut cost_j = cost[i - 1];
        let mut best = cost_j + model.slope[0][usize::from(t)] + model.overhead;
        let mut best_j = i - 1;
        // Entering start j - 1 turns posting j's stored gap from 0 into its
        // d-gap and adds posting j - 1's tf.
        let entering =
            gap_w[lo + 1..i].iter().zip(&tf_w[lo..i - 1]).zip(&cost[lo..i - 1]).rev();
        for ((&gw, &tw), &cost_prev) in entering {
            g = g.max(gw);
            t = t.max(tw);
            let s = model.slope[usize::from(g)][usize::from(t)];
            // The bound of the proof above: (i − j)·s past cost[j].
            let span = len * s;
            if cost_j + span >= best {
                break;
            }
            len += 1;
            let c = cost_prev + span + s + model.overhead;
            if c < best {
                best = c;
                best_j = i - len as usize;
            }
            cost_j = cost_prev;
        }
        cost.push(best);
        parent.push(best_j);
    }

    // Walk parents back to recover block lengths.
    let mut lens = Vec::new();
    let mut i = n;
    while i > 0 {
        let j = parent[i];
        lens.push(i - j);
        i = j;
    }
    lens.reverse();
    lens
}

/// Model cost in bits (Eq. 3, default codec) of an arbitrary partition of
/// `list`.
///
/// # Panics
///
/// Panics if the partition does not cover the list exactly.
pub fn partition_cost_bits(list: &PostingList, block_lens: &[usize]) -> u64 {
    partition_cost_bits_for(list, block_lens, CodecId::default())
}

/// Model cost in bits under `codec`'s cost model of an arbitrary partition
/// of `list`.
///
/// # Panics
///
/// Panics if the partition does not cover the list exactly.
pub fn partition_cost_bits_for(
    list: &PostingList,
    block_lens: &[usize],
    codec: CodecId,
) -> u64 {
    let postings = list.as_slice();
    assert_eq!(
        block_lens.iter().sum::<usize>(),
        postings.len(),
        "partition must cover the list exactly"
    );
    let ops = codec.ops();
    let mut total = 0u64;
    let mut start = 0usize;
    for &len in block_lens {
        let block = &postings[start..start + len];
        let mut gmax = 0u32;
        let mut tmax = 0u32;
        for (k, p) in block.iter().enumerate() {
            if k > 0 {
                gmax = gmax.max(p.doc_id - block[k - 1].doc_id);
            }
            tmax = tmax.max(p.tf);
        }
        total += ops.block_cost_bits(len as u64, bits_for(gmax), bits_for(tmax));
        start += len;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::Posting;
    use proptest::prelude::*;

    fn list_from_ids(ids: &[u32]) -> PostingList {
        PostingList::from_sorted(ids.iter().map(|&d| Posting::new(d, 1)).collect())
    }

    /// The full `O(n · maxSize)` scan [`dynamic_partition`] replaced: every
    /// start in the window, one codec call per candidate. The oracle the
    /// early-stop DP must match block for block, ties included.
    fn reference_partition(list: &PostingList, max_size: usize, codec: CodecId) -> Vec<usize> {
        let postings = list.as_slice();
        let n = postings.len();
        if n == 0 {
            return Vec::new();
        }
        let ops = codec.ops();
        let mut gaps = vec![0u32; n];
        for k in 1..n {
            gaps[k] = postings[k].doc_id - postings[k - 1].doc_id;
        }
        let mut cost = vec![u64::MAX; n + 1];
        let mut parent = vec![0usize; n + 1];
        cost[0] = 0;
        for i in 1..=n {
            let lo = i.saturating_sub(max_size);
            let mut gmax = 0u32;
            let mut tmax = postings[i - 1].tf;
            let mut j = i - 1;
            loop {
                let block_cost =
                    ops.block_cost_bits((i - j) as u64, bits_for(gmax), bits_for(tmax));
                let c = cost[j].saturating_add(block_cost);
                if c < cost[i] {
                    cost[i] = c;
                    parent[i] = j;
                }
                if j == lo {
                    break;
                }
                gmax = gmax.max(gaps[j]);
                tmax = tmax.max(postings[j - 1].tf);
                j -= 1;
            }
        }
        let mut lens = Vec::new();
        let mut i = n;
        while i > 0 {
            lens.push(i - parent[i]);
            i = parent[i];
        }
        lens.reverse();
        lens
    }

    /// Lists shaped to stress the early stop: small-gap runs broken by
    /// outlier gaps and tf spikes, lists of one equal gap throughout, and
    /// one-posting lists; most are shorter than the larger `maxSize`s.
    fn arb_list() -> impl Strategy<Value = PostingList> {
        let gap = prop_oneof![12 => 1u32..8, 2 => 8u32..300, 1 => 1000u32..1 << 22];
        let tf = prop_oneof![12 => 1u32..4, 1 => 100u32..1 << 20];
        let mixed = proptest::collection::vec((gap, tf), 1..500).prop_map(|pairs| {
            let mut doc = 0u32;
            let postings = pairs.into_iter().map(|(g, tf)| {
                doc += g;
                Posting::new(doc, tf)
            });
            PostingList::from_sorted(postings.collect())
        });
        let equal = (1u32..50, 1u32..500, 1u32..3).prop_map(|(gap, n, tf)| {
            PostingList::from_sorted((0..n).map(|k| Posting::new(k * gap, tf)).collect())
        });
        let single = (0u32..u32::MAX, 1u32..u32::MAX)
            .prop_map(|(doc, tf)| PostingList::from_sorted(vec![Posting::new(doc, tf)]));
        prop_oneof![6 => mixed, 2 => equal, 1 => single]
    }

    /// Brute-force optimal cost over all partitions (exponential; tiny n only).
    fn brute_force_cost(list: &PostingList, max_size: usize) -> u64 {
        fn rec(
            list: &PostingList,
            max_size: usize,
            from: usize,
            lens: &mut Vec<usize>,
            best: &mut u64,
        ) {
            let n = list.len();
            if from == n {
                let c = partition_cost_bits(list, lens);
                *best = (*best).min(c);
                return;
            }
            for len in 1..=max_size.min(n - from) {
                lens.push(len);
                rec(list, max_size, from + len, lens, best);
                lens.pop();
            }
        }
        let mut best = u64::MAX;
        rec(list, max_size, 0, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn fixed_partition_lengths() {
        assert_eq!(fixed_partition(0, 128), Vec::<usize>::new());
        assert_eq!(fixed_partition(128, 128), vec![128]);
        assert_eq!(fixed_partition(129, 128), vec![128, 1]);
        assert_eq!(fixed_partition(300, 100), vec![100, 100, 100]);
    }

    #[test]
    fn dynamic_covers_list() {
        let mut ids = Vec::with_capacity(1000);
        let mut acc = 0u32;
        for i in 0..1000u32 {
            acc += i * 13 % 97 + 1;
            ids.push(acc);
        }
        let l = list_from_ids(&ids);
        let p = Partitioner::dynamic(256).partition(&l);
        assert_eq!(p.iter().sum::<usize>(), l.len());
        assert!(p.iter().all(|&len| (1..=256).contains(&len)));
    }

    #[test]
    fn dynamic_splits_around_outlier() {
        // A run of tiny gaps, one huge outlier gap, then tiny gaps again.
        // Dynamic partitioning should isolate the outlier so the small-gap
        // runs keep a narrow bitwidth.
        let mut ids: Vec<u32> = (0..64).collect();
        ids.extend((0..64u32).map(|i| (1 << 20) + i));
        let l = list_from_ids(&ids);
        let dynamic = Partitioner::dynamic(256).cost_bits(&l);
        let fixed = Partitioner::fixed(128).cost_bits(&l);
        assert!(
            dynamic < fixed,
            "dynamic ({dynamic} bits) should beat fixed ({fixed} bits) on outlier data"
        );
    }

    #[test]
    fn dynamic_matches_brute_force_small() {
        let cases: Vec<Vec<u32>> = vec![
            vec![0, 2, 11, 20, 38, 46],
            vec![7, 10, 15, 54, 72, 134, 170],
            vec![0, 1, 2, 3, 1000, 1001, 1002],
            vec![5],
            vec![0, 1 << 20],
        ];
        for ids in cases {
            let l = list_from_ids(&ids);
            let dp = Partitioner::dynamic(4).cost_bits(&l);
            let bf = brute_force_cost(&l, 4);
            assert_eq!(dp, bf, "DP must be optimal for {ids:?}");
        }
    }

    #[test]
    fn dynamic_never_worse_than_fixed_same_limit() {
        let ids: Vec<u32> = (0..500u32).map(|i| i * 31 + (i % 17) * 1000).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let l = list_from_ids(&sorted);
        for max in [16usize, 64, 128, 256] {
            let dp = Partitioner::dynamic(max).cost_bits(&l);
            let fx = Partitioner::fixed(max).cost_bits(&l);
            assert!(dp <= fx, "dynamic({max})={dp} must be <= fixed({max})={fx}");
        }
    }

    #[test]
    fn larger_max_size_never_costs_more() {
        let ids: Vec<u32> = (0..800u32).map(|i| i * 3 + (i / 100) * 50_000).collect();
        let l = list_from_ids(&ids);
        let mut prev = u64::MAX;
        for max in [16usize, 32, 64, 128, 256, 512] {
            let c = Partitioner::dynamic(max).cost_bits(&l);
            assert!(c <= prev, "cost must be non-increasing in maxSize");
            prev = c;
        }
    }

    #[test]
    fn codec_aware_partition_optimizes_its_own_model() {
        // A gap pattern where byte-aligned Stream-VByte wants different
        // boundaries than bit-exact packing: under its own model the
        // codec-aware DP must never lose to the BitPack-chosen partition.
        let ids: Vec<u32> = (0..600u32).map(|i| i * 3 + (i % 11) * 700).collect();
        let mut sorted = ids;
        sorted.sort_unstable();
        sorted.dedup();
        let l = list_from_ids(&sorted);
        for codec in CodecId::ALL {
            let own = Partitioner::dynamic(256).partition_for(&l, codec);
            let bp = Partitioner::dynamic(256).partition_for(&l, CodecId::BitPack);
            let own_cost = partition_cost_bits_for(&l, &own, codec);
            let bp_cost = partition_cost_bits_for(&l, &bp, codec);
            assert!(
                own_cost <= bp_cost,
                "{codec}: own partition {own_cost} bits > bitpack partition {bp_cost} bits"
            );
        }
    }

    #[test]
    #[should_panic(expected = "maxSize")]
    fn dynamic_rejects_zero() {
        let _ = Partitioner::dynamic(0);
    }

    #[test]
    fn empty_list_empty_partition() {
        let l = PostingList::new();
        assert!(Partitioner::default().partition(&l).is_empty());
        assert_eq!(Partitioner::default().cost_bits(&l), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_dp_optimal(ids in proptest::collection::btree_set(0u32..5000, 1..9)) {
            let ids: Vec<u32> = ids.into_iter().collect();
            let l = list_from_ids(&ids);
            let dp = Partitioner::dynamic(3).cost_bits(&l);
            let bf = brute_force_cost(&l, 3);
            prop_assert_eq!(dp, bf);
        }

        #[test]
        fn prop_early_stop_matches_full_scan(list in arb_list()) {
            for codec in CodecId::ALL {
                for max_size in [1usize, 2, 3, 16, 256, 2048] {
                    prop_assert_eq!(
                        Partitioner::dynamic(max_size).partition_for(&list, codec),
                        reference_partition(&list, max_size, codec),
                        "{} maxSize {}", codec, max_size
                    );
                }
            }
        }

        #[test]
        fn prop_partition_valid(ids in proptest::collection::btree_set(0u32..1 << 28, 1..400)) {
            let ids: Vec<u32> = ids.into_iter().collect();
            let l = list_from_ids(&ids);
            let p = Partitioner::dynamic(64).partition(&l);
            prop_assert_eq!(p.iter().sum::<usize>(), l.len());
            prop_assert!(p.iter().all(|&len| (1..=64).contains(&len)));
            // Encoding with the chosen partition must round-trip.
            let enc = crate::block::EncodedList::encode(&l, &p).unwrap();
            prop_assert_eq!(enc.model_bits(), partition_cost_bits(&l, &p));
            prop_assert_eq!(enc.decode_all(), l);
        }
    }
}
