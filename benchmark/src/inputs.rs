//! Inputs, all derived from `--seed`: the corpus seed, the query pools
//! and the op streams, plus the fingerprints that pin them.

use iiu_core::{
    estimate_query_cost, CpuSearchEngine, Hit, Query, SearchEngine, HEAVY_DF_THRESHOLD,
};
use iiu_index::InvertedIndex;
use iiu_workloads::GeneratedCorpus;

use crate::rng::{Cdf, Fnv1a, SplitMix64};

/// Entries in every query pool.
pub const POOL: usize = 1024;
/// Ops in a pre-drawn stream; generators cycle through it, so a faster
/// build sees the same mix, only more of it.
pub const STREAM: usize = 1 << 16;
/// Hits asked for by every query.
pub const K: usize = 10;

/// Light terms: long enough to span blocks, short enough that the hot
/// ones stay in the 32-entry decoded-block cache.
const LIGHT_DF: std::ops::Range<u64> = 16..1024;
/// Mild preference for longer light lists, the bias the product's own
/// query sampler documents for TREC-like queries.
const LIGHT_ALPHA: f64 = 0.35;

/// Sub-stream labels for [`SplitMix64::substream`].
pub mod label {
    pub const CORPUS: u64 = 1;
    pub const LIGHT_POOL: u64 = 2;
    pub const HEAVY_POOL: u64 = 3;
    pub const STREAM: u64 = 4;
}

/// The corpus seed for `--seed`.
pub fn corpus_seed(seed: u64) -> u64 {
    SplitMix64::substream(seed, label::CORPUS).next_u64()
}

/// One pool query with the answer the oracle gave for it.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    pub text: String,
    /// Whether the scheduler's cost estimate routes it to fan-out.
    pub heavy: bool,
    pub reference: Vec<Hit>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermClass {
    Light,
    Heavy,
}

/// Draws `n` query texts over the terms of one class: equal thirds
/// single / `AND` / `OR`, the two terms of a pair distinct whenever the
/// class has two terms.
///
/// # Panics
///
/// Panics when the class is empty; the corpus sizes the benchmark uses
/// always populate both.
pub fn draw_texts(
    terms: &[(&str, u64)],
    class: TermClass,
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<String> {
    let members: Vec<(&str, u64)> = terms
        .iter()
        .copied()
        .filter(|&(_, df)| match class {
            TermClass::Light => LIGHT_DF.contains(&df),
            TermClass::Heavy => df >= HEAVY_DF_THRESHOLD,
        })
        .collect();
    assert!(!members.is_empty(), "no {class:?} terms in the corpus");
    let cdf = Cdf::new(members.iter().map(|&(_, df)| match class {
        TermClass::Light => (df as f64).powf(LIGHT_ALPHA),
        TermClass::Heavy => df as f64,
    }));
    (0..n)
        .map(|i| {
            let a = cdf.sample(rng);
            let mut b = cdf.sample(rng);
            for _ in 0..16 {
                if b != a {
                    break;
                }
                b = cdf.sample(rng);
            }
            let (a, b) = (members[a].0, members[b].0);
            match i % 3 {
                0 => a.to_string(),
                1 => format!("{a} AND {b}"),
                _ => format!("{a} OR {b}"),
            }
        })
        .collect()
}

/// The pool entry of every op, in order.
#[derive(Debug, Clone)]
pub struct Stream {
    pub ops: Vec<u16>,
}

impl Stream {
    /// Uniform draws over a pool of [`POOL`] entries.
    pub fn uniform(rng: &mut SplitMix64) -> Self {
        Stream { ops: (0..STREAM).map(|_| rng.below(POOL) as u16).collect() }
    }

    /// Zipf(1.0) popularity over the first [`POOL`] entries (rank `r` is
    /// drawn with weight `1/(r+1)`; which entry holds which rank is
    /// shuffled by the seed), except that a draw is, with probability
    /// `heavy_share`, uniform over the `POOL` entries after those.
    ///
    /// The heavy draws are uniform on purpose. Under Zipf the few heavy
    /// queries on the top ranks would carry most of the heavy traffic,
    /// and since a heavy query costs anything from 0.1 to 1 ms, which
    /// ones they happened to be moved `op_p99_us` by 40 % seed to seed.
    pub fn zipf_with_heavy(heavy_share: f64, rng: &mut SplitMix64) -> Self {
        let mut entry_at_rank: Vec<u16> = (0..POOL as u16).collect();
        rng.shuffle(&mut entry_at_rank);
        let cdf = Cdf::zipf(POOL, 1.0);
        let ops = (0..STREAM)
            .map(|_| {
                if rng.next_f64() < heavy_share {
                    (POOL + rng.below(POOL)) as u16
                } else {
                    entry_at_rank[cdf.sample(rng)]
                }
            })
            .collect();
        Stream { ops }
    }

    /// Share of the stream's ops whose entry is heavy.
    pub fn heavy_share(&self, pool: &[PoolEntry]) -> f64 {
        let heavy = self.ops.iter().filter(|&&e| pool[e as usize].heavy).count();
        heavy as f64 / self.ops.len() as f64
    }

    pub fn fingerprint(&self) -> String {
        let mut h = Fnv1a::default();
        for &op in &self.ops {
            h.u32(u32::from(op));
        }
        h.hex()
    }
}

pub fn pool_fingerprint(texts: &[String]) -> String {
    let mut h = Fnv1a::default();
    for t in texts {
        h.str(t);
    }
    h.hex()
}

/// Format-independent fingerprint of a corpus: terms, document
/// frequencies, every posting, every document length.
pub fn corpus_fingerprint(corpus: &GeneratedCorpus) -> String {
    let mut h = Fnv1a::default();
    for (term, list) in &corpus.lists {
        h.str(term);
        h.u64(list.len() as u64);
        for p in list.iter() {
            h.u32(p.doc_id);
            h.u32(p.tf);
        }
    }
    for &len in &corpus.doc_lens {
        h.u32(len);
    }
    h.hex()
}

/// Answers every pool query on the oracle: an unsharded, unpruned engine
/// over an index as built (not as reopened, sharded or grown).
pub fn reference_pool(built: &InvertedIndex, texts: Vec<String>) -> Vec<PoolEntry> {
    let mut oracle = CpuSearchEngine::new(built);
    texts
        .into_iter()
        .map(|text| {
            let query = Query::parse(&text).expect("pool texts parse");
            let reference =
                oracle.search(&query, K).expect("oracle answers every pool query").hits;
            let heavy =
                estimate_query_cost(built, &query.terms()).is_heavy(HEAVY_DF_THRESHOLD);
            PoolEntry { text, heavy, reference }
        })
        .collect()
}

/// Bit-for-bit comparison of two hit lists.
pub fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc_id == y.doc_id && x.score.to_bits() == y.score.to_bits())
}

/// Total postings of an index.
pub fn postings(index: &InvertedIndex) -> u64 {
    index.terms().iter().map(|t| t.df).sum()
}

/// `(term, document frequency)` of every term of an index.
pub fn term_dfs(index: &InvertedIndex) -> Vec<(&str, u64)> {
    index.terms().iter().map(|t| (t.term.as_str(), t.df)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_stream_keeps_the_heavy_share_and_the_two_halves_apart() {
        let s = Stream::zipf_with_heavy(0.1, &mut SplitMix64::new(3));
        let heavy =
            s.ops.iter().filter(|&&e| e as usize >= POOL).count() as f64 / STREAM as f64;
        assert!((heavy - 0.1).abs() < 0.005, "{heavy}");
        assert!(s.ops.iter().all(|&e| (e as usize) < 2 * POOL));
        // The light half is skewed: its most popular entry takes about
        // 1/H(1024) = 13 % of the light draws.
        let mut counts = vec![0u32; POOL];
        s.ops.iter().filter(|&&e| (e as usize) < POOL).for_each(|&e| counts[e as usize] += 1);
        let top = f64::from(*counts.iter().max().expect("POOL > 0")) / (STREAM as f64 * 0.9);
        assert!((top - 0.133).abs() < 0.02, "{top}");
        let light_only = Stream::zipf_with_heavy(0.0, &mut SplitMix64::new(3));
        assert!(light_only.ops.iter().all(|&e| (e as usize) < POOL));
    }

    #[test]
    fn corpus_seed_depends_on_seed_only() {
        assert_eq!(corpus_seed(1), corpus_seed(1));
        assert_ne!(corpus_seed(1), corpus_seed(2));
    }
}
