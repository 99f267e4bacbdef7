//! Query sampling (paper §5.1: "we uniformly sample 100 single-term ...
//! and double-term queries from TREC 2006 Terabyte Track with only those
//! terms present in each dataset").
//!
//! TREC query terms are real search terms, which are strongly biased toward
//! mid-to-high document frequency (people rarely search hapax legomena).
//! The sampler therefore draws terms with probability proportional to
//! `df^alpha`, restricted to a minimum document frequency, which mirrors
//! "TREC terms present in the dataset" without the TREC files.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iiu_index::InvertedIndex;

/// Samples query terms from an index's vocabulary.
#[derive(Debug)]
pub struct QuerySampler<'a> {
    index: &'a InvertedIndex,
    /// Candidate term ids with cumulative weights for sampling.
    candidates: Vec<u32>,
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl<'a> QuerySampler<'a> {
    /// Default df-bias exponent.
    pub const DEFAULT_ALPHA: f64 = 0.35;
    /// Default minimum document frequency for a query term.
    pub const DEFAULT_MIN_DF: u64 = 16;

    /// Creates a sampler over `index` with the default bias.
    ///
    /// # Panics
    ///
    /// Panics if no term in the index meets the minimum document frequency.
    pub fn new(index: &'a InvertedIndex, seed: u64) -> Self {
        Self::with_bias(index, seed, Self::DEFAULT_ALPHA, Self::DEFAULT_MIN_DF)
    }

    /// Creates a sampler drawing terms with probability `∝ df^alpha` among
    /// terms with `df >= min_df`.
    ///
    /// # Panics
    ///
    /// Panics if no term qualifies.
    pub fn with_bias(index: &'a InvertedIndex, seed: u64, alpha: f64, min_df: u64) -> Self {
        Self::with_df_range(index, seed, alpha, min_df..u64::MAX)
    }

    /// Creates a sampler drawing terms with probability `∝ df^alpha` among
    /// terms whose `df` lies in `df`.
    ///
    /// # Panics
    ///
    /// Panics if no term qualifies.
    pub fn with_df_range(
        index: &'a InvertedIndex,
        seed: u64,
        alpha: f64,
        df: std::ops::Range<u64>,
    ) -> Self {
        let mut candidates = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0.0f64;
        for (id, info) in index.terms().iter().enumerate() {
            if df.contains(&info.df) {
                acc += (info.df as f64).powf(alpha);
                candidates.push(id as u32);
                cumulative.push(acc);
            }
        }
        assert!(
            !candidates.is_empty(),
            "no term meets the minimum document frequency {} (below {})",
            df.start,
            df.end
        );
        QuerySampler { index, candidates, cumulative, rng: StdRng::seed_from_u64(seed) }
    }

    /// Redraw budget when hunting for a term distinct from a given one.
    const MAX_DISTINCT_DRAWS: usize = 16;

    /// Draws a term, redrawing a bounded number of times until it differs
    /// from `other`. A degenerate candidate set (e.g. a single qualifying
    /// term) exhausts the budget and yields the duplicate instead of
    /// looping forever — `a AND a` is still a valid query.
    pub fn term_distinct_from(&mut self, other: &str) -> &'a str {
        let mut b = self.term();
        for _ in 0..Self::MAX_DISTINCT_DRAWS {
            if b != other {
                break;
            }
            b = self.term();
        }
        b
    }

    /// Draws one term.
    pub fn term(&mut self) -> &'a str {
        // The constructor asserts `candidates` (and so `cumulative`) is
        // non-empty.
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let x = self.rng.gen_range(0.0..total);
        let i = self.cumulative.partition_point(|&c| c <= x);
        let id = self.candidates[i.min(self.candidates.len() - 1)];
        self.index.term_info(id).term.as_str()
    }

    /// Draws `n` single-term queries.
    pub fn single_queries(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.term().to_owned()).collect()
    }

    /// Draws `n` double-term queries (for intersection and union). Terms
    /// are distinct whenever the candidate set allows it; see
    /// [`Self::term_distinct_from`].
    pub fn pair_queries(&mut self, n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|_| {
                let a = self.term().to_owned();
                let b = self.term_distinct_from(&a).to_owned();
                (a, b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn test_index() -> InvertedIndex {
        CorpusConfig::tiny(11).generate().into_default_index()
    }

    #[test]
    fn sampled_terms_exist_and_meet_min_df() {
        let idx = test_index();
        let mut s = QuerySampler::new(&idx, 1);
        for q in s.single_queries(50) {
            let id =
                idx.term_id(&q).unwrap_or_else(|| panic!("sampled term {q:?} must exist"));
            assert!(idx.term_info(id).df >= QuerySampler::DEFAULT_MIN_DF);
        }
    }

    #[test]
    fn pairs_have_distinct_terms() {
        let idx = test_index();
        let mut s = QuerySampler::new(&idx, 2);
        for (a, b) in s.pair_queries(50) {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn single_candidate_vocabulary_yields_duplicate_pairs() {
        // Regression: the distinct-term hunt used to loop forever when
        // only one term qualified. It must terminate with a duplicate.
        let idx = CorpusConfig { n_terms: 1, ..CorpusConfig::tiny(0x1) }
            .generate()
            .into_default_index();
        let mut s = QuerySampler::new(&idx, 5);
        for (a, b) in s.pair_queries(5) {
            assert_eq!(a, b, "only one term exists, so pairs must duplicate");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let idx = test_index();
        let a = QuerySampler::new(&idx, 3).single_queries(20);
        let b = QuerySampler::new(&idx, 3).single_queries(20);
        assert_eq!(a, b);
    }

    #[test]
    fn df_bias_prefers_common_terms() {
        let idx = test_index();
        let mut s = QuerySampler::new(&idx, 4);
        let queries = s.single_queries(300);
        let mean_df: f64 = queries
            .iter()
            .map(|q| idx.term_id(q).map(|id| idx.term_info(id).df as f64).unwrap_or(0.0))
            .sum::<f64>()
            / queries.len() as f64;
        // Unbiased sampling over qualifying terms would give a much lower
        // mean df than df^alpha-weighted sampling.
        let uniform_mean: f64 = idx
            .terms()
            .iter()
            .filter(|t| t.df >= QuerySampler::DEFAULT_MIN_DF)
            .map(|t| t.df as f64)
            .sum::<f64>()
            / idx.terms().iter().filter(|t| t.df >= QuerySampler::DEFAULT_MIN_DF).count()
                as f64;
        assert!(mean_df > uniform_mean * 0.8, "df bias should not under-sample common terms");
    }

    #[test]
    #[should_panic(expected = "minimum document frequency")]
    fn empty_candidate_set_panics() {
        let idx = test_index();
        let _ = QuerySampler::with_bias(&idx, 0, 0.3, u64::MAX);
    }
}
