//! Synthetic corpus generation.
//!
//! Posting lists are generated directly (rather than by tokenizing fake
//! documents): for term rank `r`, the document frequency follows a
//! truncated Zipf law `df_r ∝ r^{-s}`, and the docIDs are drawn by gap
//! sampling from a two-state (dense/sparse) Markov model that produces the
//! bursty d-gap distributions real postings exhibit. Burstiness is the
//! lever that separates the CC-News-like and ClueWeb12-like presets'
//! compressibility.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iiu_index::{Bm25Params, IngestDoc, InvertedIndex, Partitioner, PostingList, TermFreq};

/// Parameters of a synthetic corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusConfig {
    /// Number of documents.
    pub n_docs: u32,
    /// Number of distinct terms (posting lists).
    pub n_terms: u32,
    /// Zipf exponent of the document-frequency distribution.
    pub zipf_s: f64,
    /// Document frequency of the most common term, as a fraction of
    /// `n_docs`.
    pub max_df_fraction: f64,
    /// Mean document length (tokens), log-normally distributed.
    pub avg_doc_len: u32,
    /// Mean term frequency (geometric).
    pub mean_tf: f64,
    /// Burstiness in `[0, 1]`: probability that consecutive postings fall
    /// in a dense cluster (small d-gaps). Higher values compress better.
    pub clustering: f64,
    /// RNG seed; equal configs generate identical corpora.
    pub seed: u64,
}

impl CorpusConfig {
    /// A CC-News-like corpus: short news articles with strong temporal
    /// clustering (CC-News is crawled chronologically, and Table 2 shows it
    /// compressing ~2.4× better than ClueWeb12). The vocabulary is half the
    /// document count with a flat-ish Zipf exponent so that — like a real
    /// index — the posting *mass* sits in long mid/head lists rather than
    /// in per-list overheads.
    pub fn ccnews_like(n_docs: u32) -> Self {
        CorpusConfig {
            n_docs,
            n_terms: (n_docs / 2).clamp(16, 400_000),
            zipf_s: 0.65,
            max_df_fraction: 0.30,
            avg_doc_len: 400,
            mean_tf: 1.6,
            clustering: 0.9,
            seed: 0xCC_0001,
        }
    }

    /// A ClueWeb12-like corpus: longer web pages with weak clustering (a
    /// breadth-first web crawl scatters topically related pages across
    /// docIDs), same mass distribution rationale as
    /// [`CorpusConfig::ccnews_like`].
    pub fn clueweb_like(n_docs: u32) -> Self {
        CorpusConfig {
            n_docs,
            n_terms: (n_docs / 2).clamp(16, 400_000),
            zipf_s: 0.65,
            max_df_fraction: 0.40,
            avg_doc_len: 800,
            mean_tf: 3.0,
            clustering: 0.15,
            seed: 0xC1_0002,
        }
    }

    /// A small corpus for unit tests: quick to generate and index.
    pub fn tiny(seed: u64) -> Self {
        CorpusConfig {
            n_docs: 2_000,
            n_terms: 500,
            zipf_s: 0.9,
            max_df_fraction: 0.3,
            avg_doc_len: 100,
            mean_tf: 2.0,
            clustering: 0.6,
            seed,
        }
    }

    /// Generates the corpus.
    ///
    /// # Panics
    ///
    /// Panics if `n_docs == 0` or the fractions are out of range.
    pub fn generate(&self) -> GeneratedCorpus {
        assert!(self.n_docs > 0, "corpus needs at least one document");
        assert!(
            (0.0..=1.0).contains(&self.clustering)
                && (0.0..=1.0).contains(&self.max_df_fraction),
            "fractions must be in [0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);

        let max_df = (f64::from(self.n_docs) * self.max_df_fraction).max(1.0);
        let mut lists = Vec::with_capacity(self.n_terms as usize);
        for rank in 1..=self.n_terms {
            let list = self.generate_list(&mut rng, self.df_for(max_df, rank));
            lists.push((term_name(rank), list));
        }

        let doc_lens = (0..self.n_docs).map(|_| self.sample_doc_len(&mut rng)).collect();

        GeneratedCorpus { lists, doc_lens }
    }

    /// Streams the corpus straight to a v4 index file, byte-identical to
    /// `generate().into_index(..)` + [`iiu_index::io::serialize`]
    /// but with peak memory independent of the total posting count — the
    /// path that lets `iiu gen` write a ≥1M-doc corpus with bounded RSS.
    ///
    /// Generation is term-major and the document-length table is drawn
    /// from the *same* RNG stream after every list, while the file format
    /// needs the doc table before the first term record. Streaming
    /// therefore runs two passes over the same seeded stream: pass one
    /// advances the RNG through every list (keeping only one alive at a
    /// time) to reach and sample the doc lengths; pass two re-seeds and
    /// regenerates each list — identical draws — into the writer.
    ///
    /// Returns the sink (flushed, with the complete file written) and the
    /// generation stats.
    ///
    /// # Errors
    ///
    /// Propagates [`iiu_index::IndexError`] from encoding or sink I/O.
    ///
    /// # Panics
    ///
    /// Panics if `n_docs == 0` or the fractions are out of range, like
    /// [`generate`](Self::generate).
    pub fn generate_streamed<W: std::io::Write>(
        &self,
        sink: W,
        partitioner: Partitioner,
        params: Bm25Params,
    ) -> Result<(W, StreamStats), iiu_index::IndexError> {
        assert!(self.n_docs > 0, "corpus needs at least one document");
        assert!(
            (0.0..=1.0).contains(&self.clustering)
                && (0.0..=1.0).contains(&self.max_df_fraction),
            "fractions must be in [0, 1]"
        );
        let max_df = (f64::from(self.n_docs) * self.max_df_fraction).max(1.0);

        // Pass 1: advance the RNG past every list to sample the doc table.
        let mut rng = StdRng::seed_from_u64(self.seed);
        for rank in 1..=self.n_terms {
            drop(self.generate_list(&mut rng, self.df_for(max_df, rank)));
        }
        let doc_lens: Vec<u32> =
            (0..self.n_docs).map(|_| self.sample_doc_len(&mut rng)).collect();

        let mut writer = iiu_index::io::StreamingWriter::new(
            sink,
            &doc_lens,
            u64::from(self.n_terms),
            partitioner,
            params,
        )?;

        // Pass 2: regenerate each list (same seed, identical draws) and
        // stream it into the writer.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut postings = 0u64;
        for rank in 1..=self.n_terms {
            let list = self.generate_list(&mut rng, self.df_for(max_df, rank));
            postings += list.len() as u64;
            writer.push_term(&term_name(rank), &list)?;
        }
        let sink = writer.finish()?;
        Ok((
            sink,
            StreamStats {
                docs: u64::from(self.n_docs),
                terms: u64::from(self.n_terms),
                postings,
            },
        ))
    }

    /// Target document frequency of the term at Zipf `rank`.
    fn df_for(&self, max_df: f64, rank: u32) -> u32 {
        let df = (max_df / f64::from(rank).powf(self.zipf_s)).round().max(1.0) as u32;
        df.min(self.n_docs)
    }

    /// Gap-samples one posting list with `df` target postings (the realized
    /// length may be smaller if the gap walk exhausts the docID space).
    ///
    /// Gaps come from a two-state Markov chain with *persistent* states:
    /// long dense runs (gaps of mostly 1, as in a chronological news crawl
    /// covering one story) separated by sparse stretches carrying the
    /// slack. Run persistence is what lets width-adaptive codecs (and the
    /// dynamic partitioner) isolate cheap regions — byte-aligned codecs
    /// cannot exploit it, which is exactly the differential Table 2 shows
    /// between the datasets.
    fn generate_list(&self, rng: &mut StdRng, df: u32) -> PostingList {
        let mut list = PostingList::new();
        if df == 0 {
            return list;
        }
        let mean_gap = (f64::from(self.n_docs) / f64::from(df)).max(1.0);
        let dense_mean = 1.1_f64.min(mean_gap);
        let sparse_mean = if self.clustering >= 1.0 {
            mean_gap
        } else {
            ((mean_gap - self.clustering * dense_mean) / (1.0 - self.clustering)).max(1.0)
        };
        // Stationary dense fraction = clustering, with sticky states
        // (P(stay dense) = 0.95) so dense runs average ~20 postings.
        let p_leave_dense = 0.05;
        let p_enter_dense = if self.clustering >= 1.0 {
            1.0
        } else {
            (p_leave_dense * self.clustering / (1.0 - self.clustering)).min(1.0)
        };
        let mut dense = rng.gen_bool(self.clustering);

        let mut doc = rng.gen_range(0..((mean_gap as u32).max(1)));
        for i in 0..df {
            if i > 0 {
                dense = if dense {
                    !rng.gen_bool(p_leave_dense)
                } else {
                    rng.gen_bool(p_enter_dense)
                };
                let mean = if dense { dense_mean } else { sparse_mean };
                // Geometric-ish gap: exponential inverse CDF, min 1.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let gap = (-u.ln() * mean).ceil().max(1.0);
                let gap = gap.min(f64::from(u32::MAX / 2)) as u32;
                match doc.checked_add(gap) {
                    Some(next) if next < self.n_docs => doc = next,
                    _ => break,
                }
            } else if doc >= self.n_docs {
                doc = 0;
            }
            list.push(doc, self.sample_tf(rng));
        }
        list
    }

    /// Geometric term frequency with mean `mean_tf`, capped at 1000.
    fn sample_tf(&self, rng: &mut StdRng) -> TermFreq {
        let p = 1.0 / self.mean_tf.max(1.0);
        let mut tf = 1u32;
        while tf < 1000 && rng.gen_bool(1.0 - p) {
            tf += 1;
        }
        tf
    }

    /// Log-normal document length around `avg_doc_len`.
    fn sample_doc_len(&self, rng: &mut StdRng) -> u32 {
        let sigma = 0.4f64;
        // Box-Muller from two uniforms.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let mu = f64::from(self.avg_doc_len).ln() - sigma * sigma / 2.0;
        let len = (mu + sigma * z).exp();
        (len.round() as u32).clamp(5, self.avg_doc_len * 20)
    }
}

/// Human-readable synthetic term name for Zipf rank `rank`.
pub fn term_name(rank: u32) -> String {
    format!("t{rank:07}")
}

/// Generation statistics reported by [`CorpusConfig::generate_streamed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Documents in the corpus.
    pub docs: u64,
    /// Distinct terms (posting lists) written.
    pub terms: u64,
    /// Total postings across all lists.
    pub postings: u64,
}

/// A generated corpus: posting lists plus the document-length table.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// `(term, posting list)` pairs, most frequent term first.
    pub lists: Vec<(String, PostingList)>,
    /// Token length of each document.
    pub doc_lens: Vec<u32>,
}

impl GeneratedCorpus {
    /// Total postings across all lists.
    pub fn total_postings(&self) -> u64 {
        self.lists.iter().map(|(_, l)| l.len() as u64).sum()
    }

    /// Builds an [`InvertedIndex`] from this corpus.
    ///
    /// # Panics
    ///
    /// Panics if encoding fails (generated lists always stay within the
    /// format's bitwidth limits).
    pub fn into_index(self, partitioner: Partitioner, params: Bm25Params) -> InvertedIndex {
        InvertedIndex::from_lists(self.lists, self.doc_lens, partitioner, params)
            .unwrap_or_else(|e| panic!("generated corpus always encodes: {e}"))
    }

    /// Builds an index with default partitioning and BM25 parameters.
    pub fn into_default_index(self) -> InvertedIndex {
        self.into_index(Partitioner::default(), Bm25Params::default())
    }

    /// Transposes the corpus into per-document [`IngestDoc`]s for the
    /// incremental write path. The generated `doc_lens` are preserved
    /// verbatim (they are sampled independently of the posting lists, so
    /// they must *not* be re-derived from term frequencies) — an index
    /// built one-shot from this corpus and one grown by ingesting the
    /// returned documents in order are bit-identical.
    pub fn to_docs(&self) -> Vec<IngestDoc> {
        let mut per_doc: Vec<Vec<(String, u32)>> = vec![Vec::new(); self.doc_lens.len()];
        for (term, list) in &self.lists {
            for p in list.iter() {
                per_doc[p.doc_id as usize].push((term.clone(), p.tf));
            }
        }
        per_doc
            .into_iter()
            .zip(&self.doc_lens)
            .map(|(terms, &len)| IngestDoc::new(len, terms))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = CorpusConfig::tiny(7).generate();
        let b = CorpusConfig::tiny(7).generate();
        assert_eq!(a.doc_lens, b.doc_lens);
        assert_eq!(a.lists.len(), b.lists.len());
        for ((ta, la), (tb, lb)) in a.lists.iter().zip(&b.lists) {
            assert_eq!(ta, tb);
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CorpusConfig::tiny(1).generate();
        let b = CorpusConfig::tiny(2).generate();
        assert_ne!(a.lists[0].1, b.lists[0].1);
    }

    #[test]
    fn zipf_skew_in_list_lengths() {
        let c = CorpusConfig::tiny(3).generate();
        let first = c.lists[0].1.len();
        let mid = c.lists[c.lists.len() / 2].1.len();
        let last = c.lists.last().unwrap().1.len();
        assert!(first > mid, "head term ({first}) must outsize mid term ({mid})");
        assert!(mid >= last, "mid term ({mid}) must outsize tail term ({last})");
    }

    #[test]
    fn docids_stay_in_range() {
        let cfg = CorpusConfig::tiny(4);
        let c = cfg.generate();
        for (_, list) in &c.lists {
            if let Some(last) = list.as_slice().last() {
                assert!(last.doc_id < cfg.n_docs);
            }
        }
        assert_eq!(c.doc_lens.len(), cfg.n_docs as usize);
    }

    #[test]
    fn clustering_improves_compression() {
        let mut dense_cfg = CorpusConfig::tiny(5);
        dense_cfg.clustering = 0.95;
        let mut sparse_cfg = CorpusConfig::tiny(5);
        sparse_cfg.clustering = 0.05;
        let dense = dense_cfg.generate().into_default_index();
        let sparse = sparse_cfg.generate().into_default_index();
        assert!(
            dense.size_stats().compression_ratio() > sparse.size_stats().compression_ratio(),
            "clustered corpus must compress better"
        );
    }

    #[test]
    fn presets_have_expected_shape() {
        let cc = CorpusConfig::ccnews_like(10_000);
        let cw = CorpusConfig::clueweb_like(10_000);
        assert_eq!(cc.n_terms, 5_000);
        assert_eq!(cw.n_terms, 5_000);
        assert!(cc.clustering > cw.clustering);
        assert!(cc.avg_doc_len < cw.avg_doc_len);
    }

    #[test]
    fn into_index_roundtrips_lists() {
        let c = CorpusConfig::tiny(6).generate();
        let lists = c.lists.clone();
        let index = c.into_default_index();
        for (term, list) in &lists {
            assert_eq!(&index.decode_term(term).unwrap(), list);
        }
    }

    #[test]
    fn to_docs_transposition_round_trips() {
        let c =
            CorpusConfig { n_docs: 300, n_terms: 60, ..CorpusConfig::tiny(0xD0C5) }.generate();
        let docs = c.to_docs();
        assert_eq!(docs.len(), 300);
        // doc_lens are preserved verbatim, not re-derived.
        for (doc, &len) in docs.iter().zip(&c.doc_lens) {
            assert_eq!(doc.len(), len);
        }
        // Rebuilding lists from the transposition reproduces the corpus.
        let mut rebuilt: std::collections::BTreeMap<String, PostingList> =
            std::collections::BTreeMap::new();
        for (id, doc) in docs.iter().enumerate() {
            for (term, tf) in doc.terms() {
                rebuilt.entry(term.clone()).or_default().push(id as u32, *tf);
            }
        }
        for (term, list) in &c.lists {
            if list.is_empty() {
                continue;
            }
            assert_eq!(rebuilt.get(term), Some(list), "{term}");
        }
    }

    #[test]
    fn streamed_file_is_byte_identical_to_one_shot() {
        let cfg = CorpusConfig::tiny(42);
        let partitioner = Partitioner::default();
        let params = Bm25Params::default();
        for codec in iiu_index::CodecId::ALL {
            let corpus = cfg.generate();
            let postings = corpus.total_postings();
            let one_shot = corpus.into_index(partitioner, params);
            let expected = iiu_index::io::serialize(&one_shot).unwrap();
            let (bytes, stats) =
                cfg.generate_streamed(Vec::new(), partitioner, params).unwrap();
            assert_eq!(bytes, expected, "{codec}: streamed bytes diverge from one-shot");
            assert_eq!(stats.docs, u64::from(cfg.n_docs));
            assert_eq!(stats.terms, u64::from(cfg.n_terms));
            assert_eq!(stats.postings, postings);
        }
    }

    #[test]
    fn doc_lens_are_plausible() {
        let cfg = CorpusConfig::tiny(8);
        let c = cfg.generate();
        let mean: f64 =
            c.doc_lens.iter().map(|&l| f64::from(l)).sum::<f64>() / c.doc_lens.len() as f64;
        let target = f64::from(cfg.avg_doc_len);
        assert!(
            (mean - target).abs() < target * 0.2,
            "mean doc len {mean} should be near {target}"
        );
    }
}
