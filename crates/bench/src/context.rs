//! Shared experiment context: the two synthetic datasets and their query
//! workloads (paper §5.1).

use iiu_index::{InvertedIndex, Partitioner, TermId};
use iiu_workloads::{CorpusConfig, QuerySampler};

/// Which dataset stand-in an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetName {
    /// CC-News-like preset (strongly clustered, short documents).
    CcNews,
    /// ClueWeb12-like preset (weakly clustered, long documents).
    ClueWeb,
}

impl DatasetName {
    /// Display label matching the paper's dataset names.
    pub fn label(self) -> &'static str {
        match self {
            DatasetName::CcNews => "CC-News",
            DatasetName::ClueWeb => "ClueWeb12",
        }
    }

    /// Both datasets, in the paper's order.
    pub fn all() -> [DatasetName; 2] {
        [DatasetName::CcNews, DatasetName::ClueWeb]
    }
}

/// One dataset with its sampled query workload: 100 single-term and 100
/// double-term queries, following §5.1's TREC-derived methodology.
#[derive(Debug)]
pub struct Dataset {
    /// Which preset this is.
    pub name: DatasetName,
    /// The built index (dynamic partitioning, `maxSize = 256`).
    pub index: InvertedIndex,
    /// Term ids of the single-term queries.
    pub singles: Vec<TermId>,
    /// Term-id pairs of the double-term (intersection/union) queries.
    pub pairs: Vec<(TermId, TermId)>,
}

/// Base document count; multiplied by `IIU_SCALE` (default 1.0).
pub const BASE_DOCS: u32 = 120_000;

/// Number of queries per type (the paper samples 100).
pub const N_QUERIES: usize = 100;

/// Reads the scale factor from `IIU_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("IIU_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Experiment context holding both datasets.
#[derive(Debug)]
pub struct Ctx {
    /// The datasets, indexed by [`DatasetName`].
    datasets: Vec<Dataset>,
}

impl Ctx {
    /// Builds both datasets at the configured scale. Takes a few seconds.
    pub fn new() -> Self {
        Ctx { datasets: DatasetName::all().into_iter().map(build_dataset).collect() }
    }

    /// Builds only the CC-News-like dataset (for cheaper experiments).
    pub fn ccnews_only() -> Self {
        Ctx { datasets: vec![build_dataset(DatasetName::CcNews)] }
    }

    /// Accesses a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset was not built in this context.
    pub fn dataset(&self, name: DatasetName) -> &Dataset {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("dataset not built in this context"))
    }

    /// All datasets in this context.
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

fn build_dataset(name: DatasetName) -> Dataset {
    let n_docs = (f64::from(BASE_DOCS) * scale()) as u32;
    let cfg = match name {
        DatasetName::CcNews => CorpusConfig::ccnews_like(n_docs),
        DatasetName::ClueWeb => CorpusConfig::clueweb_like(n_docs),
    };
    let index = cfg.generate().into_default_index();
    // TREC query terms skew to common words; bias harder than the test
    // default, with a document-frequency floor that scales with the corpus
    // (real query terms appear in a sizable fraction of documents).
    let min_df = 64.max(n_docs as u64 / 100);
    let mut sampler = QuerySampler::with_bias(&index, 0x7EC + n_docs as u64, 0.5, min_df);
    let singles = sampler
        .single_queries(N_QUERIES)
        .iter()
        .map(|t| index.term_id(t).unwrap_or_else(|| panic!("sampled term exists")))
        .collect();
    let pairs = sampler
        .pair_queries(N_QUERIES)
        .iter()
        .map(|(a, b)| {
            (
                index.term_id(a).unwrap_or_else(|| panic!("sampled term exists")),
                index.term_id(b).unwrap_or_else(|| panic!("sampled term exists")),
            )
        })
        .collect();
    Dataset { name, index, singles, pairs }
}

/// Rebuilds a dataset's index with a different partitioner (Fig. 14,
/// ablations). Queries keep their term *names*, so ids are re-resolved.
pub fn rebuild_with_partitioner(d: &Dataset, partitioner: Partitioner) -> Dataset {
    let names: Vec<String> =
        d.singles.iter().map(|&t| d.index.term_info(t).term.to_string()).collect();
    let pair_names: Vec<(String, String)> = d
        .pairs
        .iter()
        .map(|&(a, b)| {
            (d.index.term_info(a).term.to_string(), d.index.term_info(b).term.to_string())
        })
        .collect();

    let n_docs = d.index.num_docs() as u32;
    let cfg = match d.name {
        DatasetName::CcNews => CorpusConfig::ccnews_like(n_docs),
        DatasetName::ClueWeb => CorpusConfig::clueweb_like(n_docs),
    };
    let index = cfg.generate().into_index(partitioner, d.index.params());
    let singles = names
        .iter()
        .map(|t| index.term_id(t).unwrap_or_else(|| panic!("same corpus, same terms")))
        .collect();
    let pairs = pair_names
        .iter()
        .map(|(a, b)| {
            (
                index.term_id(a).unwrap_or_else(|| panic!("same corpus")),
                index.term_id(b).unwrap_or_else(|| panic!("same corpus")),
            )
        })
        .collect();
    Dataset { name: d.name, index, singles, pairs }
}
