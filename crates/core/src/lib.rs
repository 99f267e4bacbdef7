//! Public API of the IIU reproduction (Heo et al., ASPLOS 2020).
//!
//! This crate ties the substrates together behind the interface a search
//! application would use:
//!
//! * build or load an [`InvertedIndex`] (re-exported from [`iiu_index`]);
//! * express queries as boolean [`Query`] trees (`AND`/`OR` over terms);
//! * run them on either engine — the Lucene-like [`CpuSearchEngine`]
//!   baseline or the cycle-level [`IiuSearchEngine`] accelerator — and get
//!   ranked hits plus a modeled latency breakdown.
//!
//! Both engines share the Q16.16 BM25 scoring datapath, so they return
//! bit-identical hits; all comparisons between them are about time and
//! energy, mirroring the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use iiu_core::{CpuSearchEngine, IiuSearchEngine, Query, SearchEngine};
//! use iiu_index::{BuildOptions, IndexBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = IndexBuilder::new(BuildOptions::default());
//! b.add_document("the inverted index is a key value data structure");
//! b.add_document("the accelerator processes the inverted index");
//! b.add_document("a key value store");
//! let index = b.build();
//!
//! let q = Query::parse("inverted AND index")?;
//! let mut cpu = CpuSearchEngine::new(&index);
//! let mut iiu = IiuSearchEngine::new(&index);
//! let r_cpu = cpu.search(&q, 10)?;
//! let r_iiu = iiu.search(&q, 10)?;
//! assert_eq!(r_cpu.hits, r_iiu.hits);
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod error;
pub mod live;
pub mod query;

pub use engine::{
    CpuSearchEngine, IiuSearchEngine, LatencyBreakdown, SearchEngine, SearchResponse,
    ShardedSearchEngine,
};
pub use error::{Degradation, SearchError};
pub use iiu_baseline::topk::Hit;
pub use iiu_baseline::{
    estimate_query_cost, PartSource, PoolWorkerReport, QueryCostEstimate, ShardHealth,
    ShardHealthReport, ShardPoolConfig, HEAVY_DF_THRESHOLD,
};
pub use iiu_index::shard::{DocWindow, ShardedIndex};
pub use iiu_index::{
    Bm25Params, DocId, IncrementalIndex, IncrementalOptions, IndexError, IngestDoc,
    InvertedIndex, Partitioner, RecoveryReport, ShardChaosPlan,
};
pub use iiu_sim::SimError;
pub use live::LiveIndex;
pub use query::{ParseQueryError, Query};
