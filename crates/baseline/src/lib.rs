//! The software baseline: a Lucene-like search engine over the IIU index
//! format, with a calibrated CPU cost model.
//!
//! The paper compares IIU against Apache Lucene on an i7-7820X, profiled
//! with VTune at 70–100 instructions per docID (§1), with decompression
//! taking >40% of query time (Fig. 1). This crate reimplements the
//! baseline's query processing — block-wise decompression, SvS
//! intersection over skip lists, linear-merge union, BM25 scoring and
//! heap-based top-k — and *counts operations* as it goes. A
//! [`cost::CpuCostModel`] calibrated to the paper's profiling numbers then
//! converts operation counts into nanoseconds, so the baseline and the
//! cycle-level IIU simulator live in the same deterministic time domain
//! (see DESIGN.md §2 for why this substitution preserves the paper's
//! comparisons).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cost;
pub mod engine;
pub mod executor;
pub mod ops;
pub mod park;
pub mod pruned;
pub mod sharded;
pub mod supervise;
pub mod throughput;
pub mod topk;

pub use cost::{
    estimate_query_cost, CpuCostModel, PhaseBreakdown, QueryCostEstimate, HEAVY_DF_THRESHOLD,
};
pub use engine::{CpuEngine, QueryOutcome};
pub use executor::{Executor, PoolWorkerReport};
pub use ops::{DecodeScratch, OpCounts};
pub use sharded::{
    Part, PartSource, ShardHealth, ShardHealthReport, ShardOutcome, ShardPool,
    ShardPoolConfig, ShardRun, ShardedEngine, ShardedOutcome,
};
pub use throughput::parallel_makespan_ns;
pub use topk::{rank_cmp, top_k, FusedTopK, Hit, SharedThreshold};
