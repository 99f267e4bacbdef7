//! Per-query parallelism routing: the paper's §4.4 hybrid scheduling.
//!
//! A sharded CPU path has two ways to spend its pool: **intra-query**
//! (one query fans across every shard, minimizing that query's latency)
//! and **inter-query** (each query stays on one execution lane,
//! maximizing concurrent throughput). Fan-out is not free — every shard
//! task pays enqueue, wakeup, and merge overhead — so below a certain
//! postings volume the fan-out tax exceeds the parallel speedup and a
//! query is better served inline.
//!
//! The router prices a query from document frequencies alone
//! ([`iiu_core::estimate_query_cost`]: O(terms) dictionary reads, never a
//! postings list) and compares the longest list against
//! [`SchedulerConfig::heavy_df_threshold`]. The default threshold is
//! [`iiu_core::HEAVY_DF_THRESHOLD`], the `shard_bench` calibration point
//! where the 4-shard scaling gate measures its speedup.

use iiu_core::{estimate_query_cost, InvertedIndex, Query, QueryCostEstimate};

use crate::config::SchedulerConfig;

/// How one query should spend the sharded CPU path's parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismMode {
    /// Answer on the calling worker against the unsharded index: no
    /// fan-out tax, and the shard pool stays free for heavy queries.
    InterQuery,
    /// Fan out across every shard of the pool (the fixed topology's
    /// only mode).
    IntraQuery,
}

/// The routing decision plus the estimate that produced it, so
/// operators and benches can audit why a query ran where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Where the query runs.
    pub mode: ParallelismMode,
    /// The df-derived cost estimate behind the decision.
    pub estimate: QueryCostEstimate,
}

/// Routes `query` under `cfg`. With `cfg.hybrid` off this is the fixed
/// topology: every query fans out. With it on, only queries whose
/// longest postings list reaches `cfg.heavy_df_threshold` documents pay
/// for fan-out; the rest run inline. Either way the hits are
/// bit-identical — only the work placement changes.
pub fn route(index: &InvertedIndex, query: &Query, cfg: &SchedulerConfig) -> RouteDecision {
    let estimate = estimate_query_cost(index, &query.terms());
    let mode = if !cfg.hybrid || estimate.is_heavy(cfg.heavy_df_threshold) {
        ParallelismMode::IntraQuery
    } else {
        ParallelismMode::InterQuery
    };
    RouteDecision { mode, estimate }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_index() -> InvertedIndex {
        let mut b = iiu_index::IndexBuilder::new(iiu_index::BuildOptions::default());
        for i in 0..128 {
            // "common" in every doc, "rare" in one.
            let rare = if i == 0 { " rare" } else { "" };
            b.add_document(&format!("common filler{i}{rare}"));
        }
        b.build()
    }

    #[test]
    fn fixed_topology_always_fans_out() {
        let idx = tiny_index();
        let cfg = SchedulerConfig { hybrid: false, heavy_df_threshold: 1 };
        for text in ["rare", "common", "rare AND common"] {
            let q = Query::parse(text).unwrap();
            assert_eq!(route(&idx, &q, &cfg).mode, ParallelismMode::IntraQuery, "{text}");
        }
    }

    #[test]
    fn hybrid_routes_by_longest_list() {
        let idx = tiny_index();
        let cfg = SchedulerConfig { hybrid: true, heavy_df_threshold: 100 };
        let rare = Query::parse("rare").unwrap();
        let common = Query::parse("common").unwrap();
        let mixed = Query::parse("rare AND common").unwrap();

        let d = route(&idx, &rare, &cfg);
        assert_eq!(d.mode, ParallelismMode::InterQuery);
        assert_eq!(d.estimate.max_list_postings, 1);

        let d = route(&idx, &common, &cfg);
        assert_eq!(d.mode, ParallelismMode::IntraQuery);
        assert_eq!(d.estimate.max_list_postings, 128);

        // One heavy list anywhere in the query is enough: the longest
        // list bounds the slowest shard task.
        assert_eq!(route(&idx, &mixed, &cfg).mode, ParallelismMode::IntraQuery);
    }

    #[test]
    fn unknown_terms_are_cheap() {
        let idx = tiny_index();
        let cfg = SchedulerConfig { hybrid: true, heavy_df_threshold: 1 };
        let q = Query::parse("zzzneverindexed").unwrap();
        let d = route(&idx, &q, &cfg);
        assert_eq!(d.mode, ParallelismMode::InterQuery);
        assert_eq!(d.estimate.resolved_terms, 0);
    }
}
