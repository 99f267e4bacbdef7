//! One module per table/figure of the paper's evaluation, plus ablations.
//!
//! Every module exposes `run(ctx) -> serde_json::Value`, printing its rows
//! and returning machine-readable results for `results/*.json` and
//! EXPERIMENTS.md.

pub mod ablations;
pub mod fig01;
pub mod fig02;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod hybrid;
pub mod load_latency;
pub mod reordering;
pub mod table2;
pub mod table3;
pub mod utilization;

use iiu_baseline::{CpuEngine, PhaseBreakdown};
use iiu_sim::{HostModel, IiuMachine, QueryRun, SimQuery};

use crate::context::Dataset;

/// The paper's three query types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryType {
    /// Single-term query.
    Single,
    /// Two-term intersection.
    Intersect,
    /// Two-term union.
    Union,
}

impl QueryType {
    /// All types, in the paper's order.
    pub fn all() -> [QueryType; 3] {
        [QueryType::Single, QueryType::Intersect, QueryType::Union]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            QueryType::Single => "single",
            QueryType::Intersect => "intersection",
            QueryType::Union => "union",
        }
    }
}

/// The dataset's sampled workload as accelerator queries of one type.
pub fn sim_queries(d: &Dataset, qt: QueryType) -> Vec<SimQuery> {
    match qt {
        QueryType::Single => d.singles.iter().map(|&t| SimQuery::Single(t)).collect(),
        QueryType::Intersect => {
            d.pairs.iter().map(|&(a, b)| SimQuery::Intersect(a, b)).collect()
        }
        QueryType::Union => d.pairs.iter().map(|&(a, b)| SimQuery::Union(a, b)).collect(),
    }
}

/// Runs the baseline over the dataset's workload of one type, returning
/// per-query phase breakdowns (includes top-k).
pub fn baseline_breakdowns(d: &Dataset, qt: QueryType) -> Vec<PhaseBreakdown> {
    let engine = CpuEngine::new(&d.index);
    let term = |t: u32| d.index.term_info(t).term.as_str();
    match qt {
        QueryType::Single => d
            .singles
            .iter()
            .map(|&t| {
                engine
                    .search_single(term(t), 10)
                    .unwrap_or_else(|e| panic!("sampled term: {e:?}"))
                    .phases
            })
            .collect(),
        QueryType::Intersect => d
            .pairs
            .iter()
            .map(|&(a, b)| {
                engine
                    .search_intersection(term(a), term(b), 10)
                    .unwrap_or_else(|e| panic!("sampled terms: {e:?}"))
                    .phases
            })
            .collect(),
        QueryType::Union => d
            .pairs
            .iter()
            .map(|&(a, b)| {
                engine
                    .search_union(term(a), term(b), 10)
                    .unwrap_or_else(|e| panic!("sampled terms: {e:?}"))
                    .phases
            })
            .collect(),
    }
}

/// Per-query baseline latencies in ns (total, including top-k).
pub fn baseline_latencies_ns(d: &Dataset, qt: QueryType) -> Vec<f64> {
    baseline_breakdowns(d, qt).iter().map(PhaseBreakdown::total_ns).collect()
}

/// End-to-end IIU query latency: dispatch + accelerator cycles + host
/// top-k (paper Figs. 15/17).
pub fn iiu_latency_ns(host: &HostModel, run: &QueryRun, clock_ghz: f64) -> f64 {
    host.query_latency_ns(run.cycles, clock_ghz, run.stats.candidates)
}

/// Runs every query of a type through the machine with intra-query
/// parallelism, returning (per-query end-to-end ns, runs).
pub fn iiu_intra_latencies(
    machine: &IiuMachine<'_>,
    host: &HostModel,
    queries: &[SimQuery],
    cores: usize,
) -> (Vec<f64>, Vec<QueryRun>) {
    let clock = machine.config().clock_ghz;
    let runs: Vec<QueryRun> = queries
        .iter()
        .map(|&q| {
            machine.run_query(q, cores).unwrap_or_else(|e| panic!("sim completes: {e:?}"))
        })
        .collect();
    let lats = runs.iter().map(|r| iiu_latency_ns(host, r, clock)).collect();
    (lats, runs)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
