//! Qualitative checks of the paper's headline claims at test scale. These
//! assert *shapes* (who wins, what saturates, what is flat), not absolute
//! factors — the full factors are measured by the `iiu-bench` harness at
//! experiment scale (see EXPERIMENTS.md).

use iiu_baseline::{CpuEngine, PhaseBreakdown};
use iiu_sim::{HostModel, IiuMachine, PowerModel, SimConfig, SimQuery};
use iiu_workloads::{CorpusConfig, QuerySampler};

fn index() -> iiu_index::InvertedIndex {
    CorpusConfig { n_docs: 20_000, n_terms: 4_000, ..CorpusConfig::ccnews_like(20_000) }
        .generate()
        .into_default_index()
}

fn sample_pairs(index: &iiu_index::InvertedIndex, n: usize) -> Vec<(u32, u32)> {
    let mut sampler = QuerySampler::with_bias(index, 99, 0.5, 200);
    sampler
        .pair_queries(n)
        .iter()
        .map(|(a, b)| (index.term_id(a).unwrap(), index.term_id(b).unwrap()))
        .collect()
}

fn sample_singles(index: &iiu_index::InvertedIndex, n: usize) -> Vec<u32> {
    let mut sampler = QuerySampler::with_bias(index, 98, 0.5, 600);
    sampler.single_queries(n).iter().map(|t| index.term_id(t).unwrap()).collect()
}

/// The term with the longest posting list (for scaling checks that need a
/// list spanning many blocks).
fn head_term(index: &iiu_index::InvertedIndex) -> u32 {
    (0..index.num_terms() as u32)
        .max_by_key(|&t| index.term_info(t).df)
        .expect("non-empty vocabulary")
}

/// §1 / Fig. 1: "decompression accounts for over 40% of the total query
/// response time over all three query types" in the baseline.
#[test]
fn claim_decompression_dominates_baseline() {
    let index = index();
    let engine = CpuEngine::new(&index);
    let singles = sample_singles(&index, 10);
    let pairs = sample_pairs(&index, 10);

    let check = |label: &str, phases: Vec<PhaseBreakdown>| {
        let mut total = PhaseBreakdown::default();
        for p in &phases {
            total.merge(p);
        }
        assert!(
            total.decompress_fraction() > 0.35,
            "{label}: decompression fraction {:.2} too low",
            total.decompress_fraction()
        );
    };
    check(
        "single",
        singles
            .iter()
            .map(|&t| engine.search_single(&index.term_info(t).term, 10).unwrap().phases)
            .collect(),
    );
    check(
        "union",
        pairs
            .iter()
            .map(|&(a, b)| {
                engine
                    .search_union(&index.term_info(a).term, &index.term_info(b).term, 10)
                    .unwrap()
                    .phases
            })
            .collect(),
    );
}

/// §5.2: dynamic partitioning beats Lucene's static scheme on compression.
#[test]
fn claim_dynamic_partitioning_compresses_better() {
    let corpus = CorpusConfig::ccnews_like(20_000).generate();
    let dynamic =
        corpus.clone().into_index(iiu_index::Partitioner::dynamic(256), Default::default());
    let fixed = corpus.into_index(iiu_index::Partitioner::fixed(128), Default::default());
    let rd = dynamic.size_stats().compression_ratio();
    let rf = fixed.size_stats().compression_ratio();
    assert!(rd > rf * 1.15, "dynamic {rd:.2} should clearly beat static {rf:.2}");
}

/// Fig. 15 direction: IIU-8 latency beats the baseline on every query
/// type, and intersection benefits most.
#[test]
fn claim_iiu_latency_wins_and_intersection_wins_most() {
    let index = index();
    let engine = CpuEngine::new(&index);
    let machine = IiuMachine::new(&index, SimConfig::default());
    let host = HostModel::default();
    let singles = sample_singles(&index, 5);
    let pairs = sample_pairs(&index, 5);

    let mut speedups = std::collections::HashMap::new();
    let mut record = |label: &str, lucene_ns: f64, run: &iiu_sim::QueryRun| {
        let iiu_ns = host.query_latency_ns(run.cycles, 1.0, run.stats.candidates);
        let entry: &mut (f64, f64) = speedups.entry(label.to_string()).or_insert((0.0, 0.0));
        entry.0 += lucene_ns;
        entry.1 += iiu_ns;
    };
    for &t in &singles {
        let name = &index.term_info(t).term;
        record(
            "single",
            engine.search_single(name, 10).unwrap().latency_ns(),
            &machine.run_query(SimQuery::Single(t), 8).expect("sim completes"),
        );
    }
    for &(a, b) in &pairs {
        let (na, nb) = (&index.term_info(a).term, &index.term_info(b).term);
        record(
            "intersection",
            engine.search_intersection(na, nb, 10).unwrap().latency_ns(),
            &machine.run_query(SimQuery::Intersect(a, b), 8).expect("sim completes"),
        );
        record(
            "union",
            engine.search_union(na, nb, 10).unwrap().latency_ns(),
            &machine.run_query(SimQuery::Union(a, b), 8).expect("sim completes"),
        );
    }
    let speedup = |label: &str| speedups[label].0 / speedups[label].1;
    for label in ["single", "intersection", "union"] {
        assert!(speedup(label) > 1.5, "{label} speedup {:.2} too small", speedup(label));
    }
    assert!(
        speedup("intersection") > speedup("union"),
        "intersection ({:.1}) should beat union ({:.1}) — the paper's ordering",
        speedup("intersection"),
        speedup("union")
    );
}

/// §5.3: union latency does not improve with more cores (merge-unit
/// bottleneck); single-term does.
#[test]
fn claim_union_flat_single_scales() {
    let index = index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let (a, b) = sample_pairs(&index, 1)[0];
    let u1 = machine.run_query(SimQuery::Union(a, b), 1).expect("sim completes");
    let u8_ = machine.run_query(SimQuery::Union(a, b), 8).expect("sim completes");
    assert_eq!(u1.cycles, u8_.cycles, "union must be flat in core count");

    let t = head_term(&index);
    let s1 = machine.run_query(SimQuery::Single(t), 1).expect("sim completes");
    let s8 = machine.run_query(SimQuery::Single(t), 8).expect("sim completes");
    assert!(
        (s8.cycles as f64) < 0.7 * s1.cycles as f64,
        "single-term must scale with cores ({} vs {})",
        s8.cycles,
        s1.cycles
    );
}

/// §5.4: the accelerator draws two orders of magnitude less power than the
/// CPU, and per-query energy is dominated by the host side of IIU.
#[test]
fn claim_power_and_energy() {
    let p = PowerModel::default();
    assert!(p.cpu_tdp_w / p.iiu_w > 100.0);
    // A 100 us query with 50k candidates: host top-k energy dwarfs IIU's.
    let host = HostModel::default();
    let iiu_e = p.iiu_energy_j(100_000.0);
    let host_e = p.cpu_core_energy_j(host.topk_ns(50_000));
    assert!(host_e > iiu_e, "host {host_e} should exceed accelerator {iiu_e}");
}

/// §5.3 / Fig. 18: with inter-query parallelism the non-intersection query
/// types push much closer to the bandwidth ceiling than intersection.
#[test]
fn claim_intersection_is_not_bandwidth_bound() {
    let index = index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let singles: Vec<SimQuery> =
        sample_singles(&index, 16).into_iter().map(SimQuery::Single).collect();
    let isects: Vec<SimQuery> =
        sample_pairs(&index, 16).into_iter().map(|(a, b)| SimQuery::Intersect(a, b)).collect();
    let bw_single =
        machine.run_batch(&singles, 8).expect("sim completes").mem.bandwidth_utilization;
    let bw_isect =
        machine.run_batch(&isects, 8).expect("sim completes").mem.bandwidth_utilization;
    assert!(
        bw_single > 2.0 * bw_isect,
        "single-term ({bw_single:.2}) should stress bandwidth far more than \
         intersection ({bw_isect:.2})"
    );
}
