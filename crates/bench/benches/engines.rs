//! Macrobenchmarks: end-to-end query processing on the baseline engine
//! and wall-clock speed of the cycle-level simulator. Run with
//! `cargo bench --bench engines`.

use std::hint::black_box;

use iiu_baseline::CpuEngine;
use iiu_bench::micro::bench;
use iiu_sim::{IiuMachine, SimConfig, SimQuery};
use iiu_workloads::{CorpusConfig, QuerySampler};

fn main() {
    let index = CorpusConfig::ccnews_like(20_000).generate().into_default_index();
    let mut sampler = QuerySampler::new(&index, 9);
    let term = sampler.single_queries(1).remove(0);
    let (ta, tb) = {
        let (a, b) = sampler.pair_queries(1).remove(0);
        (index.term_id(&a).unwrap(), index.term_id(&b).unwrap())
    };
    let term_id = index.term_id(&term).unwrap();

    let engine = CpuEngine::new(&index);
    bench("baseline/single_term", || black_box(engine.search_single(&term, 10).unwrap()));

    let machine = IiuMachine::new(&index, SimConfig::default());
    bench("simulator/single_term_1core", || {
        black_box(machine.run_query(SimQuery::Single(term_id), 1).expect("sim completes"))
    });
    bench("simulator/intersection_1core", || {
        black_box(machine.run_query(SimQuery::Intersect(ta, tb), 1).expect("sim completes"))
    });
}
