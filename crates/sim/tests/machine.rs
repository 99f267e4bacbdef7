//! Integration tests of the full accelerator simulation: functional
//! correctness against direct index decoding, parallelism behaviour, and
//! conservation invariants.

use iiu_index::{DocId, Fixed};
use iiu_sim::{DramConfig, IiuMachine, SimConfig, SimError, SimQuery};
use iiu_workloads::CorpusConfig;

fn test_index() -> iiu_index::InvertedIndex {
    CorpusConfig::tiny(0xBEEF).generate().into_default_index()
}

/// A corpus big enough that head posting lists span many blocks (needed to
/// observe intra-query parallelism and bandwidth-bound behaviour).
fn larger_index() -> iiu_index::InvertedIndex {
    // The CC-News-like preset: clustered postings whose dl-table reads
    // amortize across documents, leaving bandwidth headroom for scaling.
    let cfg = CorpusConfig { n_terms: 1_500, ..CorpusConfig::ccnews_like(30_000) };
    cfg.generate().into_default_index()
}

/// Picks the `n`-th most frequent term with at least `min_df` postings.
fn frequent_term(index: &iiu_index::InvertedIndex, nth: usize, min_df: u64) -> u32 {
    let mut ids: Vec<u32> =
        (0..index.num_terms() as u32).filter(|&t| index.term_info(t).df >= min_df).collect();
    ids.sort_by_key(|&t| std::cmp::Reverse(index.term_info(t).df));
    ids[nth]
}

#[test]
fn single_term_produces_every_posting() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 50);
    let run = machine.run_query(SimQuery::Single(t), 1).expect("sim completes");
    let expected = index.encoded_list(t).decode_all();
    assert_eq!(run.results.len(), expected.len());
    let docs: Vec<DocId> = run.results.iter().map(|&(d, _)| d).collect();
    assert_eq!(docs, expected.doc_ids());
    assert_eq!(run.stats.postings_decoded, expected.len() as u64);
    assert_eq!(run.stats.docs_scored, expected.len() as u64);
    assert!(run.cycles > 0);
    assert!(run.mem.bytes_read > 0);
    assert!(run.mem.bytes_written > 0);
}

#[test]
fn single_term_scores_match_fixed_point_bm25() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 3, 30);
    let run = machine.run_query(SimQuery::Single(t), 2).expect("sim completes");
    let idf = index.term_info(t).idf_bar;
    for &(d, s) in &run.results {
        let p = index
            .encoded_list(t)
            .decode_all()
            .iter()
            .find(|p| p.doc_id == d)
            .copied()
            .expect("result docID must be a posting");
        let expected = iiu_index::score::term_score_fixed(idf, index.dl_bar(d), p.tf);
        assert_eq!(s, expected, "score mismatch for doc {d}");
    }
}

#[test]
fn intersection_matches_reference_sets() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let a = frequent_term(&index, 0, 100);
    let b = frequent_term(&index, 1, 100);
    let run = machine.run_query(SimQuery::Intersect(a, b), 1).expect("sim completes");

    let sa: std::collections::BTreeSet<DocId> =
        index.encoded_list(a).decode_all().doc_ids().into_iter().collect();
    let sb: std::collections::BTreeSet<DocId> =
        index.encoded_list(b).decode_all().doc_ids().into_iter().collect();
    let expected: Vec<DocId> = sa.intersection(&sb).copied().collect();
    let got: Vec<DocId> = run.results.iter().map(|&(d, _)| d).collect();
    assert_eq!(got, expected);
    assert!(!expected.is_empty(), "test terms should overlap");
}

#[test]
fn intersection_skips_blocks_and_uses_traversal_cache() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    // A rare term against the most common one: most L1 blocks are skipped.
    let common = frequent_term(&index, 0, 100);
    let rare = {
        let mut ids: Vec<u32> = (0..index.num_terms() as u32)
            .filter(|&t| {
                let df = index.term_info(t).df;
                (4..=12).contains(&df)
            })
            .collect();
        ids.sort_by_key(|&t| index.term_info(t).df);
        ids[0]
    };
    let run = machine.run_query(SimQuery::Intersect(rare, common), 1).expect("sim completes");
    let total_blocks = index.encoded_list(common).num_blocks() as u64;
    assert!(total_blocks > 2, "common list should have several blocks");
    assert!(
        run.stats.l1_blocks_fetched < total_blocks,
        "membership testing must avoid decompressing every block \
         ({}/{total_blocks} fetched)",
        run.stats.l1_blocks_fetched
    );
    assert_eq!(run.stats.l1_blocks_fetched + run.stats.l1_blocks_skipped, total_blocks);
    assert!(run.stats.bsu_probes > 0);
    if run.stats.bsu_probes > 8 {
        assert!(
            run.stats.bsu_cache_hits > 0,
            "ascending searches should hit the traversal cache"
        );
    }
}

#[test]
fn union_matches_merged_reference() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let a = frequent_term(&index, 2, 50);
    let b = frequent_term(&index, 5, 30);
    let run = machine.run_query(SimQuery::Union(a, b), 1).expect("sim completes");

    let pa = index.encoded_list(a).decode_all();
    let pb = index.encoded_list(b).decode_all();
    let mut expected: std::collections::BTreeMap<DocId, Fixed> = Default::default();
    let ia = index.term_info(a).idf_bar;
    let ib = index.term_info(b).idf_bar;
    for p in pa.iter() {
        let s = iiu_index::score::term_score_fixed(ia, index.dl_bar(p.doc_id), p.tf);
        expected.entry(p.doc_id).and_modify(|e| *e = e.saturating_add(s)).or_insert(s);
    }
    for p in pb.iter() {
        let s = iiu_index::score::term_score_fixed(ib, index.dl_bar(p.doc_id), p.tf);
        expected.entry(p.doc_id).and_modify(|e| *e = e.saturating_add(s)).or_insert(s);
    }
    let want: Vec<(DocId, Fixed)> = expected.into_iter().collect();
    assert_eq!(run.results, want);
}

#[test]
fn intra_query_parallelism_cuts_single_term_latency() {
    let index = larger_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 2_000);
    let one = machine.run_query(SimQuery::Single(t), 1).expect("sim completes");
    let eight = machine.run_query(SimQuery::Single(t), 8).expect("sim completes");
    assert_eq!(one.results, eight.results, "parallelism must not change results");
    assert!(
        (eight.cycles as f64) < 0.6 * one.cycles as f64,
        "8 cores ({}) should be well under 60% of 1 core ({})",
        eight.cycles,
        one.cycles
    );
}

#[test]
fn union_latency_flat_in_core_count() {
    // Paper §5.3: "IIU shows the same latency regardless of the number of
    // IIU Cores allocated as the merge unit becomes the bottleneck".
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let a = frequent_term(&index, 0, 100);
    let b = frequent_term(&index, 1, 100);
    let one = machine.run_query(SimQuery::Union(a, b), 1).expect("sim completes");
    let eight = machine.run_query(SimQuery::Union(a, b), 8).expect("sim completes");
    assert_eq!(one.cycles, eight.cycles);
    assert_eq!(one.results, eight.results);
}

#[test]
fn simulation_is_deterministic() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let a = frequent_term(&index, 0, 100);
    let b = frequent_term(&index, 1, 100);
    for q in [SimQuery::Single(a), SimQuery::Intersect(a, b), SimQuery::Union(a, b)] {
        let r1 = machine.run_query(q, 4).expect("sim completes");
        let r2 = machine.run_query(q, 4).expect("sim completes");
        assert_eq!(r1, r2, "same query must simulate identically");
    }
}

#[test]
fn batch_matches_individual_runs_functionally() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t0 = frequent_term(&index, 0, 50);
    let t1 = frequent_term(&index, 1, 50);
    let t2 = frequent_term(&index, 2, 50);
    let queries = vec![
        SimQuery::Single(t0),
        SimQuery::Intersect(t0, t1),
        SimQuery::Union(t1, t2),
        SimQuery::Single(t2),
    ];
    let batch = machine.run_batch(&queries, 2).expect("sim completes");
    assert_eq!(batch.queries.len(), queries.len());
    for (q, run) in queries.iter().zip(&batch.queries) {
        let solo = machine.run_query(*q, 1).expect("sim completes");
        assert_eq!(run.results, solo.results, "batch result differs for {q:?}");
    }
    assert!(batch.cycles > 0);
}

/// One query on one unit is the same run whichever entry point serves it:
/// the batch run's totals equal the solo run's (which cover the MAI/DRAM
/// drain), its per-query run retires no later, and a single arrival at
/// cycle 0 is the batch run.
#[test]
fn one_query_is_one_run_across_entry_points() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let a = frequent_term(&index, 0, 100);
    let b = frequent_term(&index, 1, 100);
    for q in [SimQuery::Single(a), SimQuery::Intersect(a, b), SimQuery::Union(a, b)] {
        let solo = machine.run_query(q, 1).expect("sim completes");
        let batch = machine.run_batch(&[q], 1).expect("sim completes");
        let arrivals = machine.run_arrivals(&[q], &[0], 1).expect("sim completes");
        assert_eq!(batch.cycles, solo.cycles, "{q:?}");
        assert_eq!(batch.mem, solo.mem, "{q:?}");
        assert_eq!(batch.queries[0].results, solo.results, "{q:?}");
        assert_eq!(batch.queries[0].stats, solo.stats, "{q:?}");
        assert!(batch.queries[0].cycles <= solo.cycles, "{q:?}");
        assert_eq!(arrivals, batch, "{q:?}");
    }
}

/// A zero-capacity pipeline wedges every unit; each multi-unit entry
/// point must turn that into `Stalled` at its cycle budget, naming every
/// execution still in flight.
#[test]
fn watchdog_stops_every_multi_unit_entry_point() {
    let index = test_index();
    let cfg = SimConfig { queue_cap: 0, max_cycles: Some(10_000), ..SimConfig::default() };
    let machine = IiuMachine::new(&index, cfg);
    let q: Vec<SimQuery> =
        (0..3).map(|i| SimQuery::Single(frequent_term(&index, i, 50))).collect();
    let stalled = |r: Result<_, SimError>| match r {
        Err(SimError::Stalled { snapshot }) => (snapshot.cycle, snapshot.execs.len()),
        Err(other) => panic!("expected Stalled, got {other:?}"),
        Ok(_) => panic!("a zero-capacity pipeline cannot finish"),
    };
    assert_eq!(stalled(machine.run_batch(&q, 2).map(drop)), (10_000, 2));
    assert_eq!(stalled(machine.run_hybrid(q[0], &q, 2, 2).map(drop)), (10_000, 3));
    // The budget gets the last arrival on top: 10,000 + 50,000.
    assert_eq!(stalled(machine.run_arrivals(&q, &[0, 5, 50_000], 2).map(drop)), (60_000, 2));
}

#[test]
fn more_units_raise_batch_throughput() {
    let index = larger_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let terms: Vec<u32> = (0..8).map(|i| frequent_term(&index, i, 1_000)).collect();
    let queries: Vec<SimQuery> = terms.iter().map(|&t| SimQuery::Single(t)).collect();
    let one = machine.run_batch(&queries, 1).expect("sim completes");
    let four = machine.run_batch(&queries, 4).expect("sim completes");
    // Scaling is sub-linear because DRAM bandwidth saturates — the paper's
    // own observation ("the speedup is eventually limited by the available
    // memory bandwidth", §5.3) — but must still be substantial.
    assert!(
        (four.cycles as f64) < 0.7 * one.cycles as f64,
        "4 units ({}) should be well under 70% of 1 unit ({})",
        four.cycles,
        one.cycles
    );
    assert!(
        four.mem.bandwidth_utilization > one.mem.bandwidth_utilization,
        "more units must push DRAM utilization up ({} vs {})",
        four.mem.bandwidth_utilization,
        one.mem.bandwidth_utilization
    );
}

#[test]
fn bandwidth_utilization_is_sane() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 200);
    let run = machine.run_query(SimQuery::Single(t), 8).expect("sim completes");
    assert!(run.mem.bandwidth_utilization > 0.0);
    assert!(run.mem.bandwidth_utilization <= 1.0);
    assert!(run.mem.peak_mai <= 128);
}

#[test]
fn hbm_helps_bandwidth_bound_batches() {
    // Fig. 19's premise: once inter-query parallelism saturates DDR4
    // bandwidth, an HBM-like memory system restores scaling. (On a tiny
    // latency-bound query HBM's higher access latency would actually
    // hurt, which is also what the paper says.)
    let index = larger_index();
    let ddr = IiuMachine::new(&index, SimConfig::default());
    let hbm = IiuMachine::new(
        &index,
        SimConfig { dram: DramConfig::hbm_like(), ..SimConfig::default() },
    );
    let queries: Vec<SimQuery> =
        (0..16).map(|i| SimQuery::Single(frequent_term(&index, i % 8, 1_000))).collect();
    let r_ddr = ddr.run_batch(&queries, 8).expect("sim completes");
    let r_hbm = hbm.run_batch(&queries, 8).expect("sim completes");
    for (a, b) in r_ddr.queries.iter().zip(&r_hbm.queries) {
        assert_eq!(a.results, b.results);
    }
    assert!(
        (r_hbm.cycles as f64) < 1.05 * r_ddr.cycles as f64,
        "HBM batch ({}) should not lose to DDR4 ({}) when bandwidth-bound",
        r_hbm.cycles,
        r_ddr.cycles
    );
}

#[test]
fn read_bytes_cover_compressed_payload() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 200);
    let run = machine.run_query(SimQuery::Single(t), 1).expect("sim completes");
    let payload = index.encoded_list(t).payload().len() as u64;
    assert!(
        run.mem.bytes_read >= payload,
        "must read at least the compressed payload ({payload} bytes)"
    );
    // Results are 8 bytes each, written in 64-byte lines.
    let result_bytes = run.results.len() as u64 * 8;
    assert!(run.mem.bytes_written >= result_bytes / 8 * 8 / 64 * 64);
}

#[test]
fn hybrid_mode_serves_both_traffic_classes() {
    // Fig. 12c: a latency-critical query co-runs with a throughput backlog.
    let index = larger_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let hot = frequent_term(&index, 0, 2_000);
    let backlog: Vec<SimQuery> =
        (1..9).map(|i| SimQuery::Single(frequent_term(&index, i, 500))).collect();

    let hybrid =
        machine.run_hybrid(SimQuery::Single(hot), &backlog, 4, 4).expect("sim completes");
    let solo = machine.run_query(SimQuery::Single(hot), 4).expect("sim completes");

    // Functional results are unaffected by co-running traffic.
    assert_eq!(hybrid.latency_query.results, solo.results);
    for (h, q) in hybrid.batch.iter().zip(&backlog) {
        let alone = machine.run_query(*q, 1).expect("sim completes");
        assert_eq!(h.results, alone.results);
    }
    // Contention can only slow the latency query down, and not absurdly.
    assert!(hybrid.latency_query.cycles >= solo.cycles);
    assert!(
        (hybrid.latency_query.cycles as f64) < 4.0 * solo.cycles as f64,
        "hybrid latency {} should stay within 4x of isolated {}",
        hybrid.latency_query.cycles,
        solo.cycles
    );
    assert!(hybrid.batch_cycles > 0);
}

#[test]
fn hybrid_rejects_oversubscription() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 50);
    let err = machine
        .run_hybrid(SimQuery::Single(t), &[SimQuery::Single(t)], 8, 8)
        .expect_err("oversubscription must be rejected");
    assert!(matches!(err, SimError::BadRequest { .. }), "{err}");
    assert!(err.to_string().contains("hybrid allocation exceeds the machine"));
}

#[test]
fn open_loop_sojourn_includes_queueing() {
    let index = larger_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 1_000);
    let queries = vec![SimQuery::Single(t); 8];

    // Closed-form service time of one query in isolation.
    let service = machine.run_query(SimQuery::Single(t), 1).expect("sim completes").cycles;

    // All arrive at once on one unit: query i queues behind i others.
    let burst = machine.run_arrivals(&queries, &vec![0; 8], 1).expect("sim completes");
    let sojourns: Vec<u64> = burst.queries.iter().map(|q| q.cycles).collect();
    assert!(
        sojourns.windows(2).all(|w| w[0] <= w[1]),
        "FCFS on one unit: sojourns must be non-decreasing ({sojourns:?})"
    );
    assert!(sojourns[7] > 5 * service, "the last query queues behind seven services");

    // Widely spaced arrivals: no queueing, sojourn ~ service time.
    let spaced: Vec<u64> = (0..8).map(|i| i * service * 4).collect();
    let relaxed = machine.run_arrivals(&queries, &spaced, 1).expect("sim completes");
    for q in &relaxed.queries {
        assert!(
            q.cycles < service * 2,
            "unloaded sojourn {} should be near the {service}-cycle service time",
            q.cycles
        );
    }

    // Functional results are identical regardless of arrival pattern.
    for (a, b) in burst.queries.iter().zip(&relaxed.queries) {
        assert_eq!(a.results, b.results);
    }
}

#[test]
fn open_loop_rejects_unsorted_arrivals() {
    let index = test_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let t = frequent_term(&index, 0, 50);
    let err = machine
        .run_arrivals(&[SimQuery::Single(t); 2], &[5, 1], 1)
        .expect_err("unsorted arrivals must be rejected");
    assert!(matches!(err, SimError::BadRequest { .. }), "{err}");
    assert!(err.to_string().contains("arrivals must be sorted"));
}

#[test]
fn roofline_bounds_hold() {
    // The simulator can never beat physics: cycles are bounded below by
    // both the compute roof (DCU throughput) and the memory roof (bytes
    // moved at peak bandwidth).
    let index = larger_index();
    let machine = IiuMachine::new(&index, SimConfig::default());
    let peak_bytes_per_cycle = machine.config().dram.peak_gb_per_s(); // GB/s = B/ns = B/cycle @1GHz
    for (q, cores) in [
        (SimQuery::Single(frequent_term(&index, 0, 1_000)), 1usize),
        (SimQuery::Single(frequent_term(&index, 0, 1_000)), 8),
        (
            SimQuery::Intersect(
                frequent_term(&index, 1, 500),
                frequent_term(&index, 0, 1_000),
            ),
            4,
        ),
        (SimQuery::Union(frequent_term(&index, 2, 500), frequent_term(&index, 3, 500)), 8),
    ] {
        let run = machine.run_query(q, cores).expect("sim completes");
        let compute_roof = run.stats.postings_decoded / (2 * cores as u64); // 2 DCUs/core
        let memory_roof = ((run.mem.bytes_read + run.mem.bytes_written) as f64
            / peak_bytes_per_cycle) as u64;
        assert!(
            run.cycles >= compute_roof,
            "{q:?}/{cores}: {} cycles beats the {compute_roof}-cycle compute roof",
            run.cycles
        );
        assert!(
            run.cycles >= memory_roof,
            "{q:?}/{cores}: {} cycles beats the {memory_roof}-cycle memory roof",
            run.cycles
        );
        // And a sanity ceiling: within 200x of the tighter roof (no
        // runaway serialization).
        let roof = compute_roof.max(memory_roof).max(1);
        assert!(
            run.cycles < roof * 200,
            "{q:?}/{cores}: {} cycles is absurdly far above the {roof}-cycle roof",
            run.cycles
        );
    }
}

#[test]
fn device_topk_keeps_global_best_and_cuts_writes() {
    let index = larger_index();
    let t = frequent_term(&index, 0, 1_000);
    let host_machine = IiuMachine::new(&index, SimConfig::default());
    let dev_machine =
        IiuMachine::new(&index, SimConfig { device_topk: 10, ..SimConfig::default() });

    let full = host_machine.run_query(SimQuery::Single(t), 8).expect("sim completes");
    let filtered = dev_machine.run_query(SimQuery::Single(t), 8).expect("sim completes");

    // 8 cores × k = 10 survivors at most.
    assert!(filtered.results.len() <= 80);
    assert_eq!(filtered.stats.candidates_seen, full.results.len() as u64);
    // The global top-10 scores must be among the survivors.
    let mut all_scores: Vec<_> = full.results.iter().map(|&(_, s)| s).collect();
    all_scores.sort_unstable_by(|a, b| b.cmp(a));
    let survivors: std::collections::BTreeSet<_> =
        filtered.results.iter().map(|&(d, s)| (d, s)).collect();
    for &want in &all_scores[..10] {
        assert!(
            survivors.iter().any(|&(_, s)| s >= want),
            "a global top-10 score is missing from the device-filtered set"
        );
    }
    // Write traffic collapses.
    assert!(
        filtered.mem.bytes_written * 4 < full.mem.bytes_written,
        "device top-k should slash write traffic ({} vs {})",
        filtered.mem.bytes_written,
        full.mem.bytes_written
    );
}
