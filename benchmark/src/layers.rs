//! The layer replay of the traced run: after the measured phases, the
//! first [`REPLAY_OPS`] ops of the same stream are taken again and the
//! public function of each layer is timed on that op's own inputs. The
//! replay runs single-threaded on an otherwise idle process, so its
//! figures are costs, not waits; waits show in the spans.
//!
//! A workload reports only the layers it runs; the rest read 0.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use iiu_baseline::ops::{decode_full_into, intersect_svs, union_merge};
use iiu_baseline::{
    top_k, CpuEngine, DecodeScratch, FusedTopK, OpCounts, QueryOutcome, ShardedEngine,
};
use iiu_core::{
    estimate_query_cost, CpuSearchEngine, Hit, IncrementalOptions, LiveIndex, Query,
    SearchEngine, ShardedIndex,
};
use iiu_index::score::term_score_fixed;
use iiu_index::{storage, CodecId, EncodedList, Fixed, InvertedIndex, Posting, TermId};
use iiu_serve::{scheduler, QueryService, ShardPoolConfig};
use serde_json::{json, Map};

use crate::inputs::{same_hits, PoolEntry, Stream, K};
use crate::metrics::MetricSet;
use crate::setup::{self, StaticSetup};
use crate::stats::{median, median_u64};

/// Ops of the stream the replay takes.
pub const REPLAY_OPS: usize = 1_000;
/// Timing passes over a batch; the median pass is reported.
const PASSES: usize = 3;

fn timed_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, took) = crate::harness::timed(f);
    (out, took.as_nanos() as u64)
}

/// Median over [`PASSES`] runs of `f`, which returns nanoseconds.
fn median_pass(mut f: impl FnMut() -> u64) -> f64 {
    let passes: Vec<f64> = (0..PASSES).map(|_| f() as f64).collect();
    median(&passes)
}

fn median_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    median_u64(ns) as f64 / 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Single,
    And,
    Or,
}

/// One replayed op, resolved against the index.
struct Op<'a> {
    entry: &'a PoolEntry,
    query: Query,
    shape: Shape,
    a: &'a str,
    b: &'a str,
    ia: TermId,
    ib: TermId,
}

fn resolve<'a>(index: &InvertedIndex, entry: &'a PoolEntry) -> Op<'a> {
    let query = Query::parse(&entry.text).expect("pool texts parse");
    let mut words = entry.text.split(' ');
    let a = words.next().expect("a pool text has a first term");
    let (shape, b) = match (words.next(), words.next()) {
        (Some("AND"), Some(b)) => (Shape::And, b),
        (Some("OR"), Some(b)) => (Shape::Or, b),
        _ => (Shape::Single, a),
    };
    let id = |t: &str| index.term_id(t).expect("pool terms are indexed");
    Op { entry, query, shape, a, b, ia: id(a), ib: id(b) }
}

impl Op<'_> {
    /// The SvS order the engine uses: the shorter list drives.
    fn short_long(&self, index: &InvertedIndex) -> (TermId, TermId) {
        if index.term_info(self.ia).df <= index.term_info(self.ib).df {
            (self.ia, self.ib)
        } else {
            (self.ib, self.ia)
        }
    }

    fn run(&self, engine: &mut CpuEngine<'_>) -> QueryOutcome {
        match self.shape {
            Shape::Single => engine.search_single(self.a, K),
            Shape::And => engine.search_intersection(self.a, self.b, K),
            Shape::Or => engine.search_union(self.a, self.b, K),
        }
        .expect("the engine answers every pool query")
    }

    fn run_sharded(&self, engine: &ShardedEngine) -> Vec<Hit> {
        match self.shape {
            Shape::Single => engine.search_single(self.a, K),
            Shape::And => engine.search_intersection(self.a, self.b, K),
            Shape::Or => engine.search_union(self.a, self.b, K),
        }
        .expect("the sharded engine answers every pool query")
        .hits
    }
}

/// Set-up steps every static workload took, as medians over the set-ups.
pub fn static_setup_metrics(setup: &StaticSetup, metrics: &mut MetricSet) {
    let n = setup.steps.len() as u64;
    let med =
        |f: fn(&setup::Steps) -> f64| median(&setup.steps.iter().map(f).collect::<Vec<_>>());
    metrics.set("workloads.corpus.generate_s", med(|s| s.generate_s), n);
    metrics.set(
        "index.build_ns_per_posting",
        med(|s| s.build_s) * 1e9 / setup.postings as f64,
        n,
    );
    metrics.set("index.io.serialize_s", med(|s| s.serialize_s), n);
    if setup.index.source().is_mapped() {
        metrics.set("index.storage.map_s", median(&setup.opens), setup.opens.len() as u64);
    } else {
        metrics.set("index.io.load_s", med(|s| s.load_s), n);
    }
}

/// Totals of one timed component over the replayed ops.
#[derive(Default)]
struct Cost {
    ns: u64,
    units: u64,
}

impl Cost {
    fn add(&mut self, ns: u64, units: u64) {
        self.ns += ns;
        self.units += units;
    }

    fn per_unit(&self) -> f64 {
        self.ns as f64 / self.units.max(1) as f64
    }
}

/// Scores one list's postings the way the exhaustive engine does.
fn score_single(index: &InvertedIndex, id: TermId, postings: &[Posting]) -> Vec<Hit> {
    let idf = index.term_info(id).idf_bar;
    postings
        .iter()
        .map(|p| Hit {
            doc_id: p.doc_id,
            score: term_score_fixed(idf, index.dl_bar(p.doc_id), p.tf).to_f64(),
        })
        .collect()
}

fn pair_score(
    index: &InvertedIndex,
    ia: TermId,
    ib: TermId,
    doc: u32,
    tf_a: u32,
    tf_b: u32,
) -> Fixed {
    let dl = index.dl_bar(doc);
    term_score_fixed(index.term_info(ia).idf_bar, dl, tf_a).saturating_add(term_score_fixed(
        index.term_info(ib).idf_bar,
        dl,
        tf_b,
    ))
}

/// Scores a set operation's `(doc, tf_a, tf_b)` rows the way the
/// exhaustive engine does.
fn score_pairs(
    index: &InvertedIndex,
    ia: TermId,
    ib: TermId,
    rows: &[(u32, u32, u32)],
) -> Vec<Hit> {
    rows.iter()
        .map(|&(doc, tf_a, tf_b)| Hit {
            doc_id: doc,
            score: pair_score(index, ia, ib, doc, tf_a, tf_b).to_f64(),
        })
        .collect()
}

/// Decode cost of `lists` in nanoseconds per posting: every block of
/// every list through `try_decode_block_into`.
fn decode_ns_per_posting(lists: &[&EncodedList]) -> f64 {
    let postings: u64 = lists.iter().map(|l| l.num_postings()).sum();
    let mut out = Vec::new();
    let ns = median_pass(|| {
        timed_ns(|| {
            for list in lists {
                out.clear();
                for b in 0..list.num_blocks() {
                    list.try_decode_block_into(b, &mut out).expect("a verified list decodes");
                }
                black_box(&out);
            }
        })
        .1
    });
    ns / postings.max(1) as f64
}

/// Engine, set-operation, scoring and top-k costs over the replayed ops.
/// Returns per-op nanoseconds of a warm pruned `CpuEngine` and a warm
/// `CpuSearchEngine::search`, for the layers above to subtract.
fn replay_engine(
    index: &InvertedIndex,
    ops: &[Op<'_>],
    metrics: &mut MetricSet,
    info: &mut Map,
) -> (Vec<u64>, Vec<u64>) {
    let n = ops.len() as u64;
    let mut pruned = CpuEngine::new(index).with_pruning(true);
    let mut exhaustive = CpuEngine::new(index);
    let mut search = CpuSearchEngine::new(index).with_pruning(true);
    let mut scratch = DecodeScratch::new();
    let mut postings = Vec::new();

    let mut pruned_ns: [Vec<u64>; 3] = Default::default();
    let mut exhaustive_ns: [Vec<u64>; 3] = Default::default();
    let (mut per_op_pruned, mut per_op_search) = (Vec::new(), Vec::new());
    let mut counts = OpCounts::default();
    let (mut decode, mut intersect, mut union, mut score, mut select, mut push) = (
        Cost::default(),
        Cost::default(),
        Cost::default(),
        Cost::default(),
        Cost::default(),
        Cost::default(),
    );
    let (mut parts_ns, mut whole_ns) = (0u64, 0u64);

    for op in ops {
        let (outcome, ns) = timed_ns(|| op.run(&mut pruned));
        assert!(
            same_hits(&outcome.hits, &op.entry.reference),
            "replay diverged on {:?}",
            op.entry.text
        );
        counts.merge(&outcome.counts);
        pruned_ns[op.shape as usize].push(ns);
        // For the layers above, which subtract one from the other: each
        // taken on its second run of the op, so that neither is charged
        // for warming the processor's caches for the other.
        black_box(search.search(&op.query, K).is_ok());
        per_op_pruned.push(timed_ns(|| op.run(&mut pruned)).1);
        per_op_search.push(timed_ns(|| search.search(&op.query, K)).1);
        let (_, whole) = timed_ns(|| op.run(&mut exhaustive));
        exhaustive_ns[op.shape as usize].push(whole);
        whole_ns += whole;

        // The same op taken apart: set operation (or plain decode),
        // scoring, selection.
        let mut c = OpCounts::default();
        let (hits, set_ns, score_ns) = match op.shape {
            Shape::Single => {
                let list = index.encoded_list(op.ia);
                let ((), d) = timed_ns(|| decode_full_into(list, &mut c, &mut postings));
                decode.add(d, postings.len() as u64);
                let (hits, s) = timed_ns(|| score_single(index, op.ia, &postings));
                (hits, d, s)
            }
            Shape::And => {
                let (short, long) = op.short_long(index);
                let (rows, d) = timed_ns(|| {
                    intersect_svs(
                        index.encoded_list(short),
                        index.encoded_list(long),
                        long,
                        &mut c,
                        &mut scratch,
                    )
                });
                intersect.add(d, index.term_info(short).df);
                let (hits, s) = timed_ns(|| score_pairs(index, short, long, &rows));
                (hits, d, s)
            }
            Shape::Or => {
                let (rows, d) = timed_ns(|| {
                    union_merge(
                        index.encoded_list(op.ia),
                        index.encoded_list(op.ib),
                        &mut c,
                        &mut scratch,
                    )
                });
                union.add(d, rows.len() as u64);
                let (hits, s) = timed_ns(|| score_pairs(index, op.ia, op.ib, &rows));
                (hits, d, s)
            }
        };
        score.add(score_ns, hits.len() as u64);
        let candidates = hits.len() as u64;
        let fixed: Vec<(u32, Fixed)> =
            hits.iter().map(|h| (h.doc_id, Fixed::from_f64(h.score))).collect();
        let (top, select_ns) = timed_ns(|| top_k(hits, K));
        black_box(top);
        select.add(select_ns, candidates);
        let (heap, push_ns) = timed_ns(|| {
            let mut heap = FusedTopK::new(K);
            for &(doc, s) in &fixed {
                heap.push(doc, s);
            }
            heap
        });
        black_box(heap);
        push.add(push_ns, candidates);
        parts_ns += set_ns + score_ns + select_ns;
    }

    for (shape, name) in [(Shape::Single, "single"), (Shape::And, "and"), (Shape::Or, "or")] {
        let i = shape as usize;
        if !pruned_ns[i].is_empty() {
            let count = pruned_ns[i].len() as u64;
            metrics.set(
                &format!("baseline.engine.{name}_us"),
                median_us(&mut pruned_ns[i]),
                count,
            );
            metrics.set(
                &format!("baseline.engine.exhaustive_{name}_us"),
                median_us(&mut exhaustive_ns[i]),
                count,
            );
        }
    }
    metrics.set(
        "baseline.engine.replay_coverage",
        parts_ns as f64 / whole_ns.max(1) as f64,
        n,
    );
    metrics.set("baseline.ops.decode_full_ns_per_posting", decode.per_unit(), decode.units);
    metrics.set("baseline.ops.intersect_ns_per_probe", intersect.per_unit(), intersect.units);
    metrics.set("baseline.ops.union_ns_per_result", union.per_unit(), union.units);
    metrics.set("index.score.ns_per_doc", score.per_unit(), score.units);
    metrics.set("baseline.topk.select_ns_per_candidate", select.per_unit(), select.units);
    metrics.set("baseline.topk.push_ns", push.per_unit(), push.units);
    let blocks = counts.blocks_skipped + counts.blocks_decoded;
    metrics.set(
        "baseline.pruned.blocks_skipped_share",
        counts.blocks_skipped as f64 / blocks.max(1) as f64,
        blocks,
    );
    metrics.set(
        "baseline.pruned.postings_decoded_per_op",
        counts.postings_decoded as f64 / n as f64,
        n,
    );
    let probes = counts.cache_hits + counts.cache_misses;
    metrics.set(
        "baseline.cache.hit_rate",
        counts.cache_hits as f64 / probes.max(1) as f64,
        probes,
    );
    let overhead_ns =
        per_op_search.iter().sum::<u64>() as f64 - per_op_pruned.iter().sum::<u64>() as f64;
    metrics.set("core.engine.search_overhead_us", overhead_ns / n as f64 / 1e3, n);
    info.insert(
        "replay_counts".into(),
        json!({
            "ops": n,
            "postings_decoded": counts.postings_decoded,
            "blocks_decoded": counts.blocks_decoded,
            "blocks_skipped": counts.blocks_skipped,
            "docs_scored": counts.docs_scored,
            "cache_hits": counts.cache_hits,
            "cache_misses": counts.cache_misses,
        }),
    );
    (per_op_pruned, per_op_search)
}

/// Codec and skip-list costs on the lists the replayed ops read.
fn replay_index(index: &InvertedIndex, ops: &[Op<'_>], metrics: &mut MetricSet) {
    let ids: BTreeSet<TermId> = ops.iter().flat_map(|op| [op.ia, op.ib]).collect();
    let lists: Vec<&EncodedList> = ids.iter().map(|&id| index.encoded_list(id)).collect();
    let postings: u64 = lists.iter().map(|l| l.num_postings()).sum();
    metrics.set("index.codec.decode_ns_per_posting", decode_ns_per_posting(&lists), postings);
    for codec in CodecId::ALL {
        let recoded: Vec<EncodedList> = lists
            .iter()
            .map(|l| {
                let lens: Vec<usize> = l.metas().iter().map(|m| m.count as usize).collect();
                EncodedList::encode_with(&l.decode_all(), &lens, codec)
                    .expect("a decoded list re-encodes")
            })
            .collect();
        let refs: Vec<&EncodedList> = recoded.iter().collect();
        let name = format!("index.codec.decode_ns_per_posting.{}", codec.name());
        metrics.set(&name, decode_ns_per_posting(&refs), postings);
    }

    // One skip-list probe per docID of the short list, as SvS issues them.
    let pairs: Vec<(Vec<Posting>, &EncodedList)> = ops
        .iter()
        .filter(|op| op.shape == Shape::And)
        .map(|op| {
            let (short, long) = op.short_long(index);
            (index.encoded_list(short).decode_all().into_inner(), index.encoded_list(long))
        })
        .collect();
    let probes: u64 = pairs.iter().map(|(s, _)| s.len() as u64).sum();
    if probes > 0 {
        let ns = median_pass(|| {
            timed_ns(|| {
                for (short, long) in &pairs {
                    for p in short {
                        black_box(long.candidate_block(p.doc_id));
                    }
                }
            })
            .1
        });
        metrics.set("index.skip.probe_ns", ns / probes as f64, probes);
    }
}

/// First and second `verify_term` of every replayed term on a fresh
/// mapping: the lazy per-record CRC, then its cached verdict.
fn replay_mapping(setup: &StaticSetup, ops: &[Op<'_>], metrics: &mut MetricSet) {
    let fresh = storage::map_index(&setup.path).expect("mapping the index");
    let ids: BTreeSet<TermId> = ops.iter().flat_map(|op| [op.ia, op.ib]).collect();
    let mut first: Vec<u64> =
        ids.iter().map(|&id| timed_ns(|| fresh.verify_term(id)).1).collect();
    let mut warm: Vec<u64> =
        ids.iter().map(|&id| timed_ns(|| fresh.verify_term(id)).1).collect();
    metrics.set("index.storage.first_touch_us", median_us(&mut first), first.len() as u64);
    warm.sort_unstable();
    metrics.set("index.storage.verify_warm_ns", median_u64(&warm) as f64, warm.len() as u64);
}

/// The shard pool and the fan-out path, against the slowest shard alone
/// and against the unsharded engine, on the replayed heavy ops.
fn replay_sharded(
    index: &InvertedIndex,
    ops: &[Op<'_>],
    unsharded_ns: &[u64],
    metrics: &mut MetricSet,
) {
    let (sharded, split_ns) = timed_ns(|| {
        ShardedIndex::split(index, setup::SERVE_SHARDS).expect("splitting the index")
    });
    metrics.set("index.shard.split_s", split_ns as f64 / 1e9, 1);
    let sharded = Arc::new(sharded);
    let cfg = ShardPoolConfig {
        pool_threads: setup::POOL_THREADS,
        deadline: Some(setup::DEADLINE),
        ..ShardPoolConfig::default()
    };
    let engine = ShardedEngine::with_config(Arc::clone(&sharded), cfg).with_pruning(true);

    let mut roundtrip: Vec<u64> =
        (0..1_000).map(|_| timed_ns(|| engine.pool().run(|_, _, _| ())).1).collect();
    metrics.set(
        "baseline.pool.roundtrip_us",
        median_us(&mut roundtrip),
        roundtrip.len() as u64,
    );

    let mut shard_engines: Vec<CpuEngine<'_>> =
        sharded.shards().iter().map(|s| CpuEngine::new(s).with_pruning(true)).collect();
    let (mut fanout, mut critical, mut tax) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fanout_sum, mut unsharded_sum) = (0u64, 0u64);
    for (op, &alone_ns) in ops.iter().zip(unsharded_ns).filter(|(op, _)| op.entry.heavy) {
        let (hits, ns) = timed_ns(|| op.run_sharded(&engine));
        assert!(
            same_hits(&hits, &op.entry.reference),
            "fan-out diverged on {:?}",
            op.entry.text
        );
        let slowest =
            shard_engines.iter_mut().map(|e| timed_ns(|| op.run(e)).1).max().unwrap_or(0);
        fanout.push(ns);
        critical.push(slowest);
        tax.push(ns.saturating_sub(slowest));
        fanout_sum += ns;
        unsharded_sum += alone_ns;
    }
    if !fanout.is_empty() {
        let n = fanout.len() as u64;
        metrics.set("baseline.sharded.search_us", median_us(&mut fanout), n);
        metrics.set("baseline.sharded.critical_shard_us", median_us(&mut critical), n);
        metrics.set("baseline.sharded.fanout_tax_us", median_us(&mut tax), n);
        metrics.set("baseline.sharded.speedup", unsharded_sum as f64 / fanout_sum as f64, n);
    }
}

/// Mean nanoseconds of `f` over `items`, median of [`PASSES`] passes: for
/// calls too short to time one by one.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    median_pass(|| timed_ns(|| items.iter().for_each(&mut f)).1) / items.len().max(1) as f64
}

/// What the serve layer adds around the engine, measured on the idle
/// service: admission, the round trip of a query that does no engine
/// work, and the round trip of each replayed inline op minus the same
/// op's direct engine time (`direct_ns`, aligned with `queries`).
pub fn replay_service(
    service: &QueryService,
    queries: &[(Query, u64)],
    metrics: &mut MetricSet,
) {
    let unknown = Query::term("zznosuchterm");
    let mut empty: Vec<u64> =
        (0..200).map(|_| timed_ns(|| service.search_blocking(unknown.clone(), K)).1).collect();
    metrics.set("serve.roundtrip_empty_us", median_us(&mut empty), empty.len() as u64);

    let (mut submit, mut over) = (Vec::new(), Vec::new());
    for (query, direct_ns) in queries {
        let query = query.clone();
        let start = Instant::now();
        let Ok(pending) = service.submit(query, K) else { continue };
        let submitted = start.elapsed().as_nanos() as u64;
        if pending.wait().is_ok() {
            submit.push(submitted);
            over.push((start.elapsed().as_nanos() as u64).saturating_sub(*direct_ns));
        }
    }
    if !submit.is_empty() {
        let n = submit.len() as u64;
        submit.sort_unstable();
        metrics.set("serve.submit_ns", median_u64(&submit) as f64, n);
        metrics.set("serve.overhead_us", median_us(&mut over), n);
    }
}

/// The whole replay of one static workload.
pub fn replay_static(
    setup: &StaticSetup,
    pool: &[PoolEntry],
    stream: &Stream,
    metrics: &mut MetricSet,
    info: &mut Map,
) {
    let index: &InvertedIndex = &setup.index;
    let ops: Vec<Op<'_>> = stream
        .ops
        .iter()
        .take(REPLAY_OPS)
        .map(|&e| resolve(index, &pool[e as usize]))
        .collect();
    let texts: Vec<&str> = ops.iter().map(|op| op.entry.text.as_str()).collect();
    metrics.set(
        "core.query.parse_ns",
        mean_ns(&texts, |t| drop(black_box(Query::parse(t)))),
        ops.len() as u64,
    );
    metrics.set(
        "core.cost.estimate_ns",
        mean_ns(&ops, |op| {
            black_box(estimate_query_cost(index, &op.query.terms()));
        }),
        ops.len() as u64,
    );

    replay_index(index, &ops, metrics);
    let (pruned_ns, search_ns) = replay_engine(index, &ops, metrics, info);
    if index.source().is_mapped() {
        replay_mapping(setup, &ops, metrics);
    }
    if let Some(service) = &setup.service {
        let scheduler_cfg = setup::serve_config().scheduler;
        metrics.set(
            "serve.scheduler.route_ns",
            mean_ns(&ops, |op| {
                black_box(scheduler::route(index, &op.query, &scheduler_cfg));
            }),
            ops.len() as u64,
        );
        let inline: Vec<(Query, u64)> = ops
            .iter()
            .zip(&search_ns)
            .filter(|(op, _)| !op.entry.heavy)
            .map(|(op, &ns)| (op.query.clone(), ns))
            .collect();
        replay_service(service, &inline, metrics);
        replay_sharded(index, &ops, &pruned_ns, metrics);
    }
}

/// The replay of `live_ingest_search`: reads straight on the reopened
/// live index with the writer idle, then the serve layer around them.
pub fn replay_live(
    dir: &std::path::Path,
    pool: &[PoolEntry],
    stream: &Stream,
    metrics: &mut MetricSet,
) {
    let live = Arc::new(
        LiveIndex::open(dir, IncrementalOptions::default()).expect("reopening the live index"),
    );
    let entries: Vec<&PoolEntry> =
        stream.ops.iter().take(REPLAY_OPS).map(|&e| &pool[e as usize]).collect();
    let texts: Vec<&str> = entries.iter().map(|e| e.text.as_str()).collect();
    metrics.set(
        "core.query.parse_ns",
        mean_ns(&texts, |t| drop(black_box(Query::parse(t)))),
        texts.len() as u64,
    );

    let queries: Vec<(Query, u64)> = entries
        .iter()
        .map(|e| {
            let query = Query::parse(&e.text).expect("pool texts parse");
            let (answer, ns) = timed_ns(|| live.search(&query, K));
            let hits = answer.expect("the live index answers every pool query").hits;
            assert!(same_hits(&hits, &e.reference), "replay diverged on {:?}", e.text);
            (query, ns)
        })
        .collect();
    let mut direct: Vec<u64> = queries.iter().map(|q| q.1).collect();
    metrics.set("core.live.search_us", median_us(&mut direct), direct.len() as u64);

    let service = QueryService::start_live(Arc::clone(&live), crate::live::serve_config());
    replay_service(&service, &queries, metrics);
}
