//! The four closed-loop workloads over a static index.

use iiu_core::{CpuSearchEngine, Hit, Query, SearchEngine};
use iiu_index::InvertedIndex;
use iiu_serve::{HealthSnapshot, QueryService};
use serde_json::{json, Map};

use crate::harness::{closed_loop, Client, Plan, Segments, Tracing};
use crate::inputs::{
    draw_texts, label, pool_fingerprint, reference_pool, term_dfs, PoolEntry, Stream,
    TermClass, K, POOL,
};
use crate::layers;
use crate::metrics::{MetricSet, Report};
use crate::rng::SplitMix64;
use crate::setup::{self, static_setup, Loader, Scratch, StaticSetup};
use crate::stats::spread;
use crate::trace::{self, SpanName, Tracer};
use crate::{fingerprints, Options};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EngineHeavyHeap,
    EngineHeavyMmap,
    ServeLight,
    ServeMixed,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::EngineHeavyHeap => "engine_heavy_heap",
            Kind::EngineHeavyMmap => "engine_heavy_mmap",
            Kind::ServeLight => "serve_light",
            Kind::ServeMixed => "serve_mixed",
        }
    }

    fn loader(self) -> Loader {
        match self {
            Kind::EngineHeavyHeap => Loader::Heap,
            _ => Loader::Mapped,
        }
    }

    fn serves(self) -> bool {
        matches!(self, Kind::ServeLight | Kind::ServeMixed)
    }
}

/// Share of `serve_mixed`'s ops that are heavy queries.
const MIXED_HEAVY_SHARE: f64 = 0.1;

/// A library caller of the engine: parse, then search, on its own thread.
struct EngineClient<'a> {
    engine: CpuSearchEngine<'a>,
}

impl Client for EngineClient<'_> {
    fn op(&mut self, text: &str, tracer: &mut Tracer) -> Option<Vec<Hit>> {
        let query = tracer.span(SpanName::Parse, || Query::parse(text)).ok()?;
        let response =
            tracer.span(SpanName::EngineSearch, || self.engine.search(&query, K)).ok()?;
        Some(response.hits)
    }
}

/// A front end holding one request: parse, submit, wait. The serve
/// workloads run a single one. Two keep the service's workers from ever
/// parking, which is seven times the throughput on the two-core reference
/// box but a regime that swings 15 % run to run with where the scheduler
/// happens to place six threads; one is a strict pipeline (client, worker,
/// client) that repeats within 4 %. `serve_bench` keeps covering
/// concurrency.
pub struct ServeClient<'a> {
    pub service: &'a QueryService,
}

impl Client for ServeClient<'_> {
    fn op(&mut self, text: &str, tracer: &mut Tracer) -> Option<Vec<Hit>> {
        let query = tracer.span(SpanName::Parse, || Query::parse(text)).ok()?;
        let pending = tracer.span(SpanName::Submit, || self.service.submit(query, K)).ok()?;
        let response = tracer.span(SpanName::Wait, || pending.wait()).ok()?;
        Some(response.hits)
    }
}

/// Draws the workload's pool texts and op stream from the seed.
fn draw_inputs(kind: Kind, index: &InvertedIndex, seed: u64) -> (Vec<String>, Stream) {
    let terms = &term_dfs(index);
    let light = || {
        draw_texts(
            terms,
            TermClass::Light,
            POOL,
            &mut SplitMix64::substream(seed, label::LIGHT_POOL),
        )
    };
    let heavy = || {
        draw_texts(
            terms,
            TermClass::Heavy,
            POOL,
            &mut SplitMix64::substream(seed, label::HEAVY_POOL),
        )
    };
    let mut stream_rng = SplitMix64::substream(seed, label::STREAM);
    match kind {
        Kind::EngineHeavyHeap | Kind::EngineHeavyMmap => {
            (heavy(), Stream::uniform(&mut stream_rng))
        }
        Kind::ServeLight => (light(), Stream::zipf_with_heavy(0.0, &mut stream_rng)),
        Kind::ServeMixed => {
            let mut texts = light();
            texts.extend(heavy());
            (texts, Stream::zipf_with_heavy(MIXED_HEAVY_SHARE, &mut stream_rng))
        }
    }
}

/// Runs the measured phase: through the service when set-up started one,
/// else straight on the engine.
fn measure(
    setup: &StaticSetup,
    pool: &[PoolEntry],
    stream: &Stream,
    tracing: Tracing,
    opts: &Options,
) -> crate::harness::Phase {
    let (plan, epoch) = (&Plan::for_seconds(opts.seconds), opts.epoch);
    match &setup.service {
        Some(service) => {
            let mut clients = [ServeClient { service }];
            closed_loop(&mut clients, pool, stream, plan, true, tracing, epoch)
        }
        None => {
            let mut clients = [EngineClient {
                engine: CpuSearchEngine::new(&setup.index).with_pruning(true),
            }];
            closed_loop(&mut clients, pool, stream, plan, true, tracing, epoch)
        }
    }
}

/// The serve layer's own counters over the measured phase.
fn record_health(before: &HealthSnapshot, after: &HealthSnapshot, metrics: &mut MetricSet) {
    let answered = (after.answered() - before.answered()).max(1);
    let routed = (after.sched_inline - before.sched_inline + after.sched_fanout
        - before.sched_fanout)
        .max(1);
    let share = |a: u64, b: u64, of: u64| (a - b) as f64 / of as f64;
    metrics.set(
        "serve.sched.inline_share",
        share(after.sched_inline, before.sched_inline, routed),
        routed,
    );
    metrics.set(
        "serve.sched.fanout_share",
        share(after.sched_fanout, before.sched_fanout, routed),
        routed,
    );
    metrics.set(
        "serve.degraded_share",
        share(after.degraded_ok, before.degraded_ok, answered),
        answered,
    );
    metrics.set("serve.shed_overload", (after.shed_overload - before.shed_overload) as f64, 1);
    metrics.set("serve.shed_deadline", (after.shed_deadline - before.shed_deadline) as f64, 1);
    metrics.set("serve.failed", (after.failed - before.failed) as f64, 1);
    metrics.set(
        "serve.shard.partials",
        (after.shard_partials - before.shard_partials) as f64,
        1,
    );
    metrics.set("serve.shard.rescues", (after.shard_rescues - before.shard_rescues) as f64, 1);
    let respawns = |h: &HealthSnapshot| h.pool_workers.iter().map(|w| w.respawns).sum::<u64>();
    metrics.set("serve.pool.respawns", (respawns(after) - respawns(before)) as f64, 1);
}

pub fn run(kind: Kind, opts: &Options) -> Report {
    let scratch = Scratch::new(kind.name()).expect("creating the scratch directory");
    let serve_cfg = kind.serves().then(setup::serve_config);
    let mut setup = static_setup(
        opts.docs,
        opts.seed,
        kind.loader(),
        serve_cfg.as_ref(),
        scratch.path(),
        opts.setups,
    );

    let (texts, stream) = draw_inputs(kind, &setup.index, opts.seed);
    let pool_fp = pool_fingerprint(&texts);
    // The as-built index goes away before anything is measured, so that
    // it does not count as resident.
    let pool =
        reference_pool(&setup.built.take().expect("set-up keeps the built index"), texts);
    crate::sysinfo::release_freed_memory();

    let mut info = Map::new();
    let inputs_ok = fingerprints::record(
        kind.name(),
        opts,
        &setup.corpus_fingerprint,
        &pool_fp,
        &stream,
        &pool,
        &mut info,
    );
    info.insert(
        "config".into(),
        json!({
            "docs": opts.docs,
            "postings": setup.postings,
            "index_bytes": setup.file_bytes,
            "setups": opts.setups,
            "segments": Plan::for_seconds(opts.seconds).segments,
            "segment_s": Plan::for_seconds(opts.seconds).segment.as_secs_f64(),
            "client_threads": 1u32,
            "serve_workers": if kind.serves() { setup::SERVE_WORKERS } else { 0 },
            "shards": if kind.serves() { setup::SERVE_SHARDS } else { 1 },
            "pool_threads": if kind.serves() { setup::POOL_THREADS } else { 0 },
            "loop": "closed, one op outstanding per client",
        }),
    );

    let mut metrics = MetricSet::default();
    let health_before = setup.service.as_ref().map(QueryService::health);
    let tracing = if opts.traced { Tracing::OddSegments } else { Tracing::Off };
    let phase = measure(&setup, &pool, &stream, tracing, opts);
    let segs = Segments::of(&phase);
    if opts.traced {
        metrics.set("bench.trace.overhead_share", segs.tracing_overhead(), segs.completed());
        let path = scratch.trace_path(kind.name());
        trace::report(&phase.tracers, &path, kind.name(), opts.seed, &mut metrics, &mut info);
        if let (Some(before), Some(service)) = (&health_before, &setup.service) {
            record_health(before, &service.health(), &mut metrics);
        }
        layers::static_setup_metrics(&setup, &mut metrics);
        layers::replay_static(&setup, &pool, &stream, &mut metrics, &mut info);
    } else {
        segs.record(&mut metrics);
        let totals: Vec<f64> = setup.steps.iter().map(setup::Steps::total_s).collect();
        metrics.set_spread("setup_s", spread(&totals), totals.len() as u64);
        metrics.set_spread("open_s", spread(&setup.opens), setup.opens.len() as u64);
        metrics.set("rss_mib", phase.rss_mib, 1);
        metrics.set(
            "bits_per_posting",
            setup.file_bytes as f64 * 8.0 / setup.postings as f64,
            setup.postings,
        );
        info.insert("op_p999_us".into(), json!(segs.p999_us));
        info.insert("segment_ops_per_s".into(), json!(segs.ops_per_s.clone()));
        info.insert("opens_s".into(), json!(setup.opens.clone()));
    }

    Report {
        workload: kind.name(),
        traced: opts.traced,
        correct: segs.failed == 0 && inputs_ok,
        attempted: segs.attempted,
        failed: segs.failed,
        metrics,
        info,
    }
}
