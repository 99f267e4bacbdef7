//! `live_ingest_search`: reads on a live index that is being written.
//!
//! Set-up populates the index the way a deployment fills one: unpaced
//! 64-document batches until nine seals and one merge have happened, which
//! is where the write path's costs are taken (they are in `setup_s` and in
//! the `index.incremental.*` layer metrics). The measured phase then runs
//! one closed-loop reader through the service, as `serve_light` does,
//! beside an open-loop writer with a durable batch due every
//! [`BATCH_EVERY`]: few enough documents that no seal falls into the
//! phase. The reads go through `LiveIndex::search` (two sealed segments
//! unioned with the growing write buffer), a different engine from the
//! static workloads', under the lock the writer takes for each batch.
//!
//! Two things the issue asked for were given up for repeatability, after
//! measuring them on the shared two-core reference box:
//!
//! * Seals and merges inside the measured phase. Each is one fsync-bound
//!   event; with nine seals and one merge in ten seconds the read tail was
//!   the duration of one or two of them and moved 20-40 % run to run.
//! * A paced reader and a writer busy enough to show in the read tail.
//!   Paced reads a millisecond apart let both cores go idle between ops,
//!   and their latency was then mostly timer and wake-up delay, in two
//!   regimes (p50 150 or 230 us) the run could not choose between; with
//!   the writer holding the lock more than 1 % of the time the read p99
//!   was the duration of a WAL fsync, which moved 2-3x run to run.
//!
//! What remains repeats within a few percent. The writer's own latency is
//! reported (`serve.ingest.ack_*`, taken from each batch's due time), as
//! is how late it issued.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use iiu_core::{IncrementalOptions, IngestDoc, LiveIndex, Query};
use iiu_serve::{QueryService, ServeConfig};
use iiu_workloads::CorpusConfig;
use serde_json::{json, Map};

use crate::closed::ServeClient;
use crate::harness::{closed_loop, ns_since, sleep_until, Plan, Segments, Tracing};
use crate::inputs::{
    corpus_fingerprint, corpus_seed, draw_texts, label, pool_fingerprint, reference_pool,
    same_hits, Stream, TermClass, K, POOL,
};
use crate::layers;
use crate::metrics::{MetricSet, Report};
use crate::rng::SplitMix64;
use crate::setup::{self, timed, Scratch};
use crate::stats::{median, median_u64, percentile, spread};
use crate::sysinfo::{dir_bytes, release_freed_memory};
use crate::trace::{self, SpanName, Tracer};
use crate::{fingerprints, Options};

pub const NAME: &str = "live_ingest_search";

/// Documents ingested during set-up, in batches of [`POPULATE_BATCH`]:
/// nine seals at the default threshold of 4,096, the eighth of which
/// triggers the merge, leaving two segments and an empty buffer.
const POPULATE_DOCS: usize = 9 * 4_096;
const POPULATE_BATCH: usize = 64;
/// Documents per measured batch (one WAL fsync each) and how often one is
/// due: two durable writes a second, 256 documents a second. Each holds
/// the index for a millisecond or two, under 1 % of the time.
const BATCH_DOCS: usize = 128;
const BATCH_EVERY: Duration = Duration::from_millis(500);
/// At most this many measured batches, so that the buffer stays below
/// the seal threshold however long the phase is.
const MAX_BATCHES: usize = 31;
/// Reopens of the populated directory after the run; `open_s` is their
/// median.
const REOPENS: usize = 5;
/// A generator that finished more than this share behind its schedule
/// did not offer the stated load: the run is marked invalid.
const MAX_OVERRUN: f64 = 0.05;

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: setup::SERVE_WORKERS,
        queue_capacity: setup::QUEUE_CAPACITY,
        default_deadline: setup::DEADLINE,
        ..ServeConfig::default()
    }
}

/// A fixed-rate open-loop schedule: op `i` is due at `start + i * every`
/// whatever happened to the ops before it.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    start_ns: u64,
    every_ns: u64,
}

impl Schedule {
    fn new(start_ns: u64, every: Duration) -> Self {
        Schedule { start_ns, every_ns: every.as_nanos() as u64 }
    }

    fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + i as u64 * self.every_ns
    }

    /// How far behind a generator that issued `ops` ops finished, as a
    /// share of the schedule's length: 0 when the last op completed
    /// within its own slot, negative never.
    fn overrun(&self, ops: usize, finished_ns: u64) -> f64 {
        let length = ops as u64 * self.every_ns;
        finished_ns.saturating_sub(self.start_ns + length) as f64 / length.max(1) as f64
    }
}

/// What an acknowledged batch did besides the WAL append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchKind {
    Plain,
    Sealed,
    /// Sealed, and the seal triggered the merge.
    Merged,
}

/// Classifies batches from outside, after their ack: by the change in
/// `doc_counts()` and, after a seal, the directory listing. Also keeps
/// the write-path byte counts.
struct WriteObserver<'a> {
    live: &'a LiveIndex,
    dir: &'a Path,
    sealed_docs: u64,
    wal_bytes: u64,
    seen_segments: BTreeSet<String>,
    /// Bytes of every segment file that ever appeared after a seal. The
    /// segment a merging seal writes and merges away within one call is
    /// never seen.
    segment_bytes_written: u64,
}

fn segment_files(dir: &Path) -> Vec<(String, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name.starts_with("seg-") && name.ends_with(".iiu"))
                .then(|| (name, e.metadata().map_or(0, |m| m.len())))
        })
        .collect()
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

impl<'a> WriteObserver<'a> {
    fn new(live: &'a LiveIndex, dir: &'a Path) -> Self {
        WriteObserver {
            live,
            dir,
            sealed_docs: live.doc_counts().0,
            wal_bytes: wal_len(dir),
            seen_segments: BTreeSet::new(),
            segment_bytes_written: 0,
        }
    }

    /// The kind of the batch just acknowledged and, for a plain one, how
    /// much the WAL grew.
    fn after_ack(&mut self) -> (BatchKind, u64) {
        let sealed_now = self.live.doc_counts().0;
        let wal_now = wal_len(self.dir);
        let wal_grew = wal_now.saturating_sub(self.wal_bytes);
        self.wal_bytes = wal_now;
        if sealed_now == self.sealed_docs {
            return (BatchKind::Plain, wal_grew);
        }
        self.sealed_docs = sealed_now;
        let files = segment_files(self.dir);
        for (name, bytes) in &files {
            if self.seen_segments.insert(name.clone()) {
                self.segment_bytes_written += bytes;
            }
        }
        // A merge leaves one segment where seals had made several.
        let merged = files.len() == 1 && self.seen_segments.len() > 2;
        (if merged { BatchKind::Merged } else { BatchKind::Sealed }, 0)
    }
}

/// Write-path timings of one population.
#[derive(Default)]
struct Population {
    seconds: f64,
    seal_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    segment_bytes_written: u64,
}

/// Ingests `docs` as fast as the service takes them.
fn populate(
    service: &QueryService,
    live: &LiveIndex,
    dir: &Path,
    docs: &[IngestDoc],
) -> Population {
    let mut observer = WriteObserver::new(live, dir);
    let mut out = Population::default();
    let started = Instant::now();
    for batch in docs.chunks(POPULATE_BATCH) {
        let ((), call_s) = timed(|| {
            service.ingest(batch).expect("populating the live index");
        });
        match observer.after_ack().0 {
            BatchKind::Plain => {}
            BatchKind::Sealed => out.seal_ms.push(call_s * 1e3),
            BatchKind::Merged => out.merge_ms.push(call_s * 1e3),
        }
    }
    out.seconds = started.elapsed().as_secs_f64();
    out.segment_bytes_written = observer.segment_bytes_written;
    out
}

/// One measured batch as the writer saw it.
struct BatchSample {
    /// Start of the call minus the due time.
    late_ns: u64,
    /// Durable ack minus the due time.
    ack_ns: u64,
    /// Time inside `QueryService::ingest`.
    call_ns: u64,
    kind: BatchKind,
    wal_bytes: u64,
}

struct WriterLog {
    batches: Vec<BatchSample>,
    errors: u64,
    finished_ns: u64,
    tracer: Tracer,
}

/// The writer's open loop, one batch per slot of `schedule`.
fn write_loop(
    service: &QueryService,
    live: &LiveIndex,
    dir: &Path,
    docs: &[IngestDoc],
    schedule: Schedule,
    traced: bool,
    epoch: Instant,
) -> WriterLog {
    let mut tracer = Tracer::new(epoch);
    tracer.set_enabled(traced);
    let mut log = WriterLog { batches: Vec::new(), errors: 0, finished_ns: 0, tracer };
    let mut observer = WriteObserver::new(live, dir);
    for (i, batch) in docs.chunks(BATCH_DOCS).enumerate() {
        let due = schedule.due_ns(i);
        sleep_until(epoch, due);
        let begin = ns_since(epoch);
        log.tracer.begin_op();
        let result = log.tracer.span(SpanName::Ingest, || service.ingest(batch));
        let end = ns_since(epoch);
        log.tracer.end_op(begin, end);
        if result.is_err() {
            log.errors += 1;
            continue;
        }
        // Classified after the ack, so none of this is in its latency.
        let (kind, wal_bytes) = observer.after_ack();
        log.batches.push(BatchSample {
            late_ns: begin.saturating_sub(due),
            ack_ns: end - due,
            call_ns: end - begin,
            kind,
            wal_bytes,
        });
    }
    log.finished_ns = ns_since(epoch);
    log
}

pub fn run(opts: &Options) -> Report {
    let scratch = Scratch::new(NAME).expect("creating the scratch directory");
    let dir = scratch.path().join("live");
    let n_batches =
        ((opts.seconds / BATCH_EVERY.as_secs_f64()).round() as usize).min(MAX_BATCHES);
    let n_docs = POPULATE_DOCS + n_batches * BATCH_DOCS;
    let cfg = CorpusConfig {
        seed: corpus_seed(opts.seed),
        ..CorpusConfig::ccnews_like(n_docs as u32)
    };

    // Set-up, several times: the corpus, its documents, a live index on an
    // empty directory, the service over it, and the population.
    let mut setups = Vec::new();
    let (mut generate_s, mut to_docs_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..opts.setups {
        drop(kept.take());
        let _ = std::fs::remove_dir_all(&dir);
        let (corpus, gen_s) = timed(|| cfg.generate());
        let (docs, docs_s) = timed(|| corpus.to_docs());
        let ((live, service), open_s) = timed(|| {
            let live = Arc::new(
                LiveIndex::open(&dir, IncrementalOptions::default())
                    .expect("opening the live index"),
            );
            let service = QueryService::start_live(Arc::clone(&live), serve_config());
            (live, service)
        });
        let population = populate(&service, &live, &dir, &docs[..POPULATE_DOCS]);
        generate_s.push(gen_s);
        to_docs_s.push(docs_s);
        setups.push(gen_s + docs_s + open_s + population.seconds);
        kept = Some((corpus, docs, live, service, population));
    }
    let (corpus, mut docs, live, mut service, population) = kept.expect("setups > 0");
    let measured_docs = docs.split_off(POPULATE_DOCS);
    drop(docs);

    // The oracle's index: the same documents built one-shot. Its answers
    // hold once the writer is done; while the index grows, a read only
    // has to be answered.
    let corpus_fp = corpus_fingerprint(&corpus);
    let term_dfs: Vec<(&str, u64)> =
        corpus.lists.iter().map(|(t, l)| (t.as_str(), l.len() as u64)).collect();
    let texts = draw_texts(
        &term_dfs,
        TermClass::Light,
        POOL,
        &mut SplitMix64::substream(opts.seed, label::LIGHT_POOL),
    );
    let stream = Stream::uniform(&mut SplitMix64::substream(opts.seed, label::STREAM));
    let postings = corpus.total_postings();
    let one_shot = corpus.into_default_index();
    let pool_fp = pool_fingerprint(&texts);
    let pool = reference_pool(&one_shot, texts);
    drop(one_shot);
    release_freed_memory();

    let mut info = Map::new();
    let inputs_ok =
        fingerprints::record(NAME, opts, &corpus_fp, &pool_fp, &stream, &pool, &mut info);

    // The measured phase: the reader's closed loop on this thread's scope,
    // the writer's schedule beside it. The schedule is as long as
    // `--seconds`, so it ends within the phase (which adds warm-up).
    let schedule = Schedule::new(ns_since(opts.epoch) + 1_000_000, BATCH_EVERY);
    let (writer, phase) = std::thread::scope(|scope| {
        let w = scope.spawn(|| {
            write_loop(
                &service,
                &live,
                &dir,
                &measured_docs,
                schedule,
                opts.traced,
                opts.epoch,
            )
        });
        let mut reader = [ServeClient { service: &service }];
        let tracing = if opts.traced { Tracing::OddSegments } else { Tracing::Off };
        let plan = Plan::for_seconds(opts.seconds);
        let phase =
            closed_loop(&mut reader, &pool, &stream, &plan, false, tracing, opts.epoch);
        (w.join().expect("writer thread panicked"), phase)
    });
    let segs = Segments::of(&phase);

    // Every pool query through the live index against the oracle.
    let mismatches = pool
        .iter()
        .filter(|e| {
            let q = Query::parse(&e.text).expect("pool texts parse");
            !live.search(&q, K).is_ok_and(|r| same_hits(&r.hits, &e.reference))
        })
        .count() as u64;

    let attempted = segs.attempted + n_batches as u64 + pool.len() as u64;
    let failed = segs.failed + writer.errors + mismatches;
    let writer_overrun = schedule.overrun(n_batches, writer.finished_ns);
    let measured_seals = writer.batches.iter().filter(|b| b.kind != BatchKind::Plain).count();
    let mut lateness: Vec<u64> = writer.batches.iter().map(|b| b.late_ns).collect();
    lateness.sort_unstable();
    let mut ack: Vec<u64> = writer.batches.iter().map(|b| b.ack_ns).collect();
    ack.sort_unstable();
    let live_bytes = dir_bytes(&dir);
    let segment_bytes_now: u64 = segment_files(&dir).iter().map(|f| f.1).sum();
    info.insert(
        "generators".into(),
        json!({
            "reader": "closed loop, one op outstanding",
            "writer": "open loop, latency from the due time",
            "valid": writer_overrun <= MAX_OVERRUN,
            "offered_batches_per_s": 1.0 / BATCH_EVERY.as_secs_f64(),
            "achieved_batches_per_s":
                writer.batches.len() as f64 / ((writer.finished_ns - schedule.start_ns) as f64 / 1e9),
            "batch_docs": BATCH_DOCS,
            "lateness_p99_us": percentile(&lateness, 0.99) as f64 / 1e3,
            "writer_overrun": writer_overrun,
            "seals_in_measured_phase": measured_seals,
        }),
    );
    info.insert(
        "config".into(),
        json!({
            "docs": n_docs,
            "populate_docs": POPULATE_DOCS,
            "postings": postings,
            "setups": opts.setups,
            "serve_workers": setup::SERVE_WORKERS,
            "generator_threads": 2u32,
            "segments": crate::harness::SEGMENTS,
        }),
    );

    // Recovery: reopen the populated directory, after the service let go
    // of it.
    service.shutdown();
    drop(service);
    drop(live);
    let reopen: Vec<f64> = (0..REOPENS)
        .map(|_| {
            timed(|| {
                LiveIndex::open(&dir, IncrementalOptions::default())
                    .expect("reopening the live index")
            })
            .1
        })
        .collect();

    let mut metrics = MetricSet::default();
    if opts.traced {
        metrics.set("bench.trace.overhead_share", segs.tracing_overhead(), segs.completed());
        let mut tracers = phase.tracers;
        tracers.push(writer.tracer);
        trace::report(
            &tracers,
            &scratch.trace_path(NAME),
            NAME,
            opts.seed,
            &mut metrics,
            &mut info,
        );

        metrics.set(
            "bench.generator.lateness_p99_us",
            percentile(&lateness, 0.99) as f64 / 1e3,
            lateness.len() as u64,
        );
        metrics.set(
            "workloads.corpus.generate_s",
            median(&generate_s),
            generate_s.len() as u64,
        );
        metrics.set("workloads.corpus.to_docs_s", median(&to_docs_s), to_docs_s.len() as u64);
        metrics.set(
            "serve.ingest.ack_p50_us",
            median_u64(&ack) as f64 / 1e3,
            ack.len() as u64,
        );
        metrics.set(
            "serve.ingest.ack_p99_us",
            percentile(&ack, 0.99) as f64 / 1e3,
            ack.len() as u64,
        );
        let plain_us: Vec<f64> =
            writer.batches.iter().map(|b| b.call_ns as f64 / 1e3).collect();
        metrics.set(
            "index.incremental.ingest_batch_us",
            median(&plain_us),
            plain_us.len() as u64,
        );
        metrics.set(
            "index.segment.seal_ms",
            median(&population.seal_ms),
            population.seal_ms.len() as u64,
        );
        metrics.set(
            "index.incremental.merge_ms",
            median(&population.merge_ms),
            population.merge_ms.len() as u64,
        );
        metrics.set(
            "index.incremental.seals",
            (population.seal_ms.len() + population.merge_ms.len()) as f64,
            1,
        );
        metrics.set("index.incremental.merges", population.merge_ms.len() as f64, 1);
        let wal: Vec<f64> =
            writer.batches.iter().map(|b| b.wal_bytes as f64 / BATCH_DOCS as f64).collect();
        metrics.set("index.wal.bytes_per_doc", median(&wal), wal.len() as u64);
        metrics.set(
            "index.incremental.write_amp",
            population.segment_bytes_written as f64 / segment_bytes_now.max(1) as f64,
            population.seal_ms.len() as u64,
        );
        metrics.set("index.recovery.reopen_s", median(&reopen), reopen.len() as u64);
        layers::replay_live(&dir, &pool, &stream, &mut metrics);
    } else {
        segs.record(&mut metrics);
        metrics.set_spread("setup_s", spread(&setups), setups.len() as u64);
        metrics.set_spread("open_s", spread(&reopen), reopen.len() as u64);
        metrics.set("rss_mib", phase.rss_mib, 1);
        metrics.set("bits_per_posting", live_bytes as f64 * 8.0 / postings as f64, postings);
        info.insert("op_p999_us".into(), json!(segs.p999_us));
    }

    Report {
        workload: NAME,
        traced: opts.traced,
        correct: failed == 0 && inputs_ok,
        attempted,
        failed,
        metrics,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_do_not_drift_with_what_came_before() {
        let s = Schedule::new(1_000, Duration::from_millis(2));
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 2_001_000);
        assert_eq!(s.due_ns(5_000), 10_000_001_000);
    }

    #[test]
    fn overrun_is_the_share_of_the_schedule_finished_late() {
        let s = Schedule::new(1_000, Duration::from_millis(8));
        // 1,250 batches: a 10 s schedule.
        assert_eq!(s.overrun(1_250, 1_000 + 9_999_000_000), 0.0, "inside the last slot");
        assert_eq!(s.overrun(1_250, 1_000 + 10_000_000_000), 0.0);
        assert_eq!(s.overrun(1_250, 1_000 + 10_500_000_000), 0.05);
        assert!(s.overrun(1_250, 1_000 + 10_600_000_000) > MAX_OVERRUN);
    }

    #[test]
    fn the_measured_phase_never_fills_the_write_buffer() {
        let threshold = IncrementalOptions::default().seal_threshold;
        assert_eq!(
            POPULATE_DOCS % threshold,
            0,
            "population ends on a seal, with an empty buffer"
        );
        assert!(MAX_BATCHES * BATCH_DOCS < threshold);
    }
}
