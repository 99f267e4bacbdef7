//! The multi-worker query service: bounded admission, deadlines, retry
//! with jittered backoff, panic isolation, and breaker-guarded CPU
//! fallback.
//!
//! One [`QueryService`] serves one backend — a static
//! `Arc<InvertedIndex>` (the paper's host-resident index image, §4.1),
//! with an optional shard engine for the CPU fallback, or a live
//! incremental index — on one [`Executor`]. Every submitted query
//! resolves to exactly one of: clean hits, degraded hits (carrying
//! [`Degradation`] records), or a typed [`Rejected`] — the service never
//! panics a caller and never silently drops a query.
//!
//! The service starts no threads of its own. An admitted query is one of
//! the executor's whole-query tasks, and a query the scheduler fans out
//! queues its shard parts on the same executor, ahead of the whole
//! queries (DESIGN.md §14, "Execution substrate"). A query is executed by
//! whichever thread takes it: an executor thread, or — when it is still
//! the front whole query by the time its caller blocks in
//! [`PendingQuery::wait`] — the caller itself (help-first join; DESIGN.md
//! §10), which then also helps run its fan-out's parts like an executor
//! thread. Either runs the same task, so executing queries are bounded by
//! threads + callers blocked in `wait`. Every wait on the executor's
//! queue goes through one `park::Monitor` (DESIGN.md §15, "One way to
//! park and wake").

use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use iiu_baseline::executor::{Executor, Refused, JOIN_GRACE};
use iiu_baseline::supervise::{Policy, Supervisor};
use iiu_baseline::{ShardPool, ShardedEngine};
use iiu_core::{
    CpuSearchEngine, Degradation, IiuSearchEngine, IngestDoc, LiveIndex, PartSource, Query,
    SearchEngine, SearchError, SearchResponse, ShardedSearchEngine,
};
use iiu_index::faultinject::SplitMix64;
use iiu_index::{IndexError, InvertedIndex};
use iiu_sim::SimConfig;

use crate::config::ServeConfig;
use crate::stats::{HealthSnapshot, ServeStats};

/// Why the service declined to answer a query with hits.
#[derive(Debug)]
#[non_exhaustive]
pub enum Rejected {
    /// Shed at admission: the queue was at capacity.
    Overloaded {
        /// Queue depth observed at admission time.
        queue_depth: usize,
    },
    /// The per-query deadline expired before an answer was produced.
    DeadlineExceeded {
        /// Pipeline stage at which the deadline was detected
        /// (`"admission"`, `"queue"`, `"device"`, `"retry"`, `"fallback"`).
        stage: &'static str,
    },
    /// Both the device path and the CPU fallback failed with a typed
    /// error.
    Failed {
        /// The final error (from the fallback, which ran last).
        error: SearchError,
    },
    /// The query panicked even on the CPU fallback path; the panic was
    /// isolated to this query and the worker survived.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The service is shutting down and no longer admits queries.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded { queue_depth } => {
                write!(f, "shed: admission queue full ({queue_depth} queued)")
            }
            Rejected::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded at stage {stage:?}")
            }
            Rejected::Failed { error } => write!(f, "query failed: {error}"),
            Rejected::Panicked { message } => {
                write!(f, "query panicked (isolated): {message}")
            }
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Rejected::Failed { error } => Some(error),
            _ => None,
        }
    }
}

struct Job {
    query: Query,
    k: usize,
    /// Admission time: answered queries record end-to-end latency from
    /// here, so queue wait shows up in the histogram (tail latency under
    /// load is mostly queueing; measuring from dequeue would hide it).
    submitted_at: Instant,
    /// `None` when the default deadline lies beyond what an [`Instant`]
    /// can hold (`Duration::MAX`): the query has no deadline.
    deadline: Option<Instant>,
    /// Admission number: counts admitted queries only, so `FaultPlan`
    /// windows keyed on it target queries that actually run, however many
    /// submissions shed.
    seq: u64,
}

impl Job {
    /// Whether the query's deadline has passed at `now`.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// What the service answers from.
enum Backend {
    /// A static index image, with the shard engine the CPU fallback fans
    /// out on when `cfg.shards > 1`.
    Static { index: Arc<InvertedIndex>, sharded: Option<Box<ShardedSearchEngine>> },
    /// The crash-safe incremental index: it both serves queries and
    /// accepts [`QueryService::ingest`] while the service runs.
    Live(Arc<LiveIndex>),
}

struct Shared {
    backend: Backend,
    cfg: ServeConfig,
    /// The threads: admitted queries are its whole-query tasks, and the
    /// shard engine's parts run on it too.
    executor: Arc<Executor>,
    stats: ServeStats,
    /// The device-path circuit breaker (DESIGN.md §15).
    breaker: Mutex<Supervisor>,
}

/// Locks the breaker, recovering from poisoning: no breaker transition
/// can panic, so a poisoned guard cannot expose a half-updated breaker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An admitted query waiting for its answer.
pub struct PendingQuery {
    rx: mpsc::Receiver<Result<SearchResponse, Rejected>>,
    /// Admission number of the query this handle waits on.
    seq: u64,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for PendingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingQuery").field("seq", &self.seq).finish_non_exhaustive()
    }
}

impl PendingQuery {
    /// Blocks until the query resolves.
    ///
    /// Help-first join: when this query is still the *front* whole query
    /// of the executor's queue, the calling thread — which would otherwise
    /// sleep until a thread woke, ran the query and woke it back — runs
    /// the query's task itself, the same task an executor thread would
    /// run, and helps run the parts of its fan-out like one. Only the
    /// head-of-line query is ever taken, so queries still leave the queue
    /// in admission order; one a thread already holds, or one queued
    /// behind others, is waited for on the reply channel.
    pub fn wait(self) -> Result<SearchResponse, Rejected> {
        if self.shared.executor.run_front(self.seq) {
            self.shared.stats.caller_runs.fetch_add(1, Ordering::Relaxed);
        }
        // A dropped sender means the query's task was dropped unrun (every
        // thread died, or was stuck past shutdown's bound); surface it as
        // a shutdown rather than panicking the caller.
        self.rx.recv().unwrap_or(Err(Rejected::ShuttingDown))
    }
}

/// Multi-worker query service over a shared [`InvertedIndex`].
pub struct QueryService {
    shared: Arc<Shared>,
}

impl QueryService {
    /// Starts serving `index` on `cfg.workers` threads — on
    /// `max(cfg.workers, effective cfg.shard_pool.pool_threads)` when
    /// `cfg.shards > 1`, the one set of threads running both whole queries
    /// and their shard parts.
    pub fn start(index: Arc<InvertedIndex>, mut cfg: ServeConfig) -> Self {
        Self::normalize(&mut cfg);
        if cfg.shards == 1 {
            let executor = Executor::new(cfg.workers);
            return Self::serve(Backend::Static { index, sharded: None }, cfg, executor);
        }
        let threads = cfg.workers.max(cfg.shard_pool.effective_pool_threads(cfg.shards));
        let executor = Arc::new(Executor::new(threads));
        // The fan-out cuts `shards` docID windows of this very index:
        // nothing is copied at start.
        let windows = PartSource::windows(Arc::clone(&index), cfg.shards);
        let pool = ShardPool::on_executor(windows, cfg.shard_pool, Arc::clone(&executor));
        let sharded = ShardedSearchEngine::from(ShardedEngine::from_pool(pool))
            .with_pruning(cfg.pruned_cpu_fallback)
            .with_fail_closed(cfg.fail_closed_shards)
            .with_chaos(cfg.shard_chaos.clone());
        Self::serve(Backend::Static { index, sharded: Some(Box::new(sharded)) }, cfg, executor)
    }

    /// Starts `cfg.workers` threads serving a crash-safe [`LiveIndex`]:
    /// queries answer from sealed segments unioned with the in-memory
    /// write buffer, and [`QueryService::ingest`] accepts documents while
    /// serving.
    ///
    /// Live mode serves on the CPU union path only — the device
    /// simulation and shard fan-out operate on a static index image, so
    /// the breaker and retry machinery are bypassed. Hits remain
    /// bit-identical to every other engine over the same documents.
    pub fn start_live(live: Arc<LiveIndex>, mut cfg: ServeConfig) -> Self {
        Self::normalize(&mut cfg);
        let executor = Executor::new(cfg.workers);
        Self::serve(Backend::Live(live), cfg, executor)
    }

    fn normalize(cfg: &mut ServeConfig) {
        cfg.workers = cfg.workers.max(1);
        cfg.queue_capacity = cfg.queue_capacity.max(1);
        cfg.shards = cfg.shards.max(1);
        // A shard pool without a fan-out deadline could hang the
        // coordinator on a wedged worker; default it to the query
        // deadline so every fan-out resolves in bounded time.
        if cfg.shard_pool.deadline.is_none() {
            cfg.shard_pool.deadline = Some(cfg.default_deadline);
        }
    }

    fn serve(backend: Backend, cfg: ServeConfig, executor: impl Into<Arc<Executor>>) -> Self {
        let breaker = Supervisor::new(Policy {
            threshold: cfg.breaker.failure_threshold,
            cooldown: cfg.breaker.cooldown,
            cap: cfg.breaker.cooldown,
            probes: cfg.breaker.probe_successes,
        });
        let shared = Arc::new(Shared {
            backend,
            cfg,
            executor: executor.into(),
            stats: ServeStats::default(),
            breaker: Mutex::new(breaker),
        });
        QueryService { shared }
    }

    /// The live index handle, when started with
    /// [`QueryService::start_live`].
    pub fn live(&self) -> Option<&Arc<LiveIndex>> {
        match &self.shared.backend {
            Backend::Live(live) => Some(live),
            Backend::Static { .. } => None,
        }
    }

    /// Ingests a batch into the live index (durable on return — WAL
    /// appended and fsynced before acknowledgment). Returns the assigned
    /// global doc-id range.
    ///
    /// # Errors
    ///
    /// Returns a typed error when the service was not started in live
    /// mode, or when the write path fails.
    pub fn ingest(&self, docs: &[IngestDoc]) -> Result<std::ops::Range<u64>, IndexError> {
        match self.live() {
            Some(live) => live.ingest_batch(docs),
            None => Err(IndexError::CorruptIndex {
                context: "ingest requires a service started in live mode",
            }),
        }
    }

    /// Submits a query under the configured default deadline. Returns
    /// immediately: `Err` is an admission-time shed, `Ok` a handle to
    /// wait on.
    pub fn submit(&self, query: Query, k: usize) -> Result<PendingQuery, Rejected> {
        let stats = &self.shared.stats;
        let now = Instant::now();
        let deadline = now.checked_add(self.shared.cfg.default_deadline);
        // One reply, so a channel of one slot: allocated up front, where an
        // unbounded channel allocates a 31-slot block on its first send,
        // a cost the help-first path measurably paid on every query.
        let (tx, rx) = mpsc::sync_channel(1);
        let shared = Arc::clone(&self.shared);
        // The executor checks shutdown under its queue lock, and its
        // threads only exit after draining that queue under the same
        // lock, so every admitted query runs or, past shutdown's bound,
        // is dropped and resolves its caller.
        let admitted = self.shared.executor.submit(self.shared.cfg.queue_capacity, |seq| {
            stats.submitted.fetch_add(1, Ordering::Relaxed);
            let job = Job { query, k, submitted_at: now, deadline, seq };
            Box::new(move || {
                let _ = tx.send(serve_one(&shared, &job));
            })
        });
        match admitted {
            Ok(seq) => Ok(PendingQuery { rx, seq, shared: Arc::clone(&self.shared) }),
            Err(Refused::Closed) => Err(Rejected::ShuttingDown),
            Err(Refused::Full) => {
                stats.submitted.fetch_add(1, Ordering::Relaxed);
                stats.shed_overload.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::Overloaded { queue_depth: self.shared.cfg.queue_capacity })
            }
        }
    }

    /// Submits and blocks for the answer.
    pub fn search_blocking(&self, query: Query, k: usize) -> Result<SearchResponse, Rejected> {
        self.submit(query, k)?.wait()
    }

    /// Point-in-time operator snapshot.
    pub fn health(&self) -> HealthSnapshot {
        let s = &self.shared.stats;
        let (breaker, breaker_trips, breaker_recoveries) = {
            let b = lock(&self.shared.breaker);
            (b.state(), b.trips(), b.recoveries())
        };
        let sharded = match &self.shared.backend {
            Backend::Static { sharded: Some(engine), .. } => Some(engine.inner()),
            _ => None,
        };
        HealthSnapshot {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            degraded_ok: s.degraded_ok.load(Ordering::Relaxed),
            shed_overload: s.shed_overload.load(Ordering::Relaxed),
            shed_deadline: s.shed_deadline.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            caller_runs: s.caller_runs.load(Ordering::Relaxed),
            panicked: s.panicked.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            cpu_fallbacks: s.cpu_fallbacks.load(Ordering::Relaxed),
            fallback_candidates: s.fallback_candidates.load(Ordering::Relaxed),
            fallback_modeled_ns: s.fallback_modeled_ns.load(Ordering::Relaxed),
            shards: sharded.map_or(1, |e| e.num_shards()),
            shard_docs_scored: sharded.map(|e| e.shard_loads()).unwrap_or_default(),
            shard_partials: s.shard_partials.load(Ordering::Relaxed),
            shard_rescues: s.shard_rescues.load(Ordering::Relaxed),
            sched_inline: s.sched_inline.load(Ordering::Relaxed),
            sched_fanout: s.sched_fanout.load(Ordering::Relaxed),
            shard_health: sharded.map(|e| e.pool().supervision()).unwrap_or_default(),
            pool_workers: self.shared.executor.worker_reports(),
            breaker,
            breaker_trips,
            breaker_recoveries,
            p50: s.latency_quantile_estimate(0.5),
            p99: s.latency_quantile_estimate(0.99),
            p999: s.latency_quantile_estimate(0.999),
            queue_depth: self.shared.executor.queued(),
        }
    }

    /// Stops admitting queries, drains everything already admitted, and
    /// joins the threads. Called automatically on drop.
    ///
    /// It waits at most the query deadline plus [`JOIN_GRACE`]: by then
    /// every admitted query is past its deadline. A thread still stuck in
    /// a task is detached, and a query still queued then resolves as
    /// [`Rejected::ShuttingDown`].
    pub fn shutdown(&mut self) {
        let bound = self.shared.cfg.default_deadline.checked_add(JOIN_GRACE);
        self.shared.executor.shutdown(bound.and_then(|b| Instant::now().checked_add(b)));
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Outcome of the device-path attempt loop.
enum DeviceOutcome {
    /// Device answered; `attempts` includes the successful one.
    Ok { response: SearchResponse, attempts: u32 },
    /// All attempts failed; fall back to the CPU for `reason`.
    GiveUp { reason: Cow<'static, str> },
    /// The deadline expired between attempts.
    Deadline,
}

/// Everything that happens to a job once it has left the queue, on
/// whichever thread took it: an executor thread, or the job's own caller
/// blocked in [`PendingQuery::wait`].
fn serve_one(shared: &Shared, job: &Job) -> Result<SearchResponse, Rejected> {
    let stats = &shared.stats;
    // A job already past its deadline is shed before any work: answering
    // it could only miss, and running it would snowball the backlog.
    let now = Instant::now();
    if job.expired(now) {
        return finish_one(shared, job, Err(Rejected::DeadlineExceeded { stage: "queue" }));
    }
    let (index, sharded) = match &shared.backend {
        Backend::Static { index, sharded } => (index.as_ref(), sharded.as_deref()),
        // Live mode: serve from the incremental index (segments ∪ buffer)
        // on the CPU union path. The breaker/device machinery is bypassed
        // — it routes between engines over the static image, which live
        // mode does not have.
        Backend::Live(live) => {
            let outcome = isolated(stats, || live.search(&job.query, job.k));
            return finish_one(shared, job, outcome);
        }
    };

    // Its own statement: the guard must not live across the device run.
    let admitted = lock(&shared.breaker).admit(now);
    let outcome = match admitted {
        Some(probe) => match run_device(shared, index, job) {
            DeviceOutcome::Ok { mut response, attempts } => {
                lock(&shared.breaker).on_success(probe);
                if attempts > 1 {
                    stats.retries.fetch_add(u64::from(attempts - 1), Ordering::Relaxed);
                    response.degraded.push(Degradation::Retried { attempts });
                }
                Ok(response)
            }
            DeviceOutcome::Deadline => {
                // The device never got a verdict; don't charge the breaker
                // either way — but a held probe slot must be released or
                // the breaker would stick in HalfOpen forever.
                lock(&shared.breaker).on_abandoned(probe);
                Err(Rejected::DeadlineExceeded { stage: "retry" })
            }
            DeviceOutcome::GiveUp { reason } => {
                lock(&shared.breaker).on_failure(probe, Instant::now());
                run_fallback(shared, index, sharded, job, reason)
            }
        },
        None => run_fallback(shared, index, sharded, job, "circuit breaker open".into()),
    };
    finish_one(shared, job, outcome)
}

/// Shared tail of [`serve_one`]: accounts the outcome and hands it back.
fn finish_one(
    shared: &Shared,
    job: &Job,
    outcome: Result<SearchResponse, Rejected>,
) -> Result<SearchResponse, Rejected> {
    let stats = &shared.stats;
    match &outcome {
        Ok(resp) => {
            if resp.degraded.is_empty() {
                stats.completed.fetch_add(1, Ordering::Relaxed);
            } else {
                stats.degraded_ok.fetch_add(1, Ordering::Relaxed);
            }
            if resp.degraded.iter().any(|d| matches!(d, Degradation::ShardsUnavailable { .. }))
            {
                stats.shard_partials.fetch_add(1, Ordering::Relaxed);
            }
            stats.record_latency(job.submitted_at.elapsed());
        }
        Err(Rejected::DeadlineExceeded { .. }) => {
            stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
        }
        // Panicked still counts as `failed` so that
        // answered + shed + failed == submitted holds exactly.
        Err(_) => {
            stats.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    outcome
}

fn run_device(shared: &Shared, index: &InvertedIndex, job: &Job) -> DeviceOutcome {
    let cfg = &shared.cfg;
    // Only shapes retry back-off sleeps; keyed on the query, so the same
    // query sleeps the same on any thread.
    let mut rng = SplitMix64::new(cfg.fault.seed ^ job.seq);
    for attempt in 0..cfg.retry.max_attempts.max(1) {
        if job.expired(Instant::now()) {
            return DeviceOutcome::Deadline;
        }
        // Sabotaged attempts run with a 1-cycle budget so the watchdog
        // reports `SimError::Stalled` deterministically; clean attempts
        // (including every retry outside a fault burst) use the real
        // config — the "fresh SimConfig" the retry contract promises.
        let sim = if cfg.fault.sabotage(job.seq, attempt) {
            SimConfig { max_cycles: Some(1), ..cfg.sim }
        } else {
            cfg.sim
        };
        let attempt_result = panic::catch_unwind(AssertUnwindSafe(|| {
            if cfg.fault.sabotage_panic(job.seq, attempt) {
                panic!("injected panic fault (seq {})", job.seq);
            }
            let mut engine = IiuSearchEngine::with_config(index, sim, sim.n_cores);
            engine.search(&job.query, job.k)
        }));
        match attempt_result {
            Ok(Ok(response)) => return DeviceOutcome::Ok { response, attempts: attempt + 1 },
            Ok(Err(e)) if e.is_transient() && attempt + 1 < cfg.retry.max_attempts => {
                let sleep = cfg.retry.backoff(attempt + 1, &mut rng);
                let remaining = job
                    .deadline
                    .map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
                if remaining.is_zero() {
                    return DeviceOutcome::Deadline;
                }
                std::thread::sleep(sleep.min(remaining));
            }
            Ok(Err(e)) => {
                let transient = e.is_transient();
                let reason = if transient {
                    format!("device retries exhausted after {} attempts: {e}", attempt + 1)
                } else {
                    format!("device error: {e}")
                };
                // Trim the reason: a stall snapshot Display is multi-line.
                let reason = reason.lines().next().unwrap_or("device error").to_string();
                return DeviceOutcome::GiveUp { reason: reason.into() };
            }
            Err(payload) => {
                shared.stats.panicked.fetch_add(1, Ordering::Relaxed);
                let message = panic_message(payload.as_ref());
                return DeviceOutcome::GiveUp {
                    reason: format!("device panicked: {message}").into(),
                };
            }
        }
    }
    // max_attempts == 0 is normalized to 1 above; unreachable in practice
    // but a typed answer is still better than a panic.
    DeviceOutcome::GiveUp { reason: "retry budget exhausted".into() }
}

fn run_fallback(
    shared: &Shared,
    index: &InvertedIndex,
    sharded: Option<&ShardedSearchEngine>,
    job: &Job,
    reason: Cow<'static, str>,
) -> Result<SearchResponse, Rejected> {
    if job.expired(Instant::now()) {
        return Err(Rejected::DeadlineExceeded { stage: "fallback" });
    }
    let stats = &shared.stats;
    stats.cpu_fallbacks.fetch_add(1, Ordering::Relaxed);
    // Hybrid scheduling (§4.4): price the query from document
    // frequencies and only pay the shard fan-out tax when its longest
    // postings list clears the heavy threshold; cheap queries answer
    // inline on this thread (inter-query style), leaving the executor to
    // the parts of queries that actually scale with it. With the
    // scheduler off every sharded query fans out, exactly as before.
    let fan_out = sharded.filter(|_| {
        !shared.cfg.scheduler.hybrid
            || crate::scheduler::route(index, &job.query, &shared.cfg.scheduler).mode
                == crate::scheduler::ParallelismMode::IntraQuery
    });
    if sharded.is_some() {
        let routed = if fan_out.is_some() { &stats.sched_fanout } else { &stats.sched_inline };
        routed.fetch_add(1, Ordering::Relaxed);
    }
    let unsharded = || {
        CpuSearchEngine::new(index)
            .with_pruning(shared.cfg.pruned_cpu_fallback)
            .search(&job.query, job.k)
    };
    let outcome = isolated(stats, || {
        if shared.cfg.fault.sabotage_fallback_panic(job.seq) {
            panic!("injected panic fault (fallback, seq {})", job.seq);
        }
        // Sharded fan-out when routed there (intra-query parallelism, same
        // hits); otherwise the plain single-threaded baseline. The shard
        // engine is shared across threads, so it is queried through &self.
        match fan_out {
            Some(engine) => engine.search_ref(&job.query, job.k).or_else(|e| {
                // Last-resort rescue: a total shard outage (every shard
                // quarantined/wedged at once) or a fail-closed partial
                // answer errors out of the fan-out, but the full index is
                // still resident — answering unsharded (slower, complete
                // coverage) beats failing the query. A genuinely bad query
                // fails identically here and surfaces its real error.
                stats.shard_rescues.fetch_add(1, Ordering::Relaxed);
                unsharded().map(|mut resp| {
                    resp.degraded.push(Degradation::CpuFallback {
                        reason: format!("shard fan-out unavailable: {e}").into(),
                    });
                    resp
                })
            }),
            None => unsharded(),
        }
    });
    outcome.map(|mut response| {
        // Keep the CPU outcome's work accounting instead of dropping it
        // with the response wrapper: operators see how much index work
        // the fallback absorbed.
        stats.fallback_candidates.fetch_add(response.candidates, Ordering::Relaxed);
        stats.fallback_modeled_ns.fetch_add(response.latency_ns() as u64, Ordering::Relaxed);
        response.degraded.push(Degradation::CpuFallback { reason });
        response
    })
}

/// Runs one engine call panic-isolated: its error is [`Rejected::Failed`],
/// its panic [`Rejected::Panicked`] (and counted).
fn isolated(
    stats: &ServeStats,
    run: impl FnOnce() -> Result<SearchResponse, SearchError>,
) -> Result<SearchResponse, Rejected> {
    match panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(response)) => Ok(response),
        Ok(Err(error)) => Err(Rejected::Failed { error }),
        Err(payload) => {
            stats.panicked.fetch_add(1, Ordering::Relaxed);
            Err(Rejected::Panicked { message: panic_message(payload.as_ref()) })
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("non-string panic payload").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, RetryPolicy};

    #[test]
    fn sharded_service_fans_out_over_the_index_it_was_given() {
        let mut b = iiu_index::IndexBuilder::new(iiu_index::BuildOptions::default());
        for i in 0..300 {
            b.add_document(&format!("common w{} w{}", i % 7, i % 11));
        }
        let index = Arc::new(b.build());
        let cfg = ServeConfig {
            shards: 2,
            retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            fault: FaultPlan { burst: Some((0, u64::MAX)), ..FaultPlan::NONE },
            pruned_cpu_fallback: true,
            ..ServeConfig::default()
        };
        let svc = QueryService::start(Arc::clone(&index), cfg);
        let Backend::Static { sharded: Some(engine), .. } = &svc.shared.backend else {
            panic!("shards: 2 fans out");
        };
        match engine.inner().pool().source() {
            PartSource::Windows { index: served, windows } => {
                assert!(Arc::ptr_eq(served, &index), "the windows cut a copy");
                assert_eq!(windows.len(), 2);
            }
            PartSource::Split(_) => panic!("the service split the index"),
        }
        let mut cpu = CpuSearchEngine::new(&index);
        for text in ["common", "w3 AND common", "w1 OR w5", "(w2 OR w4) AND common"] {
            let q = Query::parse(text).expect("parses");
            let served = svc.search_blocking(q.clone(), 10).expect("serves");
            assert_eq!(served.hits, cpu.search(&q, 10).expect("searches").hits, "{text}");
        }
        let h = svc.health();
        assert_eq!(h.shards, 2);
        assert!(h.sched_fanout > 0, "nothing fanned out: {h}");
    }

    #[test]
    fn rejected_is_a_full_error() {
        // The full bound callers need to box and send across threads.
        fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<Rejected>();

        let e = Rejected::Failed {
            error: iiu_core::SearchError::Index(iiu_index::IndexError::PositionsUnavailable),
        };
        assert!(std::error::Error::source(&e).is_some(), "Failed must expose its cause");
        let boxed: Box<dyn std::error::Error + Send + Sync + 'static> = Box::new(e);
        assert!(boxed.to_string().contains("failed"));
    }

    #[test]
    fn rejection_displays_are_operator_readable() {
        assert!(Rejected::Overloaded { queue_depth: 7 }.to_string().contains('7'));
        assert!(Rejected::DeadlineExceeded { stage: "queue" }.to_string().contains("queue"));
        assert!(Rejected::ShuttingDown.to_string().contains("shutting down"));
        assert!(Rejected::Panicked { message: "boom".into() }.to_string().contains("boom"));
    }
}
