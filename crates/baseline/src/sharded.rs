//! Document-sharded intra-query parallelism: a supervised pool of parts
//! and an engine that fans one query out across them, merges with
//! [`rank_cmp`], and stays bit-identical to the unsharded engine.
//!
//! # Parts
//!
//! A [`Part`] is one task's share of a query: an index, a [`DocWindow`]
//! of it, and the map from its docIDs to global ones. A [`PartSource`]
//! cuts them two ways:
//!
//! * **windows** of the one index the caller already holds, heap or
//!   mapped (what the serving layer uses): nothing is copied, and docIDs
//!   stay global, so the map is the identity;
//! * the shards of an in-memory round-robin [`ShardedIndex`] split (what
//!   the repo benchmark's fan-out replay and `shard_bench` measure), each
//!   a whole-window part whose local docID `d` is global `d · n + s`.
//!
//! That map is the only place the two differ: every kernel takes a
//! window, and an unsharded search is the window [`DocWindow::ALL`].
//! Shard-level names below (`ShardHealth`, `ready_shards`, …) mean parts.
//!
//! # Execution substrate
//!
//! [`ShardPool`] fans a query's parts out as tasks on an [`Executor`]:
//! its own, of [`ShardPoolConfig::pool_threads`] threads (default =
//! max(cores, shards)), or the one a query service runs its whole queries
//! on. Any thread can execute any shard's part — N concurrent queries each
//! fan across M shards without oversubscribing the machine, and idle
//! threads absorb inter-query load (the paper's §4.4 *hybrid* mode). A
//! part borrows its thread's one [`DecodeScratch`]
//! ([`ops::with_scratch`]), so parts reuse warm decode buffers without
//! cross-thread sharing. Each part runs under
//! `catch_unwind`, so a panicking query marks its shard's result failed
//! instead of killing the thread or hanging the caller. The coordinator
//! waits on a [`Monitor`] of its own until the last of its parts reports
//! or the fan-out deadline passes (DESIGN.md §15, "One way to park and
//! wake"); a coordinator that is itself an executor thread (or runs one
//! of its whole queries) first runs its own still-queued parts (the
//! helping join). The deadline bounds the wait for parts other threads
//! run; a part the coordinator runs itself runs to its end.
//!
//! Supervision is two-plane. The *shard* plane lives here, one
//! [`Supervisor`] per part: quarantine after repeated failures, half-open
//! probes, plus wedge/drain accounting for parts that missed a fan-out
//! deadline. The *worker* plane — liveness, kill switches, respawn with
//! bounded exponential backoff, fresh threads for stuck slots — exists
//! once, in the [`Executor`]. A dead thread does not take a shard down
//! with it: the remaining threads keep serving every shard. A shard whose
//! latest part is past its deadline and not done is skipped even before
//! that part's coordinator returns to report it.
//!
//! # Why sharded results are bit-identical
//!
//! A window scores with the index's own statistics, and split shards are
//! built with the global ones ([`iiu_index::shard`]), so any document's
//! Q16.16 score is the same in its part as in the whole index. Each part
//! computes a *local* top-k under [`rank_cmp`] on (score, local docID);
//! both docID maps are monotone per part, so local rank order equals
//! global rank order restricted to the part. If a document is in the
//! global top-k, fewer than k documents rank ahead of it globally — so
//! fewer than k rank ahead of it in its own part, and it survives the
//! part-local top-k. Concatenating the per-part results, mapping docIDs
//! to global, sorting with the shared [`rank_cmp`], and truncating to k
//! therefore yields exactly the unsharded result, ties included.
//!
//! Pruned execution additionally exchanges a [`SharedThreshold`]: shards
//! publish their local heap thresholds monotonically and skip blocks
//! under the *strict* foreign threshold (see
//! [`crate::topk::SharedThreshold`]), which prices out only documents
//! provably below the global k-th score — never a boundary tie — so the
//! per-shard result still contains every global top-k member from that
//! shard.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use iiu_index::faultinject::ShardChaosPlan;
use iiu_index::shard::ShardedIndex;
use iiu_index::{DocId, DocWindow, Fixed, IndexError, InvertedIndex, TermId};

use crate::cost::{CpuCostModel, PhaseBreakdown};
use crate::engine::{answer, Shape};
use crate::executor::{Executor, PoolWorkerReport, Task};
use crate::ops::{self, with_scratch, DecodeScratch, OpCounts};
use crate::park::{Monitor, Wake};
use crate::pruned;
use crate::supervise::{Policy, State, Supervisor};
use crate::topk::{rank_cmp, Hit, SharedThreshold};

/// Locks a mutex, recovering the guard if a previous holder panicked
/// (shard and worker state stay usable; the panicked query already
/// reported failure through its result slot).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pool task's share of a query: a docID window of an index, and how
/// that index's docIDs map to global ones.
#[derive(Debug, Clone, Copy)]
pub struct Part<'a> {
    /// The index the task searches.
    pub index: &'a InvertedIndex,
    /// The documents of `index` the task covers.
    pub window: DocWindow,
    /// Global docID of local `d` is `d · stride + offset`: `(1, 0)` for a
    /// window of the one index, `(n, s)` for shard `s` of an `n`-way
    /// round-robin split.
    stride: u32,
    offset: u32,
}

impl Part<'_> {
    /// The global docID of this part's docID `local`.
    pub fn global_doc(&self, local: DocId) -> DocId {
        local * self.stride + self.offset
    }

    /// The highest block bound of term `id` inside the window.
    fn max_ub(&self, id: TermId) -> Fixed {
        let bounds = self.index.list_bounds(id);
        if self.window == DocWindow::ALL {
            return bounds.max_ub();
        }
        let blocks = self.index.encoded_list(id).window_blocks(self.window);
        bounds.ubs().slice(blocks).iter().max().unwrap_or(Fixed::ZERO)
    }
}

/// What a fan-out cuts its parts from.
#[derive(Debug, Clone)]
pub enum PartSource {
    /// DocID windows of one index, heap or mapped: nothing is copied and
    /// docIDs stay global. The windows hold every docID exactly once, in
    /// ascending order, as [`DocWindow::cut`] and [`DocWindow::split`]
    /// make them.
    Windows {
        /// The index every window belongs to.
        index: Arc<InvertedIndex>,
        /// One per part, in part order.
        windows: Vec<DocWindow>,
    },
    /// The shards of an in-memory round-robin split, each searched whole.
    Split(Arc<ShardedIndex>),
}

impl PartSource {
    /// `n` docID windows of equal document count over `index`.
    pub fn windows(index: Arc<InvertedIndex>, n: usize) -> Self {
        let windows = DocWindow::split(index.num_docs(), n);
        PartSource::Windows { index, windows }
    }

    /// Number of parts a query fans out over.
    pub(crate) fn num_parts(&self) -> usize {
        match self {
            PartSource::Windows { windows, .. } => windows.len(),
            PartSource::Split(split) => split.num_shards(),
        }
    }

    /// Part `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub(crate) fn part(&self, p: usize) -> Part<'_> {
        match self {
            PartSource::Windows { index, windows } => {
                Part { index, window: windows[p], stride: 1, offset: 0 }
            }
            PartSource::Split(split) => Part {
                index: split.shard(p),
                window: DocWindow::ALL,
                stride: split.num_shards() as u32,
                offset: p as u32,
            },
        }
    }

    /// The dictionary terms resolve against (split shards share one).
    pub(crate) fn dictionary(&self) -> &InvertedIndex {
        match self {
            PartSource::Windows { index, .. } => index,
            PartSource::Split(split) => split.shard(0),
        }
    }

    /// Verifies term `id`'s lazily checked record once per index, so late
    /// corruption of a mapped source is a typed error before any task
    /// decodes.
    fn verify_term(&self, id: TermId) -> Result<(), IndexError> {
        match self {
            PartSource::Windows { index, .. } => index.verify_term(id),
            PartSource::Split(split) => {
                split.shards().iter().try_for_each(|shard| shard.verify_term(id))
            }
        }
    }

    /// What the pruned primer scores, among the parts in `alive`: the
    /// whole list when they are every window of one index, else the part
    /// whose window holds the list's highest block bound.
    fn primer(&self, alive: &[usize], id: TermId) -> Option<Part<'_>> {
        match self {
            PartSource::Windows { index, windows } if alive.len() == windows.len() => {
                Some(Part { index, window: DocWindow::ALL, stride: 1, offset: 0 })
            }
            _ => alive.iter().map(|&p| self.part(p)).max_by_key(|p| p.max_ub(id)),
        }
    }
}

impl From<Arc<ShardedIndex>> for PartSource {
    fn from(split: Arc<ShardedIndex>) -> Self {
        PartSource::Split(split)
    }
}

/// Supervision policy for a [`ShardPool`]: how many threads a pool of its
/// own starts, how long the coordinator waits per fan-out, and when a
/// failing shard is quarantined. (Dead threads are respawned on the
/// executor's fixed ladder: at once, then after 10 ms doubling up to 1 s
/// while respawned threads keep dying before finishing a task.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPoolConfig {
    /// Threads of the [`Executor`] a pool built by [`ShardPool::with_config`]
    /// starts. `0` (the default) auto-sizes to `max(available cores,
    /// shards)`, so a single fan-out is never serialized worse than the
    /// old thread-per-shard topology while concurrent queries still share
    /// the same bounded set of threads. A query service with `shards > 1`
    /// runs its queries and their parts on one executor of
    /// `max(workers, effective pool_threads)` threads.
    pub pool_threads: usize,
    /// Maximum time one fan-out waits for its dispatched shards. A shard
    /// missing the deadline is marked [`ShardHealth::Wedged`], its slot
    /// comes back `None`, and the run proceeds with the shards that
    /// answered. `None` (the default) waits unboundedly — the legacy
    /// library behavior; serving layers should always set a deadline.
    pub deadline: Option<Duration>,
    /// Consecutive failures (panic, timeout, dead dispatch) after which a
    /// shard is quarantined: skipped at fan-out, then probed half-open
    /// after [`Self::quarantine_cooldown`]. `0` disables quarantine.
    pub quarantine_threshold: u32,
    /// How long a quarantined shard sits out before one probe query is
    /// allowed through (half-open, the same machine as the serve circuit
    /// breaker); a failed probe sits out the same time again.
    pub quarantine_cooldown: Duration,
}

impl ShardPoolConfig {
    /// The effective thread count for `num_shards` shards (resolving the
    /// `pool_threads == 0` auto-sizing rule).
    pub fn effective_pool_threads(&self, num_shards: usize) -> usize {
        if self.pool_threads == 0 {
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            cores.max(num_shards).max(1)
        } else {
            self.pool_threads
        }
    }

    /// The single place the per-fan-out deadline policy becomes an
    /// absolute instant: `None` waits unboundedly, otherwise a run
    /// started at `now` resolves by `now + deadline`. A deadline too far
    /// out for an [`Instant`] (such as `Duration::MAX`) is no deadline.
    fn fanout_deadline_from(&self, now: Instant) -> Option<Instant> {
        self.deadline.and_then(|d| now.checked_add(d))
    }

    /// Each shard's quarantine policy: a fixed cooldown, one probe.
    pub(crate) fn quarantine(&self) -> Policy {
        Policy {
            threshold: self.quarantine_threshold,
            cooldown: self.quarantine_cooldown,
            cap: self.quarantine_cooldown,
            probes: 1,
        }
    }
}

impl Default for ShardPoolConfig {
    fn default() -> Self {
        ShardPoolConfig {
            pool_threads: 0,
            deadline: None,
            quarantine_threshold: 3,
            quarantine_cooldown: Duration::from_millis(100),
        }
    }
}

/// A shard's current supervision state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Answering normally.
    Ok,
    /// Last execution panicked (still dispatched; quarantine trips after
    /// enough consecutive failures).
    Panicked,
    /// Missed the fan-out deadline; skipped until its backlog drains.
    Wedged,
    /// No live executor thread was available to run this shard's task (all
    /// workers dead or unspawnable; respawn with bounded backoff is
    /// pending). Worker-plane liveness itself is reported per worker by
    /// [`PoolWorkerReport`].
    DeadWorker,
    /// Tripped the consecutive-failure threshold; skipped at fan-out
    /// until the cooldown elapses, then probed half-open.
    Quarantined,
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShardHealth::Ok => "ok",
            ShardHealth::Panicked => "panicked",
            ShardHealth::Wedged => "wedged",
            ShardHealth::DeadWorker => "dead-worker",
            ShardHealth::Quarantined => "quarantined",
        };
        f.write_str(s)
    }
}

/// What happened to one shard during one [`ShardPool::run_on`] fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Not in the run's target set.
    NotDispatched,
    /// Dispatched and answered in time.
    Answered,
    /// Dispatched; the execution panicked (slot is `None`).
    Panicked,
    /// Dispatched; missed the deadline (slot is `None`, shard marked
    /// wedged).
    TimedOut,
    /// Skipped: still draining a backlog from an earlier timeout.
    SkippedWedged,
    /// Skipped: quarantined and not yet due for a half-open probe.
    SkippedQuarantined,
    /// Skipped: no live executor thread to run the task (all dead or
    /// unspawnable; respawn pending).
    NoWorker,
}

/// Cumulative supervision counters for one shard, as reported by
/// [`ShardPool::supervision`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealthReport {
    /// Shard index.
    pub shard: usize,
    /// Current state.
    pub health: ShardHealth,
    /// Consecutive failures since the last success, counted while the
    /// shard is not quarantined.
    pub consecutive_failures: u32,
    /// Total failed executions (panics + timeouts).
    pub failures: u64,
    /// Executions that panicked.
    pub panics: u64,
    /// Executions that missed the fan-out deadline.
    pub timeouts: u64,
    /// Times quarantine tripped, failed half-open probes included.
    pub quarantine_trips: u64,
    /// Times a half-open probe recovered the shard from quarantine.
    pub quarantine_recoveries: u64,
}

/// The per-run result slots plus what happened to every shard.
#[derive(Debug)]
pub struct ShardRun<T> {
    /// Per-shard results in shard order; `None` where the shard did not
    /// answer (see the matching outcome for why).
    pub slots: Vec<Option<T>>,
    /// Per-shard dispatch outcome in shard order.
    pub outcomes: Vec<ShardOutcome>,
}

/// What a pool shares with its queued parts.
#[derive(Debug)]
struct PoolShared {
    source: PartSource,
    /// Per-shard completed-task counters — the other half of the
    /// wedge-drain accounting (`ShardState::submitted` is the half
    /// behind the shard lock). Incremented by whichever thread finishes
    /// (or fast-drains) the part.
    completed: Vec<AtomicU64>,
}

/// Shard-plane supervision state (behind the pool's shard lock).
#[derive(Debug)]
struct ShardState {
    /// Tasks enqueued for this shard. `completed >= submitted` (see
    /// [`PoolShared::completed`]) means the backlog has drained.
    submitted: u64,
    /// The fan-out deadline of the latest task enqueued. Once it has
    /// passed, a task not yet completed missed its deadline, whether or
    /// not its coordinator has returned to say so.
    due: Option<Instant>,
    /// The quarantine: not `Closed` means [`ShardHealth::Quarantined`].
    sup: Supervisor,
    /// Health while not quarantined: `Ok` or the kind of the last
    /// failure. `Wedged` also keeps the shard out of fan-outs until its
    /// backlog drains.
    kind: ShardHealth,
    failures: u64,
    panics: u64,
    timeouts: u64,
}

/// The shard plane of intra-query parallelism: the parts of a
/// [`PartSource`], each supervised, fanned out as tasks on an
/// [`Executor`] — the pool's own, or the one a query service runs its
/// whole queries on. Any executor thread can run any shard's part, so N
/// concurrent fan-outs interleave across the same bounded thread set
/// (hybrid inter/intra-query parallelism) instead of oversubscribing one
/// thread per query per shard.
///
/// Supervision (see [`ShardPoolConfig`]): fan-outs wait at most the
/// configured deadline; a shard missing it is *wedged* and skipped until
/// its backlog drains; a shard failing repeatedly is *quarantined* and
/// probed half-open after a cooldown; a dead executor thread is respawned
/// at the next dispatch with bounded exponential backoff. All of it is
/// fail-soft — the surviving threads keep every shard answering
/// throughout.
#[derive(Debug)]
pub struct ShardPool {
    shared: Arc<PoolShared>,
    executor: Arc<Executor>,
    cfg: ShardPoolConfig,
    shards: Mutex<Vec<ShardState>>,
    /// Test-only: `Some` freezes the supervision clock ([`Self::now`]).
    #[cfg(test)]
    frozen: Mutex<Option<Instant>>,
}

impl ShardPool {
    /// A pool over the parts of `source` with default supervision, on an
    /// executor of its own.
    pub fn new(source: impl Into<PartSource>) -> Self {
        Self::with_config(source, ShardPoolConfig::default())
    }

    /// A pool over the parts of `source` under `cfg`, on an executor of
    /// its own with [`ShardPoolConfig::pool_threads`] threads.
    pub fn with_config(source: impl Into<PartSource>, cfg: ShardPoolConfig) -> Self {
        let source = source.into();
        let threads = cfg.effective_pool_threads(source.num_parts());
        Self::on_executor(source, cfg, Arc::new(Executor::new(threads)))
    }

    /// A pool over the parts of `source` under `cfg` whose parts run on
    /// `executor` (`cfg.pool_threads` is not read).
    pub fn on_executor(
        source: impl Into<PartSource>,
        cfg: ShardPoolConfig,
        executor: Arc<Executor>,
    ) -> Self {
        let source = source.into();
        let n = source.num_parts();
        let shards = (0..n)
            .map(|_| ShardState {
                submitted: 0,
                due: None,
                sup: Supervisor::new(cfg.quarantine()),
                kind: ShardHealth::Ok,
                failures: 0,
                panics: 0,
                timeouts: 0,
            })
            .collect();
        ShardPool {
            shared: Arc::new(PoolShared {
                source,
                completed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            }),
            executor,
            cfg,
            shards: Mutex::new(shards),
            #[cfg(test)]
            frozen: Mutex::new(None),
        }
    }

    /// The supervision clock: the wall clock, unless a unit test froze
    /// it. (Fan-out deadlines always run on the wall clock.)
    fn now(&self) -> Instant {
        #[cfg(test)]
        if let Some(t) = *lock(&self.frozen) {
            return t;
        }
        Instant::now()
    }

    /// What the pool's parts are cut from.
    pub fn source(&self) -> &PartSource {
        &self.shared.source
    }

    /// Number of parts queries fan out across.
    pub fn num_shards(&self) -> usize {
        self.shared.source.num_parts()
    }

    /// Whether shard `s` is still draining the backlog of a task that
    /// missed its deadline (a wedge keeps it out of fan-outs until then).
    /// A task whose coordinator is still running it past the deadline
    /// counts too: the coordinator cannot report the wedge until the task
    /// returns, if it ever does.
    fn backlogged(&self, sh: &ShardState, s: usize) -> bool {
        self.shared.completed[s].load(Ordering::Relaxed) < sh.submitted
            && (sh.kind == ShardHealth::Wedged || sh.due.is_some_and(|d| Instant::now() >= d))
    }

    /// Current per-shard supervision state and counters (the shard
    /// plane; see [`Self::worker_reports`] for the worker plane).
    pub fn supervision(&self) -> Vec<ShardHealthReport> {
        let shards = lock(&self.shards);
        shards
            .iter()
            .enumerate()
            .map(|(shard, sh)| ShardHealthReport {
                shard,
                health: if sh.sup.state() == State::Closed {
                    sh.kind
                } else {
                    ShardHealth::Quarantined
                },
                consecutive_failures: sh.sup.streak(),
                failures: sh.failures,
                panics: sh.panics,
                timeouts: sh.timeouts,
                quarantine_trips: sh.sup.trips(),
                quarantine_recoveries: sh.sup.recoveries(),
            })
            .collect()
    }

    /// Current per-thread liveness and counters of the executor the parts
    /// run on (the worker plane).
    pub fn worker_reports(&self) -> Vec<PoolWorkerReport> {
        self.executor.worker_reports()
    }

    /// Shards a fan-out would currently dispatch to (it dispatches
    /// nothing, though it mends the executor's thread slots first):
    /// shards whose supervisor is [`Supervisor::ready`] and that are not
    /// draining a wedge backlog — provided at least one executor thread is
    /// live. Engines use this to pick fan-out targets (and the threshold
    /// primer shard) up front instead of discovering unavailability
    /// mid-run.
    fn ready_shards(&self) -> Vec<usize> {
        let now = self.now();
        // With no live thread, even after the respawns the ladders admit,
        // there is no execution substrate at all.
        if self.executor.ensure_workers(now) == 0 {
            return Vec::new();
        }
        let shards = lock(&self.shards);
        shards
            .iter()
            .enumerate()
            .filter(|&(s, sh)| sh.sup.ready(now) && !self.backlogged(sh, s))
            .map(|(s, _)| s)
            .collect()
    }

    /// Runs `f` once per shard (in parallel across the executor threads)
    /// and collects the per-shard results in shard order. A slot is
    /// `None` if that shard's execution panicked, missed the deadline, was
    /// quarantined, or no thread could run it — the other shards still
    /// complete and the pool remains usable.
    pub fn run<T, F>(&self, f: F) -> Vec<Option<T>>
    where
        F: Fn(usize, Part<'_>, &mut DecodeScratch) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        self.run_on(None, f).slots
    }

    /// Runs `f` on the shards in `targets` (all shards when `None`),
    /// waiting at most the configured fan-out deadline
    /// ([`ShardPoolConfig::deadline`]), and updates supervision state
    /// from the outcomes. A part that finishes after the deadline is
    /// [`ShardOutcome::TimedOut`], whichever thread ran it.
    ///
    /// The caller coordinates: when it is one of the executor's own
    /// threads, or runs one of its whole queries, it runs its
    /// still-queued parts itself before parking (helping join, see
    /// [`Executor`]); any other caller parks. The deadline bounds the wait
    /// for parts other threads run, not a part the caller runs itself.
    pub fn run_on<T, F>(&self, targets: Option<&[usize]>, f: F) -> ShardRun<T>
    where
        F: Fn(usize, Part<'_>, &mut DecodeScratch) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        struct SlotState<T> {
            /// Per shard: `None` until its part reports in time, then the
            /// part's value (`None` if it panicked).
            results: Vec<Option<Option<T>>>,
            n_done: usize,
            /// Parts dispatched; set before any of them is enqueued, so
            /// the part that completes the count — and only that one —
            /// wakes the coordinator.
            expected: usize,
            /// Set when the run gives up (deadline): tasks still queued
            /// drain without doing the query work, so a timeout storm
            /// does not snowball stale backlog through the shared queue.
            abandoned: bool,
        }
        let deadline = self.cfg.fanout_deadline_from(Instant::now());
        let n = self.num_shards();
        let mut outcomes = vec![ShardOutcome::NotDispatched; n];
        // Per shard: `Some(probe)` once dispatched, `probe` marking a
        // half-open probe.
        let mut probing = vec![None; n];
        let now = self.now();
        // Revive dead thread slots first; with zero live threads the
        // targeted shards report NoWorker immediately instead of burning
        // the fan-out deadline on tasks nothing can run.
        let alive = self.executor.ensure_workers(now);
        for (s, sh) in lock(&self.shards).iter_mut().enumerate() {
            if targets.is_some_and(|t| !t.contains(&s)) {
                continue;
            }
            if alive == 0 {
                sh.kind = ShardHealth::DeadWorker;
                outcomes[s] = ShardOutcome::NoWorker;
                continue;
            }
            if self.backlogged(sh, s) {
                outcomes[s] = if sh.sup.state() == State::Closed {
                    ShardOutcome::SkippedWedged
                } else {
                    ShardOutcome::SkippedQuarantined
                };
                continue;
            }
            // Closed admits; a quarantine admits one half-open probe once
            // its cooldown has elapsed.
            let Some(probe) = sh.sup.admit(now) else {
                outcomes[s] = ShardOutcome::SkippedQuarantined;
                continue;
            };
            probing[s] = Some(probe);
            if sh.kind == ShardHealth::Wedged {
                // Backlog flushed; the wedge is over.
                sh.kind = ShardHealth::Ok;
            }
            sh.submitted += 1;
            sh.due = deadline;
        }

        let f = Arc::new(f);
        let slot = Arc::new(Monitor::new(SlotState {
            results: (0..n).map(|_| None).collect::<Vec<Option<Option<T>>>>(),
            n_done: 0,
            expected: probing.iter().flatten().count(),
            abandoned: false,
        }));
        let parts: Vec<Task> = (0..n)
            .filter(|&s| probing[s].is_some())
            .map(|s| -> Task {
                let (f, slot, shared) =
                    (Arc::clone(&f), Arc::clone(&slot), Arc::clone(&self.shared));
                Box::new(move || {
                    // A stale task from a run that already gave up drains
                    // the accounting without the query work.
                    if !slot.update(|g| (g.abandoned, Wake::None)) {
                        let out = with_scratch(|scratch| {
                            catch_unwind(AssertUnwindSafe(|| {
                                f(s, shared.source.part(s), scratch)
                            }))
                        });
                        // Past the deadline the answer is a timeout, even to
                        // a coordinator that ran the part itself.
                        if deadline.is_none_or(|d| Instant::now() < d) {
                            slot.update(|g| {
                                g.results[s] = Some(out.ok());
                                g.n_done += 1;
                                let last = g.n_done == g.expected;
                                ((), if last { Wake::One } else { Wake::None })
                            });
                        }
                    }
                    shared.completed[s].fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        if let Some(fan_out) = self.executor.fan_out(parts, deadline) {
            while deadline.is_none_or(|d| Instant::now() < d) && self.executor.help(fan_out) {}
        }

        // Swap in a fresh vec (not mem::take): a shard finishing after the
        // deadline still writes into a full-length vec harmlessly instead
        // of indexing out of bounds.
        let take = |g: &mut SlotState<T>| {
            std::mem::replace(&mut g.results, (0..n).map(|_| None).collect())
        };
        let joined = slot.wait_until(deadline, |g| (g.n_done >= g.expected).then(|| take(g)));
        let results = joined.unwrap_or_else(|| {
            // A thread still in one of this run's parts is stuck past the
            // deadline: its slot gets a fresh thread now, so the stall
            // holds up no other task.
            self.executor.ensure_workers(self.now());
            slot.update(|g| {
                // The run is giving up on the stragglers; let their
                // still-queued tasks fast-drain on the executor.
                g.abandoned = g.n_done < g.expected;
                (take(g), Wake::None)
            })
        });

        let now = self.now();
        for (s, sh) in lock(&self.shards).iter_mut().enumerate() {
            let Some(probe) = probing[s] else { continue };
            (outcomes[s], sh.kind) = match &results[s] {
                Some(Some(_)) => (ShardOutcome::Answered, ShardHealth::Ok),
                Some(None) => (ShardOutcome::Panicked, ShardHealth::Panicked),
                None => (ShardOutcome::TimedOut, ShardHealth::Wedged),
            };
            // Outcomes of tasks dispatched before a trip (not a `probe`)
            // reach the counters but not the quarantine.
            if outcomes[s] == ShardOutcome::Answered {
                sh.sup.on_success(probe);
                continue;
            }
            sh.panics += u64::from(outcomes[s] == ShardOutcome::Panicked);
            sh.timeouts += u64::from(outcomes[s] == ShardOutcome::TimedOut);
            sh.failures += 1;
            sh.sup.on_failure(probe, now);
        }
        ShardRun { slots: results.into_iter().map(Option::flatten).collect(), outcomes }
    }
}

/// The result of one sharded query: merged hits plus exact per-shard and
/// summed operation counts, priced as a parallel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Global top-k hits, bit-identical to the unsharded engine.
    pub hits: Vec<Hit>,
    /// Candidate documents offered to top-k selection, summed over shards.
    pub candidates: u64,
    /// Operation counts summed exactly over all shards plus the
    /// coordinator's threshold primer (via [`OpCounts::merge`]).
    pub counts: OpCounts,
    /// Per-shard operation counts, in shard order.
    pub shard_counts: Vec<OpCounts>,
    /// Coordinator-side work done *before* dispatch (the single-term
    /// threshold primer, [`pruned::prime_single_threshold`]); zero for
    /// exhaustive and multi-term queries. `counts` is the sum of
    /// `shard_counts` and this.
    pub primer: OpCounts,
    /// Modeled parallel timing: the critical-path (slowest) shard's phase
    /// breakdown plus the cross-shard merge priced into the top-k phase.
    pub phases: PhaseBreakdown,
    /// Parts that did not contribute (panicked, wedged, quarantined, or
    /// worker gone), in part order. Empty for a full-coverage answer;
    /// non-empty means `hits` covers only the surviving parts' documents:
    /// each missing window drops its contiguous docID range, each missing
    /// split shard every `total`-th document.
    pub missing: Vec<usize>,
    /// Total number of shards fanned out across.
    pub total: usize,
}

impl ShardedOutcome {
    /// Modeled end-to-end latency in nanoseconds (critical path + merge).
    pub fn latency_ns(&self) -> f64 {
        self.phases.total_ns()
    }

    /// True when every shard contributed (the answer is exact).
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// A query engine executing every query across the parts of a
/// [`PartSource`] in parallel. The sharded mirror of
/// [`crate::engine::CpuEngine`]: same query shapes, same error contract,
/// bit-identical hits.
///
/// Methods take `&self` — per-query mutable state lives on the threads
/// that run the parts (scratch) or in per-query structures (heaps, shared
/// threshold).
#[derive(Debug)]
pub struct ShardedEngine {
    pool: ShardPool,
    pruned: bool,
    /// Error out instead of answering partially when a shard is missing.
    fail_closed: bool,
    /// Shard-level fault injection for chaos campaigns (quiet by default).
    chaos: ShardChaosPlan,
    /// Monotonic query sequence number driving the chaos plan's
    /// deterministic draws.
    seq: AtomicU64,
    /// Cumulative docs scored per shard, for operator load-balance views.
    loads: Vec<std::sync::atomic::AtomicU64>,
}

impl ShardedEngine {
    /// Creates an engine (and its pool and executor) over the parts of `source`
    /// — windows of one index, or a split's shards — in exhaustive mode.
    pub fn new(source: impl Into<PartSource>) -> Self {
        Self::with_config(source, ShardPoolConfig::default())
    }

    /// Creates an engine whose pool (and executor) follows `cfg`.
    pub fn with_config(source: impl Into<PartSource>, cfg: ShardPoolConfig) -> Self {
        Self::from_pool(ShardPool::with_config(source, cfg))
    }

    /// Creates an engine fanning out over `pool` (and the executor its
    /// parts run on).
    pub fn from_pool(pool: ShardPool) -> Self {
        let loads =
            (0..pool.num_shards()).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
        ShardedEngine {
            pool,
            pruned: false,
            fail_closed: false,
            chaos: ShardChaosPlan::NONE,
            seq: AtomicU64::new(0),
            loads,
        }
    }

    /// Enables or disables block-max pruned execution (builder style).
    #[must_use]
    pub fn with_pruning(mut self, pruned: bool) -> Self {
        self.pruned = pruned;
        self
    }

    /// Sets the fail-closed policy (builder style): when `true`, a query
    /// that cannot cover every shard returns
    /// [`IndexError::CorruptIndex`] instead of a partial answer.
    #[must_use]
    pub fn with_fail_closed(mut self, fail_closed: bool) -> Self {
        self.fail_closed = fail_closed;
        self
    }

    /// Installs a shard-level fault-injection plan (builder style).
    #[must_use]
    pub fn with_chaos(mut self, chaos: ShardChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// True when the engine skips blocks via score bounds.
    pub fn pruning(&self) -> bool {
        self.pruned
    }

    /// True when partial coverage is treated as an error.
    pub fn fail_closed(&self) -> bool {
        self.fail_closed
    }

    /// Cumulative documents scored per shard since the engine started —
    /// an operator's load-balance view across the shard workers.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.loads.iter().map(|l| l.load(std::sync::atomic::Ordering::Relaxed)).collect()
    }

    /// The dictionary queries resolve their terms against.
    pub fn dictionary(&self) -> &InvertedIndex {
        self.pool.source().dictionary()
    }

    /// The shard pool (for layers running general query trees).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Number of parts queries fan out across.
    pub fn num_shards(&self) -> usize {
        self.pool.num_shards()
    }

    fn resolve(&self, term: &str) -> Result<TermId, IndexError> {
        let id = self
            .dictionary()
            .term_id(term)
            .ok_or_else(|| IndexError::UnknownTerm { term: term.to_owned() })?;
        self.pool.source().verify_term(id)?;
        Ok(id)
    }

    /// Merges per-part `(hits, counts)` results, their docIDs already
    /// global, into a [`ShardedOutcome`]. Fail-soft: a `None` slot lands
    /// in `missing` (with zeroed part counts) and the merge covers the
    /// parts that answered; only a fully-empty result set is an error.
    fn merge_outcome(
        &self,
        results: Vec<Option<(Vec<Hit>, OpCounts)>>,
        k: usize,
        primer: OpCounts,
    ) -> Result<ShardedOutcome, IndexError> {
        let cost = CpuCostModel::default();
        let total = results.len();
        let mut all_hits = Vec::new();
        let mut counts = OpCounts::default();
        let mut shard_counts = Vec::with_capacity(results.len());
        let mut missing = Vec::new();
        let mut crit = PhaseBreakdown::default();
        for (s, r) in results.into_iter().enumerate() {
            let Some((hits, shard)) = r else {
                missing.push(s);
                shard_counts.push(OpCounts::default());
                continue;
            };
            all_hits.extend(hits);
            counts.merge(&shard);
            if let Some(load) = self.loads.get(s) {
                load.fetch_add(shard.docs_scored, std::sync::atomic::Ordering::Relaxed);
            }
            let phases = cost.price(&shard);
            if phases.total_ns() > crit.total_ns() {
                crit = phases;
            }
            shard_counts.push(shard);
        }
        if missing.len() == total {
            return Err(IndexError::CorruptIndex { context: "all shards unavailable" });
        }
        // The host-side cross-shard merge is a top-k pass over at most
        // n·k candidates; price it into the top-k phase.
        crit.topk_ns += cost.price_topk(all_hits.len() as u64);
        // The primer runs serially before dispatch, so its phases land on
        // the critical path in full. `price` bakes the fixed per-query
        // overhead into `other_ns`; the primer belongs to the same query,
        // so strip that term rather than charging it twice.
        if primer != OpCounts::default() {
            let p = cost.price(&primer);
            crit.decompress_ns += p.decompress_ns;
            crit.setop_ns += p.setop_ns;
            crit.score_ns += p.score_ns;
            crit.topk_ns += p.topk_ns;
            crit.other_ns += p.other_ns - cost.query_overhead_ns;
            counts.merge(&primer);
        }
        all_hits.sort_by(rank_cmp);
        all_hits.truncate(k);
        Ok(ShardedOutcome {
            hits: all_hits,
            candidates: counts.topk_candidates,
            counts,
            shard_counts,
            primer,
            phases: crit,
            missing,
            total,
        })
    }

    /// Runs `f` across the shards with the engine's supervision-aware
    /// targeting and chaos injection — the fan-out primitive for layers
    /// executing general query trees on the engine's pool. Slots are
    /// full-length (`None` for shards that did not answer); callers
    /// decide their own partial-coverage policy. Safe to merge partially
    /// only for computations with no cross-shard coupling (exhaustive
    /// evaluation; anything sharing a pruning threshold must go through
    /// the query methods instead).
    pub fn run_shards<T, F>(&self, f: F) -> ShardRun<T>
    where
        F: Fn(usize, Part<'_>, &mut DecodeScratch) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let (seq, alive) = self.begin();
        let chaos = self.chaos.clone();
        self.pool.run_on(Some(&alive), move |s, part, scratch| {
            sabotage(&chaos, seq, s);
            f(s, part, scratch)
        })
    }

    /// What every fan-out does first: draws the query's chaos sequence
    /// number, fires a worker kill the chaos plan schedules for it, and
    /// picks the parts supervision says are ready — every part when none
    /// is, so the run reports why each one is unavailable.
    fn begin(&self) -> (u64, Vec<usize>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(victim) = self.chaos.kill(seq) {
            self.pool.executor.kill(victim);
        }
        let mut alive = self.pool.ready_shards();
        if alive.is_empty() {
            alive = (0..self.num_shards()).collect();
        }
        (seq, alive)
    }

    /// The fail-soft fan-out driver behind every query shape: each part
    /// answers `shape` over its window, with the shared cross-part
    /// threshold in pruned mode.
    ///
    /// Exhaustive parts are independent, so survivors merge directly
    /// whatever failed. Pruned parts exchange thresholds through
    /// [`SharedThreshold`], so a part that published thresholds and then
    /// failed mid-run may have over-pruned the survivors — in that case
    /// the query reruns restricted to the survivors with a fresh threshold
    /// (and a primer re-chosen among them, tolerating the best part being
    /// the missing one). Each rerun loses at least one part, so the loop
    /// is bounded.
    fn fan_out(&self, k: usize, shape: Shape) -> Result<ShardedOutcome, IndexError> {
        let n = self.num_shards();
        let prune = self.pruned;
        // Skip parts supervision already knows are unavailable, so the
        // primer (and pruned threshold exchange) only involves parts that
        // can actually reach the merge.
        let (seq, mut alive) = self.begin();
        for _pass in 0..=n {
            let shared = Arc::new(SharedThreshold::new());
            // Prime the shared threshold before dispatch, so no part pays
            // the cold-heap ramp-up (the serial fraction that would
            // otherwise cap scaling).
            let mut primer = OpCounts::default();
            if let (Shape::Single(id), true) = (shape, prune && alive.len() > 1) {
                if let Some(best) = self.pool.source().primer(&alive, id) {
                    let (index, window) = (best.index, best.window);
                    ops::with_scratch(|scratch| {
                        pruned::prime_single_threshold(
                            index,
                            id,
                            window,
                            k,
                            &mut primer,
                            scratch,
                            &shared,
                        );
                    });
                }
            }
            let chaos = self.chaos.clone();
            let sh = Arc::clone(&shared);
            let run = self.pool.run_on(Some(&alive), move |s, part, scratch| {
                sabotage(&chaos, seq, s);
                let mut counts = OpCounts::default();
                let shared = prune.then_some(&*sh);
                let (index, window) = (part.index, part.window);
                let mut hits =
                    answer(index, shape, window, k, prune, shared, &mut counts, scratch);
                for h in &mut hits {
                    h.doc_id = part.global_doc(h.doc_id);
                }
                (hits, counts)
            });
            let survivors: Vec<usize> = (0..n).filter(|&s| run.slots[s].is_some()).collect();
            if survivors.is_empty() {
                return Err(IndexError::CorruptIndex { context: "all shards unavailable" });
            }
            if self.fail_closed && survivors.len() < n {
                return Err(IndexError::CorruptIndex { context: "shard execution failed" });
            }
            if !prune || survivors.len() == alive.len() {
                return self.merge_outcome(run.slots, k, primer);
            }
            // Pruned mode lost a threshold-exchange participant mid-run:
            // rerun on the survivors only.
            alive = survivors;
        }
        Err(IndexError::CorruptIndex { context: "shard execution failed" })
    }

    /// Single-term query fanned across shards.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if `term` is not indexed and
    /// [`IndexError::CorruptIndex`] if no shard could answer (or, under
    /// [`Self::with_fail_closed`], if any shard could not).
    pub fn search_single(&self, term: &str, k: usize) -> Result<ShardedOutcome, IndexError> {
        self.fan_out(k, Shape::Single(self.resolve(term)?))
    }

    /// Intersection query fanned across shards.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if either term is not indexed
    /// and [`IndexError::CorruptIndex`] if no shard could answer (or,
    /// under [`Self::with_fail_closed`], if any shard could not).
    pub fn search_intersection(
        &self,
        term_a: &str,
        term_b: &str,
        k: usize,
    ) -> Result<ShardedOutcome, IndexError> {
        self.fan_out(k, Shape::And(self.resolve(term_a)?, self.resolve(term_b)?))
    }

    /// Union query fanned across shards.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::UnknownTerm`] if either term is not indexed
    /// and [`IndexError::CorruptIndex`] if no shard could answer (or,
    /// under [`Self::with_fail_closed`], if any shard could not).
    pub fn search_union(
        &self,
        term_a: &str,
        term_b: &str,
        k: usize,
    ) -> Result<ShardedOutcome, IndexError> {
        self.fan_out(k, Shape::Or(self.resolve(term_a)?, self.resolve(term_b)?))
    }
}

/// Runs the chaos plan's stall and panic draws for part `s` of query
/// `seq`, on the thread about to run it.
fn sabotage(chaos: &ShardChaosPlan, seq: u64, s: usize) {
    if let Some(d) = chaos.sabotage_stall(seq, s) {
        std::thread::sleep(d);
    }
    if chaos.sabotage_panic(seq, s) {
        panic!("injected shard panic fault (seq {seq}, shard {s})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CpuEngine;
    use iiu_index::{BuildOptions, IndexBuilder, Partitioner};

    fn sample_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions {
            partitioner: Partitioner::fixed(4),
            ..Default::default()
        });
        b.add_document(&"hot ".repeat(40));
        b.add_document(&"cold ".repeat(40));
        b.add_document(&"hot cold ".repeat(25));
        for i in 0..120 {
            b.add_document(&format!("hot cold filler{}", i % 7));
        }
        b.build()
    }

    /// `n` windows of the sample index: what the serving layer fans over.
    fn sharded(n: usize, pruned: bool) -> ShardedEngine {
        ShardedEngine::new(PartSource::windows(Arc::new(sample_index()), n))
            .with_pruning(pruned)
    }

    /// Both ways of cutting `n` parts out of the sample index.
    fn sources(n: usize) -> [PartSource; 2] {
        let idx = sample_index();
        let split = Arc::new(ShardedIndex::split(&idx, n).unwrap());
        [PartSource::windows(Arc::new(idx), n), PartSource::Split(split)]
    }

    impl ShardPool {
        /// A pool whose executor slots set in `mask` never spawn.
        fn with_unspawnable(
            source: impl Into<PartSource>,
            cfg: ShardPoolConfig,
            mask: u64,
        ) -> Self {
            let source = source.into();
            let threads = cfg.effective_pool_threads(source.num_parts());
            Self::on_executor(source, cfg, Arc::new(Executor::build(threads, mask)))
        }

        /// Kills executor thread `w` (see [`Executor`]'s worker plane).
        fn kill_worker(&self, w: usize) {
            self.executor.kill(w);
        }

        /// Stops the supervision clock at the current instant.
        fn freeze_clock(&self) {
            *lock(&self.frozen) = Some(Instant::now());
        }

        /// Moves a frozen supervision clock forward.
        fn advance_clock(&self, by: Duration) {
            if let Some(t) = lock(&self.frozen).as_mut() {
                *t += by;
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_on_all_shapes() {
        let idx = sample_index();
        for n in [1usize, 2, 3, 4, 7] {
            for (source, pruned) in
                sources(n).into_iter().flat_map(|s| [(s.clone(), false), (s, true)])
            {
                let eng = ShardedEngine::new(source).with_pruning(pruned);
                let cpu = CpuEngine::new(&idx).with_pruning(pruned);
                for k in [0usize, 1, 5, 10, 1000] {
                    let a = cpu.search_single("hot", k).unwrap();
                    let b = eng.search_single("hot", k).unwrap();
                    assert_eq!(a.hits, b.hits, "single n={n} pruned={pruned} k={k}");
                    let a = cpu.search_intersection("hot", "cold", k).unwrap();
                    let b = eng.search_intersection("hot", "cold", k).unwrap();
                    assert_eq!(a.hits, b.hits, "and n={n} pruned={pruned} k={k}");
                    let a = cpu.search_union("hot", "cold", k).unwrap();
                    let b = eng.search_union("hot", "cold", k).unwrap();
                    assert_eq!(a.hits, b.hits, "or n={n} pruned={pruned} k={k}");
                }
            }
        }
    }

    #[test]
    fn shard_counts_sum_exactly_into_merged_counts() {
        let eng = sharded(3, true);
        let out = eng.search_single("hot", 10).unwrap();
        assert_eq!(out.shard_counts.len(), 3);
        let mut sum = OpCounts::default();
        for c in &out.shard_counts {
            sum.merge(c);
        }
        sum.merge(&out.primer);
        assert_eq!(sum, out.counts, "shard tallies + primer must sum exactly");
        assert_eq!(out.candidates, out.counts.topk_candidates);
    }

    #[test]
    fn unknown_term_is_an_error() {
        let eng = sharded(2, false);
        assert!(matches!(eng.search_single("zebra", 5), Err(IndexError::UnknownTerm { .. })));
        assert!(eng.search_intersection("zebra", "hot", 5).is_err());
        assert!(eng.search_union("hot", "zebra", 5).is_err());
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let pool = ShardPool::new(s);
        let r = pool.run(|s, _, _| {
            if s == 1 {
                panic!("injected shard panic");
            }
            s * 10
        });
        assert_eq!(r, vec![Some(0), None, Some(20)]);
        // The pool (including the worker whose job panicked) still works.
        let r = pool.run(|s, part, _| (s, part.index.num_docs()));
        assert!(r.iter().all(|x| x.is_some()));
    }

    #[test]
    fn engine_recovers_after_pool_wide_panics() {
        let eng = sharded(2, true);
        // Panic inside a run() on the engine's own pool, then confirm the
        // engine still answers full-coverage queries on the same workers.
        let r = eng.pool().run::<(), _>(|_, _, _| panic!("injected shard panic"));
        assert!(r.iter().all(|x| x.is_none()));
        let out = eng.search_single("hot", 3).unwrap();
        assert_eq!(out.hits.len(), 3);
        assert!(out.complete(), "both shards answered: {:?}", out.missing);
    }

    /// Reference: the unsharded engine's answer restricted to the
    /// documents of the surviving windows (doc d lives in the one of the
    /// `n` windows that contains it).
    fn surviving_reference(
        idx: &InvertedIndex,
        shape: (&str, Option<&str>, bool),
        n: usize,
        missing: &[usize],
        k: usize,
    ) -> Vec<Hit> {
        let (a, b, and) = shape;
        let cpu = CpuEngine::new(idx);
        // k larger than the corpus: the full ranking, nothing truncated.
        let all = idx.num_docs() as usize + 1;
        let full = match b {
            None => cpu.search_single(a, all).unwrap(),
            Some(b) if and => cpu.search_intersection(a, b, all).unwrap(),
            Some(b) => cpu.search_union(a, b, all).unwrap(),
        };
        let windows = DocWindow::split(idx.num_docs(), n);
        let mut hits: Vec<Hit> = full
            .hits
            .into_iter()
            .filter(|h| !missing.iter().any(|&w| windows[w].contains(h.doc_id)))
            .collect();
        hits.truncate(k);
        hits
    }

    #[test]
    fn partial_hits_are_bit_identical_to_unsharded_over_surviving_docs() {
        // Whichever shard dies — including the one the pruned primer
        // would have chosen — the partial answer must equal the unsharded
        // engine run over the surviving documents, bit for bit.
        let idx = sample_index();
        let n = 4;
        for victim in 0..n {
            for pruned in [false, true] {
                let chaos = ShardChaosPlan {
                    panic_burst: Some((0, u64::MAX, victim)),
                    ..ShardChaosPlan::NONE
                };
                let eng = sharded(n, pruned).with_chaos(chaos);
                for (shape, label) in [
                    (("hot", None, false), "single"),
                    (("hot", Some("cold"), true), "and"),
                    (("hot", Some("cold"), false), "or"),
                ] {
                    let out = match shape {
                        (a, None, _) => eng.search_single(a, 10).unwrap(),
                        (a, Some(b), true) => eng.search_intersection(a, b, 10).unwrap(),
                        (a, Some(b), false) => eng.search_union(a, b, 10).unwrap(),
                    };
                    assert_eq!(
                        out.missing,
                        vec![victim],
                        "{label} victim={victim} pruned={pruned}"
                    );
                    assert_eq!(out.total, n);
                    assert!(!out.complete());
                    let want = surviving_reference(&idx, shape, n, &out.missing, 10);
                    assert_eq!(
                        out.hits, want,
                        "{label} victim={victim} pruned={pruned}: partial hits \
                         must match unsharded over survivors"
                    );
                }
            }
        }
    }

    #[test]
    fn fail_closed_engine_rejects_partial_coverage() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let chaos =
            ShardChaosPlan { panic_burst: Some((0, u64::MAX, 1)), ..ShardChaosPlan::NONE };
        let eng = ShardedEngine::new(s).with_fail_closed(true).with_chaos(chaos);
        assert!(eng.fail_closed());
        assert!(matches!(eng.search_single("hot", 5), Err(IndexError::CorruptIndex { .. })));
    }

    #[test]
    fn deadline_wedges_a_stalling_shard_then_drain_recovers_it() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let cfg = ShardPoolConfig {
            // Enough workers that the stalled task never starves the
            // healthy shards' tasks of a thread.
            pool_threads: 3,
            deadline: Some(Duration::from_millis(25)),
            // High threshold so the wedge itself (not quarantine) is
            // what we observe.
            quarantine_threshold: 100,
            ..Default::default()
        };
        let pool = ShardPool::with_config(s, cfg);
        let run = pool.run_on(None, |s, _, _| {
            if s == 1 {
                std::thread::sleep(Duration::from_millis(150));
            }
            s
        });
        assert_eq!(run.slots, vec![Some(0), None, Some(2)]);
        assert_eq!(run.outcomes[1], ShardOutcome::TimedOut);
        assert_eq!(pool.supervision()[1].health, ShardHealth::Wedged);
        assert_eq!(pool.supervision()[1].timeouts, 1);
        assert!(!pool.ready_shards().contains(&1));

        // Still draining its backlog: skipped, not re-dispatched.
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.outcomes[1], ShardOutcome::SkippedWedged);
        assert!(run.slots[1].is_none());

        // Once the stalled job flushes, the shard answers again.
        std::thread::sleep(Duration::from_millis(200));
        assert!(pool.ready_shards().contains(&1));
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.slots, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(pool.supervision()[1].health, ShardHealth::Ok);
    }

    #[test]
    fn quarantine_trips_after_consecutive_failures_and_recovers_half_open() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig {
            quarantine_threshold: 2,
            quarantine_cooldown: Duration::from_millis(30),
            ..Default::default()
        };
        let pool = ShardPool::with_config(s, cfg);
        for _ in 0..2 {
            let run = pool.run_on(None, |s, _, _| {
                if s == 0 {
                    panic!("injected shard panic");
                }
                s
            });
            assert!(run.slots[0].is_none());
            assert_eq!(run.slots[1], Some(1));
        }
        let sup = pool.supervision();
        assert_eq!(sup[0].health, ShardHealth::Quarantined);
        assert_eq!(sup[0].quarantine_trips, 1);
        assert_eq!(sup[0].panics, 2);
        assert!(!pool.ready_shards().contains(&0));

        // Inside the cooldown the shard is skipped without dispatch.
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.outcomes[0], ShardOutcome::SkippedQuarantined);

        // After the cooldown one half-open probe goes through; success
        // closes the quarantine.
        std::thread::sleep(Duration::from_millis(40));
        assert!(pool.ready_shards().contains(&0));
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.outcomes[0], ShardOutcome::Answered);
        let sup = pool.supervision();
        assert_eq!(sup[0].health, ShardHealth::Ok);
        assert_eq!(sup[0].quarantine_recoveries, 1);
    }

    #[test]
    fn killed_worker_is_respawned_and_answers_again() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let cfg = ShardPoolConfig {
            pool_threads: 3,
            deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        };
        let pool = ShardPool::with_config(s, cfg);
        pool.kill_worker(1);
        // Give the worker time to see the kill switch and exit.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!pool.worker_reports()[1].alive);
        // The next dispatch detects the dead slot, respawns it, and all
        // shards still answer (the survivors could have covered them
        // regardless — that is the point of the shared deque).
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.slots, vec![Some(0), Some(1), Some(2)]);
        let w = pool.worker_reports();
        assert_eq!(w[1].respawns, 1);
        assert!(w[1].alive);
        assert!(pool.supervision().iter().all(|h| h.health == ShardHealth::Ok));
    }

    #[test]
    fn chaos_kill_mid_stream_degrades_then_respawn_restores_coverage() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let cfg = ShardPoolConfig {
            deadline: Some(Duration::from_millis(100)),
            ..Default::default()
        };
        let chaos = ShardChaosPlan { kills: vec![(0, 1)], ..ShardChaosPlan::NONE };
        let eng = ShardedEngine::from_pool(ShardPool::with_config(s, cfg)).with_chaos(chaos);
        // Query 0 assassinates worker 1 just before fan-out. Depending on
        // how fast the worker exits, the query either rides a respawned
        // worker (full coverage) or times out on the dying one (partial)
        // — but it must resolve within the deadline either way.
        let out = eng.search_single("hot", 5).unwrap();
        assert!(out.missing.is_empty() || out.missing == vec![1]);
        // Coverage comes back once the dead worker is detected/respawned.
        std::thread::sleep(Duration::from_millis(120));
        let out = eng.search_single("hot", 5).unwrap();
        assert!(out.complete(), "still degraded: {:?}", out.missing);
        let respawns: u64 = eng.pool().worker_reports().iter().map(|w| w.respawns).sum();
        assert!(respawns >= 1, "killed pool worker was never respawned");
    }

    #[test]
    fn unspawnable_pool_worker_does_not_reduce_shard_coverage() {
        // The spawn-failure arm, worker plane: slot 1 can never spawn,
        // but the surviving workers drain every shard's tasks — no shard
        // goes dark with the shared deque.
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let cfg = ShardPoolConfig { pool_threads: 3, ..Default::default() };
        let pool = ShardPool::with_unspawnable(Arc::clone(&s), cfg, 1 << 1);
        // Stop the supervision clock so the dead slot's respawn back-off
        // never elapses during the test.
        pool.freeze_clock();
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.slots, vec![Some(0), Some(1), Some(2)]);
        let w = pool.worker_reports();
        assert!(w[0].alive && !w[1].alive && w[2].alive);

        let eng = ShardedEngine::from_pool(pool);
        let out = eng.search_single("hot", 10).unwrap();
        assert!(out.complete(), "missing: {:?}", out.missing);
    }

    #[test]
    fn all_workers_unspawnable_reports_no_worker_without_burning_deadline() {
        // Zero live workers: dispatch must report NoWorker on every
        // target immediately instead of waiting out the fan-out deadline
        // on tasks nothing can run.
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 3).unwrap());
        let cfg = ShardPoolConfig {
            pool_threads: 2,
            deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let pool = ShardPool::with_unspawnable(Arc::clone(&s), cfg, 0b11);
        pool.freeze_clock();
        let start = Instant::now();
        let run = pool.run_on(None, |s, _, _| s);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a dead pool must fail fast, not wait for the deadline"
        );
        assert!(run.slots.iter().all(|x| x.is_none()));
        assert!(run.outcomes.iter().all(|&o| o == ShardOutcome::NoWorker));
        assert_eq!(pool.supervision()[0].health, ShardHealth::DeadWorker);
        assert!(pool.ready_shards().is_empty(), "no substrate, nothing is ready");

        let eng = ShardedEngine::from_pool(pool);
        assert!(matches!(eng.search_single("hot", 5), Err(IndexError::CorruptIndex { .. })));
    }

    #[test]
    fn concurrent_fan_outs_share_the_pool_without_serializing() {
        // The tentpole property: N concurrent fan-outs × M shards ride
        // pool_threads workers concurrently. Four 2-shard runs whose
        // tasks each sleep 50ms would serialize to ~400ms on any
        // one-at-a-time substrate; a shared 8-worker pool finishes in
        // roughly one task's time.
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig { pool_threads: 8, ..Default::default() };
        let pool = Arc::new(ShardPool::with_config(s, cfg));
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|q| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let run = pool.run_on(None, move |s, _, _| {
                        std::thread::sleep(Duration::from_millis(50));
                        (q, s)
                    });
                    run.slots
                })
            })
            .collect();
        for (q, h) in handles.into_iter().enumerate() {
            let slots = h.join().unwrap();
            assert_eq!(slots, vec![Some((q, 0)), Some((q, 1))]);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "8 tasks on 8 workers took {elapsed:?}; the pool serialized"
        );
    }

    #[test]
    fn fanout_deadline_policy_is_derived_in_one_place() {
        let cfg = ShardPoolConfig {
            deadline: Some(Duration::from_millis(40)),
            ..Default::default()
        };
        let now = Instant::now();
        assert_eq!(cfg.fanout_deadline_from(now), Some(now + Duration::from_millis(40)));
        let unbounded = ShardPoolConfig::default();
        assert_eq!(unbounded.fanout_deadline_from(now), None);
        // Too far out for an Instant: no deadline, not an overflow panic.
        let forever = ShardPoolConfig { deadline: Some(Duration::MAX), ..Default::default() };
        assert_eq!(forever.fanout_deadline_from(now), None);
    }

    #[test]
    fn dropping_a_pool_with_a_wedged_worker_does_not_hang() {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig {
            deadline: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let pool = ShardPool::with_config(s, cfg);
        let run = pool.run_on(None, |s, _, _| {
            if s == 0 {
                // Wedge well past both the fan-out deadline and the drop
                // join timeout.
                std::thread::sleep(Duration::from_secs(3));
            }
            s
        });
        assert_eq!(run.outcomes[0], ShardOutcome::TimedOut);
        let start = Instant::now();
        drop(pool);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "drop must detach the wedged worker, not wait for it"
        );
    }

    #[test]
    fn a_part_stuck_under_a_helping_coordinator_is_skipped_before_it_reports() {
        use std::sync::mpsc;
        let prompt = Duration::from_secs(5);
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig {
            pool_threads: 1,
            deadline: Some(Duration::from_millis(20)),
            quarantine_threshold: 100,
            ..Default::default()
        };
        let pool = Arc::new(ShardPool::with_config(s, cfg));
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let (done_tx, done) = mpsc::channel();
        let p = Arc::clone(&pool);
        // The lone thread coordinates this run, so it runs both parts
        // itself, and part 1 holds it past the deadline.
        let coordinate: Task = Box::new(move || {
            let run = p.run_on(None, move |s, _, _| {
                if s == 1 {
                    started_tx.send(()).unwrap();
                    let _ = lock(&release_rx).recv();
                }
                s
            });
            done_tx.send(run.outcomes).unwrap();
        });
        pool.executor.submit(1, |_| coordinate).unwrap();
        started.recv_timeout(prompt).unwrap();
        std::thread::sleep(Duration::from_millis(30));

        // Its coordinator has not reported the timeout, but the part is
        // past its deadline: shard 1 is skipped, and the stuck slot's
        // fresh thread runs shard 0.
        assert!(!pool.ready_shards().contains(&1));
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.outcomes, vec![ShardOutcome::Answered, ShardOutcome::SkippedWedged]);
        drop(release);
        let outcomes = done.recv_timeout(prompt).unwrap();
        assert_eq!(outcomes, vec![ShardOutcome::Answered, ShardOutcome::TimedOut]);
    }

    #[test]
    fn a_timed_out_run_gives_the_stuck_thread_slot_a_fresh_thread() {
        use std::sync::mpsc;
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig {
            pool_threads: 1,
            deadline: Some(Duration::from_millis(20)),
            quarantine_threshold: 100,
            ..Default::default()
        };
        let pool = ShardPool::with_config(s, cfg);
        let (release, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let run = pool.run_on(None, move |s, _, _| {
            if s == 0 {
                let _ = lock(&release_rx).recv();
            }
            s
        });
        assert_eq!(run.outcomes[0], ShardOutcome::TimedOut);
        // Nothing has dispatched or submitted since: the run itself gave
        // the slot a fresh thread, which runs the next task at once.
        let (tx, ran) = mpsc::channel();
        let task: Task = Box::new(move || tx.send(()).unwrap());
        assert_eq!(pool.executor.fan_out(vec![task], None), None);
        ran.recv_timeout(Duration::from_secs(5)).expect("the stuck thread held the slot");
        drop(release);
    }

    #[test]
    fn dropping_idle_pools_never_strands_a_worker() {
        // Churn canary for the shutdown lost wake-up (DESIGN.md §15): a
        // worker that had checked the flags but not yet parked used to
        // miss Drop's only notify, park for good and pin the index.
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig { pool_threads: 2, ..Default::default() };
        for _ in 0..2_000 {
            drop(ShardPool::with_config(Arc::clone(&s), cfg));
        }
        assert_eq!(Arc::strong_count(&s), 1, "a dropped pool stranded a worker");
    }

    /// Two runs across one quarantine trip, ordered by channels: run A's
    /// shard-0 task blocks, run B's panics and trips shard 0 (threshold
    /// 1), `between` runs, then A's task is released and answers — or
    /// panics when `fail`. A is a straggler: dispatched before the trip,
    /// finished after it.
    fn straggle_across_a_trip(
        cooldown: Duration,
        fail: bool,
        between: impl FnOnce(&ShardPool),
    ) -> Arc<ShardPool> {
        let idx = sample_index();
        let s = Arc::new(ShardedIndex::split(&idx, 2).unwrap());
        let cfg = ShardPoolConfig {
            pool_threads: 2,
            quarantine_threshold: 1,
            quarantine_cooldown: cooldown,
            ..Default::default()
        };
        let pool = Arc::new(ShardPool::with_config(s, cfg));
        pool.freeze_clock();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new((started_tx, release_rx));
        let run_a = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.run_on(Some(&[0]), move |_, _, _| {
                    let g = gate.lock().unwrap();
                    g.0.send(()).unwrap();
                    g.1.recv().unwrap();
                    assert!(!fail, "injected shard panic (straggler)");
                })
            })
        };
        started.recv().unwrap();
        let run_b = pool.run_on(Some(&[0]), |_, _, _| panic!("injected shard panic"));
        assert_eq!(run_b.outcomes[0], ShardOutcome::Panicked);
        assert_eq!(pool.supervision()[0].health, ShardHealth::Quarantined);
        between(&pool);
        release.send(()).unwrap();
        let want = if fail { ShardOutcome::Panicked } else { ShardOutcome::Answered };
        assert_eq!(run_a.join().unwrap().outcomes[0], want);
        pool
    }

    #[test]
    fn a_straggler_success_never_lifts_a_quarantine() {
        let pool = straggle_across_a_trip(Duration::from_secs(3600), false, |_| {});
        let sup = &pool.supervision()[0];
        assert_eq!(sup.health, ShardHealth::Quarantined);
        assert_eq!((sup.quarantine_trips, sup.quarantine_recoveries), (1, 0));
        assert!(!pool.ready_shards().contains(&0));
        assert_eq!(
            pool.run_on(None, |s, _, _| s).outcomes[0],
            ShardOutcome::SkippedQuarantined
        );
    }

    #[test]
    fn a_straggler_failure_never_restarts_the_cooldown() {
        let cooldown = Duration::from_millis(100);
        let pool = straggle_across_a_trip(cooldown, true, |p| p.advance_clock(cooldown / 2));
        // Had the straggler's failure re-armed the quarantine, shard 0
        // would sit out until 150 ms; the trip at 0 ms lets it probe at
        // 100 ms.
        pool.advance_clock(cooldown / 2);
        assert!(pool.ready_shards().contains(&0), "a straggler restarted the cooldown");
        let sup = &pool.supervision()[0];
        assert_eq!((sup.panics, sup.quarantine_trips), (2, 1));
        let run = pool.run_on(None, |s, _, _| s);
        assert_eq!(run.outcomes[0], ShardOutcome::Answered);
        let sup = &pool.supervision()[0];
        assert_eq!((sup.health, sup.quarantine_recoveries), (ShardHealth::Ok, 1));
    }

    #[test]
    fn modeled_parallel_latency_is_critical_path_not_sum() {
        let eng = sharded(4, true);
        let out = eng.search_single("hot", 10).unwrap();
        let cost = CpuCostModel::default();
        let slowest =
            out.shard_counts.iter().map(|c| cost.price(c).total_ns()).fold(0.0f64, f64::max);
        let summed = cost.price(&out.counts).total_ns();
        assert!(out.latency_ns() >= slowest);
        assert!(
            out.latency_ns() < summed,
            "parallel model {} must beat serial sum {}",
            out.latency_ns(),
            summed
        );
    }

    #[test]
    fn pool_and_engine_are_shareable_across_threads() {
        // Serve workers hold the engine behind an Arc and query through
        // &self; losing Sync would silently break that layer.
        fn assert_share<T: Send + Sync>() {}
        assert_share::<ShardPool>();
        assert_share::<ShardedEngine>();
    }

    #[test]
    fn shard_loads_accumulate_docs_scored_per_shard() {
        let eng = sharded(3, false);
        assert_eq!(eng.shard_loads(), vec![0, 0, 0]);
        let out = eng.search_single("hot", 10).unwrap();
        let want: Vec<u64> = out.shard_counts.iter().map(|c| c.docs_scored).collect();
        assert_eq!(eng.shard_loads(), want);
        let out2 = eng.search_union("hot", "cold", 10).unwrap();
        let want2: Vec<u64> =
            want.iter().zip(&out2.shard_counts).map(|(a, c)| a + c.docs_scored).collect();
        assert_eq!(eng.shard_loads(), want2, "loads are cumulative across queries");
    }

    #[test]
    fn sharded_pruning_still_skips_blocks() {
        let eng = sharded(2, true);
        let out = eng.search_single("hot", 1).unwrap();
        assert!(
            out.counts.blocks_skipped > 0,
            "sharded pruning never skipped: {:?}",
            out.counts
        );
    }
}
