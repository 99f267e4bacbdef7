//! One set of threads for the serving path (DESIGN.md §14, "Execution
//! substrate"): the paper's §4.4 query scheduler in software.
//!
//! An [`Executor`] owns a fixed number of named worker threads draining
//! **one** queue, a [`Monitor`], of [`Task`]s. A task is either a whole
//! query, queued by [`Executor::submit`], or one part of a query fanned
//! out by a [`crate::ShardPool`]. The queue has two lanes:
//!
//! * **parts** of fan-outs already running go ahead of every queued whole
//!   query, so a query that has started finishes before a new one starts;
//! * **whole queries** leave in admission order, bounded by the caller's
//!   capacity. [`Executor::run_front`] lets a waiting caller run its own
//!   query when it is at the front (help-first join, DESIGN.md §10).
//!
//! # Helping join
//!
//! A fan-out's coordinator that is itself one of this executor's threads
//! runs its own fan-out's still-queued parts before it parks, and parks
//! only for the parts another thread already took. N concurrent fan-outs
//! on N threads therefore cannot wait each other out. A caller running
//! its own query through [`Executor::run_front`] counts as one of the
//! threads for that query: the thread it lends is awake already, and a
//! part it runs is one less wake-up on the critical path. Any other
//! coordinator parks while the threads run its parts, unless the executor
//! is shut down and may have no thread left.
//!
//! A part a coordinator runs itself runs to its end: the fan-out deadline
//! bounds only the wait for parts other threads run (DESIGN.md §14, "What
//! the fan-out deadline bounds").
//!
//! # Worker plane
//!
//! Each thread slot is supervised: a kill switch (the chaos campaigns'
//! worker death, honoured after the current task), a respawn ladder (at
//! once, then 10 ms doubling up to 1 s), and per-slot counters
//! ([`PoolWorkerReport`]). A thread shows the fan-out deadline of the
//! part it runs on its slot; one still in the part past it is stuck, and
//! is detached while its slot gets a fresh thread. Dead and stuck slots
//! are mended at every fan-out dispatch and whole-query submission.
//! Shutdown closes the queue to new whole queries, lets the threads drain
//! what is queued, and waits for them to exit ([`Executor::shutdown`]),
//! for at most a bound past which it detaches a stuck thread and drops
//! what is still queued; `Drop` bounds it at [`JOIN_GRACE`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::park::{Monitor, Wake};
use crate::sharded::lock;
use crate::supervise::{Policy, Supervisor};

/// One unit of work: a whole query, or one part of a fanned-out query.
pub type Task = Box<dyn FnOnce() + Send>;

/// The worker respawn ladder: a slot's first respawn is immediate; a
/// respawned thread that dies before finishing a task, or a failed spawn,
/// waits 10 ms, doubling per failed attempt up to 1 s.
pub(crate) const RESPAWN: Policy = Policy {
    threshold: 1,
    cooldown: Duration::from_millis(10),
    cap: Duration::from_secs(1),
    probes: 1,
};

/// How long `Drop` waits for the threads to finish before detaching the
/// rest (a wedged thread must not deadlock shutdown); a query service
/// waits this long past its query deadline.
pub const JOIN_GRACE: Duration = Duration::from_millis(500);

/// Source of executor identities; 0 means "no executor".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The executor this thread works for; 0 on every other thread.
    static EXECUTOR: Cell<u64> = const { Cell::new(0) };
    /// The slot life of the executor thread this is; `None` on every other
    /// thread.
    static LIFE: RefCell<Option<Arc<Life>>> = const { RefCell::new(None) };
}

/// Runs `task` on the calling thread. A part due at `due` (its fan-out
/// deadline) shows that on the thread's slot while it runs: a thread
/// still in it past then is stuck (see [`Executor::ensure_workers`]). A
/// caller's thread has no slot to show it on.
fn run(task: Task, due: Option<Instant>) {
    if due.is_none() {
        return task();
    }
    let show = |due| LIFE.with(|l| l.borrow().as_ref().map(|l| *lock(&l.due) = due));
    show(due);
    task();
    show(None);
}

/// Why [`Executor::submit`] refused a whole query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The executor is shut down.
    Closed,
    /// The queue already holds its capacity of whole queries.
    Full,
}

/// Worker-plane liveness and counters for one executor thread slot, as
/// reported by [`Executor::worker_reports`]. (The shard plane,
/// [`crate::ShardHealthReport`], tracks quarantine and wedge state; this
/// plane tracks the threads actually executing tasks.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolWorkerReport {
    /// Worker slot index (stable across respawns).
    pub worker: usize,
    /// Whether the worker thread is currently running.
    pub alive: bool,
    /// Tasks this slot's threads have taken off the queue and finished
    /// (cumulative across respawns).
    pub tasks_completed: u64,
    /// Times a dead thread in this slot was respawned.
    pub respawns: u64,
}

/// The one queue, and who is still draining it.
#[derive(Default)]
struct Queue {
    /// Parts of running fan-outs, tagged with their fan-out's number and
    /// deadline.
    parts: VecDeque<(u64, Option<Instant>, Task)>,
    /// Whole queries in admission order, tagged with their admission
    /// number.
    whole: VecDeque<(u64, Task)>,
    /// Whole queries admitted so far: the next admission number.
    admitted: u64,
    /// Fan-outs dispatched so far: the last fan-out number.
    fan_outs: u64,
    /// Set by shutdown: no whole query is admitted, and every thread
    /// exits once the queue is empty.
    closed: bool,
    /// Threads not yet past their loop; shutdown waits for zero.
    live: usize,
}

/// What the executor handle shares with its threads.
#[derive(Debug)]
struct Inner {
    id: u64,
    queue: Monitor<Queue>,
    /// Test-only spawn sabotage: bit `w` set means slot `w` can never
    /// spawn (exercises the spawn-failure path end to end).
    fail_spawn_mask: u64,
}

/// One thread's kill switch, finished-task count and due time, shared
/// with the thread. `die` is written only inside a queue update, so the
/// thread's wait sees it.
#[derive(Debug, Default)]
struct Life {
    die: AtomicBool,
    tasks: AtomicU64,
    /// The fan-out deadline of the part the thread is in, if any.
    due: Mutex<Option<Instant>>,
}

/// A thread's place in [`Queue::live`], held for the thread's whole life:
/// made before the spawn and dropped on the thread's way out (or with the
/// closure, if the spawn fails).
struct Live(Arc<Inner>);

impl Live {
    fn enter(inner: &Arc<Inner>) -> Self {
        inner.queue.update(|q| {
            q.live += 1;
            ((), Wake::None)
        });
        Live(Arc::clone(inner))
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.0.queue.update(|q| {
            q.live -= 1;
            ((), if q.live == 0 { Wake::All } else { Wake::None })
        });
    }
}

/// Worker-plane bookkeeping for one thread slot.
#[derive(Debug)]
struct Worker {
    handle: Option<JoinHandle<()>>,
    /// The current thread's life ([`Executor::kill`] sets its switch).
    life: Arc<Life>,
    /// Tasks finished by this slot's earlier threads.
    earlier_tasks: u64,
    respawns: u64,
    /// The respawn ladder.
    sup: Supervisor,
    /// `Some(probe)` while the current thread is a (re)spawn whose verdict
    /// is pending: its first finished task is the success, its death
    /// before one (or a failed spawn) the failure.
    ticket: Option<bool>,
}

impl Worker {
    /// Starts a fresh thread in slot `w`, carrying over the last one's
    /// finished tasks; the handle is `None` when the spawn fails.
    fn start(&mut self, inner: &Arc<Inner>, w: usize) {
        self.earlier_tasks += self.life.tasks.load(Ordering::Relaxed);
        self.life = Arc::default();
        self.handle = spawn(inner, w, Arc::clone(&self.life));
    }

    fn dead(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Reports a pending (re)spawn's verdict once there is one.
    fn settle(&mut self, now: Instant) {
        let Some(probe) = self.ticket else { return };
        // Liveness first: a thread that finished a task and then died
        // made progress.
        let dead = self.dead();
        match self.life.tasks.load(Ordering::Relaxed) {
            0 if !dead => return,
            0 => self.sup.on_failure(probe, now),
            _ => self.sup.on_success(probe),
        }
        self.ticket = None;
    }
}

/// Starts a thread for slot `w`; `None` when the spawn fails (or
/// `fail_spawn_mask` sabotages the slot).
fn spawn(inner: &Arc<Inner>, w: usize, life: Arc<Life>) -> Option<JoinHandle<()>> {
    if w < 64 && inner.fail_spawn_mask & (1u64 << w) != 0 {
        return None;
    }
    let live = Live::enter(inner);
    let builder = std::thread::Builder::new().name(format!("iiu-exec-{w}"));
    let spawned = builder.spawn(move || {
        let inner = &live.0;
        EXECUTOR.with(|e| e.set(inner.id));
        LIFE.with(|l| *l.borrow_mut() = Some(Arc::clone(&life)));
        loop {
            let task = inner.queue.wait_until(None, |q| {
                if life.die.load(Ordering::Relaxed) {
                    return Some(None);
                }
                let next = q.parts.pop_front().map(|(_, due, task)| (task, due));
                let next = next.or_else(|| q.whole.pop_front().map(|(_, task)| (task, None)));
                next.map(Some).or_else(|| q.closed.then_some(None))
            });
            let Some((task, due)) = task.flatten() else { return };
            // Every task isolates its own panics; this guard keeps the
            // thread alive should one escape anyway.
            let _ = catch_unwind(AssertUnwindSafe(|| run(task, due)));
            life.tasks.fetch_add(1, Ordering::Relaxed);
        }
    });
    spawned.ok()
}

/// One set of supervised threads draining one queue of whole queries and
/// query parts. See the [module documentation](self).
#[derive(Debug)]
pub struct Executor {
    inner: Arc<Inner>,
    workers: Mutex<Vec<Worker>>,
}

impl Executor {
    /// Starts `threads` worker threads (at least one).
    pub fn new(threads: usize) -> Self {
        Self::build(threads, 0)
    }

    /// Starts `threads` slots, of which those set in `fail_spawn_mask`
    /// never spawn.
    pub(crate) fn build(threads: usize, fail_spawn_mask: u64) -> Self {
        let inner = Arc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            queue: Monitor::new(Queue::default()),
            fail_spawn_mask,
        });
        let workers = (0..threads.max(1))
            .map(|w| {
                let (life, sup) = (Arc::default(), Supervisor::new(RESPAWN));
                let mut worker = Worker {
                    handle: None,
                    life,
                    earlier_tasks: 0,
                    respawns: 0,
                    sup,
                    ticket: None,
                };
                worker.start(&inner, w);
                // A failed spawn is a spawn with its verdict already in: the
                // first dispatch counts it as a failure.
                worker.ticket = worker.handle.is_none().then_some(false);
                worker
            })
            .collect();
        Executor { inner, workers: Mutex::new(workers) }
    }

    /// Queues a whole query behind every queued one, unless the executor
    /// is shut down or already holds `capacity` whole queries. `task`
    /// builds the query's task from its admission number (whole queries
    /// admitted before it), under the queue lock; that number is returned.
    /// Dead and stuck slots then get their threads back, so a service
    /// whose queries never fan out still recovers its threads.
    ///
    /// # Errors
    ///
    /// [`Refused`] says why nothing was queued; `task` was not called.
    pub fn submit(
        &self,
        capacity: usize,
        task: impl FnOnce(u64) -> Task,
    ) -> Result<u64, Refused> {
        let admitted = self.inner.queue.update(|q| {
            if q.closed {
                return (Err(Refused::Closed), Wake::None);
            }
            if q.whole.len() >= capacity {
                return (Err(Refused::Full), Wake::None);
            }
            let number = q.admitted;
            q.admitted += 1;
            q.whole.push_back((number, task(number)));
            // One task needs one thread: waking every idle one would cost
            // the others a futile context switch.
            (Ok(number), Wake::One)
        });
        admitted.inspect(|_| {
            self.ensure_workers(Instant::now());
        })
    }

    /// Runs whole query `number` on the calling thread if it is the front
    /// whole query (help-first join), and returns whether it did. For the
    /// length of that task the caller is one of the executor's threads, so
    /// a fan-out it coordinates runs its own parts too. Taking a task can
    /// unblock nobody, so it wakes nobody.
    pub fn run_front(&self, number: u64) -> bool {
        let task = self.inner.queue.update(|q| {
            let mine = q.whole.front().is_some_and(|(n, _)| *n == number);
            (if mine { q.whole.pop_front().map(|(_, task)| task) } else { None }, Wake::None)
        });
        let Some(task) = task else { return false };
        let outer = EXECUTOR.with(|e| e.replace(self.inner.id));
        task();
        EXECUTOR.with(|e| e.set(outer));
        true
    }

    /// Whole queries waiting in the queue (parts are not counted).
    pub fn queued(&self) -> usize {
        self.inner.queue.update(|q| (q.whole.len(), Wake::None))
    }

    /// Queues a fan-out's parts, due at `deadline`, ahead of every whole
    /// query and wakes the threads. Returns the fan-out's number when the
    /// caller must help run them ([`Self::help`]): when it is one of this
    /// executor's threads (or a caller running one of its whole queries),
    /// or when the executor is shut down and may have none left.
    pub(crate) fn fan_out(&self, parts: Vec<Task>, deadline: Option<Instant>) -> Option<u64> {
        let worker = EXECUTOR.with(Cell::get) == self.inner.id;
        let wake = if parts.is_empty() { Wake::None } else { Wake::All };
        self.inner.queue.update(|q| {
            q.fan_outs += 1;
            let number = q.fan_outs;
            q.parts.extend(parts.into_iter().map(|task| (number, deadline, task)));
            ((worker || q.closed).then_some(number), wake)
        })
    }

    /// Runs a still-queued part of fan-out `number` on its coordinator,
    /// and returns whether there was one. The part runs to its end: the
    /// fan-out deadline does not bound it.
    pub(crate) fn help(&self, number: u64) -> bool {
        let part = self.inner.queue.update(|q| {
            let at = q.parts.iter().position(|(n, ..)| *n == number);
            (at.and_then(|i| q.parts.remove(i)), Wake::None)
        });
        let Some((_, due, task)) = part else { return false };
        run(task, due);
        true
    }

    /// Settles every slot's pending respawn verdict, gives a fresh thread
    /// to every slot whose thread is stuck in a part past its fan-out
    /// deadline, respawns the dead slots their ladders admit, and returns
    /// how many slots are live. Called at every fan-out dispatch, after a
    /// fan-out that timed out, and at every whole-query submission. Queued
    /// tasks are never lost on a thread's death: the queue outlives any
    /// one thread.
    pub(crate) fn ensure_workers(&self, now: Instant) -> usize {
        // Deadlines are wall-clock; `now` may be a test's frozen clock.
        let wall = Instant::now();
        let mut workers = lock(&self.workers);
        let mut alive = 0usize;
        for (slot, w) in workers.iter_mut().enumerate() {
            w.settle(now);
            if !w.dead() && lock(&w.life.due).is_some_and(|due| due <= wall) {
                // The stuck thread finishes its task detached, then exits
                // (its kill switch, as `kill` sets it); it keeps its place
                // in the live count until it does.
                self.inner.queue.update(|_| {
                    w.life.die.store(true, Ordering::Relaxed);
                    ((), Wake::All)
                });
                w.start(&self.inner, slot);
            }
            if w.dead() {
                if let Some(probe) = w.sup.admit(now) {
                    w.start(&self.inner, slot);
                    w.respawns += u64::from(w.handle.is_some());
                    w.ticket = Some(probe);
                    // A failed spawn settles as a failure right away.
                    w.settle(now);
                }
            }
            alive += usize::from(!w.dead());
        }
        alive
    }

    /// Kills slot `w`'s thread (no-op for a slot the executor does not
    /// have): the chaos campaigns' worker death. The thread exits after
    /// its current task; queued tasks stay for the others, and a later
    /// fan-out dispatch respawns the slot.
    pub(crate) fn kill(&self, w: usize) {
        let workers = lock(&self.workers);
        let Some(w) = workers.get(w) else { return };
        // Wakes every parked thread: only the victim can tell the switch
        // is its own; the others re-check and park again.
        self.inner.queue.update(|_| {
            w.life.die.store(true, Ordering::Relaxed);
            ((), Wake::All)
        });
    }

    /// Current per-slot liveness and counters (the worker plane).
    pub fn worker_reports(&self) -> Vec<PoolWorkerReport> {
        let workers = lock(&self.workers);
        workers
            .iter()
            .enumerate()
            .map(|(worker, w)| PoolWorkerReport {
                worker,
                alive: !w.dead(),
                tasks_completed: w.earlier_tasks + w.life.tasks.load(Ordering::Relaxed),
                respawns: w.respawns,
            })
            .collect()
    }

    /// The one shutdown path: stops admitting whole queries, lets the
    /// threads drain every task already queued, and joins them — waiting
    /// for them at most until `deadline` (`None`: without bound). Past the
    /// deadline the threads still running are detached and finish on
    /// their own: leaking a stuck thread beats hanging shutdown. Tasks
    /// still queued then (or left because every thread was killed) are
    /// dropped, which resolves a whole query's caller.
    pub fn shutdown(&self, deadline: Option<Instant>) {
        self.inner.queue.update(|q| {
            q.closed = true;
            ((), Wake::All)
        });
        let all_out = self.inner.queue.wait_until(deadline, |q| (q.live == 0).then_some(()));
        let left = self.inner.queue.update(|q| {
            ((std::mem::take(&mut q.parts), std::mem::take(&mut q.whole)), Wake::None)
        });
        drop(left);
        let mut workers = lock(&self.workers);
        for h in workers.iter_mut().filter_map(|w| w.handle.take()) {
            // A thread out of its loop is moments from finishing: join it,
            // so it no longer holds the executor once this returns.
            if all_out.is_some() || h.is_finished() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown(Some(Instant::now() + JOIN_GRACE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// The failure bound of a wait these tests expect to end promptly.
    const PROMPT: Duration = Duration::from_secs(5);

    /// A whole query that reports on `tx` when it runs.
    fn reporting(tx: &mpsc::Sender<u32>, tag: u32) -> impl FnOnce(u64) -> Task {
        let tx = tx.clone();
        move |_| -> Task {
            Box::new(move || {
                let _ = tx.send(tag);
            })
        }
    }

    #[test]
    fn a_thread_stuck_in_a_part_past_its_deadline_gets_its_slot_back() {
        let exec = Executor::new(1);
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let part: Task = Box::new(move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
        });
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(exec.fan_out(vec![part], Some(deadline)), None, "a test thread parks");
        started.recv_timeout(PROMPT).expect("the part never started");
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));

        // The only thread is still in the part: the submission gives the
        // slot a fresh thread, which runs the whole query at once.
        let (tx, ran) = mpsc::channel();
        exec.submit(8, reporting(&tx, 1)).expect("admitted");
        assert_eq!(ran.recv_timeout(PROMPT), Ok(1), "the stuck part held up a whole query");
        let w = &exec.worker_reports()[0];
        assert!(w.alive && w.respawns == 0, "{w:?}");
        drop(release);
    }

    #[test]
    fn a_whole_query_respawns_a_killed_thread() {
        let exec = Executor::new(1);
        exec.kill(0);
        let start = Instant::now();
        while exec.worker_reports()[0].alive {
            assert!(start.elapsed() < PROMPT, "the killed thread never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (tx, ran) = mpsc::channel();
        exec.submit(8, reporting(&tx, 2)).expect("admitted");
        assert_eq!(ran.recv_timeout(PROMPT), Ok(2), "no thread ran the whole query");
        let w = &exec.worker_reports()[0];
        assert!(w.alive && w.respawns == 1, "{w:?}");
    }

    #[test]
    fn a_bounded_shutdown_detaches_a_stuck_thread_and_resolves_the_queue() {
        let exec = Executor::new(1);
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        exec.submit(8, move |_| -> Task {
            Box::new(move || {
                let _ = started_tx.send(());
                let _ = release_rx.recv();
            })
        })
        .expect("admitted");
        started.recv_timeout(PROMPT).expect("the stuck query never started");
        // Queued behind the stuck one; dropping its task drops `tx`.
        let (tx, queued) = mpsc::channel::<u32>();
        exec.submit(8, reporting(&tx, 3)).expect("admitted");
        drop(tx);

        let start = Instant::now();
        exec.shutdown(Some(start + Duration::from_millis(50)));
        assert!(start.elapsed() < PROMPT, "shutdown waited for the stuck thread");
        assert_eq!(queued.recv_timeout(PROMPT), Err(mpsc::RecvTimeoutError::Disconnected));
        assert_eq!(exec.submit(8, |_| -> Task { Box::new(|| ()) }), Err(Refused::Closed));
        drop(release);
    }
}
