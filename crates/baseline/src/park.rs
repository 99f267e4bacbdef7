//! One way to park a thread until shared state says go, and to wake it
//! (DESIGN.md §15, "One way to park and wake").
//!
//! A [`Monitor`] is a mutex over some state plus the condition variable
//! its waiters park on, and it offers exactly two operations:
//!
//! * [`Monitor::update`] changes the state under the lock; its closure
//!   says whom the change can unblock ([`Wake`]), and the notify is
//!   issued after the lock is released;
//! * [`Monitor::wait_until`] re-checks a predicate under the lock,
//!   parking between checks, until it yields a value or an optional
//!   deadline passes.
//!
//! Every wake-up in the tree goes through these two, so the rule that
//! the hand-placed versions kept getting wrong holds by construction:
//! a waiter's failed check and its park happen under one lock hold, and
//! every state change that could satisfy a check happens under the same
//! lock, so an update lands either before the check (which sees it) or
//! after the park (which its notify ends). Lock poisoning is recovered
//! here, once: no caller's update or predicate can panic partway through
//! a change, so a poisoned guard never exposes half-changed state.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Whom an [`Monitor::update`] wakes once it has released the lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Nobody: the change cannot satisfy any waiter's predicate.
    None,
    /// One waiter: any single waiter can take what the change offers.
    One,
    /// Every waiter: the change may satisfy several, or only a
    /// particular one.
    All,
}

/// A mutex-guarded state and the condition variable its waiters park on.
pub struct Monitor<S> {
    state: Mutex<S>,
    cond: Condvar,
    /// Test instrumentation: what runs between a waiter's failed check
    /// and its park, and how many notifies `update` has issued.
    #[cfg(test)]
    probe: tests::Probe,
}

impl<S> std::fmt::Debug for Monitor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor").finish_non_exhaustive()
    }
}

impl<S> Monitor<S> {
    /// A monitor over `state`.
    pub fn new(state: S) -> Self {
        Monitor {
            state: Mutex::new(state),
            cond: Condvar::new(),
            #[cfg(test)]
            probe: tests::Probe::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, S> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on the state under the lock, then wakes whom `f` named —
    /// after the lock is released, so a woken waiter does not
    /// immediately block on it — and returns `f`'s value.
    pub fn update<R>(&self, f: impl FnOnce(&mut S) -> (R, Wake)) -> R {
        let (out, wake) = f(&mut self.lock());
        match wake {
            Wake::None => return out,
            Wake::One => self.cond.notify_one(),
            Wake::All => self.cond.notify_all(),
        }
        #[cfg(test)]
        self.probe.notified();
        out
    }

    /// Blocks until `ready` returns `Some` on the state, re-checking it
    /// under the lock after every wake-up (spurious ones included), and
    /// returns that value — or `None` once `deadline` has passed with
    /// `ready` still unsatisfied. `None` for `deadline` waits without
    /// bound.
    pub fn wait_until<R>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&mut S) -> Option<R>,
    ) -> Option<R> {
        let mut state = self.lock();
        loop {
            if let Some(out) = ready(&mut state) {
                return Some(out);
            }
            #[cfg(test)]
            self.probe.before_park();
            state = match deadline {
                None => self.cond.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.cond
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    /// Test hooks carried by every monitor built under `cfg(test)`.
    #[derive(Default)]
    pub(super) struct Probe {
        before_park: Option<Box<dyn Fn() + Send + Sync>>,
        notifies: AtomicUsize,
    }

    impl Probe {
        pub(super) fn before_park(&self) {
            if let Some(hook) = &self.before_park {
                hook();
            }
        }

        pub(super) fn notified(&self) {
            self.notifies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How long a test waits for something that must happen before it
    /// calls the run a hang. Only a failure bound: a passing run never
    /// waits it out.
    const HANG: Duration = Duration::from_secs(10);

    #[derive(Default)]
    struct Queue {
        items: Vec<u32>,
        closed: bool,
    }

    #[test]
    fn an_update_racing_the_park_is_never_lost() {
        // The hook fires in the window the three shipped lost wake-ups
        // sat in — after the waiter found nothing to do, before it parked
        // — starts the closing update on another thread, and returns only
        // once that thread has either found the lock held (so the update
        // must wait for the park) or finished the update and its notify
        // (a monitor that let go of the lock here would then park on a
        // wake-up already spent, and the run would hang).
        for run in 0..20 {
            let (go, go_rx) = mpsc::channel::<()>();
            let (seen, seen_rx) = mpsc::channel::<()>();
            let hook = Mutex::new(Some((go, seen_rx)));
            let monitor = Arc::new(Monitor {
                probe: Probe {
                    before_park: Some(Box::new(move || {
                        if let Some((go, seen)) = hook.lock().unwrap().take() {
                            go.send(()).unwrap();
                            seen.recv().unwrap();
                        }
                    })),
                    ..Probe::default()
                },
                ..Monitor::new(Queue::default())
            });
            let closer = {
                let monitor = Arc::clone(&monitor);
                std::thread::spawn(move || {
                    go_rx.recv().unwrap();
                    let wake = if run % 2 == 0 { Wake::One } else { Wake::All };
                    let close = |q: &mut Queue| {
                        q.closed = true;
                        ((), wake)
                    };
                    if monitor.state.try_lock().is_err() {
                        seen.send(()).unwrap();
                        monitor.update(close);
                    } else {
                        monitor.update(close);
                        seen.send(()).unwrap();
                    }
                })
            };
            let (done, done_rx) = mpsc::channel();
            let waiter = {
                let monitor = Arc::clone(&monitor);
                std::thread::spawn(move || {
                    let got = monitor.wait_until(None, |q| q.closed.then_some(q.items.len()));
                    done.send(got).unwrap();
                })
            };
            let got =
                done_rx.recv_timeout(HANG).expect("the waiter missed the closing update");
            assert_eq!(got, Some(0), "run {run}");
            waiter.join().unwrap();
            closer.join().unwrap();
            assert_eq!(monitor.probe.notifies.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn a_deadline_wait_with_no_update_returns_none_at_the_deadline() {
        let monitor = Monitor::new(Queue::default());
        for wait in [Duration::ZERO, Duration::from_millis(20)] {
            let deadline = Instant::now() + wait;
            let got = monitor.wait_until(Some(deadline), |q| q.items.pop());
            assert_eq!(got, None);
            assert!(Instant::now() >= deadline, "returned before the deadline");
        }
        // A satisfied predicate answers even at a passed deadline.
        monitor.update(|q| {
            q.items.push(7);
            ((), Wake::None)
        });
        assert_eq!(monitor.wait_until(Some(Instant::now()), |q| q.items.pop()), Some(7));
    }

    #[test]
    fn only_the_completion_that_asks_wakes() {
        // The fan-out join's rule: n tasks complete, only the last one
        // notifies. Notifies are counted, not wake-ups, because a
        // condition variable may wake a waiter spuriously.
        struct Join {
            done: usize,
            expected: usize,
        }
        let n = 8;
        let monitor = Arc::new(Monitor::new(Join { done: 0, expected: n }));
        let tasks: Vec<_> = (0..n)
            .map(|_| {
                let monitor = Arc::clone(&monitor);
                std::thread::spawn(move || {
                    monitor.update(|j| {
                        j.done += 1;
                        ((), if j.done == j.expected { Wake::One } else { Wake::None })
                    })
                })
            })
            .collect();
        let joined = monitor.wait_until(Some(Instant::now() + HANG), |j| {
            (j.done == j.expected).then_some(j.done)
        });
        assert_eq!(joined, Some(n));
        tasks.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(monitor.probe.notifies.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let monitor = Arc::new(Monitor::new(Queue::default()));
        let m = Arc::clone(&monitor);
        let panicked = std::thread::spawn(move || {
            m.update(|q| -> ((), Wake) {
                q.items.push(1);
                panic!("injected panic under the monitor lock");
            })
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(monitor.wait_until(None, |q| q.items.pop()), Some(1));
    }
}
