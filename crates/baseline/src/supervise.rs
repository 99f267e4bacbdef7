//! One supervision state machine for every plane that guards a failing
//! resource: the serve layer's device breaker, each shard's quarantine
//! and each executor thread slot's respawn ladder (DESIGN.md §15).
//!
//! ```text
//!            failures < threshold
//!          ┌──────────────────────┐
//!          ▼                      │
//!      ┌────────┐  N consecutive  │
//!      │ Closed │─────────────────┴──▶ ┌──────┐
//!      └────────┘     failures         │ Open │◀─────────────┐
//!          ▲                           └──┬───┘              │ probe fails:
//!          │                              │ cooldown elapsed │ cooldown doubles
//!          │ M probe                      ▼                  │ (up to the cap)
//!          │ successes               ┌──────────┐            │
//!          └─────────────────────────│ HalfOpen │────────────┘
//!                                    └──────────┘
//! ```
//!
//! [`Supervisor`] is a plain struct: callers keep it behind the lock they
//! already hold, and every transition takes the current instant as an
//! argument, so tests drive it with synthetic clocks. Two rules hold on
//! every plane:
//!
//! * An outcome that is not the probe's never changes the state of an
//!   open or half-open machine: a straggler dispatched before a trip can
//!   neither lift it nor restart its cooldown.
//! * Every entry into `Open` is a trip, including a failed probe's
//!   re-open.

use std::time::{Duration, Instant};

/// Where a [`Supervisor`] stands. Displays as `closed` / `open` /
/// `half-open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Healthy: everything is admitted.
    Closed,
    /// Failing: nothing is admitted until the cooldown elapses.
    Open,
    /// Cooling down: one probe at a time is admitted until enough
    /// succeed.
    HalfOpen,
}

impl std::fmt::Display for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            State::Closed => "closed",
            State::Open => "open",
            State::HalfOpen => "half-open",
        })
    }
}

/// How a [`Supervisor`] trips and heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Consecutive failures that trip a closed machine open (`0` never
    /// trips).
    pub threshold: u32,
    /// Time open before the first probe is admitted.
    pub cooldown: Duration,
    /// Bound on the cooldown, which doubles with each consecutive failed
    /// probe; equal to `cooldown` for a fixed cooldown.
    pub cap: Duration,
    /// Consecutive probe successes that close a half-open machine.
    pub probes: u32,
}

/// The Closed → Open → HalfOpen → Closed machine and its counters.
#[derive(Debug)]
pub struct Supervisor {
    policy: Policy,
    state: State,
    streak: u32,
    opened_at: Option<Instant>,
    /// Failed probes since the machine last closed: the cooldown's
    /// doubling exponent.
    reopens: u32,
    probe_in_flight: bool,
    probe_successes: u32,
    trips: u64,
    recoveries: u64,
}

impl Supervisor {
    /// A closed machine under `policy`.
    pub fn new(policy: Policy) -> Self {
        Supervisor {
            policy,
            state: State::Closed,
            streak: 0,
            opened_at: None,
            reopens: 0,
            probe_in_flight: false,
            probe_successes: 0,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Consecutive failures counted while closed (reset when a success
    /// is seen closed, or when the machine closes again).
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Entries into `Open`, failed-probe re-opens included.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// HalfOpen → Closed transitions.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    fn cooled(&self, now: Instant) -> bool {
        let cooldown = self
            .policy
            .cooldown
            .saturating_mul(1 << self.reopens.min(16))
            .min(self.policy.cap);
        self.opened_at.is_none_or(|t| now.saturating_duration_since(t) >= cooldown)
    }

    /// Whether [`Self::admit`] would admit at `now`. No side effects.
    pub fn ready(&self, now: Instant) -> bool {
        match self.state {
            State::Closed => true,
            State::Open => self.cooled(now),
            State::HalfOpen => !self.probe_in_flight,
        }
    }

    /// Admits one unit of work at `now`: `Some(false)` while closed,
    /// `Some(true)` when it takes the single probe slot (an open machine
    /// whose cooldown elapsed turns half-open), `None` when refused. A
    /// probe must report exactly one of [`Self::on_success`],
    /// [`Self::on_failure`] or [`Self::on_abandoned`] with `probe = true`.
    pub fn admit(&mut self, now: Instant) -> Option<bool> {
        if !self.ready(now) {
            return None;
        }
        if self.state == State::Closed {
            return Some(false);
        }
        if self.state == State::Open {
            self.state = State::HalfOpen;
            self.probe_successes = 0;
        }
        self.probe_in_flight = true;
        Some(true)
    }

    /// Reports a success; `probe` is what [`Self::admit`] returned.
    pub fn on_success(&mut self, probe: bool) {
        match self.state {
            State::Closed => self.streak = 0,
            State::HalfOpen if probe => {
                self.probe_in_flight = false;
                self.probe_successes += 1;
                if self.probe_successes >= self.policy.probes {
                    self.state = State::Closed;
                    self.streak = 0;
                    self.reopens = 0;
                    self.recoveries += 1;
                }
            }
            _ => {}
        }
    }

    /// Reports a failure seen at `now`; `probe` is what [`Self::admit`]
    /// returned.
    pub fn on_failure(&mut self, probe: bool, now: Instant) {
        match self.state {
            State::Closed => {
                self.streak = self.streak.saturating_add(1);
                if self.policy.threshold > 0 && self.streak >= self.policy.threshold {
                    self.open(now);
                }
            }
            State::HalfOpen if probe => {
                self.reopens = self.reopens.saturating_add(1);
                self.open(now);
            }
            _ => {}
        }
    }

    /// Reports that admitted work ended without a verdict (a caller-side
    /// deadline says nothing about the resource): frees the probe slot,
    /// counts neither way.
    pub fn on_abandoned(&mut self, probe: bool) {
        if probe && self.state == State::HalfOpen {
            self.probe_in_flight = false;
        }
    }

    fn open(&mut self, now: Instant) {
        self.state = State::Open;
        self.opened_at = Some(now);
        self.probe_in_flight = false;
        self.probe_successes = 0;
        self.trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RESPAWN as WORKER;
    use crate::sharded::ShardPoolConfig;

    /// The device breaker at `BreakerConfig`'s defaults (5 failures,
    /// 100 ms, 2 probes; `iiu-serve` maps it with a fixed cooldown).
    const BREAKER: Policy = Policy {
        threshold: 5,
        cooldown: Duration::from_millis(100),
        cap: Duration::from_millis(100),
        probes: 2,
    };

    /// One step of a row's script, applied at a synthetic `ms` offset.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        /// `admit` must return this.
        Admit(Option<bool>),
        /// `ready` must return this.
        Ready(bool),
        Ok(bool),
        Fail(bool),
        Abandon(bool),
    }
    use Ev::*;

    struct Row {
        name: &'static str,
        policy: Policy,
        script: Vec<(u64, Ev)>,
        state: State,
        trips: u64,
        recoveries: u64,
    }

    fn row(
        name: &'static str,
        policy: Policy,
        script: &[(u64, Ev)],
        state: State,
        trips: u64,
        recoveries: u64,
    ) -> Row {
        Row { name, policy, script: script.to_vec(), state, trips, recoveries }
    }

    /// Trip at 0, then fail each probe the moment it is admitted: the
    /// admitted instants are 10, 30, 70, ... ms, the cooldown doubling
    /// from 10 ms until the 1 s cap, after which it stays at 1 s.
    fn worker_ladder() -> Vec<(u64, Ev)> {
        let mut script = vec![(0, Fail(false))];
        let mut t = 0;
        for cooldown in [10, 20, 40, 80, 160, 320, 640, 1000, 1000] {
            t += cooldown;
            script.extend([(t - 1, Admit(None)), (t, Admit(Some(true))), (t, Fail(true))]);
        }
        script
    }

    #[test]
    fn supervisor_transition_table() {
        use State::*;
        // The shard quarantine at `ShardPoolConfig`'s defaults.
        let shard = ShardPoolConfig::default().quarantine();
        // A breaker policy as `iiu-serve` maps a `BreakerConfig`.
        let b = |threshold, cooldown_ms, probes| Policy {
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
            cap: Duration::from_millis(cooldown_ms),
            probes,
        };
        let rows = [
            row(
                "breaker: trips on consecutive failures only, then refuses",
                b(3, 1000, 1),
                &[
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Ok(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Admit(Some(false))),
                    (0, Fail(false)),
                    (0, Admit(None)),
                ],
                Open,
                1,
                0,
            ),
            row(
                "breaker: open respects the cooldown",
                b(1, 10_000, 1),
                &[
                    (0, Fail(false)),
                    (9_999, Ready(false)),
                    (9_999, Admit(None)),
                    (10_000, Ready(true)),
                ],
                Open,
                1,
                0,
            ),
            row(
                "breaker: M probe successes close, one probe slot meanwhile",
                b(1, 0, 2),
                &[
                    (0, Fail(false)),
                    (0, Admit(Some(true))),
                    (0, Admit(None)),
                    (0, Ok(true)),
                    (0, Ready(true)),
                    (0, Admit(Some(true))),
                    (0, Ok(true)),
                    (0, Admit(Some(false))),
                ],
                Closed,
                1,
                1,
            ),
            row(
                "breaker: failed probe re-opens and counts as a trip",
                b(1, 0, 1),
                &[(0, Fail(false)), (0, Admit(Some(true))), (0, Fail(true))],
                Open,
                2,
                0,
            ),
            row(
                "breaker: fixed cooldown after a failed probe (cap = cooldown)",
                BREAKER,
                &[
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (100, Admit(Some(true))),
                    (100, Fail(true)),
                    (199, Admit(None)),
                    (200, Admit(Some(true))),
                ],
                HalfOpen,
                2,
                0,
            ),
            row(
                "breaker: abandoned probe frees the slot without a verdict",
                b(1, 0, 1),
                &[
                    (0, Fail(false)),
                    (0, Admit(Some(true))),
                    (0, Admit(None)),
                    (0, Abandon(true)),
                    (0, Admit(Some(true))),
                    (0, Ok(true)),
                ],
                Closed,
                1,
                1,
            ),
            row(
                "breaker: abandoned non-probe leaves the streak alone",
                b(3, 1000, 1),
                &[(0, Fail(false)), (0, Abandon(false)), (0, Fail(false)), (0, Fail(false))],
                Open,
                1,
                0,
            ),
            row(
                "breaker: stragglers are ignored while open",
                b(1, 10_000, 1),
                &[(0, Fail(false)), (1, Ok(false)), (2, Fail(false)), (3, Abandon(false))],
                Open,
                1,
                0,
            ),
            row(
                "shard: a straggler failure does not restart the cooldown",
                shard,
                &[
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (60, Fail(false)),
                    (99, Ready(false)),
                    (100, Admit(Some(true))),
                ],
                HalfOpen,
                1,
                0,
            ),
            row(
                "shard: stragglers are ignored while half-open",
                shard,
                &[
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (100, Admit(Some(true))),
                    (100, Ok(false)),
                    (100, Fail(false)),
                    (100, Abandon(false)),
                    (100, Ready(false)),
                ],
                HalfOpen,
                1,
                0,
            ),
            row(
                "shard: a probe success closes and resets the streak",
                shard,
                &[
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (0, Fail(false)),
                    (100, Admit(Some(true))),
                    (100, Ok(true)),
                    (100, Fail(false)),
                    (100, Fail(false)),
                ],
                Closed,
                1,
                1,
            ),
            row(
                "shard: threshold 0 never trips",
                Policy { threshold: 0, ..shard },
                &[(0, Fail(false)), (0, Fail(false)), (0, Fail(false)), (0, Fail(false))],
                Closed,
                0,
                0,
            ),
            row(
                "worker: the first death is admitted at once",
                WORKER,
                &[(0, Admit(Some(false))), (0, Ok(false)), (0, Admit(Some(false)))],
                Closed,
                0,
                0,
            ),
            row(
                "worker: failed probes double the cooldown up to the cap",
                WORKER,
                &worker_ladder(),
                Open,
                10,
                0,
            ),
            row(
                "worker: progress closes the ladder and resets the cooldown",
                WORKER,
                &[
                    (0, Fail(false)),
                    (10, Admit(Some(true))),
                    (10, Fail(true)),
                    (30, Admit(Some(true))),
                    (30, Ok(true)),
                    (30, Fail(false)),
                    (39, Admit(None)),
                    (40, Admit(Some(true))),
                ],
                HalfOpen,
                3,
                1,
            ),
        ];
        let t0 = Instant::now();
        for r in &rows {
            let mut s = Supervisor::new(r.policy);
            for (step, &(ms, ev)) in r.script.iter().enumerate() {
                let now = t0 + Duration::from_millis(ms);
                let at = format!("{}: step {step} {ev:?} at {ms} ms", r.name);
                match ev {
                    Admit(want) => assert_eq!(s.admit(now), want, "{at}"),
                    Ready(want) => assert_eq!(s.ready(now), want, "{at}"),
                    Ok(probe) => s.on_success(probe),
                    Fail(probe) => s.on_failure(probe, now),
                    Abandon(probe) => s.on_abandoned(probe),
                }
            }
            assert_eq!(s.state(), r.state, "{}: final state", r.name);
            assert_eq!(s.trips(), r.trips, "{}: trips", r.name);
            assert_eq!(s.recoveries(), r.recoveries, "{}: recoveries", r.name);
        }
    }

    #[test]
    fn state_displays_as_the_breaker_always_did() {
        let shown: Vec<String> = [State::Closed, State::Open, State::HalfOpen]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(shown, ["closed", "open", "half-open"]);
    }
}
