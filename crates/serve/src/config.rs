//! Serving-layer configuration: pool sizing, admission, deadlines, retry,
//! breaker thresholds, and deterministic fault injection for tests.

use std::time::Duration;

use iiu_index::faultinject::SplitMix64;
use iiu_sim::SimConfig;

/// Retry policy for transient device-path failures
/// ([`iiu_sim::SimError::Stalled`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts on the device path, including the first
    /// (`1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Fraction of the backoff randomized away, in `0.0..=1.0`. With
    /// jitter `j`, the actual sleep is uniform in
    /// `[backoff × (1 − j), backoff]`, decorrelating retry storms.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before attempt `attempt` (1-based count of
    /// *completed* attempts), using `rng` for the jitter draw.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let full = self.base_backoff.saturating_mul(1u32 << exp).min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 1.0);
        if jitter <= f64::EPSILON {
            return full;
        }
        // Uniform in [1 - jitter, 1] of the full backoff.
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        full.mul_f64(1.0 - jitter * unit)
    }
}

/// Circuit-breaker thresholds for the device (IIU) path: the breaker's
/// [`iiu_baseline::supervise::Policy`], with a fixed cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive device-path query failures that trip the breaker open
    /// (`0` never trips).
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing half-open probes.
    pub cooldown: Duration,
    /// Consecutive successful probes required to close again.
    pub probe_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_millis(100),
            probe_successes: 2,
        }
    }
}

/// Deterministic fault injection, used by the soak test and `serve-bench`
/// to exercise the recovery paths. Faults sabotage a device attempt by
/// running it with a 1-cycle budget, which the simulator reports as
/// [`iiu_sim::SimError::Stalled`] — exactly the failure the retry and
/// breaker logic exist for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability that a query's *first* device attempt is sabotaged
    /// (retries run clean, so this exercises the retry path).
    pub stall_rate: f64,
    /// Query sequence range `[start, end)` in which *every* device
    /// attempt is sabotaged: retries exhaust, queries fall back to the
    /// CPU, and the breaker trips. Used to make breaker trip/recovery
    /// deterministic in tests.
    pub burst: Option<(u64, u64)>,
    /// Query sequence range `[start, end)` in which the first device
    /// attempt *panics* instead of stalling, exercising the per-query
    /// `catch_unwind` isolation.
    pub panic_burst: Option<(u64, u64)>,
    /// Query sequence range `[start, end)` in which the *CPU fallback*
    /// panics: nothing is left to fall back to, so the query resolves as
    /// [`crate::Rejected::Panicked`] — the last-line isolation no
    /// well-formed query reaches on its own.
    pub fallback_panic_burst: Option<(u64, u64)>,
    /// Seed for the per-query sabotage draw.
    pub seed: u64,
}

impl FaultPlan {
    /// No injected faults.
    pub const NONE: FaultPlan = FaultPlan {
        stall_rate: 0.0,
        burst: None,
        panic_burst: None,
        fallback_panic_burst: None,
        seed: 0,
    };

    /// Whether device attempt number `attempt` (0-based) of query number
    /// `seq` should be sabotaged. Pure function of the plan, so every
    /// worker agrees and runs reproduce.
    pub fn sabotage(&self, seq: u64, attempt: u32) -> bool {
        if let Some((start, end)) = self.burst {
            if (start..end).contains(&seq) {
                return true;
            }
        }
        if attempt == 0 && self.stall_rate > 0.0 {
            let draw = SplitMix64::new(self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .next_u64();
            let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
            return unit < self.stall_rate;
        }
        false
    }

    /// Whether device attempt number `attempt` of query `seq` should
    /// panic (first attempt only; retries after an isolated panic never
    /// fire because a panic immediately falls back).
    pub fn sabotage_panic(&self, seq: u64, attempt: u32) -> bool {
        attempt == 0
            && self.panic_burst.is_some_and(|(start, end)| (start..end).contains(&seq))
    }

    /// Whether the CPU fallback of query `seq` should panic.
    pub fn sabotage_fallback_panic(&self, seq: u64) -> bool {
        self.fallback_panic_burst.is_some_and(|(start, end)| (start..end).contains(&seq))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Per-query parallelism policy for the sharded CPU path (the paper's
/// §4.4 hybrid inter/intra-query scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// When `true`, each query is routed by estimated cost: cheap queries
    /// run single-shard inter-query style (on the serving thread, no
    /// fan-out tax) and heavy queries fan out across every shard
    /// (intra-query). When `false` (the default), every sharded query
    /// fans out — the fixed topology prior deployments ran.
    pub hybrid: bool,
    /// Document-frequency floor above which a query counts as heavy
    /// (its longest postings list reaches this many documents). Defaults
    /// to [`iiu_core::HEAVY_DF_THRESHOLD`], the `shard_bench` calibration
    /// point where intra-query fan-out pays for itself.
    pub heavy_df_threshold: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { hybrid: false, heavy_df_threshold: iiu_core::HEAVY_DF_THRESHOLD }
    }
}

/// Full serving-layer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Threads of the service's one executor, which runs admitted queries
    /// and the shard parts of the ones it fans out. A static service with
    /// `shards > 1` starts `max(workers, effective
    /// shard_pool.pool_threads)` threads; every other service starts
    /// `workers`.
    pub workers: usize,
    /// Bounded admission-queue capacity; submissions beyond it are shed
    /// with [`crate::Rejected::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to every query from the moment of admission.
    pub default_deadline: Duration,
    /// Retry policy for transient device failures.
    pub retry: RetryPolicy,
    /// Device-path circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Accelerator configuration used by the device path.
    pub sim: SimConfig,
    /// Injected faults (tests and `serve-bench`; [`FaultPlan::NONE`] in
    /// normal operation).
    pub fault: FaultPlan,
    /// Run the CPU-fallback path with block-max pruned top-k (results are
    /// bit-identical to exhaustive; only the work done changes). Off by
    /// default to keep fallback behavior byte-compatible with prior
    /// deployments.
    pub pruned_cpu_fallback: bool,
    /// Document shards the CPU-fallback path fans each query across
    /// (intra-query parallelism). `1` (the default, and the floor the
    /// service clamps to) keeps the unsharded fallback; `N > 1` cuts the
    /// index into N equal docID windows at service start, copying
    /// nothing, and answers every fallback query on a shard pool over
    /// those windows with bit-identical results.
    pub shards: usize,
    /// Supervision policy for the shard pool (fan-out deadline,
    /// quarantine), and through `pool_threads` a floor on the executor's
    /// thread count when `shards > 1` (see [`Self::workers`]). A `None`
    /// deadline here is replaced with [`Self::default_deadline`] at
    /// service start so a wedged shard another thread runs can never hang
    /// the coordinator. A part the coordinator runs itself (the helping
    /// join) runs to its end, like an inline query.
    pub shard_pool: iiu_core::ShardPoolConfig,
    /// Shard-level fault injection (chaos campaigns and `serve-bench`;
    /// quiet in normal operation).
    pub shard_chaos: iiu_core::ShardChaosPlan,
    /// When `true`, a sharded query that cannot cover every shard fails
    /// (and falls into the error path) instead of answering partially
    /// with [`iiu_core::Degradation::ShardsUnavailable`].
    pub fail_closed_shards: bool,
    /// Per-query parallelism policy.
    pub scheduler: SchedulerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            sim: SimConfig::default(),
            fault: FaultPlan::NONE,
            pruned_cpu_fallback: false,
            shards: 1,
            shard_pool: iiu_core::ShardPoolConfig::default(),
            shard_chaos: iiu_core::ShardChaosPlan::NONE,
            fail_closed_shards: false,
            scheduler: SchedulerConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(350),
            jitter: 0.0,
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(p.backoff(1, &mut rng), Duration::from_micros(100));
        assert_eq!(p.backoff(2, &mut rng), Duration::from_micros(200));
        assert_eq!(p.backoff(3, &mut rng), Duration::from_micros(350));
        assert_eq!(p.backoff(9, &mut rng), Duration::from_micros(350));
    }

    #[test]
    fn jitter_stays_in_band() {
        let p = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let unjittered = RetryPolicy { jitter: 0.0, ..p };
        let mut rng = SplitMix64::new(7);
        for attempt in 1..6 {
            let full = unjittered.backoff(attempt, &mut SplitMix64::new(0));
            let full = full.max(p.base_backoff); // non-degenerate
            for _ in 0..100 {
                let d = p.backoff(attempt, &mut rng);
                assert!(d <= full, "{d:?} > {full:?}");
                assert!(d >= full.mul_f64(0.5 - 1e-9), "{d:?} below band for {full:?}");
            }
        }
    }

    #[test]
    fn fault_plan_burst_and_rate() {
        let plan = FaultPlan { burst: Some((10, 20)), seed: 3, ..FaultPlan::NONE };
        assert!(plan.sabotage(10, 0) && plan.sabotage(19, 3));
        assert!(!plan.sabotage(9, 0) && !plan.sabotage(20, 0));

        let plan = FaultPlan { stall_rate: 0.25, seed: 3, ..FaultPlan::NONE };
        let hits = (0..4000).filter(|&s| plan.sabotage(s, 0)).count();
        assert!((800..1200).contains(&hits), "rate off: {hits}/4000");
        // Retries (attempt > 0) are never sabotaged outside a burst.
        assert!((0..4000).all(|s| !plan.sabotage(s, 1)));
        // Deterministic.
        assert_eq!(plan.sabotage(123, 0), plan.sabotage(123, 0));
    }

    #[test]
    fn fault_plan_none_is_quiet() {
        assert!((0..100).all(|s| !FaultPlan::NONE.sabotage(s, 0)));
        assert!((0..100).all(|s| !FaultPlan::NONE.sabotage_panic(s, 0)));
        assert!((0..100).all(|s| !FaultPlan::NONE.sabotage_fallback_panic(s)));
    }

    #[test]
    fn panic_burst_hits_first_attempt_only() {
        let plan = FaultPlan { panic_burst: Some((5, 7)), ..FaultPlan::NONE };
        assert!(plan.sabotage_panic(5, 0) && plan.sabotage_panic(6, 0));
        assert!(!plan.sabotage_panic(4, 0) && !plan.sabotage_panic(7, 0));
        assert!(!plan.sabotage_panic(5, 1));
        // Panic sabotage is independent of the stall machinery.
        assert!(!plan.sabotage(5, 0));
    }
}
