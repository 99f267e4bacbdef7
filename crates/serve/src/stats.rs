//! Lock-free serving statistics: outcome counters and a log₂ latency
//! histogram, snapshotted into a [`HealthSnapshot`] for operators.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::BreakerState;

/// Number of log₂ latency buckets. Bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended, covering
/// everything from 2⁴³ µs (≈101 days) up.
const BUCKETS: usize = 44;

/// Shared, lock-free counters updated by admission and workers.
#[derive(Debug)]
pub struct ServeStats {
    /// Queries offered to the service (accepted or not).
    pub submitted: AtomicU64,
    /// Queries answered with hits from the device path, no degradation.
    pub completed: AtomicU64,
    /// Queries answered with hits but carrying a degradation record
    /// (CPU fallback, retries, pruned unknown terms).
    pub degraded_ok: AtomicU64,
    /// Queries shed at admission because the queue was full.
    pub shed_overload: AtomicU64,
    /// Queries rejected because their deadline expired (at admission, in
    /// queue, or mid-pipeline).
    pub shed_deadline: AtomicU64,
    /// Queries that failed permanently with a typed error.
    pub failed: AtomicU64,
    /// Queries executed by their own caller inside `PendingQuery::wait`
    /// (help-first join) instead of by an executor thread. A subset of the
    /// dequeued outcomes: `caller_runs <= answered + shed_deadline +
    /// failed`.
    pub caller_runs: AtomicU64,
    /// Queries that panicked under `catch_unwind` on either path — a
    /// device attempt (the query then fell back) or the CPU fallback
    /// (the query became `Rejected::Panicked`). The worker survived
    /// either way.
    pub panicked: AtomicU64,
    /// Device attempts beyond the first, summed over all queries.
    pub retries: AtomicU64,
    /// Queries answered by the CPU baseline instead of the device.
    pub cpu_fallbacks: AtomicU64,
    /// Candidate documents scanned by CPU-fallback answers. The fallback
    /// path keeps (not drops) the baseline's work accounting, so operators
    /// can see how much index work the CPU absorbed while the device was
    /// unhealthy.
    pub fallback_candidates: AtomicU64,
    /// Modeled nanoseconds of CPU work spent by fallback answers.
    pub fallback_modeled_ns: AtomicU64,
    /// Answers served with partial shard coverage (the response carried
    /// [`iiu_core::Degradation::ShardsUnavailable`]).
    pub shard_partials: AtomicU64,
    /// Queries rescued by the unsharded CPU engine after the shard
    /// fan-out errored outright (total shard outage, or fail-closed
    /// partial coverage).
    pub shard_rescues: AtomicU64,
    /// Sharded-path queries the hybrid scheduler ran inline on the serve
    /// worker (inter-query mode — estimated too cheap to pay the
    /// fan-out tax).
    pub sched_inline: AtomicU64,
    /// Sharded-path queries fanned out across every shard (intra-query
    /// mode; with the scheduler off this counts every sharded query).
    pub sched_fanout: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            degraded_ok: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            caller_runs: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            cpu_fallbacks: AtomicU64::new(0),
            fallback_candidates: AtomicU64::new(0),
            fallback_modeled_ns: AtomicU64::new(0),
            shard_partials: AtomicU64::new(0),
            shard_rescues: AtomicU64::new(0),
            sched_inline: AtomicU64::new(0),
            sched_fanout: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(latency: Duration) -> usize {
    let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
    if us == 0 {
        return 0;
    }
    (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A latency quantile extracted from the log₂-µs histogram.
///
/// The histogram's top bucket is open-ended, so a quantile landing there
/// has no upper edge to interpolate toward — earlier code silently
/// reported a finite "edge" for it, making p999 under heavy tail mass a
/// lower bound that *looked* exact. The flag makes that explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantile {
    /// The estimate: linearly interpolated within the containing bucket
    /// (or the bucket's lower edge when [`Self::is_lower_bound`]).
    pub value: Duration,
    /// True when the rank fell in the open-ended top bucket: `value` is
    /// then the true quantile's floor, not an estimate of it.
    pub is_lower_bound: bool,
}

impl std::fmt::Display for Quantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_lower_bound {
            write!(f, "≥{:?}", self.value)
        } else {
            write!(f, "{:?}", self.value)
        }
    }
}

/// Extracts quantile `q` (clamped to `0.0..=1.0`) from log₂-µs bucket
/// counts: bucket `i` spans `[2^i, 2^(i+1))` µs (bucket 0 starts at 0)
/// and the last bucket is open-ended. The rank is interpolated linearly
/// within its bucket; a rank in the last bucket yields the bucket's
/// lower edge flagged [`Quantile::is_lower_bound`]. `None` when the
/// histogram is empty.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> Option<Quantile> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            let lo = if i == 0 { 0.0 } else { 2f64.powi(i as i32) };
            if i == counts.len() - 1 {
                return Some(Quantile {
                    value: Duration::from_secs_f64(lo / 1e6),
                    is_lower_bound: true,
                });
            }
            let hi = 2f64.powi(i as i32 + 1);
            let frac = (rank - seen) as f64 / c as f64;
            return Some(Quantile {
                value: Duration::from_secs_f64((lo + frac * (hi - lo)) / 1e6),
                is_lower_bound: false,
            });
        }
        seen += c;
    }
    None
}

impl ServeStats {
    /// Records the end-to-end latency of one answered query.
    pub fn record_latency(&self, latency: Duration) {
        self.buckets[bucket_of(latency)].fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the raw latency bucket counts (log₂-µs buckets).
    pub fn latency_buckets(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Latency quantile `q` in `0.0..=1.0`, as the upper edge of the
    /// bucket containing it (log₂-µs resolution). For the open-ended top
    /// bucket the reported 2⁴⁴ µs "edge" is a lower bound, not an upper
    /// one. Prefer [`Self::latency_quantile_estimate`], which
    /// interpolates within the bucket and makes the lower-bound case
    /// explicit; this coarser form is kept for callers wanting a
    /// guaranteed-conservative (upper-edge) figure.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        let counts = self.latency_buckets();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_micros(2u64.saturating_pow(i as u32 + 1)));
            }
        }
        Some(Duration::from_micros(u64::MAX))
    }

    /// Latency quantile `q`, interpolated within its bucket and flagged
    /// when it is only a lower bound (see [`quantile_from_counts`]).
    pub fn latency_quantile_estimate(&self, q: f64) -> Option<Quantile> {
        quantile_from_counts(&self.latency_buckets(), q)
    }

    /// Queries that were answered with hits (clean or degraded).
    pub fn answered(&self) -> u64 {
        self.completed.load(Ordering::Relaxed) + self.degraded_ok.load(Ordering::Relaxed)
    }

    /// Queries resolved as a typed rejection rather than hits.
    pub fn rejected(&self) -> u64 {
        self.shed_overload.load(Ordering::Relaxed)
            + self.shed_deadline.load(Ordering::Relaxed)
            + self.failed.load(Ordering::Relaxed)
    }
}

/// Point-in-time operator view of the service.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Queries offered so far.
    pub submitted: u64,
    /// Clean device-path answers.
    pub completed: u64,
    /// Degraded answers (fallback / retried / pruned terms).
    pub degraded_ok: u64,
    /// Shed at admission (queue full).
    pub shed_overload: u64,
    /// Rejected on deadline.
    pub shed_deadline: u64,
    /// Permanent typed failures.
    pub failed: u64,
    /// Queries executed by their waiting caller rather than a worker.
    pub caller_runs: u64,
    /// Isolated query panics (device attempt or CPU fallback).
    pub panicked: u64,
    /// Extra device attempts.
    pub retries: u64,
    /// CPU-baseline answers.
    pub cpu_fallbacks: u64,
    /// Candidate documents scanned by CPU-fallback answers.
    pub fallback_candidates: u64,
    /// Modeled nanoseconds of CPU work spent by fallback answers.
    pub fallback_modeled_ns: u64,
    /// DocID windows the CPU fallback actually fans out across (1 =
    /// unsharded).
    pub shards: usize,
    /// Cumulative documents scored per shard (empty when unsharded) — the
    /// operator's load-balance view.
    pub shard_docs_scored: Vec<u64>,
    /// Answers served with partial shard coverage (truthfully labeled via
    /// `Degradation::ShardsUnavailable`).
    pub shard_partials: u64,
    /// Queries rescued by the unsharded CPU engine after the shard
    /// fan-out errored outright.
    pub shard_rescues: u64,
    /// Sharded-path queries routed inline (inter-query) by the hybrid
    /// scheduler.
    pub sched_inline: u64,
    /// Sharded-path queries fanned out across every shard (intra-query).
    pub sched_fanout: u64,
    /// Per-shard supervision state and counters (failures, quarantine
    /// trips); empty when unsharded.
    pub shard_health: Vec<iiu_core::ShardHealthReport>,
    /// Worker-plane liveness of the service's executor threads (tasks
    /// completed, respawns per thread slot), in every mode.
    pub pool_workers: Vec<iiu_core::PoolWorkerReport>,
    /// Breaker state at snapshot time.
    pub breaker: BreakerState,
    /// Breaker trips so far.
    pub breaker_trips: u64,
    /// Breaker recoveries so far.
    pub breaker_recoveries: u64,
    /// Median end-to-end answer latency (admission → reply, queue wait
    /// included; interpolated), if any were recorded.
    pub p50: Option<Quantile>,
    /// 99th-percentile answer latency (interpolated), if any were
    /// recorded.
    pub p99: Option<Quantile>,
    /// 99.9th-percentile answer latency. Under heavy tail mass this may
    /// land in the histogram's open-ended top bucket, in which case
    /// [`Quantile::is_lower_bound`] is set rather than silently
    /// reporting a finite value.
    pub p999: Option<Quantile>,
    /// Current depth of the admission queue.
    pub queue_depth: usize,
}

impl HealthSnapshot {
    /// Queries answered with hits (clean or degraded).
    pub fn answered(&self) -> u64 {
        self.completed + self.degraded_ok
    }

    /// Queries resolved as a typed rejection rather than hits.
    pub fn rejected_total(&self) -> u64 {
        self.shed_overload + self.shed_deadline + self.failed
    }

    /// Fraction of submitted queries shed or rejected, in `0.0..=1.0`.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.shed_overload + self.shed_deadline + self.failed) as f64 / self.submitted as f64
    }
}

impl std::fmt::Display for HealthSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "submitted={} completed={} degraded={} shed(overload={} deadline={}) \
             failed={} panicked={} caller_runs={}",
            self.submitted,
            self.completed,
            self.degraded_ok,
            self.shed_overload,
            self.shed_deadline,
            self.failed,
            self.panicked,
            self.caller_runs,
        )?;
        writeln!(
            f,
            "retries={} cpu_fallbacks={} fallback_candidates={} breaker={} trips={} \
             recoveries={} queue_depth={}",
            self.retries,
            self.cpu_fallbacks,
            self.fallback_candidates,
            self.breaker,
            self.breaker_trips,
            self.breaker_recoveries,
            self.queue_depth,
        )?;
        if self.shards > 1 {
            writeln!(
                f,
                "shards={} partial_answers={} rescues={} sched(inline={} fanout={}) \
                 docs_scored_per_shard={:?}",
                self.shards,
                self.shard_partials,
                self.shard_rescues,
                self.sched_inline,
                self.sched_fanout,
                self.shard_docs_scored
            )?;
            for h in &self.shard_health {
                writeln!(
                    f,
                    "  shard {}: {} failures={} (panics={} timeouts={}) \
                     quarantine(trips={} recoveries={})",
                    h.shard,
                    h.health,
                    h.failures,
                    h.panics,
                    h.timeouts,
                    h.quarantine_trips,
                    h.quarantine_recoveries,
                )?;
            }
        }
        for w in &self.pool_workers {
            writeln!(
                f,
                "  worker {}: {} tasks={} respawns={}",
                w.worker,
                if w.alive { "alive" } else { "dead" },
                w.tasks_completed,
                w.respawns,
            )?;
        }
        match (self.p50, self.p99, self.p999) {
            (Some(p50), Some(p99), Some(p999)) => {
                write!(f, "p50={p50} p99={p99} p999={p999}")
            }
            _ => write!(f, "no latencies recorded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        assert_eq!(bucket_of(Duration::from_micros(0)), 0);
        assert_eq!(bucket_of(Duration::from_micros(1)), 0);
        assert_eq!(bucket_of(Duration::from_micros(2)), 1);
        assert_eq!(bucket_of(Duration::from_micros(3)), 1);
        assert_eq!(bucket_of(Duration::from_micros(1024)), 10);
        assert_eq!(bucket_of(Duration::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_recorded_latencies() {
        let s = ServeStats::default();
        assert_eq!(s.latency_quantile(0.5), None);
        for _ in 0..99 {
            s.record_latency(Duration::from_micros(100)); // bucket 6
        }
        s.record_latency(Duration::from_millis(10)); // bucket 13
        let p50 = s.latency_quantile(0.5).unwrap();
        let p99 = s.latency_quantile(0.99).unwrap();
        let p999 = s.latency_quantile(0.999).unwrap();
        assert_eq!(p50, Duration::from_micros(128), "upper edge of bucket 6");
        assert_eq!(p99, Duration::from_micros(128));
        assert_eq!(p999, Duration::from_micros(16_384), "upper edge of bucket 13");
    }

    #[test]
    fn interpolated_quantiles_land_within_their_bucket() {
        let s = ServeStats::default();
        assert_eq!(s.latency_quantile_estimate(0.5), None);
        // 100 samples, all in bucket 6 ([64, 128) µs). Rank of p50 is 50,
        // so the interpolated estimate is halfway through the bucket.
        for _ in 0..100 {
            s.record_latency(Duration::from_micros(100));
        }
        let p50 = s.latency_quantile_estimate(0.5).unwrap();
        assert!(!p50.is_lower_bound);
        assert_eq!(p50.value, Duration::from_micros(96), "64 + 0.5 * (128 - 64)");
        // p100 reaches the bucket's upper edge, never beyond it.
        let p100 = s.latency_quantile_estimate(1.0).unwrap();
        assert_eq!(p100.value, Duration::from_micros(128));
        // Quantiles are monotone in q and stay inside [64, 128] µs.
        let mut prev = Duration::ZERO;
        for q in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let est = s.latency_quantile_estimate(q).unwrap();
            assert!(est.value >= prev, "quantiles must be monotone in q");
            assert!(est.value >= Duration::from_micros(64));
            assert!(est.value <= Duration::from_micros(128));
            prev = est.value;
        }
    }

    #[test]
    fn top_bucket_quantile_is_an_explicit_lower_bound() {
        let s = ServeStats::default();
        for _ in 0..9 {
            s.record_latency(Duration::from_micros(10));
        }
        s.record_latency(Duration::MAX); // lands in the open-ended bucket
        let p50 = s.latency_quantile_estimate(0.5).unwrap();
        assert!(!p50.is_lower_bound);
        let p999 = s.latency_quantile_estimate(0.999).unwrap();
        assert!(p999.is_lower_bound, "top-bucket rank must be flagged");
        assert_eq!(p999.value, Duration::from_micros(1 << 43), "top bucket lower edge");
        assert!(p999.to_string().starts_with('≥'));
        // The legacy upper-edge extractor silently reported a finite
        // "edge" for the same rank — the exact trap the flag closes.
        assert!(s.latency_quantile(0.999).is_some());
    }

    #[test]
    fn quantile_from_counts_skips_empty_buckets() {
        // Mass only in buckets 2 and 40 of a 44-bucket histogram.
        let mut counts = vec![0u64; BUCKETS];
        counts[2] = 1;
        counts[40] = 1;
        let p25 = quantile_from_counts(&counts, 0.25).unwrap();
        assert!(p25.value >= Duration::from_micros(4));
        assert!(p25.value <= Duration::from_micros(8));
        let p99 = quantile_from_counts(&counts, 0.99).unwrap();
        assert!(!p99.is_lower_bound, "bucket 40 is not the open-ended bucket");
        assert!(p99.value >= Duration::from_micros(1 << 40));
        assert!(p99.value <= Duration::from_micros(1 << 41));
        assert_eq!(quantile_from_counts(&[0; BUCKETS], 0.5), None);
    }

    #[test]
    fn shed_rate_is_total_rejections_over_submitted() {
        let h = HealthSnapshot {
            submitted: 100,
            completed: 70,
            degraded_ok: 10,
            shed_overload: 12,
            shed_deadline: 5,
            failed: 3,
            caller_runs: 9,
            panicked: 0,
            retries: 4,
            cpu_fallbacks: 6,
            fallback_candidates: 120,
            fallback_modeled_ns: 9_000,
            shards: 2,
            shard_docs_scored: vec![60, 60],
            shard_partials: 2,
            shard_rescues: 1,
            sched_inline: 30,
            sched_fanout: 50,
            shard_health: vec![iiu_core::ShardHealthReport {
                shard: 0,
                health: iiu_core::ShardHealth::Ok,
                consecutive_failures: 0,
                failures: 3,
                panics: 2,
                timeouts: 1,
                quarantine_trips: 1,
                quarantine_recoveries: 1,
            }],
            pool_workers: vec![iiu_core::PoolWorkerReport {
                worker: 0,
                alive: true,
                tasks_completed: 42,
                respawns: 1,
            }],
            breaker: BreakerState::Closed,
            breaker_trips: 1,
            breaker_recoveries: 1,
            p50: None,
            p99: None,
            p999: None,
            queue_depth: 0,
        };
        assert!((h.shed_rate() - 0.20).abs() < 1e-12);
        assert!(h.to_string().contains("breaker=closed"));
        assert!(h.to_string().contains("caller_runs=9"));
        assert!(h.to_string().contains("fallback_candidates=120"));
        assert!(h.to_string().contains("shards=2"));
        assert!(h.to_string().contains("partial_answers=2"));
        assert!(h.to_string().contains("rescues=1"));
        assert!(h.to_string().contains("sched(inline=30 fanout=50)"));
        assert!(h.to_string().contains("shard 0: ok"));
        assert!(h.to_string().contains("worker 0: alive tasks=42 respawns=1"));
    }
}
