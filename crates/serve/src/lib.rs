//! Resilient query-serving layer over the IIU reproduction.
//!
//! The paper (Heo et al., ASPLOS 2020) evaluates the accelerator under an
//! offered query stream; this crate adds the host-side machinery a real
//! deployment would wrap around it, built on one invariant the paper's
//! design gives us for free: the CPU baseline and the IIU device produce
//! **bit-identical hits**, so falling back never changes answers — only
//! latency.
//!
//! A [`QueryService`] serves one `Arc<InvertedIndex>` on one executor —
//! a single set of threads running both whole queries and the shard parts
//! of the queries it fans out (DESIGN.md §14) — and resolves every
//! submitted query to exactly one of:
//!
//! * clean hits from the device path,
//! * degraded hits (tagged [`iiu_core::Degradation`] — CPU fallback,
//!   retries, pruned unknown terms), or
//! * a typed [`Rejected`] (shed on overload, deadline exceeded, permanent
//!   failure, isolated panic).
//!
//! Resilience mechanisms, each configured via [`ServeConfig`]:
//!
//! * **Deadlines** — enforced at admission, after dequeue, and between
//!   device attempts.
//! * **Load shedding** — a bounded admission queue; overflow is rejected
//!   immediately with [`Rejected::Overloaded`] instead of growing tail
//!   latency unboundedly.
//! * **Retry with jittered exponential backoff** — transient device
//!   failures ([`iiu_sim::SimError::Stalled`]) are retried on a fresh
//!   simulator; backoff never sleeps past the query's deadline.
//! * **Panic isolation** — every engine run is wrapped in
//!   `catch_unwind`; a poisoned query cannot take down a worker.
//! * **Circuit breaker** — consecutive device failures trip the service
//!   onto the CPU baseline; half-open probes restore the device path once
//!   it heals (an [`iiu_baseline::supervise::Supervisor`], the same
//!   machine that quarantines shards and respawns executor threads).
//!
//! Deterministic fault injection ([`FaultPlan`]) sabotages chosen device
//! attempts with a 1-cycle budget so soak tests and `iiu serve-bench` can
//! exercise every one of these paths reproducibly.
//!
//! A service can also be started over a crash-safe **incremental** index
//! ([`service::QueryService::start_live`]): queries answer from sealed
//! segments unioned with the in-memory write buffer while
//! [`service::QueryService::ingest`] accepts new documents concurrently,
//! each batch WAL-durable (fsynced) before it is acknowledged.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod scheduler;
pub mod service;
pub mod stats;

pub use config::{BreakerConfig, FaultPlan, RetryPolicy, SchedulerConfig, ServeConfig};
pub use iiu_baseline::supervise::State as BreakerState;
pub use iiu_core::{
    IncrementalOptions, IngestDoc, LiveIndex, PoolWorkerReport, ShardChaosPlan, ShardHealth,
    ShardHealthReport, ShardPoolConfig,
};
pub use scheduler::{ParallelismMode, RouteDecision};
pub use service::{PendingQuery, QueryService, Rejected};
pub use stats::{quantile_from_counts, HealthSnapshot, Quantile, ServeStats};
