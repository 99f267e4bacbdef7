//! The closed-loop load generator and the per-segment statistics taken
//! from its samples.
//!
//! A closed loop sends a client's next op only after the previous one
//! completed: the callers modelled here (a library user of the engine, a
//! front end holding one request per connection) each wait for a reply.
//! The measured phase is cut into back-to-back segments on one live
//! instance and every timing metric is the median of the per-segment
//! values. The reference box is shared: its speed steps up or down by
//! 20-30 % for a second or two at a time, about a fifth of the time. A
//! figure over the whole phase averages those steps in and moves 10-15 %
//! run to run; the median of many short segments ignores them as long as
//! they touch fewer than half.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use iiu_core::Hit;

use crate::inputs::{same_hits, PoolEntry, Stream};
use crate::metrics::MetricSet;
use crate::stats::{percentile, spread};
use crate::sysinfo::{process_cpu_us, rss_mib};
use crate::trace::Tracer;

/// Shape of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Discarded: lets caches fill and lazy checks finish.
    pub warmup: Duration,
    pub segments: usize,
    pub segment: Duration,
}

impl Plan {
    /// `seconds` of measuring in [`SEGMENTS`] segments after half a second
    /// of warm-up.
    pub fn for_seconds(seconds: f64) -> Self {
        Plan {
            warmup: Duration::from_millis(500),
            segments: SEGMENTS,
            segment: Duration::from_secs_f64(seconds / SEGMENTS as f64),
        }
    }
}

/// Segments per measured phase: half a second each at the default ten
/// seconds, which still leaves every segment of the slowest workload
/// (about 5,000 ops/s) some 25 samples beyond its 99th percentile.
pub const SEGMENTS: usize = 20;

/// Whether a phase records spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Spans in every second segment (the odd ones). Traced and untraced
    /// segments alternate on one live instance, so the box's speed steps
    /// hit both alike and the ratio of their rates is the tracing
    /// overhead, not the weather.
    OddSegments,
}

/// One generator thread's way into the product.
pub trait Client: Send {
    /// Runs one op from its text; `None` when the product refused or
    /// failed it.
    fn op(&mut self, text: &str, tracer: &mut Tracer) -> Option<Vec<Hit>>;
}

/// One completed op, in eight bytes: the generators keep every sample,
/// and a buffer that grew with the op rate would make `rss_mib` follow
/// `ops_per_s`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Microseconds since the benchmark's epoch.
    pub end_us: u32,
    /// Latency in nanoseconds, saturating; [`Sample::FAILED`] marks an
    /// op that was refused, failed, or answered differently from the
    /// oracle.
    pub lat_ns: u32,
}

impl Sample {
    pub const FAILED: u32 = u32::MAX;

    pub fn new(end_ns: u64, lat_ns: u64, ok: bool) -> Self {
        let lat_ns =
            if ok { lat_ns.min(u64::from(Self::FAILED - 1)) as u32 } else { Self::FAILED };
        Sample { end_us: (end_ns / 1_000) as u32, lat_ns }
    }
}

/// Clock and CPU reading at a segment boundary.
#[derive(Debug, Clone, Copy)]
pub struct Boundary {
    pub at_ns: u64,
    pub cpu_us: f64,
}

/// What one measured phase produced.
#[derive(Debug)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// `segments + 1` readings: the start of each segment and the end of
    /// the last.
    pub bounds: Vec<Boundary>,
    pub tracers: Vec<Tracer>,
    /// Resident memory at the end of the last segment.
    pub rss_mib: f64,
}

/// Runs `f` and returns what it returned with how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Sleeps until `target_ns` after `epoch`.
pub fn sleep_until(epoch: Instant, target_ns: u64) {
    loop {
        let now = ns_since(epoch);
        if now >= target_ns {
            return;
        }
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// Runs every client in its own thread over `stream` for the plan's
/// warm-up and segments. Client `c` of `n` starts `c/n` of the way into
/// the stream, so clients do not send the same op at the same time. With
/// `verify`, an answer that differs from the entry's reference fails the
/// op; without (an index that changes under the reads), answering is
/// enough.
pub fn closed_loop<C: Client>(
    clients: &mut [C],
    pool: &[PoolEntry],
    stream: &Stream,
    plan: &Plan,
    verify: bool,
    tracing: Tracing,
    epoch: Instant,
) -> Phase {
    let n = clients.len();
    let barrier = Barrier::new(n + 1);
    let segment_ns = plan.segment.as_nanos() as u64;
    let measured_ns = segment_ns * plan.segments as u64;
    let warmup_ns = plan.warmup.as_nanos() as u64;

    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut samples = Vec::new();
                    let mut cursor = c * stream.ops.len() / n;
                    barrier.wait();
                    let measure_from = ns_since(epoch) + warmup_ns;
                    let stop_at = measure_from + measured_ns;
                    loop {
                        let entry = &pool[stream.ops[cursor % stream.ops.len()] as usize];
                        cursor += 1;
                        let start = ns_since(epoch);
                        let in_odd_segment = start >= measure_from
                            && (start - measure_from) / segment_ns % 2 == 1;
                        tracer.set_enabled(tracing == Tracing::OddSegments && in_odd_segment);
                        tracer.begin_op();
                        let hits = client.op(&entry.text, &mut tracer);
                        let end = ns_since(epoch);
                        tracer.end_op(start, end);
                        if end >= measure_from {
                            let ok = hits
                                .is_some_and(|h| !verify || same_hits(&h, &entry.reference));
                            samples.push(Sample::new(end, end - start, ok));
                        }
                        if end >= stop_at {
                            return (samples, tracer);
                        }
                    }
                })
            })
            .collect();

        barrier.wait();
        let t0 = ns_since(epoch) + warmup_ns;
        let mut bounds = Vec::with_capacity(plan.segments + 1);
        for i in 0..=plan.segments {
            sleep_until(epoch, t0 + i as u64 * segment_ns);
            bounds.push(Boundary { at_ns: ns_since(epoch), cpu_us: process_cpu_us() });
        }
        let rss = rss_mib();

        let mut samples = Vec::new();
        let mut tracers = Vec::new();
        for h in handles {
            let (s, t) = h.join().expect("load generator thread panicked");
            samples.extend(s);
            tracers.push(t);
        }
        Phase { samples, bounds, tracers, rss_mib: rss }
    })
}

/// Per-segment figures of a phase and its totals.
#[derive(Debug, Clone)]
pub struct Segments {
    pub ops_per_s: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
    /// 99.9th percentile over the whole phase: printed, not gated.
    pub p999_us: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Segments {
    /// Cuts a phase's samples at its boundaries. Ops that ended before
    /// the first or after the last boundary are left out.
    ///
    /// # Panics
    ///
    /// Panics when a segment completed no correct op: there is then no
    /// latency to report and the run is void.
    pub fn of(phase: &Phase) -> Self {
        let segs = phase.bounds.len() - 1;
        let mut lat: Vec<Vec<u64>> = vec![Vec::new(); segs];
        let (mut attempted, mut failed) = (0u64, 0u64);
        for s in &phase.samples {
            let seg = phase.bounds.partition_point(|b| b.at_ns / 1_000 <= u64::from(s.end_us));
            if seg == 0 || seg > segs {
                continue;
            }
            attempted += 1;
            if s.lat_ns == Sample::FAILED {
                failed += 1;
            } else {
                lat[seg - 1].push(u64::from(s.lat_ns));
            }
        }
        let mut out = Segments {
            ops_per_s: Vec::new(),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            cpu_us_per_op: Vec::new(),
            p999_us: 0.0,
            attempted,
            failed,
        };
        for (i, l) in lat.iter_mut().enumerate() {
            assert!(!l.is_empty(), "segment {i} completed no correct op");
            l.sort_unstable();
            let (from, to) = (phase.bounds[i], phase.bounds[i + 1]);
            out.ops_per_s.push(l.len() as f64 / ((to.at_ns - from.at_ns) as f64 / 1e9));
            out.p50_us.push(percentile(l, 0.5) as f64 / 1e3);
            out.p99_us.push(percentile(l, 0.99) as f64 / 1e3);
            out.cpu_us_per_op.push((to.cpu_us - from.cpu_us) / l.len() as f64);
        }
        let mut all: Vec<u64> = lat.into_iter().flatten().collect();
        all.sort_unstable();
        out.p999_us = percentile(&all, 0.999) as f64 / 1e3;
        out
    }

    /// Share of the op rate that tracing cost, for a phase run with
    /// [`Tracing::OddSegments`]: 1 - median rate of the traced segments /
    /// median rate of the untraced ones.
    pub fn tracing_overhead(&self) -> f64 {
        let rate_of = |parity: usize| {
            let rates: Vec<f64> =
                self.ops_per_s.iter().copied().skip(parity).step_by(2).collect();
            spread(&rates).median
        };
        1.0 - rate_of(1) / rate_of(0)
    }

    /// Ops that completed correctly.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Writes the four timing metrics as medians of the segments.
    pub fn record(&self, metrics: &mut MetricSet) {
        let n = self.completed();
        metrics.set_spread("ops_per_s", spread(&self.ops_per_s), n);
        metrics.set_spread("op_p50_us", spread(&self.p50_us), n);
        metrics.set_spread("op_p99_us", spread(&self.p99_us), n);
        metrics.set_spread("cpu_us_per_op", spread(&self.cpu_us_per_op), n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(samples: Vec<Sample>, bounds: &[(u64, f64)]) -> Phase {
        Phase {
            samples,
            bounds: bounds.iter().map(|&(at_ns, cpu_us)| Boundary { at_ns, cpu_us }).collect(),
            tracers: Vec::new(),
            rss_mib: 0.0,
        }
    }

    #[test]
    fn samples_fall_into_the_segment_they_ended_in() {
        let s = |end_us: u64, lat_ns, ok| Sample::new(end_us * 1_000, lat_ns, ok);
        let p = phase(
            vec![
                s(999, 5_000, true),    // warm-up: before the first boundary
                s(1_000, 1_000, true),  // segment 0 (boundary instant included)
                s(1_500, 3_000, true),  // segment 0
                s(1_900, 9_000, false), // segment 0, failed: counted, not timed
                s(2_000, 7_000, true),  // segment 1
                s(3_000, 1_000, true),  // ended at the last boundary: left out
            ],
            &[(1_000_000, 0.0), (2_000_000, 40.0), (3_000_000, 50.0)],
        );
        let segs = Segments::of(&p);
        assert_eq!((segs.attempted, segs.failed, segs.completed()), (4, 1, 3));
        // 2 correct ops in 1 ms, then 1 in 1 ms.
        assert_eq!(segs.ops_per_s, vec![2e3, 1e3]);
        assert_eq!(segs.p50_us, vec![1.0, 7.0]);
        assert_eq!(segs.p99_us, vec![3.0, 7.0]);
        assert_eq!(segs.cpu_us_per_op, vec![20.0, 10.0]);
        assert_eq!(segs.p999_us, 7.0);
    }

    #[test]
    fn tracing_overhead_compares_odd_segments_with_even_ones() {
        let segs = Segments {
            ops_per_s: vec![100.0, 90.0, 104.0, 95.0, 96.0, 80.0],
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            cpu_us_per_op: Vec::new(),
            p999_us: 0.0,
            attempted: 0,
            failed: 0,
        };
        // Untraced (even) median 100, traced (odd) median 90.
        assert!((segs.tracing_overhead() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn plan_splits_the_seconds_into_equal_segments() {
        let p = Plan::for_seconds(10.0);
        assert_eq!((p.segments, p.segment), (20, Duration::from_millis(500)));
    }
}
