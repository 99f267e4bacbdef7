//! Minimal microbenchmark runner used by the `benches/` targets.
//!
//! The build environment has no registry access, so criterion is not
//! available; this module provides the small subset the benches need:
//! warmup, adaptive iteration-count calibration, multiple timed samples,
//! and a median-of-samples report in ns/iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median over all timed samples.
    pub median_ns: f64,
    /// Fastest sample (closest to the true cost on a noisy machine).
    pub min_ns: f64,
}

/// Times `f`, printing `name: <median> ns/iter (min <min>)` and returning
/// the summary. Runs a short warmup, calibrates the per-sample iteration
/// count to roughly `sample_ms`, then takes `samples` timed samples.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Sample {
    bench_with(name, 12, 40, &mut f)
}

/// [`bench()`] with explicit sample count and per-sample budget (ms).
pub fn bench_with<T>(
    name: &str,
    samples: usize,
    sample_ms: u64,
    f: &mut impl FnMut() -> T,
) -> Sample {
    // Warmup, and a first cost estimate from it.
    let warmup = Duration::from_millis(150);
    let start = Instant::now();
    let mut warm_iters = 0u64;
    while start.elapsed() < warmup {
        black_box(f());
        warm_iters += 1;
    }
    let est_ns = (start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
    let per_sample = ((sample_ms as f64 * 1e6 / est_ns) as u64).clamp(1, 10_000_000);

    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median_ns = times[times.len() / 2];
    let min_ns = times[0];
    println!("{name}: {median_ns:.1} ns/iter (min {min_ns:.1}, {per_sample} iters/sample)");
    Sample { median_ns, min_ns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_plausible_times() {
        let s = bench_with("noop", 3, 1, &mut || 1u64 + 1);
        assert!(s.median_ns >= 0.0);
        assert!(s.min_ns <= s.median_ns);
    }
}
