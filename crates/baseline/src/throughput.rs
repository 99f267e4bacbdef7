//! Multi-core throughput modeling for the baseline (Fig. 2, Fig. 16).
//!
//! Lucene "only exploits inter-query parallelism for throughput, but not
//! intra-query parallelism" (§1): each query runs on one core, and a pool
//! of cores drains the backlog. The makespan of a batch is therefore a
//! multiprocessor-scheduling problem; this module models it with the
//! longest-processing-time (LPT) greedy rule, which is what a work-stealing
//! query pool approximates.

/// Makespan in nanoseconds of running queries with the given latencies on
/// `cores` single-query cores, using LPT assignment.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn parallel_makespan_ns(latencies_ns: &[f64], cores: usize) -> f64 {
    assert!(cores > 0, "at least one core is required");
    let mut sorted: Vec<f64> = latencies_ns.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut loads = vec![0.0f64; cores];
    for lat in sorted {
        // `loads` is non-empty (cores > 0 asserted above).
        let mut min_idx = 0;
        for (i, &l) in loads.iter().enumerate().skip(1) {
            if l < loads[min_idx] {
                min_idx = i;
            }
        }
        loads[min_idx] += lat;
    }
    loads.iter().fold(0.0f64, |m, &l| m.max(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_makespan_is_sum() {
        let lat = [3.0, 1.0, 2.0];
        assert_eq!(parallel_makespan_ns(&lat, 1), 6.0);
    }

    #[test]
    fn enough_cores_makespan_is_max() {
        let lat = [3.0, 1.0, 2.0];
        assert_eq!(parallel_makespan_ns(&lat, 8), 3.0);
    }

    #[test]
    fn lpt_balances_loads() {
        // 4 jobs of 2 and 2 jobs of 3 on 2 cores: LPT gives {3,2,2}, {3,2} ->
        // makespan 7... compute: sorted [3,3,2,2,2,2]; loads: 3 | 3; 2->both 3: first -> 5|3; 2->3: 5|5; 2->5: 7|5; 2->5: 7|7.
        let lat = [2.0, 2.0, 2.0, 2.0, 3.0, 3.0];
        assert_eq!(parallel_makespan_ns(&lat, 2), 7.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = parallel_makespan_ns(&[1.0], 0);
    }
}
