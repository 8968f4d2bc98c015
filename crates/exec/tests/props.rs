#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property tests for the ordered worker pool: for any job list, any
//! thread count, and any per-job completion skew, `map_ordered` must
//! return exactly the serial `map` result.

use mlpsim_exec::WorkerPool;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pool is observationally equivalent to `Vec::into_iter().map()`.
    #[test]
    fn ordered_results_match_serial_map(
        values in prop::collection::vec(0u64..1_000, 0..48),
        threads in 1usize..9,
    ) {
        let expected: Vec<u64> = values.iter().map(|v| v.wrapping_mul(2654435761)).collect();
        let jobs: Vec<_> = values
            .iter()
            .map(|&v| {
                move || {
                    // Skew completion order: make *earlier* submissions
                    // finish later, the worst case for naive collection.
                    std::thread::sleep(Duration::from_micros((v % 7) * 50));
                    v.wrapping_mul(2654435761)
                }
            })
            .collect();
        let got = WorkerPool::new(threads).map_ordered(jobs);
        prop_assert_eq!(got, expected);
    }

    /// A reused pool keeps its ordering guarantee across batches.
    #[test]
    fn pool_reuse_keeps_ordering(
        batch_a in prop::collection::vec(0u32..500, 1..24),
        batch_b in prop::collection::vec(0u32..500, 1..24),
        threads in 1usize..5,
    ) {
        let pool = WorkerPool::new(threads);
        let a_jobs: Vec<_> = batch_a.iter().map(|&v| move || v + 1).collect();
        let b_jobs: Vec<_> = batch_b.iter().map(|&v| move || v * 3).collect();
        let got_a = pool.map_ordered(a_jobs);
        let got_b = pool.map_ordered(b_jobs);
        prop_assert_eq!(got_a, batch_a.iter().map(|&v| v + 1).collect::<Vec<_>>());
        prop_assert_eq!(got_b, batch_b.iter().map(|&v| v * 3).collect::<Vec<_>>());
    }
}
