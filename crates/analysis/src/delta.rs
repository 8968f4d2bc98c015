//! Predictability of `mlp-cost`: the *delta* analysis of Table 1.
//!
//! "We call the absolute difference in the value of mlp-cost for successive
//! misses to a cache block as delta. … A small delta value means that
//! mlp-cost does not significantly change between successive misses to a
//! given cache block" (§3.3). Table 1 reports the fraction of deltas below
//! 60 cycles, between 60 and 119 cycles, and at or above 120 cycles, plus
//! the average delta.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregated delta statistics (one row of Table 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Deltas in `[0, 60)` cycles.
    pub lt60: u64,
    /// Deltas in `[60, 120)` cycles.
    pub lt120: u64,
    /// Deltas `>= 120` cycles.
    pub ge120: u64,
    /// Sum of all deltas (for the average).
    pub sum: f64,
}

impl DeltaStats {
    /// Total deltas observed.
    pub fn count(&self) -> u64 {
        self.lt60 + self.lt120 + self.ge120
    }

    /// Percentage of deltas below 60 cycles (Table 1, row 1).
    pub fn pct_lt60(&self) -> f64 {
        self.pct(self.lt60)
    }

    /// Percentage of deltas in `[60, 120)` (Table 1, row 2).
    pub fn pct_lt120(&self) -> f64 {
        self.pct(self.lt120)
    }

    /// Percentage of deltas at or above 120 cycles (Table 1, row 3).
    pub fn pct_ge120(&self) -> f64 {
        self.pct(self.ge120)
    }

    /// Average delta in cycles (Table 1, row 4).
    pub fn average(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum / self.count() as f64
        }
    }

    fn pct(&self, n: u64) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            n as f64 * 100.0 / self.count() as f64
        }
    }

    /// Records one delta value.
    pub fn record(&mut self, delta: f64) {
        let d = delta.abs();
        if d < 60.0 {
            self.lt60 += 1;
        } else if d < 120.0 {
            self.lt120 += 1;
        } else {
            self.ge120 += 1;
        }
        self.sum += d;
    }
}

/// Tracks the last `mlp-cost` seen per cache line and accumulates deltas
/// between successive misses to the same line.
///
/// Lines are identified by their raw [`u64`] line address so this crate
/// stays dependency-free.
///
/// # Example
///
/// ```
/// use mlpsim_analysis::delta::DeltaTracker;
/// let mut t = DeltaTracker::new();
/// // The paper's worked example: block A misses with costs
/// // {444, 110, 220, 220} → deltas 334, 110, 0.
/// for c in [444.0, 110.0, 220.0, 220.0] {
///     t.observe(0xA, c);
/// }
/// assert_eq!(t.stats().count(), 3);
/// assert_eq!(t.stats().average(), 148.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeltaTracker {
    last_cost: HashMap<u64, f64>,
    stats: DeltaStats,
}

impl DeltaTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// Observes a serviced miss to `line` with the given cost; the first
    /// miss to a line produces no delta.
    pub fn observe(&mut self, line: u64, cost_cycles: f64) {
        if let Some(prev) = self.last_cost.insert(line, cost_cycles) {
            self.stats.record(cost_cycles - prev);
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papers_worked_example() {
        // §3.3: costs {444, 110, 220, 220} → deltas 334, 110, 0.
        let mut t = DeltaTracker::new();
        for c in [444.0, 110.0, 220.0, 220.0] {
            t.observe(1, c);
        }
        let s = t.stats();
        assert_eq!(s.count(), 3);
        assert_eq!(s.lt60, 1); // the 0
        assert_eq!(s.lt120, 1); // the 110
        assert_eq!(s.ge120, 1); // the 334
        assert!((s.average() - (334.0 + 110.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn lines_are_independent() {
        let mut t = DeltaTracker::new();
        t.observe(1, 100.0);
        t.observe(2, 400.0);
        assert_eq!(t.stats().count(), 0, "first misses make no deltas");
        t.observe(1, 100.0);
        assert_eq!(t.stats().count(), 1);
        assert_eq!(t.stats().lt60, 1);
    }

    #[test]
    fn percentages_partition() {
        let mut s = DeltaStats::default();
        for d in [0.0, 59.9, 60.0, 119.9, 120.0, 500.0] {
            s.record(d);
        }
        assert_eq!(s.lt60, 2);
        assert_eq!(s.lt120, 2);
        assert_eq!(s.ge120, 2);
        let total = s.pct_lt60() + s.pct_lt120() + s.pct_ge120();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn negative_deltas_use_absolute_value() {
        let mut s = DeltaStats::default();
        s.record(-200.0);
        assert_eq!(s.ge120, 1);
        assert_eq!(s.average(), 200.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DeltaStats::default();
        assert_eq!(s.average(), 0.0);
        assert_eq!(s.pct_lt60(), 0.0);
    }
}
