//! `mlp-cost` distribution histograms (paper Figures 2 and 5).
//!
//! "The graph is plotted with 60-cycle intervals, with the leftmost bar
//! representing the percentage of misses that had a value of mlp-cost < 60
//! cycles. The rightmost bar represents the percentage of all misses that
//! had an mlp-cost of more than 420 cycles."

use serde::{Deserialize, Serialize};

/// Number of histogram bins (matches the 3-bit `cost_q` buckets).
pub const BINS: usize = 8;

/// Width of each bin in cycles.
pub const BIN_CYCLES: f64 = 60.0;

/// A histogram of MLP-based miss costs with the paper's 60-cycle binning.
///
/// # Example
///
/// ```
/// use mlpsim_analysis::hist::CostHistogram;
/// let mut h = CostHistogram::new();
/// h.record(444.0); // an isolated miss → bin 7
/// h.record(55.0);  // highly parallel → bin 0
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.percent(7), 50.0);
/// assert_eq!(h.mean(), 249.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostHistogram {
    bins: [u64; BINS],
    sum: f64,
    count: u64,
}

impl CostHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        CostHistogram::default()
    }

    /// Records one miss with the given MLP-based cost in cycles.
    pub fn record(&mut self, cost_cycles: f64) {
        let bin = if cost_cycles <= 0.0 {
            0
        } else {
            ((cost_cycles / BIN_CYCLES) as usize).min(BINS - 1)
        };
        self.bins[bin] += 1;
        self.sum += cost_cycles.max(0.0);
        self.count += 1;
    }

    /// Raw count in a bin.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= 8`.
    pub fn bin(&self, bin: usize) -> u64 {
        self.bins[bin]
    }

    /// Total misses recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Percentage (0–100) of misses falling in `bin`.
    pub fn percent(&self, bin: usize) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.bins[bin] as f64 * 100.0 / self.count as f64
        }
    }

    /// All eight percentages, left (cheap) to right (isolated).
    pub fn percents(&self) -> [f64; BINS] {
        std::array::from_fn(|i| self.percent(i))
    }

    /// Mean cost in cycles (the "dot on the horizontal axis" of Fig. 2).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &CostHistogram) {
        for i in 0..BINS {
            self.bins[i] += other.bins[i];
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Renders a compact one-line ASCII view: `12% 30% … | mean 187`.
    pub fn render_row(&self) -> String {
        let cells: Vec<String> = self.percents().iter().map(|p| format!("{p:5.1}")).collect();
        format!("{} | mean {:6.1}", cells.join(" "), self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_matches_figure2_axis() {
        let mut h = CostHistogram::new();
        h.record(0.0); // bin 0
        h.record(59.9); // bin 0
        h.record(60.0); // bin 1
        h.record(419.9); // bin 6
        h.record(420.0); // bin 7
        h.record(4000.0); // bin 7
        assert_eq!(h.bin(0), 2);
        assert_eq!(h.bin(1), 1);
        assert_eq!(h.bin(6), 1);
        assert_eq!(h.bin(7), 2);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn percents_sum_to_100() {
        let mut h = CostHistogram::new();
        for i in 0..1000 {
            h.record(f64::from(i % 500));
        }
        let total: f64 = h.percents().iter().sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = CostHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percent(0), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_preserves_mean() {
        let mut a = CostHistogram::new();
        let mut b = CostHistogram::new();
        a.record(100.0);
        b.record(300.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 200.0);
    }

    #[test]
    fn negative_costs_clamp_to_zero_bin() {
        let mut h = CostHistogram::new();
        h.record(-5.0);
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.mean(), 0.0);
    }
}
