//! Interval sampling for the paper's Figure-11 case study.
//!
//! Figure 11 plots, for ammp, the average `cost_q` per miss, the misses
//! per 1000 instructions, and the IPC of LRU/LIN/SBAR over time. The
//! [`Sampler`] emits one [`Sample`] per fixed retired-instruction
//! interval.

use serde::{Deserialize, Serialize};

/// One interval sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Retired instructions at the end of the interval.
    pub instructions: u64,
    /// IPC within the interval.
    pub ipc: f64,
    /// L2 misses per 1000 instructions within the interval.
    pub mpki: f64,
    /// Average quantized cost per L2 miss within the interval (0 when no
    /// misses occurred).
    pub avg_cost_q: f64,
}

/// Accumulates per-interval deltas and emits samples.
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: u64,
    next_at: u64,
    last_insts: u64,
    last_cycles: u64,
    last_misses: u64,
    cost_q_sum: u64,
    cost_q_count: u64,
    samples: Vec<Sample>,
}

impl Sampler {
    /// Creates a sampler emitting every `interval` retired instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "sampling interval must be non-zero");
        Sampler {
            interval,
            next_at: interval,
            last_insts: 0,
            last_cycles: 0,
            last_misses: 0,
            cost_q_sum: 0,
            cost_q_count: 0,
            samples: Vec::new(),
        }
    }

    /// Records a serviced miss's quantized cost.
    pub fn record_miss_cost(&mut self, cost_q: u8) {
        self.cost_q_sum = self.cost_q_sum.saturating_add(u64::from(cost_q));
        self.cost_q_count = self.cost_q_count.saturating_add(1);
    }

    /// Called after retirement; emits a sample when the interval boundary
    /// is crossed. Returns how many samples this call appended (so callers
    /// can forward exactly the new ones to a telemetry stream).
    pub fn tick(&mut self, instructions: u64, cycles: u64, l2_misses: u64) -> usize {
        let before = self.samples.len();
        while instructions >= self.next_at {
            let d_inst = instructions.saturating_sub(self.last_insts);
            let d_cyc = cycles.saturating_sub(self.last_cycles).max(1);
            let d_miss = l2_misses.saturating_sub(self.last_misses);
            let ipc = d_inst as f64 / d_cyc as f64;
            let mpki = if d_inst == 0 {
                0.0
            } else {
                d_miss as f64 * 1000.0 / d_inst as f64
            };
            let avg_cost_q = if self.cost_q_count == 0 {
                0.0
            } else {
                self.cost_q_sum as f64 / self.cost_q_count as f64
            };
            self.samples.push(Sample {
                instructions,
                ipc,
                mpki,
                avg_cost_q,
            });
            self.last_insts = instructions;
            self.last_cycles = cycles;
            self.last_misses = l2_misses;
            self.cost_q_sum = 0;
            self.cost_q_count = 0;
            self.next_at = self.next_at.saturating_add(self.interval);
        }
        self.samples.len().saturating_sub(before)
    }

    /// The retired-instruction count at which the next sample fires. A
    /// caller fast-forwarding time must stop short of this boundary so the
    /// crossing cycle (which stamps the sample's cycle and IPC window) is
    /// reached by ordinary stepping.
    pub fn next_boundary(&self) -> u64 {
        self.next_at
    }

    /// Samples emitted so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Consumes the sampler, returning its samples.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_per_interval() {
        let mut s = Sampler::new(100);
        s.record_miss_cost(7);
        s.record_miss_cost(1);
        assert_eq!(s.tick(50, 100, 1), 0); // below the boundary: nothing
        assert_eq!(s.tick(100, 200, 2), 1);
        s.record_miss_cost(3);
        assert_eq!(s.tick(250, 500, 5), 1); // crosses 200: one more sample
        let samples = s.into_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].instructions, 100);
        assert!((samples[0].ipc - 0.5).abs() < 1e-12);
        assert_eq!(samples[0].mpki, 20.0);
        assert_eq!(samples[0].avg_cost_q, 4.0);
        // Second sample covers (100, 250]: 150 insts, 300 cycles, 3 misses.
        assert!((samples[1].ipc - 0.5).abs() < 1e-12);
        assert_eq!(samples[1].mpki, 20.0);
        assert_eq!(samples[1].avg_cost_q, 3.0);
    }

    #[test]
    fn no_misses_means_zero_cost() {
        let mut s = Sampler::new(10);
        s.tick(10, 10, 0);
        assert_eq!(s.into_samples()[0].avg_cost_q, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let _ = Sampler::new(0);
    }
}
