//! The memory controller: DRAM banks behind a split-transaction bus.

use crate::bus::{Bus, BusStats};
use crate::config::MemConfig;
use crate::dram::{DramBanks, DramStats};
use mlpsim_cache::addr::LineAddr;
use serde::{Deserialize, Serialize};

/// Aggregated memory-system statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Demand fills requested.
    pub fills: u64,
    /// Writebacks absorbed.
    pub writebacks: u64,
    /// Sum of fill latencies (for mean-latency reporting).
    pub total_fill_latency: u64,
    /// DRAM-level statistics.
    pub dram: DramStats,
    /// Bus-level statistics.
    pub bus: BusStats,
}

impl MemStats {
    /// Mean fill latency in cycles (0 when no fills occurred).
    pub fn mean_fill_latency(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.total_fill_latency as f64 / self.fills as f64
        }
    }
}

/// The off-chip memory system: request scheduling across banks and the
/// shared response bus.
///
/// With the baseline [`MemConfig`], a request issued in isolation at cycle
/// `t` completes at `t + 444` — the paper's isolated-miss latency. Requests
/// to distinct banks overlap their 400-cycle DRAM portion and serialize
/// only on the 16-cycle data-bus transfer, which is what makes parallel
/// misses cheap per miss.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    dram: DramBanks,
    bus: Bus,
    stats_fills: u64,
    stats_writebacks: u64,
    stats_total_latency: u64,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    pub fn new(config: MemConfig) -> Self {
        MemorySystem {
            dram: DramBanks::new(config.banks, config.dram_access_cycles),
            bus: Bus::new(config.bus_fixed_cycles, config.bus_transfer_cycles),
            stats_fills: 0,
            stats_writebacks: 0,
            stats_total_latency: 0,
        }
    }

    /// Issues a demand fill for `line` at cycle `now`; returns the cycle
    /// the line arrives at the cache.
    pub fn request_fill(&mut self, line: LineAddr, now: u64) -> u64 {
        let data_ready = self.dram.schedule(line, now);
        let done = self.bus.schedule_transfer(data_ready);
        self.stats_fills = self.stats_fills.saturating_add(1);
        // `done >= now`: schedule never completes before the request.
        let latency = done.wrapping_sub(now);
        self.stats_total_latency = self.stats_total_latency.saturating_add(latency);
        done
    }

    /// Absorbs a writeback of `line` issued at cycle `now`. Writebacks
    /// occupy a DRAM bank (creating conflicts with demand fills) but use
    /// the write half of the split-transaction bus, which we do not model
    /// as contended.
    pub fn writeback(&mut self, line: LineAddr, now: u64) {
        self.dram.schedule(line, now);
        self.stats_writebacks = self.stats_writebacks.saturating_add(1);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            fills: self.stats_fills,
            writebacks: self.stats_writebacks,
            total_fill_latency: self.stats_total_latency,
            dram: *self.dram.stats(),
            bus: *self.bus.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_fill_takes_444_cycles() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        let done = m.request_fill(LineAddr(0), 1000);
        assert_eq!(done, 1444);
        assert_eq!(m.stats().mean_fill_latency(), 444.0);
    }

    #[test]
    fn four_parallel_fills_cost_little_more_than_one() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        // Four concurrent misses to distinct banks.
        let dones: Vec<u64> = (0..4).map(|i| m.request_fill(LineAddr(i), 0)).collect();
        assert_eq!(dones, vec![444, 460, 476, 492]);
        // All four finish within 492 cycles instead of 4 * 444 = 1776 —
        // the amortization that motivates the whole paper.
        assert!(dones[3] < 2 * 444);
    }

    #[test]
    fn same_bank_fills_serialize_fully() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        let t0 = m.request_fill(LineAddr(0), 0);
        let t1 = m.request_fill(LineAddr(32), 0); // same bank (32 banks)
        assert_eq!(t0, 444);
        assert_eq!(t1, 844); // 400 bank wait + 444
    }

    #[test]
    fn writebacks_steal_bank_time() {
        let mut m = MemorySystem::new(MemConfig::baseline());
        m.writeback(LineAddr(0), 0);
        let t = m.request_fill(LineAddr(32), 0); // same bank as the writeback
        assert_eq!(t, 844);
        assert_eq!(m.stats().writebacks, 1);
        assert_eq!(m.stats().fills, 1);
    }

    #[test]
    fn mean_latency_of_no_fills_is_zero() {
        let m = MemorySystem::new(MemConfig::baseline());
        assert_eq!(m.stats().mean_fill_latency(), 0.0);
    }
}
