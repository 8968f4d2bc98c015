//! DRAM bank model with bank-conflict queueing.

use mlpsim_cache::addr::LineAddr;
use serde::{Deserialize, Serialize};

/// Statistics collected by the [`DramBanks`] model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Requests serviced.
    pub requests: u64,
    /// Requests that had to wait behind an earlier request to the same bank.
    pub bank_conflicts: u64,
    /// Total cycles spent waiting for a busy bank (queueing delay).
    pub conflict_wait_cycles: u64,
}

/// A set of independent DRAM banks; each bank services one request at a
/// time with a fixed access latency, and line addresses interleave across
/// banks (line-interleaved mapping).
///
/// Bank conflicts serialize requests, which is the mechanism by which "some
/// of the parallel misses … are serialized because of DRAM bank conflicts"
/// and end up in the right-most bar of the paper's Figure 2.
#[derive(Clone, Debug)]
pub struct DramBanks {
    access_cycles: u64,
    bank_free_at: Vec<u64>,
    stats: DramStats,
}

impl DramBanks {
    /// Creates `banks` banks with a fixed `access_cycles` latency.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: u32, access_cycles: u64) -> Self {
        assert!(banks > 0, "bank count must be non-zero");
        DramBanks {
            access_cycles,
            bank_free_at: vec![0; banks as usize],
            stats: DramStats::default(),
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> u32 {
        self.bank_free_at.len() as u32
    }

    /// The bank a line maps to (line-interleaved).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "new() asserts a non-zero bank count"
    )]
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (line.0 % self.bank_free_at.len() as u64) as usize
    }

    /// Schedules an access to `line` arriving at cycle `arrival`; returns
    /// the cycle its data is available at the bank's output.
    pub fn schedule(&mut self, line: LineAddr, arrival: u64) -> u64 {
        let bank = self.bank_of(line);
        let start = arrival.max(self.bank_free_at[bank]);
        if start > arrival {
            self.stats.bank_conflicts = self.stats.bank_conflicts.saturating_add(1);
            // `start > arrival` makes the subtraction exact.
            let waited = start.wrapping_sub(arrival);
            self.stats.conflict_wait_cycles =
                self.stats.conflict_wait_cycles.saturating_add(waited);
        }
        let done = start.saturating_add(self.access_cycles);
        self.bank_free_at[bank] = done;
        self.stats.requests = self.stats.requests.saturating_add(1);
        done
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_banks_service_in_parallel() {
        let mut d = DramBanks::new(4, 400);
        let t0 = d.schedule(LineAddr(0), 100);
        let t1 = d.schedule(LineAddr(1), 100);
        assert_eq!(t0, 500);
        assert_eq!(t1, 500);
        assert_eq!(d.stats().bank_conflicts, 0);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = DramBanks::new(4, 400);
        let t0 = d.schedule(LineAddr(0), 100);
        let t1 = d.schedule(LineAddr(4), 100); // 4 % 4 == bank 0
        assert_eq!(t0, 500);
        assert_eq!(t1, 900);
        assert_eq!(d.stats().bank_conflicts, 1);
        assert_eq!(d.stats().conflict_wait_cycles, 400);
    }

    #[test]
    fn idle_bank_starts_immediately() {
        let mut d = DramBanks::new(2, 10);
        d.schedule(LineAddr(0), 0);
        // Long after the bank freed: no conflict.
        let t = d.schedule(LineAddr(2), 1000);
        assert_eq!(t, 1010);
        assert_eq!(d.stats().bank_conflicts, 0);
    }

    #[test]
    fn access_clock_saturates_near_u64_max() {
        // The spelled-out bounds (D7): an arrival at the end of
        // representable time pins the bank at u64::MAX instead of
        // wrapping into the past.
        let mut d = DramBanks::new(1, 400);
        assert_eq!(d.schedule(LineAddr(0), u64::MAX - 10), u64::MAX);
        // The saturated bank makes the next access wait exactly to MAX.
        assert_eq!(d.schedule(LineAddr(0), 0), u64::MAX);
        assert_eq!(d.stats().conflict_wait_cycles, u64::MAX);
    }

    #[test]
    fn bank_mapping_is_line_interleaved() {
        let d = DramBanks::new(32, 400);
        assert_eq!(d.bank_of(LineAddr(0)), 0);
        assert_eq!(d.bank_of(LineAddr(31)), 31);
        assert_eq!(d.bank_of(LineAddr(32)), 0);
    }
}
