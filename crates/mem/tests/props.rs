#![allow(clippy::unwrap_used)] // test/bench code: panics are failures, not bugs

//! Property-based tests for the memory-system substrate.

use mlpsim_cache::addr::LineAddr;
use mlpsim_mem::bus::Bus;
use mlpsim_mem::dram::DramBanks;
use mlpsim_mem::{MemConfig, MemorySystem, Mshr};
use proptest::prelude::*;

proptest! {
    /// Every fill completes no earlier than the unloaded isolated-miss
    /// latency and bank/bus service is work-conserving (completion times
    /// per bank are strictly increasing).
    #[test]
    fn fill_latency_lower_bound(reqs in prop::collection::vec((0u64..4096, 0u64..50), 1..100)) {
        let cfg = MemConfig::baseline();
        let mut mem = MemorySystem::new(cfg);
        let mut now = 0u64;
        for &(line, dt) in &reqs {
            now += dt;
            let done = mem.request_fill(LineAddr(line), now);
            prop_assert!(done >= now + cfg.isolated_miss_cycles());
        }
        let stats = mem.stats();
        prop_assert_eq!(stats.fills, reqs.len() as u64);
        prop_assert!(stats.mean_fill_latency() >= cfg.isolated_miss_cycles() as f64);
    }

    /// Per-bank completions are serialized and monotone.
    #[test]
    fn banks_serialize(reqs in prop::collection::vec(0u64..64, 1..200)) {
        let mut dram = DramBanks::new(8, 100);
        let mut last_done_per_bank = [0u64; 8];
        for (i, &line) in reqs.iter().enumerate() {
            let done = dram.schedule(LineAddr(line), i as u64);
            let bank = dram.bank_of(LineAddr(line));
            prop_assert!(done > last_done_per_bank[bank]);
            prop_assert!(done >= i as u64 + 100);
            last_done_per_bank[bank] = done;
        }
    }

    /// The shared bus never overlaps two transfers.
    #[test]
    fn bus_transfers_never_overlap(ready_times in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut bus = Bus::new(28, 16);
        let mut dones: Vec<u64> = ready_times.iter().map(|&t| bus.schedule_transfer(t)).collect();
        dones.sort_unstable();
        for w in dones.windows(2) {
            prop_assert!(w[1] - w[0] >= 16, "transfers occupy 16 exclusive cycles");
        }
    }

    /// The demand-miss count — Algorithm 1's `N` divisor — tracks
    /// promotions and demotions exactly, not just allocations and frees.
    /// In a debug build every mutation here also recounts the slot array
    /// against the cached counters.
    #[test]
    fn demand_divisor_tracks_promotions(
        ops in prop::collection::vec((0u8..4, 0usize..16), 1..300)
    ) {
        let mut m = Mshr::new(16);
        let mut next = 0u64;
        for &(op, pick) in &ops {
            match op {
                0 if !m.is_full() => {
                    m.allocate(LineAddr(next), 0, next + 444, pick % 2 == 0).unwrap();
                    next += 1;
                }
                1 if !m.is_empty() => {
                    let ids: Vec<_> = m.iter().map(|(id, _)| id).collect();
                    m.promote_to_demand(ids[pick % ids.len()]);
                }
                2 if !m.is_empty() => {
                    let ids: Vec<_> = m.iter().map(|(id, _)| id).collect();
                    m.demote_from_demand(ids[pick % ids.len()]);
                }
                _ if !m.is_empty() => {
                    let ids: Vec<_> = m.iter().map(|(id, _)| id).collect();
                    m.free(ids[pick % ids.len()]);
                }
                _ => {}
            }
            let recount = m.iter().filter(|(_, e)| e.is_demand).count();
            prop_assert_eq!(m.demand_count(), recount,
                "cached divisor must equal a recount of demand slots");
            prop_assert!(m.peak_demand() >= m.demand_count());
        }
    }

    /// MSHR occupancy accounting survives arbitrary alloc/free
    /// interleavings.
    #[test]
    fn mshr_accounting(ops in prop::collection::vec((prop::bool::ANY, 0usize..16, prop::bool::ANY), 1..300)) {
        let mut m = Mshr::new(16);
        let mut next = 0u64;
        for &(alloc, pick, demand) in &ops {
            if alloc && !m.is_full() {
                m.allocate(LineAddr(next), 0, next + 444, demand).unwrap();
                next += 1;
            } else if !m.is_empty() {
                let ids: Vec<_> = m.iter().map(|(id, _)| id).collect();
                m.free(ids[pick % ids.len()]);
            }
            let demand_count = m.iter().filter(|(_, e)| e.is_demand).count();
            prop_assert_eq!(m.demand_count(), demand_count);
            prop_assert_eq!(m.len(), m.iter().count());
            prop_assert!(m.peak_demand() >= m.demand_count());
        }
    }
}
