//! The Cost Calculation Logic (CCL) — Algorithm 1 of the paper.
//!
//! ```text
//! init_mlp_cost(miss):      /* gets called when miss enters MSHR */
//!     miss.mlp_cost = 0
//! update_mlp_cost():        /* gets called every cycle */
//!     N = number of outstanding demand misses in MSHR
//!     for each demand miss in the MSHR:
//!         miss.mlp_cost += 1/N
//! ```
//!
//! Running this literally every cycle is wasteful in software: `N` only
//! changes when an entry is allocated, freed, or promoted to demand status.
//! [`Ccl::advance`] therefore adds `Δcycles / N` to every demand entry at
//! each such event, which sums to exactly the same value as the per-cycle
//! loop. The unit tests cross-check against a literal per-cycle
//! implementation.
//!
//! The paper's footnote 3 notes that a real design would time-share four
//! adders over the 32 MSHR entries instead of dedicating one adder per
//! entry, "with only a negligible effect". [`AdderMode::Shared`] models
//! that: with `N` demand entries and `A` adders, each entry is only updated
//! every `ceil(N/A)` cycles, so accumulation advances in coarser steps. The
//! `ablate_adders` experiment quantifies the (tiny) difference.

use mlpsim_mem::Mshr;

/// How many adders the CCL hardware has available.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdderMode {
    /// One adder per MSHR entry: every demand entry is updated every cycle
    /// (the idealized Algorithm 1).
    PerEntry,
    /// `adders` adders time-shared round-robin over the demand entries
    /// (the paper's practical design uses 4).
    Shared {
        /// Number of physical adders.
        adders: u32,
    },
}

impl AdderMode {
    /// The paper's practical configuration: 4 time-shared adders.
    pub fn paper_shared() -> Self {
        AdderMode::Shared { adders: 4 }
    }
}

/// The cost-calculation logic: accumulates MLP-based cost into the
/// `mlp_cost` field of demand MSHR entries.
///
/// Drive it by calling [`Ccl::advance`] with the current cycle *before*
/// every MSHR mutation (allocate / free / promote) and before reading a
/// completed entry's cost. The CCL is oblivious to what the entries mean —
/// it implements exactly Algorithm 1.
///
/// # Example
///
/// ```
/// use mlpsim_core::ccl::{AdderMode, Ccl};
/// use mlpsim_mem::Mshr;
/// use mlpsim_cache::addr::LineAddr;
///
/// let mut mshr = Mshr::new(4);
/// let mut ccl = Ccl::new(AdderMode::PerEntry);
/// let a = mshr.allocate(LineAddr(0), 0, 444, true).unwrap();
/// let b = mshr.allocate(LineAddr(1), 0, 444, true).unwrap();
/// ccl.advance(&mut mshr, 444); // two parallel misses split the time
/// assert_eq!(mshr.entry(a).mlp_cost, 222.0);
/// assert_eq!(mshr.entry(b).mlp_cost, 222.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Ccl {
    mode: AdderMode,
    last_cycle: u64,
    gate_open: bool,
}

impl Ccl {
    /// Creates a CCL in the given adder mode, starting at cycle 0, with
    /// accumulation enabled every cycle (the paper's default).
    pub fn new(mode: AdderMode) -> Self {
        Ccl {
            mode,
            last_cycle: 0,
            gate_open: true,
        }
    }

    /// Opens or closes the accumulation gate. With the gate closed,
    /// [`Ccl::advance`] moves time without accruing cost. This implements
    /// the paper's footnote-4 variant ("increasing the mlp_cost only
    /// during cycles when there is a full window stall"): the simulator
    /// opens the gate for stall spans and closes it otherwise.
    pub fn set_gate(&mut self, open: bool) {
        self.gate_open = open;
    }

    /// Whether the accumulation gate is open.
    pub fn gate_open(&self) -> bool {
        self.gate_open
    }

    /// The adder configuration.
    pub fn mode(&self) -> AdderMode {
        self.mode
    }

    /// The cycle up to which costs have been accumulated.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Accumulates cost over the interval `(last_cycle, now]` given the
    /// *current* MSHR occupancy, then remembers `now`.
    ///
    /// Must be called before any event that changes the demand-miss count
    /// so the interval is charged at the correct `N`.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previously seen cycle (time runs
    /// forward).
    pub fn advance(&mut self, mshr: &mut Mshr, now: u64) {
        assert!(now >= self.last_cycle, "CCL time must be monotonic");
        // The assert above makes the subtraction exact.
        let delta = now.wrapping_sub(self.last_cycle);
        self.last_cycle = now;
        if delta == 0 || !self.gate_open {
            return;
        }
        let n = mshr.demand_count();
        if n == 0 {
            return;
        }
        let increment = match self.mode {
            AdderMode::PerEntry => crate::convert::cycles_f64(delta) / crate::convert::count_f64(n),
            AdderMode::Shared { adders } => {
                // Each entry is visited every `stride` cycles and receives
                // `stride / N` per visit; over `delta` cycles it gets
                // floor(delta / stride) visits. The fractional remainder of
                // the interval is dropped, modeling the update an entry
                // misses while the adders are visiting its peers.
                let stride = crate::convert::idx_u64(n).div_ceil(u64::from(adders.max(1)));
                if stride <= 1 {
                    crate::convert::cycles_f64(delta) / crate::convert::count_f64(n)
                } else {
                    #[expect(
                        clippy::arithmetic_side_effects,
                        reason = "stride >= 2 here, and (delta / stride) * stride <= delta"
                    )]
                    let visited = delta / stride * stride;
                    crate::convert::cycles_f64(visited) / crate::convert::count_f64(n)
                }
            }
        };
        crate::invariant!(
            increment.is_finite() && increment >= 0.0,
            "Algorithm 1 increment must be finite and non-negative"
        );
        for (_, e) in mshr.iter_mut() {
            if e.is_demand {
                e.mlp_cost += increment;
            }
        }
    }
}

impl Default for Ccl {
    fn default() -> Self {
        Ccl::new(AdderMode::PerEntry)
    }
}

/// A literal, cycle-by-cycle implementation of Algorithm 1, used by tests
/// and the adder-sharing ablation as the ground truth. O(cycles × entries);
/// do not use in full simulations.
pub fn update_mlp_cost_per_cycle(mshr: &mut Mshr, cycles: u64) {
    for _ in 0..cycles {
        let n = mshr.demand_count();
        if n == 0 {
            continue;
        }
        let inc = 1.0 / crate::convert::count_f64(n);
        for (_, e) in mshr.iter_mut() {
            if e.is_demand {
                e.mlp_cost += inc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::addr::LineAddr;

    fn costs(mshr: &Mshr) -> Vec<f64> {
        let mut v: Vec<(u64, f64)> = mshr.iter().map(|(_, e)| (e.line.0, e.mlp_cost)).collect();
        v.sort_by_key(|&(l, _)| l);
        v.into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn isolated_miss_accumulates_full_latency() {
        let mut mshr = Mshr::new(4);
        let id = mshr.allocate(LineAddr(0), 0, 444, true).unwrap();
        let mut ccl = Ccl::default();
        ccl.advance(&mut mshr, 444);
        assert_eq!(mshr.entry(id).mlp_cost, 444.0);
    }

    #[test]
    fn two_parallel_misses_split_the_cost() {
        let mut mshr = Mshr::new(4);
        let a = mshr.allocate(LineAddr(0), 0, 444, true).unwrap();
        let b = mshr.allocate(LineAddr(1), 0, 460, true).unwrap();
        let mut ccl = Ccl::default();
        // Both in flight for 444 cycles → each accrues 222.
        ccl.advance(&mut mshr, 444);
        assert_eq!(mshr.entry(a).mlp_cost, 222.0);
        let done_a = mshr.free(a);
        assert_eq!(done_a.mlp_cost, 222.0);
        // b alone for 16 more cycles.
        ccl.advance(&mut mshr, 460);
        assert_eq!(mshr.entry(b).mlp_cost, 238.0);
    }

    #[test]
    fn non_demand_entries_neither_pay_nor_dilute() {
        let mut mshr = Mshr::new(4);
        let d = mshr.allocate(LineAddr(0), 0, 444, true).unwrap();
        let w = mshr.allocate(LineAddr(1), 0, 444, false).unwrap();
        let mut ccl = Ccl::default();
        ccl.advance(&mut mshr, 100);
        assert_eq!(
            mshr.entry(d).mlp_cost,
            100.0,
            "demand miss pays full rate: N=1"
        );
        assert_eq!(mshr.entry(w).mlp_cost, 0.0, "writeback accrues nothing");
    }

    #[test]
    fn event_driven_matches_per_cycle_reference() {
        // Build identical MSHR states and charge the same intervals.
        let build = || {
            let mut m = Mshr::new(8);
            m.allocate(LineAddr(0), 0, 1000, true).unwrap();
            m.allocate(LineAddr(1), 0, 1000, true).unwrap();
            m.allocate(LineAddr(2), 0, 1000, true).unwrap();
            m
        };
        let mut fast = build();
        let mut slow = build();
        let mut ccl = Ccl::default();
        ccl.advance(&mut fast, 137);
        update_mlp_cost_per_cycle(&mut slow, 137);
        for (f, s) in costs(&fast).iter().zip(costs(&slow).iter()) {
            assert!((f - s).abs() < 1e-9, "event-driven {f} vs per-cycle {s}");
        }
    }

    #[test]
    fn occupancy_changes_are_charged_piecewise() {
        let mut mshr = Mshr::new(4);
        let a = mshr.allocate(LineAddr(0), 0, 300, true).unwrap();
        let mut ccl = Ccl::default();
        ccl.advance(&mut mshr, 100); // a alone: +100
        let b = mshr.allocate(LineAddr(1), 100, 500, true).unwrap();
        ccl.advance(&mut mshr, 300); // both: +100 each
        let ea = mshr.free(a);
        assert_eq!(ea.mlp_cost, 200.0);
        ccl.advance(&mut mshr, 500); // b alone: +200
        assert_eq!(mshr.entry(b).mlp_cost, 300.0);
    }

    #[test]
    fn shared_adders_underestimate_slightly() {
        // With N=8 demand entries and 4 adders, stride = 2: over an odd
        // interval one visit is lost.
        let build = || {
            let mut m = Mshr::new(8);
            for i in 0..8 {
                m.allocate(LineAddr(i), 0, 1000, true).unwrap();
            }
            m
        };
        let mut exact = build();
        let mut shared = build();
        let mut c_exact = Ccl::new(AdderMode::PerEntry);
        let mut c_shared = Ccl::new(AdderMode::paper_shared());
        c_exact.advance(&mut exact, 445);
        c_shared.advance(&mut shared, 445);
        let e = costs(&exact);
        let s = costs(&shared);
        for (a, b) in e.iter().zip(s.iter()) {
            assert!(b <= a, "shared adders never overshoot");
            assert!(
                (a - b) < 1.0,
                "difference is sub-cycle per paper footnote 3"
            );
        }
    }

    #[test]
    fn shared_adders_match_exact_when_few_entries() {
        // N <= adders → stride 1 → identical behavior.
        let mut m1 = Mshr::new(8);
        let mut m2 = Mshr::new(8);
        for i in 0..3 {
            m1.allocate(LineAddr(i), 0, 1000, true).unwrap();
            m2.allocate(LineAddr(i), 0, 1000, true).unwrap();
        }
        let mut exact = Ccl::new(AdderMode::PerEntry);
        let mut shared = Ccl::new(AdderMode::paper_shared());
        exact.advance(&mut m1, 777);
        shared.advance(&mut m2, 777);
        assert_eq!(costs(&m1), costs(&m2));
    }

    #[test]
    fn zero_delta_advance_is_a_no_op() {
        let mut mshr = Mshr::new(2);
        mshr.allocate(LineAddr(0), 0, 10, true).unwrap();
        let mut ccl = Ccl::default();
        ccl.advance(&mut mshr, 0);
        ccl.advance(&mut mshr, 0);
        assert_eq!(costs(&mshr), vec![0.0]);
    }

    #[test]
    fn closed_gate_moves_time_without_cost() {
        let mut mshr = Mshr::new(2);
        let id = mshr.allocate(LineAddr(0), 0, 400, true).unwrap();
        let mut ccl = Ccl::default();
        ccl.set_gate(false);
        ccl.advance(&mut mshr, 100);
        assert_eq!(mshr.entry(id).mlp_cost, 0.0, "gate closed: no accrual");
        ccl.set_gate(true);
        ccl.advance(&mut mshr, 300);
        assert_eq!(mshr.entry(id).mlp_cost, 200.0, "gate open: full rate");
        assert_eq!(ccl.last_cycle(), 300);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn time_reversal_panics() {
        let mut mshr = Mshr::new(2);
        let mut ccl = Ccl::default();
        ccl.advance(&mut mshr, 10);
        ccl.advance(&mut mshr, 5);
    }
}
