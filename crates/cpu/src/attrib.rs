//! In-simulator stall-cycle attribution (the producer side of
//! `mlpsim_telemetry::attrib`).
//!
//! Every full-window memory stall in [`crate::system::System`] opens a
//! *span*; the span's cycles are apportioned across the demand misses
//! concurrently outstanding in the MSHR with the same `1/N` divisor as
//! Algorithm 1 — but in exact integer arithmetic
//! ([`mlpsim_telemetry::exact_share`]): a sub-interval of `delta` cycles
//! with `N` outstanding demand misses gives each miss `delta / N` cycles
//! and hands the `delta % N` remainder to the lowest-indexed slots. Every
//! sub-interval therefore sums to exactly `delta`, and the grand total
//! over a run reconciles with `mem_stall_cycles` as a `u64` equality —
//! the `invariant!` the `invariants` feature enforces at finalize.
//!
//! The tracker mirrors the CCL's event-driven charging: the system calls
//! [`AttribTracker::charge`] wherever it calls `ccl.advance` while a span
//! is open (MSHR occupancy is piecewise-constant between those points),
//! so both accountings see identical `N` boundaries.
//!
//! Apportioned cycles accumulate per MSHR slot and move into the ledger
//! when the slot's entry is freed — at which point the miss's final
//! `mlp_cost` (hence `cost_q`) is known. Two leftovers are swept up so
//! conservation is exact:
//!
//! - *Residual*: span tail intervals with zero demand entries (a merged
//!   delayed hit can keep the window head waiting past its entry's free)
//!   are charged to the span head's own key at span close.
//! - *Unflushed slots*: entries still in flight at the end of the run
//!   (none, after a normal drain, but [`AttribTracker::finalize`] sweeps
//!   them regardless) flush with their tag's identity.

use mlpsim_core::quant::quantize;
use mlpsim_mem::Mshr;
use mlpsim_telemetry::span::Span;
use mlpsim_telemetry::{exact_share, LedgerKey, StallLedger};

/// Identity captured when an MSHR slot is allocated: where the attributed
/// cycles will land in the ledger.
#[derive(Clone, Copy, Debug)]
struct SlotTag {
    /// L2 set index the missing line mapped to.
    set: u64,
    /// Replacement policy governing that set at allocation time.
    policy: &'static str,
}

/// One flushed attribution: the system emits a `stall_attrib` event from
/// this when a probe is attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttribCharge {
    /// Block address of the serviced miss.
    pub line: u64,
    /// L2 set index the line mapped to.
    pub set: u64,
    /// 3-bit quantized mlp-cost at service time.
    pub cost_q: u8,
    /// Replacement policy governing the set at allocation time.
    pub policy: &'static str,
    /// Stall cycles attributed to this miss.
    pub cycles: u64,
}

/// Per-run stall-attribution state. See the module docs for the protocol.
#[derive(Debug)]
pub struct AttribTracker {
    /// Whether a stall span is open.
    active: bool,
    /// Last cycle charged within the open span.
    last_cycle: u64,
    /// Open span's begin cycle, head line/set/policy, and opening `N`.
    span_begin: u64,
    span_line: u64,
    span_set: u64,
    span_policy: &'static str,
    span_n_begin: u64,
    /// `cost_q` of the head miss, learned if its entry frees mid-span.
    span_head_cost_q: Option<u8>,
    /// Span cycles that found zero demand entries to charge.
    residual: u64,
    /// Accumulated attributed cycles per MSHR slot.
    slot_acc: Vec<u64>,
    /// Ledger identity per MSHR slot, captured at allocate.
    slot_tags: Vec<Option<SlotTag>>,
    ledger: StallLedger,
}

impl AttribTracker {
    /// Tracker for an MSHR with `slots` entries.
    pub fn new(slots: usize) -> Self {
        AttribTracker {
            active: false,
            last_cycle: 0,
            span_begin: 0,
            span_line: 0,
            span_set: 0,
            span_policy: "",
            span_n_begin: 0,
            span_head_cost_q: None,
            residual: 0,
            slot_acc: vec![0; slots],
            slot_tags: vec![None; slots],
            ledger: StallLedger::new(),
        }
    }

    /// Records the ledger identity of a freshly allocated MSHR slot.
    pub fn on_alloc(&mut self, slot: usize, set: u64, policy: &'static str) {
        self.slot_tags[slot] = Some(SlotTag { set, policy });
    }

    /// Opens a stall span at `now` on the window-head miss to `line`
    /// (mapping to `set` under `policy`).
    pub fn open(&mut self, now: u64, line: u64, set: u64, policy: &'static str, mshr: &Mshr) {
        crate::invariant!(!self.active, "stall spans never nest");
        self.active = true;
        self.last_cycle = now;
        self.span_begin = now;
        self.span_line = line;
        self.span_set = set;
        self.span_policy = policy;
        self.span_n_begin = mshr.demand_count() as u64;
        self.span_head_cost_q = None;
    }

    /// Charges the interval since the last charge point across the demand
    /// entries currently outstanding. Call sites mirror `ccl.advance`:
    /// MSHR occupancy must not have changed since `last_cycle`. No-op
    /// outside a span.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "i counts demand entries, at most the MSHR capacity"
    )]
    pub fn charge(&mut self, mshr: &Mshr, now: u64) {
        if !self.active || now <= self.last_cycle {
            return;
        }
        // The early return above makes the subtraction exact.
        let delta = now.wrapping_sub(self.last_cycle);
        self.last_cycle = now;
        let n = mshr.demand_count() as u64;
        if n == 0 {
            self.residual = self.residual.saturating_add(delta);
            return;
        }
        let mut i = 0u64;
        for (id, entry) in mshr.iter() {
            if entry.is_demand {
                self.slot_acc[id.0] = self.slot_acc[id.0].saturating_add(exact_share(delta, n, i));
                i += 1;
            }
        }
        crate::invariant!(i == n, "demand recount matches the cached divisor");
    }

    /// Flushes a slot's accumulated cycles into the ledger as its entry is
    /// freed (or finally, at end of run). `line` is the entry's block
    /// address and `mlp_cost` its Algorithm-1 cost at this moment; returns
    /// the charge for event emission when anything was attributed.
    pub fn flush_slot(&mut self, slot: usize, line: u64, mlp_cost: f64) -> Option<AttribCharge> {
        let cost_q = quantize(mlp_cost);
        if self.active && line == self.span_line {
            // The head miss of the open span is being serviced: remember
            // its cost for the span record and any residual.
            self.span_head_cost_q = Some(cost_q);
        }
        let cycles = std::mem::take(&mut self.slot_acc[slot]);
        let tag = self.slot_tags[slot].take();
        if cycles == 0 {
            return None;
        }
        let tag = tag.expect("charged slots were tagged at allocate");
        self.ledger.charge(
            LedgerKey {
                set: tag.set,
                cost_q,
                policy: tag.policy.to_string(),
            },
            cycles,
        );
        Some(AttribCharge {
            line,
            set: tag.set,
            cost_q,
            policy: tag.policy,
            cycles,
        })
    }

    /// Closes the open span at `now`, folding any residual into the span
    /// head's key. `fallback_cost_q` supplies the head's bucket when its
    /// entry did not free within the span (e.g. a merged delayed hit whose
    /// fill completed earlier). Returns the span for event emission.
    ///
    /// The caller must [`AttribTracker::charge`] up to `now` first.
    pub fn close(&mut self, now: u64, fallback_cost_q: u8) -> Span {
        crate::invariant!(self.active, "close requires an open span");
        crate::invariant!(
            self.last_cycle == now,
            "span must be charged through its end"
        );
        self.active = false;
        let cost_q = self.span_head_cost_q.unwrap_or(fallback_cost_q);
        let residual = std::mem::take(&mut self.residual);
        if residual > 0 {
            self.ledger.charge(
                LedgerKey {
                    set: self.span_set,
                    cost_q,
                    policy: self.span_policy.to_string(),
                },
                residual,
            );
        }
        Span {
            begin: self.span_begin,
            end: now,
            line: self.span_line,
            set: self.span_set,
            cost_q,
            policy: self.span_policy.to_string(),
            n_begin: self.span_n_begin,
        }
    }

    /// Residual charged to the open span's head at close, so the system
    /// can mirror it as a `stall_attrib` event.
    pub fn residual_charge(&self) -> Option<AttribCharge> {
        if self.residual > 0 {
            Some(AttribCharge {
                line: self.span_line,
                set: self.span_set,
                cost_q: self.span_head_cost_q.unwrap_or(0),
                policy: self.span_policy,
                cycles: self.residual,
            })
        } else {
            None
        }
    }

    /// Sweeps any still-tagged slots into the ledger (entries alive at end
    /// of run) and returns the finished ledger. Conservation —
    /// `ledger.total() == mem_stall_cycles` — is the caller's invariant.
    pub fn finalize(mut self, mshr: &Mshr) -> StallLedger {
        crate::invariant!(!self.active, "finalize with a span still open");
        for slot in 0..self.slot_acc.len() {
            if self.slot_acc[slot] > 0 {
                let (line, cost) = mshr
                    .get(mlpsim_mem::MshrId(slot))
                    .map(|e| (e.line.0, e.mlp_cost))
                    .unwrap_or((0, 0.0));
                self.flush_slot(slot, line, cost);
            }
        }
        self.ledger
    }

    /// Running ledger total (for the reconciliation invariant).
    pub fn total(&self) -> u64 {
        self.ledger
            .total()
            .saturating_add(self.residual)
            .saturating_add(self.slot_acc.iter().sum::<u64>())
    }

    /// Whether a span is currently open.
    pub fn active(&self) -> bool {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpsim_cache::addr::LineAddr;

    fn mshr_with(demand_lines: &[u64]) -> Mshr {
        let mut m = Mshr::new(8);
        for &l in demand_lines {
            m.allocate(LineAddr(l), 0, 1_000, true).unwrap();
        }
        m
    }

    #[test]
    fn single_miss_span_charges_everything_to_it() {
        let mshr = mshr_with(&[7]);
        let mut t = AttribTracker::new(8);
        t.on_alloc(0, 3, "lru");
        t.open(100, 7, 3, "lru", &mshr);
        t.charge(&mshr, 544);
        let charge = t.flush_slot(0, 7, 444.0).expect("cycles attributed");
        assert_eq!(charge.cycles, 444);
        assert_eq!(charge.set, 3);
        assert_eq!(charge.cost_q, 7);
        let span = t.close(544, 0);
        assert_eq!(span.len(), 444);
        assert_eq!(span.cost_q, 7, "head free mid-span resolved the bucket");
        let ledger = t.finalize(&mshr);
        assert_eq!(ledger.total(), 444);
    }

    #[test]
    fn parallel_misses_split_exactly() {
        let mshr = mshr_with(&[1, 2, 3]);
        let mut t = AttribTracker::new(8);
        for (slot, set) in [(0, 10), (1, 20), (2, 30)] {
            t.on_alloc(slot, set, "lin");
        }
        t.open(0, 1, 10, "lin", &mshr);
        t.charge(&mshr, 100); // 100 over 3: 34, 33, 33
        let c0 = t.flush_slot(0, 1, 50.0).unwrap();
        let c1 = t.flush_slot(1, 2, 50.0).unwrap();
        let c2 = t.flush_slot(2, 3, 50.0).unwrap();
        assert_eq!(c0.cycles, 34);
        assert_eq!(c1.cycles, 33);
        assert_eq!(c2.cycles, 33);
        let _ = t.close(100, 0);
        assert_eq!(t.finalize(&mshr).total(), 100);
    }

    #[test]
    fn zero_demand_tail_lands_on_the_span_head() {
        // The head's entry freed before the span ends (merged delayed
        // hit): the tail interval has N == 0 and goes to the head's key.
        let empty = Mshr::new(8);
        let mut t = AttribTracker::new(8);
        t.open(100, 5, 2, "lru", &empty);
        t.charge(&empty, 160);
        assert_eq!(t.residual_charge().map(|c| c.cycles), Some(60));
        let span = t.close(160, 4);
        assert_eq!(span.cost_q, 4, "fallback bucket when the head never freed");
        let ledger = t.finalize(&empty);
        assert_eq!(ledger.total(), 60);
        let (key, cycles) = ledger.iter().next().expect("one bucket");
        assert_eq!(key.set, 2);
        assert_eq!(key.cost_q, 4);
        assert_eq!(cycles, 60);
    }

    #[test]
    fn charges_outside_spans_are_dropped() {
        let mshr = mshr_with(&[1]);
        let mut t = AttribTracker::new(8);
        t.on_alloc(0, 1, "lru");
        t.charge(&mshr, 500); // no span open: nothing accrues
        assert_eq!(t.total(), 0);
        assert!(t.flush_slot(0, 1, 444.0).is_none());
    }

    #[test]
    fn accumulation_survives_across_spans_until_free() {
        let mshr = mshr_with(&[1, 2]);
        let mut t = AttribTracker::new(8);
        t.on_alloc(0, 1, "lin");
        t.on_alloc(1, 2, "lru");
        t.open(0, 1, 1, "lin", &mshr);
        t.charge(&mshr, 10); // 5 each
        let _ = t.close(10, 0);
        t.open(50, 2, 2, "lru", &mshr);
        t.charge(&mshr, 70); // 10 more each
        let _ = t.close(70, 0);
        let c0 = t.flush_slot(0, 1, 100.0).unwrap();
        let c1 = t.flush_slot(1, 2, 100.0).unwrap();
        assert_eq!(c0.cycles, 15);
        assert_eq!(c1.cycles, 15);
        assert_eq!(t.finalize(&mshr).total(), 30);
    }
}
