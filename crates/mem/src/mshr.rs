//! Miss Status Holding Registers.
//!
//! "Each miss is allocated an MSHR entry before a request to service that
//! miss is sent to memory" (paper §3.1). The paper's Algorithm 1 adds a
//! `mlp_cost` field to each entry; that field lives here as plain
//! architectural state, while the accumulation logic (the CCL) lives in
//! `mlpsim-core`.

use mlpsim_cache::addr::LineAddr;
use mlpsim_telemetry::{Event, SinkHandle};
use std::fmt;

/// Identifier of an allocated MSHR entry (a stable slot index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MshrId(pub usize);

/// Error returned when allocation is attempted on a full MSHR file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MshrFull;

impl fmt::Display for MshrFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all MSHR entries are in use")
    }
}

impl std::error::Error for MshrFull {}

/// One in-flight miss.
#[derive(Clone, Copy, Debug)]
pub struct MshrEntry {
    /// The missing cache line.
    pub line: LineAddr,
    /// Cycle the entry was allocated.
    pub alloc_cycle: u64,
    /// Cycle the memory system will deliver the fill.
    pub done_cycle: u64,
    /// Whether this is a *demand* miss (instruction/load/store); only
    /// demand misses participate in MLP-cost accumulation (paper §3.1).
    pub is_demand: bool,
    /// The MLP-based cost accumulated so far, in cycles. Algorithm 1:
    /// starts at 0, grows by `1/N` per cycle while in flight.
    pub mlp_cost: f64,
    /// Number of merged requests (accesses to the same line while the miss
    /// was in flight); merged accesses do not allocate new entries.
    pub merged: u32,
}

/// The MSHR file: a fixed-capacity pool of in-flight misses with lookup by
/// line address (for miss merging).
///
/// # Example
///
/// ```
/// use mlpsim_mem::Mshr;
/// use mlpsim_cache::addr::LineAddr;
///
/// let mut mshr = Mshr::new(32);
/// let id = mshr.allocate(LineAddr(7), 0, 444, true).unwrap();
/// // A second access to the same line merges instead of re-requesting.
/// assert_eq!(mshr.lookup(LineAddr(7)), Some(id));
/// mshr.merge(id);
/// assert_eq!(mshr.entry(id).merged, 1);
/// let done = mshr.free(id);
/// assert_eq!(done.line, LineAddr(7));
/// ```
#[derive(Clone, Debug)]
pub struct Mshr {
    slots: Vec<Option<MshrEntry>>,
    /// Compact `(line, slot)` index of live entries. Lines are unique among
    /// live entries (callers merge duplicates), so scanning this short list
    /// replaces an O(capacity) walk over `slots` on every [`Mshr::lookup`].
    lines: Vec<(LineAddr, usize)>,
    /// Cached earliest completion as `(done_cycle, slot)`, tie-broken by the
    /// lowest slot id. `done_cycle` is immutable after allocation, so the
    /// cache only changes on `allocate` (O(1) compare) and on `free` of the
    /// cached minimum itself (one O(capacity) rescan per fill, at most).
    earliest: Option<(u64, usize)>,
    live: usize,
    demand_live: usize,
    /// High-water mark of simultaneously live demand entries (instantaneous
    /// MLP observability, cf. Chou et al.'s definition cited in §2).
    peak_demand: usize,
    /// Telemetry sink; disabled (a null check) unless attached.
    sink: SinkHandle,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        Mshr {
            slots: vec![None; capacity],
            lines: Vec::with_capacity(capacity),
            earliest: None,
            live: 0,
            demand_live: 0,
            peak_demand: 0,
            sink: SinkHandle::disabled(),
        }
    }

    /// Stream `mshr_alloc`/`mshr_release` events (with live occupancy)
    /// into `sink`. Occupancy over time is exactly reconstructible from
    /// these two event kinds.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether every slot is in use.
    pub fn is_full(&self) -> bool {
        self.live == self.slots.len()
    }

    /// Number of live *demand* entries — the `N` of Algorithm 1.
    pub fn demand_count(&self) -> usize {
        self.demand_live
    }

    /// Highest simultaneous demand-entry count observed.
    pub fn peak_demand(&self) -> usize {
        self.peak_demand
    }

    /// Finds the live entry for `line`, if one exists (miss merging).
    ///
    /// O(live), not O(capacity): the scan runs over the compact line index,
    /// which is empty whenever nothing is in flight — the common case on
    /// the cache-hit fast path.
    pub fn lookup(&self, line: LineAddr) -> Option<MshrId> {
        self.lines
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, slot)| MshrId(slot))
    }

    /// Allocates an entry for a new miss.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when no slot is free; the caller must stall the
    /// request (the paper's window model naturally back-pressures).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "live and demand_live count occupied slots, so they stay within 0..=capacity"
    )]
    pub fn allocate(
        &mut self,
        line: LineAddr,
        alloc_cycle: u64,
        done_cycle: u64,
        is_demand: bool,
    ) -> Result<MshrId, MshrFull> {
        debug_assert!(
            self.lookup(line).is_none(),
            "caller must merge duplicate misses"
        );
        let idx = self
            .slots
            .iter()
            .position(Option::is_none)
            .ok_or(MshrFull)?;
        self.slots[idx] = Some(MshrEntry {
            line,
            alloc_cycle,
            done_cycle,
            is_demand,
            mlp_cost: 0.0,
            merged: 0,
        });
        self.lines.push((line, idx));
        // Lexicographic (done, slot) compare: earlier completions win, and
        // equal completions go to the lowest slot id (the fill-order
        // contract pinned by `next_completion_ties_break_to_lowest_slot`).
        if self.earliest.is_none_or(|cur| (done_cycle, idx) < cur) {
            self.earliest = Some((done_cycle, idx));
        }
        self.live += 1;
        if is_demand {
            self.demand_live += 1;
            self.peak_demand = self.peak_demand.max(self.demand_live);
        }
        self.sink.emit_with(|| Event::MshrAlloc {
            cycle: alloc_cycle,
            line: line.0,
            demand: is_demand,
            live: self.live as u64,
            demand_live: self.demand_live as u64,
            slot: idx as u64,
        });
        self.check_invariants();
        Ok(MshrId(idx))
    }

    /// Records a merged access on an existing entry.
    pub fn merge(&mut self, id: MshrId) {
        let e = self.entry_mut(id);
        e.merged = e.merged.saturating_add(1);
    }

    /// Promotes an existing non-demand entry to demand status (e.g. a
    /// prefetch that a demand access merged into). The `N` of Algorithm 1
    /// grows accordingly.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "live and demand_live count occupied slots, so they stay within 0..=capacity"
    )]
    pub fn promote_to_demand(&mut self, id: MshrId) {
        let e = self.slots[id.0].as_mut().expect("live MSHR entry");
        if !e.is_demand {
            e.is_demand = true;
            self.demand_live += 1;
            self.peak_demand = self.peak_demand.max(self.demand_live);
        }
        self.check_invariants();
    }

    /// Demotes a demand entry to non-demand status — the paper's
    /// wrong-path rule: "All misses are treated on correct path until
    /// they are confirmed to be on the wrong path. Misses on the wrong
    /// path are not counted as demand misses" (§3.1). The `N` of
    /// Algorithm 1 shrinks accordingly and the entry's accumulated cost is
    /// discarded by the fill path.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "live and demand_live count occupied slots, so they stay within 0..=capacity"
    )]
    pub fn demote_from_demand(&mut self, id: MshrId) {
        let e = self.slots[id.0].as_mut().expect("live MSHR entry");
        if e.is_demand {
            e.is_demand = false;
            self.demand_live -= 1;
        }
        self.check_invariants();
    }

    /// Shared access to a live entry.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn entry(&self, id: MshrId) -> &MshrEntry {
        self.slots[id.0].as_ref().expect("live MSHR entry")
    }

    /// Shared access to an entry that may already have been freed (used
    /// by deferred bookkeeping like wrong-path resolution).
    pub fn get(&self, id: MshrId) -> Option<&MshrEntry> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Exclusive access to a live entry.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn entry_mut(&mut self, id: MshrId) -> &mut MshrEntry {
        self.slots[id.0].as_mut().expect("live MSHR entry")
    }

    /// Frees a completed entry, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "live and demand_live count occupied slots, so they stay within 0..=capacity"
    )]
    pub fn free(&mut self, id: MshrId) -> MshrEntry {
        let e = self.slots[id.0].take().expect("live MSHR entry");
        let pos = self
            .lines
            .iter()
            .position(|&(_, slot)| slot == id.0)
            .expect("line index tracks every live entry");
        // Lines are unique, so lookup order does not matter: swap_remove.
        self.lines.swap_remove(pos);
        if self.earliest.is_some_and(|(_, slot)| slot == id.0) {
            self.earliest = self.iter().map(|(id, e)| (e.done_cycle, id.0)).min();
        }
        self.live -= 1;
        if e.is_demand {
            self.demand_live -= 1;
        }
        self.sink.emit_with(|| Event::MshrRelease {
            cycle: e.done_cycle,
            line: e.line.0,
            demand: e.is_demand,
            live: self.live as u64,
            cost: e.mlp_cost,
            slot: id.0 as u64,
        });
        self.check_invariants();
        e
    }

    /// Iterator over live entries.
    pub fn iter(&self) -> impl Iterator<Item = (MshrId, &MshrEntry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (MshrId(i), e)))
    }

    /// Mutable iterator over live entries (the CCL uses this to bump
    /// `mlp_cost` on every demand entry).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (MshrId, &mut MshrEntry)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|e| (MshrId(i), e)))
    }

    /// The earliest `done_cycle` among live entries, if any — the next fill
    /// event the simulator must wake up for. Ties between entries completing
    /// on the same cycle go to the lowest slot id, so the fill order is a
    /// stable function of allocation order.
    ///
    /// O(1): served from the cached minimum maintained by `allocate`/`free`
    /// (the event-driven core calls this on every time jump, so a linear
    /// scan here would put an O(capacity) walk back into the hot loop).
    pub fn next_completion(&self) -> Option<(MshrId, u64)> {
        self.earliest.map(|(done, slot)| (MshrId(slot), done))
    }

    /// Model check (under the `invariants` feature) after any occupancy
    /// change: the cached `live`/`demand_live` counters equal a recount of
    /// the slots (the `N` of Algorithm 1 must never drift), the peak never
    /// trails the current demand count, and every accumulated `mlp_cost` is
    /// finite and non-negative.
    #[cfg(feature = "invariants")]
    fn check_invariants(&self) {
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        let demand = self
            .slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|e| e.is_demand))
            .count();
        crate::invariant!(
            self.live == live,
            "live counter must match a recount of occupied slots"
        );
        crate::invariant!(
            self.demand_live == demand,
            "demand-live counter is Algorithm 1's N and must never drift"
        );
        crate::invariant!(
            self.peak_demand >= self.demand_live,
            "peak demand is a high-water mark"
        );
        for e in self.slots.iter().flatten() {
            crate::invariant!(
                e.mlp_cost.is_finite() && e.mlp_cost >= 0.0,
                "mlp_cost accumulates non-negative finite increments"
            );
            crate::invariant!(
                e.done_cycle >= e.alloc_cycle,
                "a miss cannot complete before it was issued"
            );
        }
        crate::invariant!(
            self.lines.len() == live,
            "line index must hold exactly the live entries"
        );
        for &(line, slot) in &self.lines {
            crate::invariant!(
                self.slots[slot].as_ref().is_some_and(|e| e.line == line),
                "line index entries must point at matching live slots"
            );
        }
        let recomputed = self.iter().map(|(id, e)| (e.done_cycle, id.0)).min();
        crate::invariant!(
            self.earliest == recomputed,
            "cached earliest completion must match a full (done, slot) rescan"
        );
    }

    #[cfg(not(feature = "invariants"))]
    #[inline]
    fn check_invariants(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_free_cycle() {
        let mut m = Mshr::new(4);
        let a = m.allocate(LineAddr(1), 0, 444, true).unwrap();
        assert_eq!(m.lookup(LineAddr(1)), Some(a));
        assert_eq!(m.demand_count(), 1);
        assert_eq!(m.len(), 1);
        let e = m.free(a);
        assert_eq!(e.line, LineAddr(1));
        assert!(m.is_empty());
        assert_eq!(m.demand_count(), 0);
    }

    #[test]
    fn full_mshr_rejects_allocation() {
        let mut m = Mshr::new(2);
        m.allocate(LineAddr(1), 0, 10, true).unwrap();
        m.allocate(LineAddr(2), 0, 10, true).unwrap();
        assert!(m.is_full());
        assert_eq!(m.allocate(LineAddr(3), 0, 10, true), Err(MshrFull));
    }

    #[test]
    fn demand_count_ignores_non_demand() {
        let mut m = Mshr::new(4);
        m.allocate(LineAddr(1), 0, 10, true).unwrap();
        let wb = m.allocate(LineAddr(2), 0, 10, false).unwrap();
        assert_eq!(m.demand_count(), 1);
        assert_eq!(m.len(), 2);
        m.promote_to_demand(wb);
        assert_eq!(m.demand_count(), 2);
        m.promote_to_demand(wb); // idempotent
        assert_eq!(m.demand_count(), 2);
        m.demote_from_demand(wb);
        assert_eq!(m.demand_count(), 1);
        m.demote_from_demand(wb); // idempotent
        assert_eq!(m.demand_count(), 1);
    }

    #[test]
    fn peak_demand_tracks_high_water_mark() {
        let mut m = Mshr::new(4);
        let a = m.allocate(LineAddr(1), 0, 10, true).unwrap();
        let b = m.allocate(LineAddr(2), 0, 10, true).unwrap();
        m.free(a);
        m.free(b);
        m.allocate(LineAddr(3), 5, 10, true).unwrap();
        assert_eq!(m.peak_demand(), 2);
    }

    #[test]
    fn next_completion_finds_earliest() {
        let mut m = Mshr::new(4);
        m.allocate(LineAddr(1), 0, 300, true).unwrap();
        let b = m.allocate(LineAddr(2), 0, 100, true).unwrap();
        m.allocate(LineAddr(3), 0, 200, false).unwrap();
        assert_eq!(m.next_completion(), Some((b, 100)));
    }

    #[test]
    fn next_completion_ties_break_to_lowest_slot() {
        // Two entries completing on the same cycle: the lowest slot id must
        // win, before and after frees/reallocations churn the slot pool.
        // This pins the fill order the event-driven core relies on.
        let mut m = Mshr::new(4);
        let a = m.allocate(LineAddr(1), 0, 100, true).unwrap();
        let b = m.allocate(LineAddr(2), 0, 100, true).unwrap();
        assert_eq!((a, b), (MshrId(0), MshrId(1)));
        assert_eq!(m.next_completion(), Some((a, 100)));

        // Freeing the winner promotes the other same-cycle entry.
        m.free(a);
        assert_eq!(m.next_completion(), Some((b, 100)));

        // Reallocating the lower slot with the same done cycle takes the
        // tie back, even though it was allocated later.
        let c = m.allocate(LineAddr(3), 5, 100, true).unwrap();
        assert_eq!(c, MshrId(0));
        assert_eq!(m.next_completion(), Some((c, 100)));

        // An earlier completion still beats any tie.
        let d = m.allocate(LineAddr(4), 5, 99, false).unwrap();
        assert_eq!(m.next_completion(), Some((d, 99)));
        m.free(d);
        assert_eq!(m.next_completion(), Some((c, 100)));
    }

    #[test]
    fn lookup_tracks_frees_and_reallocations() {
        let mut m = Mshr::new(4);
        let a = m.allocate(LineAddr(10), 0, 50, true).unwrap();
        let b = m.allocate(LineAddr(20), 0, 60, true).unwrap();
        m.free(a);
        assert_eq!(m.lookup(LineAddr(10)), None);
        assert_eq!(m.lookup(LineAddr(20)), Some(b));
        let c = m.allocate(LineAddr(30), 1, 70, false).unwrap();
        assert_eq!(m.lookup(LineAddr(30)), Some(c));
        m.free(b);
        m.free(c);
        assert_eq!(m.lookup(LineAddr(20)), None);
        assert_eq!(m.lookup(LineAddr(30)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn merge_counts_duplicate_requests() {
        let mut m = Mshr::new(2);
        let a = m.allocate(LineAddr(9), 0, 10, true).unwrap();
        m.merge(a);
        m.merge(a);
        assert_eq!(m.entry(a).merged, 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Mshr::new(0);
    }
}
