//! The instruction window: in-order retirement over out-of-order
//! completion.
//!
//! "For current instruction window sizes, instruction processing stalls
//! shortly after a long-latency miss occurs" (paper §3): when the oldest
//! instruction is an unserviced L2 miss, the window fills up and dispatch
//! stops — the *full-window stall* whose cycles the MLP-based cost model
//! apportions among concurrent misses.
//!
//! # Representation
//!
//! The overwhelming majority of window entries are *implicit*: plain
//! compute instructions (and stores, whose latency the store buffer owns)
//! that complete one cycle after dispatch and can never stall retirement.
//! Storing them individually would put a push and a pop on the hot path
//! of every simulated instruction, so the window keeps only:
//!
//! * cumulative lifetime push/pop counters (an entry's *position*),
//! * a sparse deque of *explicit* entries — anything whose completion is
//!   not `push_cycle + 1` (loads, delayed hits) or that must remember it
//!   was an L2 miss — keyed by position, and
//! * the cycle of the most recent push batch plus the position of that
//!   batch's first entry, which is exactly the state needed to decide
//!   whether an implicit entry is already complete: implicit entries from
//!   the current batch complete at `last_push_cycle + 1`; every older
//!   implicit entry completed at or before `last_push_cycle`.
//!
//! This makes pushes, pops, and head queries O(1), and lets the
//! event-driven core fast-forward whole dispatch-and-retire cycles in
//! O(explicit entries crossed) instead of O(instructions).
//!
//! Time handed to this structure must be monotone: `push` cycles never
//! decrease, and retirement/head queries never use a cycle older than the
//! most recent push (both are debug-asserted).

use std::collections::VecDeque;

/// One in-flight instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WinEntry {
    /// Cycle at which the instruction is complete and may retire.
    pub done: u64,
    /// Whether this is a load waiting on an L2 miss (used to attribute
    /// full-window stalls to the memory system).
    pub l2_miss: bool,
    /// Block address the instruction is waiting on — meaningful only when
    /// `l2_miss` is set. Lets a full-window stall on this entry be
    /// attributed to the miss's L2 set (see `mlpsim-cpu::attrib`).
    pub line: u64,
}

impl WinEntry {
    /// An entry that completes at `done` without touching memory (or
    /// hitting everywhere): never the cause of a memory stall.
    pub fn compute(done: u64) -> Self {
        WinEntry {
            done,
            l2_miss: false,
            line: 0,
        }
    }
}

/// A fixed-capacity instruction window with in-order retirement.
///
/// # Example
///
/// ```
/// use mlpsim_cpu::window::{InstructionWindow, WinEntry};
/// let mut w = InstructionWindow::new(4);
/// w.push(WinEntry::compute(5), 4);
/// w.push(WinEntry::compute(3), 4);
/// // At cycle 4 the head (done=5) blocks retirement even though the
/// // younger instruction is complete: retirement is in-order.
/// assert_eq!(w.retire_ready(4, 8), 0);
/// assert_eq!(w.retire_ready(5, 8), 2);
/// ```
#[derive(Clone, Debug)]
pub struct InstructionWindow {
    capacity: usize,
    len: usize,
    /// Lifetime pushes: the position the next push will occupy.
    pushed: u64,
    /// Lifetime retirements: the position of the current head.
    popped: u64,
    /// Entries that cannot be reconstructed from their position alone,
    /// oldest-first, tagged with their position.
    explicit: VecDeque<(u64, WinEntry)>,
    /// Cycle of the most recent push.
    last_push_cycle: u64,
    /// Position of the first push in the `last_push_cycle` batch.
    batch_start: u64,
}

impl InstructionWindow {
    /// Creates a window with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        InstructionWindow {
            capacity,
            len: 0,
            pushed: 0,
            popped: 0,
            explicit: VecDeque::new(),
            last_push_cycle: 0,
            batch_start: 0,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window is full (dispatch must stall).
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Free entries.
    #[expect(clippy::arithmetic_side_effects, reason = "len never exceeds capacity")]
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    fn note_push_cycle(&mut self, now: u64) {
        debug_assert!(now >= self.last_push_cycle, "push cycles must be monotone");
        if now != self.last_push_cycle {
            self.last_push_cycle = now;
            self.batch_start = self.pushed;
        }
    }

    /// Dispatches one instruction into the window during cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if the window is full (callers must check [`is_full`]).
    ///
    /// [`is_full`]: InstructionWindow::is_full
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the assert keeps len below capacity"
    )]
    pub fn push(&mut self, entry: WinEntry, now: u64) {
        assert!(!self.is_full(), "dispatch into a full window");
        self.note_push_cycle(now);
        // An entry completing at `now + 1` with no miss identity is the
        // generic shape its position already encodes; anything else must
        // be remembered explicitly.
        if entry.done != now.saturating_add(1) || entry.l2_miss {
            self.explicit.push_back((self.pushed, entry));
        }
        self.pushed = self.pushed.saturating_add(1);
        self.len += 1;
    }

    /// Dispatches `n` plain compute instructions (completing at `now + 1`)
    /// during cycle `now`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are free.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the assert keeps len + n within capacity"
    )]
    pub fn push_computes(&mut self, n: u32, now: u64) {
        assert!(self.free() >= n as usize, "dispatch into a full window");
        self.note_push_cycle(now);
        self.pushed = self.pushed.saturating_add(u64::from(n));
        self.len += n as usize;
    }

    /// The head entry if it exists and is *not* complete at `now` — the
    /// shape that stalls a full window (or the post-trace drain). Returns
    /// the entry so the caller can attribute the stall.
    pub fn stalled_head(&self, now: u64) -> Option<WinEntry> {
        debug_assert!(now >= self.last_push_cycle, "queries must be monotone");
        if self.len == 0 {
            return None;
        }
        if let Some(&(pos, e)) = self.explicit.front() {
            if pos == self.popped {
                return (e.done > now).then_some(e);
            }
        }
        // Implicit head: complete at its push cycle + 1, so it stalls
        // exactly when it belongs to a batch pushed this very cycle.
        (now == self.last_push_cycle && self.popped >= self.batch_start)
            .then(|| WinEntry::compute(now.saturating_add(1)))
    }

    /// Retires up to `max` instructions whose completion cycle is at or
    /// before `now`, in order; returns how many retired.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "got < max; popped < next_explicit in the first arm; every retired entry \
                  is resident, so len covers it and popped stays below pushed"
    )]
    pub fn retire_ready(&mut self, now: u64, max: u32) -> u32 {
        debug_assert!(
            now >= self.last_push_cycle,
            "retire cycles must be monotone"
        );
        let mut got: u32 = 0;
        while got < max && self.len > 0 {
            let next_explicit = self.explicit.front().map_or(self.pushed, |&(pos, _)| pos);
            if next_explicit > self.popped {
                // A run of implicit entries heads the window. All of them
                // are complete except a batch pushed this very cycle.
                let mut avail = next_explicit - self.popped;
                if now == self.last_push_cycle {
                    avail = avail.min(self.batch_start.saturating_sub(self.popped));
                    if avail == 0 {
                        break;
                    }
                }
                let k = avail.min(u64::from(max - got)) as u32;
                self.popped += u64::from(k);
                self.len -= k as usize;
                got += k;
            } else {
                let &(_, e) = self.explicit.front().expect("position matched");
                if e.done > now {
                    break;
                }
                self.explicit.pop_front();
                self.popped += 1;
                self.len -= 1;
                got += 1;
            }
        }
        got
    }

    /// Explicit entries oldest-first as `(position relative to the head,
    /// entry)` — the only residents that can block the in-order retirement
    /// schedule (every implicit entry completes by its retirement slot).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "every queued entry\'s position is at or past popped"
    )]
    pub fn explicit_from_head(&self) -> impl Iterator<Item = (u64, &WinEntry)> {
        self.explicit.iter().map(|(pos, e)| (pos - self.popped, e))
    }

    /// Fast-forwards `cycles` whole dispatch-and-retire cycles starting at
    /// `now`: each cycle pushes `width` plain computes (during cycles
    /// `now` … `now + cycles - 1`) and retires the oldest `width` entries
    /// (at cycles `now + 1` … `now + cycles`), leaving occupancy
    /// unchanged, in O(explicit entries crossed).
    ///
    /// The caller must have proven — via [`explicit_from_head`] — that
    /// every crossed entry completes by its in-order retirement slot;
    /// this is debug-asserted here.
    ///
    /// [`explicit_from_head`]: InstructionWindow::explicit_from_head
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "cycles >= 1 and width >= 1; queued positions are at or past popped; \
                  pushed >= cycles * width >= width after the jump"
    )]
    pub fn fast_forward(&mut self, cycles: u64, width: u32, now: u64) {
        debug_assert!(now >= self.last_push_cycle, "time must be monotone");
        let n = cycles.saturating_mul(u64::from(width));
        while let Some(&(pos, e)) = self.explicit.front() {
            if pos >= self.popped.saturating_add(n) {
                break;
            }
            debug_assert!(
                e.done <= now + (pos - self.popped) / u64::from(width) + 1,
                "fast-forward crossed an entry that misses its retire slot"
            );
            let _ = e;
            self.explicit.pop_front();
        }
        self.popped = self.popped.saturating_add(n);
        self.pushed = self.pushed.saturating_add(n);
        // Occupancy is conserved: every cycle retires exactly as many
        // entries as it dispatches, so `len` is untouched.
        // The final cycle's dispatch group is the youngest batch.
        self.last_push_cycle = now.saturating_add(cycles) - 1;
        self.batch_start = self.pushed - u64::from(width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(done: u64) -> WinEntry {
        WinEntry::compute(done)
    }

    #[test]
    fn in_order_retirement_blocks_on_head() {
        let mut w = InstructionWindow::new(8);
        w.push(e(100), 0);
        for _ in 0..5 {
            w.push(e(1), 0);
        }
        assert_eq!(w.retire_ready(50, 8), 0, "head not done");
        assert_eq!(w.retire_ready(100, 8), 6, "head done frees the rest");
        assert!(w.is_empty());
    }

    #[test]
    fn retirement_respects_width() {
        let mut w = InstructionWindow::new(32);
        for _ in 0..20 {
            w.push(e(1), 0);
        }
        assert_eq!(w.retire_ready(10, 8), 8);
        assert_eq!(w.retire_ready(10, 8), 8);
        assert_eq!(w.retire_ready(10, 8), 4);
    }

    #[test]
    fn fullness_tracks_capacity() {
        let mut w = InstructionWindow::new(2);
        assert!(!w.is_full());
        w.push(e(1), 0);
        w.push(e(2), 1);
        assert!(w.is_full());
        assert_eq!(w.free(), 0);
    }

    #[test]
    #[should_panic(expected = "full window")]
    fn overfill_panics() {
        let mut w = InstructionWindow::new(1);
        w.push(e(1), 0);
        w.push(e(2), 1);
    }

    #[test]
    fn head_exposes_miss_flag() {
        let mut w = InstructionWindow::new(4);
        w.push(
            WinEntry {
                done: 500,
                l2_miss: true,
                line: 9,
            },
            0,
        );
        let head = w.stalled_head(0).unwrap();
        assert!(head.l2_miss);
        assert_eq!(head.line, 9);
    }

    #[test]
    fn implicit_entries_stall_only_in_their_push_cycle() {
        let mut w = InstructionWindow::new(16);
        // Pushed during cycle 7: complete at 8.
        w.push(e(8), 7);
        assert_eq!(w.stalled_head(7), Some(e(8)), "fresh compute stalls by 1");
        assert_eq!(w.retire_ready(7, 8), 0, "not complete in its own cycle");
        assert!(w.stalled_head(8).is_none(), "complete from the next cycle");
        assert_eq!(w.retire_ready(8, 8), 1);
    }

    #[test]
    fn batched_computes_match_individual_pushes() {
        let mut a = InstructionWindow::new(16);
        let mut b = InstructionWindow::new(16);
        for _ in 0..5 {
            a.push(e(4), 3);
        }
        b.push_computes(5, 3);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.retire_ready(3, 8), b.retire_ready(3, 8));
        assert_eq!(a.retire_ready(4, 8), b.retire_ready(4, 8));
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn explicit_entries_keep_relative_positions() {
        let mut w = InstructionWindow::new(32);
        w.push_computes(6, 0);
        w.push(
            WinEntry {
                done: 500,
                l2_miss: true,
                line: 42,
            },
            0,
        );
        w.push_computes(3, 1);
        let found: Vec<(u64, u64)> = w.explicit_from_head().map(|(q, e)| (q, e.done)).collect();
        assert_eq!(found, vec![(6, 500)]);
        assert_eq!(w.retire_ready(2, 4), 4, "implicit run retires first");
        let found: Vec<u64> = w.explicit_from_head().map(|(q, _)| q).collect();
        assert_eq!(found, vec![2], "positions follow the head");
    }

    #[test]
    fn fast_forward_matches_per_cycle_stepping() {
        // Reference: per-cycle push width + retire width.
        let width = 4u32;
        let mut slow = InstructionWindow::new(64);
        let mut fast = InstructionWindow::new(64);
        for w in [&mut slow, &mut fast] {
            w.push_computes(16, 9); // 16 resident, complete at 10
        }
        for c in 1..=5u64 {
            let t = 10 + c - 1; // dispatch during t, retire at t + 1
            slow.push_computes(width, t);
            assert_eq!(slow.retire_ready(t + 1, width), width);
        }
        fast.fast_forward(5, width, 10);
        assert_eq!(slow.len(), fast.len());
        assert_eq!(slow.retire_ready(16, 8), fast.retire_ready(16, 8));
        assert_eq!(slow.retire_ready(16, 8), fast.retire_ready(16, 8));
    }
}
