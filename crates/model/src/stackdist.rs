//! Exact LRU stack distances in O(distinct lines) memory.
//!
//! The classic Mattson stack algorithm keeps the lines of a trace on a
//! recency stack; the *stack distance* (equivalently, reuse distance over
//! distinct lines) of an access is the number of **distinct** lines
//! touched since the previous access to the same line. A fully
//! associative LRU cache of `C` lines hits exactly the accesses with
//! distance `< C`, so one pass yields the miss count of *every* capacity
//! at once.
//!
//! A naive stack walk is O(n) per access. This implementation is the
//! standard Fenwick-tree formulation: each access occupies a *time slot*,
//! a bitmap marks which slots hold the **most recent** access to their
//! line, and the distance of a re-access whose previous slot is `p` is
//! `live − prefix(p)` — the number of marked slots after `p`. The
//! binary-indexed tree counts marks per 64-slot word, so a prefix count
//! is one tree walk plus one popcount and the whole structure stays small
//! enough for the L1 cache. Slots grow append-only and are compacted (the
//! live lines moved to the front in recency order, tree and bitmap
//! rebuilt in O(live)) whenever the slot array fills, so memory stays
//! O(distinct lines) while each access costs O(log distinct) amortized.
//!
//! Lines are named by dense ids (`0, 1, 2, …` in first-touch order, as
//! [`crate::characterize`] interns them), so the id → slot map is a plain
//! `Vec` and nothing here hashes, orders or iterates a map: slots and
//! distances depend only on the id sequence.

/// `last` entry of an id never recorded.
const NEVER: u32 = u32::MAX;

/// Exact stack-distance tracker for one stream of dense line ids.
#[derive(Clone, Debug)]
pub struct StackDist {
    /// One bit per time slot, set iff the slot holds the most recent
    /// access to its id.
    marks: Vec<u64>,
    /// Fenwick tree over the words of `marks`, 1-based: node `i` counts
    /// the set bits of words `(i − lowbit(i), i]`.
    tree: Vec<u32>,
    /// id → its most recent slot, [`NEVER`] before the first access.
    last: Vec<u32>,
    /// slot → the id accessed there (possibly stale; a slot is live iff
    /// its bit is set).
    id_of: Vec<u32>,
    /// Next free slot; slots `0..next` have been written.
    next: usize,
    /// Ids recorded at least once — the live marks.
    distinct: u32,
}

impl Default for StackDist {
    fn default() -> Self {
        StackDist::new()
    }
}

impl StackDist {
    /// An empty tracker.
    pub fn new() -> Self {
        let mut s = StackDist {
            marks: Vec::new(),
            tree: Vec::new(),
            last: Vec::new(),
            id_of: Vec::new(),
            next: 0,
            distinct: 0,
        };
        s.compact();
        s
    }

    /// Number of distinct ids seen so far.
    pub fn distinct(&self) -> u64 {
        u64::from(self.distinct)
    }

    /// Record one access to line `id`. Ids need not arrive in order, but
    /// memory grows with the largest one, so callers pass dense ids.
    /// Returns `None` for a cold (first-ever) access to the id, otherwise
    /// `Some(d)` where `d` is the number of distinct *other* ids accessed
    /// since it was last touched (`0` for an immediate re-access).
    pub fn record(&mut self, id: u32) -> Option<u64> {
        if self.next == self.id_of.len() {
            self.compact();
        }
        let i = id as usize;
        if i >= self.last.len() {
            self.last.resize(i + 1, NEVER);
        }
        let dist = match self.last[i] {
            NEVER => {
                self.distinct += 1;
                None
            }
            prev => {
                let prev = prev as usize;
                // `prefix(prev)` counts live slots ≤ prev *including* the
                // id's own mark, so the distinct intermediaries are the
                // live slots strictly after it.
                let d = self.distinct - self.prefix(prev);
                self.flip(prev, false);
                Some(u64::from(d))
            }
        };
        let slot = self.next;
        self.flip(slot, true);
        self.id_of[slot] = id;
        self.last[i] = slot_u32(slot);
        self.next = slot + 1;
        dist
    }

    /// Move the live ids to slots `0..live` in recency order and rebuild
    /// the bitmap and tree over the new slot space.
    fn compact(&mut self) {
        // Live slots are visited in increasing order and each moves to a
        // slot at or below its own, so the move can happen in place.
        let mut live = 0usize;
        for slot in 0..self.next {
            if self.marks[slot / 64] >> (slot % 64) & 1 == 1 {
                let id = self.id_of[slot];
                self.id_of[live] = id;
                self.last[id as usize] = slot_u32(live);
                live += 1;
            }
        }
        let words = (live * 2).div_ceil(64).max(1);
        self.id_of.resize(words * 64, 0);
        // Exactly slots `0..live` are marked.
        self.marks.clear();
        self.marks.extend((0..words).map(|w| {
            let below = live.saturating_sub(w * 64);
            if below >= 64 {
                u64::MAX
            } else {
                (1u64 << below) - 1
            }
        }));
        let marked_below = |w: usize| slot_u32((w * 64).min(live));
        self.tree.clear();
        self.tree.extend((0..=words).map(|i| {
            let lo = i - (i & i.wrapping_neg());
            marked_below(i) - marked_below(lo)
        }));
        self.next = live;
    }

    /// Set (`on`) or clear the mark of `slot`.
    fn flip(&mut self, slot: usize, on: bool) {
        let w = slot / 64;
        self.marks[w] ^= 1 << (slot % 64);
        let mut i = w + 1;
        while i < self.tree.len() {
            if on {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Number of live marks in slots `0..=slot`.
    fn prefix(&self, slot: usize) -> u32 {
        let w = slot / 64;
        let upto = u64::MAX >> (63 - slot % 64);
        let mut sum = (self.marks[w] & upto).count_ones();
        let mut i = w;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Slots and mark counts stay below twice the distinct-id count, which
/// is itself a `u32`.
fn slot_u32(n: usize) -> u32 {
    u32::try_from(n).expect("slot space fits u32 ids")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_cold_and_immediate_reuse_is_zero() {
        let mut s = StackDist::new();
        assert_eq!(s.record(7), None);
        assert_eq!(s.record(7), Some(0));
        assert_eq!(s.distinct(), 1);
    }

    #[test]
    fn distance_counts_distinct_intermediaries() {
        let mut s = StackDist::new();
        // a b c b a: a's reuse sees {b, c}; b's reuse sees {c}.
        assert_eq!(s.record(1), None);
        assert_eq!(s.record(2), None);
        assert_eq!(s.record(3), None);
        assert_eq!(s.record(2), Some(1));
        assert_eq!(s.record(1), Some(2));
        // Repeated intermediaries count once: a b b b a → distance 1.
        let mut s = StackDist::new();
        s.record(10);
        s.record(20);
        s.record(20);
        s.record(20);
        assert_eq!(s.record(10), Some(1));
    }

    #[test]
    fn compaction_preserves_distances() {
        // A cyclic scan over k lines: after warm-up every access has
        // distance k-1, across many compactions.
        let k = 37u32;
        let mut s = StackDist::new();
        for round in 0..200u32 {
            for line in 0..k {
                let d = s.record(line);
                if round == 0 {
                    assert_eq!(d, None);
                } else {
                    assert_eq!(d, Some(u64::from(k - 1)), "round {round} line {line}");
                }
            }
        }
        assert_eq!(s.distinct(), u64::from(k));
    }

    #[test]
    fn matches_naive_stack_on_a_mixed_stream() {
        // Deterministic pseudo-random stream vs an O(n) recency list.
        let mut s = StackDist::new();
        let mut naive: Vec<u32> = Vec::new();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..4000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let line = u32::try_from((x >> 33) % 97).unwrap();
            let expect = naive.iter().position(|&l| l == line).map(|p| p as u64);
            if let Some(p) = expect {
                naive.remove(p as usize);
            }
            naive.insert(0, line);
            assert_eq!(s.record(line), expect);
        }
    }
}
