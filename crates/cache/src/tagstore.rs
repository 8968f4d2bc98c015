//! The tag array: per-set, per-way metadata plus recency bookkeeping.

use crate::addr::{Geometry, LineAddr};
use crate::meta::CostQ;
use crate::set::SetView;

/// A tag store: the full per-way metadata array of a cache, with helpers to
/// probe, touch (hit), and fill (replace) blocks.
///
/// The tag store is shared by real caches ([`CacheModel`]) and the
/// data-less auxiliary tag directories ([`Atd`]) that the paper's hybrid
/// replacement mechanisms use ("data lines are not required to estimate the
/// performance of replacement policies", §6).
///
/// Metadata is laid out struct-of-arrays: one contiguous column per field
/// (`valid`, `tag`, `rank`, …), each indexed by `set * assoc + way`. The
/// hot operations — `probe`'s tag-match scan and the rank reads behind
/// victim selection — each read exactly one field across a set's ways, so
/// a columnar layout turns them into short contiguous loads instead of
/// strided walks over per-way records.
///
/// Recency is kept the way the paper's hardware keeps it: as each block's
/// position in its set's LRU stack, `R(i)` of §5.1, in an 8-bit `rank`
/// column (0 = LRU … valid-1 = MRU), with the fill order in a second
/// `fill_rank` column (0 = oldest fill). Both are updated in place on every
/// touch and fill, so a replacement engine reads `R(i)`
/// directly instead of deriving it. The valid ways' ranks in each column
/// are a permutation of `0..valid_count`, and invalid ways hold 0.
///
/// [`CacheModel`]: crate::model::CacheModel
/// [`Atd`]: crate::atd::Atd
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::{Geometry, LineAddr};
/// use mlpsim_cache::tagstore::TagStore;
///
/// let mut tags = TagStore::new(Geometry::from_sets(4, 2, 64));
/// tags.fill(LineAddr(5), 0, false, 3);
/// assert_eq!(tags.probe(LineAddr(5)), Some(0));
/// assert_eq!(tags.cost_q_of(LineAddr(5)), Some(3));
/// ```
#[derive(Clone, Debug)]
pub struct TagStore {
    geometry: Geometry,
    valid: Vec<bool>,
    tag: Vec<u64>,
    rank: Vec<u8>,
    fill_rank: Vec<u8>,
    cost_q: Vec<CostQ>,
    dirty: Vec<bool>,
}

/// The largest associativity a tag store supports: ranks are 8-bit.
pub const MAX_WAYS: u16 = 256;

/// Takes `way` out of one rank column's stack: every rank above the way's
/// old rank drops by one. Invalid ways hold 0, which is never above
/// anything, so they stay put without a branch. Returns the highest rank
/// the column held, which is the top slot when `way` is valid.
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "only a rank above `old` drops by one, so none goes below 0"
)]
fn close_gap(ranks: &mut [u8], way: usize) -> u8 {
    let old = ranks[way];
    let mut top = 0;
    for r in ranks.iter_mut() {
        top = top.max(*r);
        *r -= u8::from(*r > old);
    }
    top
}

impl TagStore {
    /// Creates an empty (all-invalid) tag store for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds [`MAX_WAYS`].
    pub fn new(geometry: Geometry) -> Self {
        assert!(
            geometry.ways() <= MAX_WAYS,
            "a tag store supports at most {MAX_WAYS} ways (8-bit recency ranks), got {}",
            geometry.ways()
        );
        let n = geometry.lines() as usize;
        TagStore {
            geometry,
            valid: vec![false; n],
            tag: vec![0; n],
            rank: vec![0; n],
            fill_rank: vec![0; n],
            cost_q: vec![0; n],
            dirty: vec![false; n],
        }
    }

    /// The cache geometry.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Column range covering set `set_index`.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "set_index < sets, so the range lies inside the sets × ways columns"
    )]
    fn range(&self, set_index: u32) -> std::ops::Range<usize> {
        let w = usize::from(self.geometry.ways());
        let b = set_index as usize * w;
        b..b + w
    }

    /// Column index of `way` in the set `line` maps to.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "way < ways, so the index stays inside the set's range"
    )]
    fn index(&self, line: LineAddr, way: usize) -> usize {
        self.range(self.geometry.set_index(line)).start + way
    }

    /// Read-only view of one set, suitable for handing to a replacement
    /// engine.
    pub fn view(&self, set_index: u32) -> SetView<'_> {
        let r = self.range(set_index);
        SetView::new(
            &self.valid[r.clone()],
            &self.tag[r.clone()],
            &self.rank[r.clone()],
            &self.fill_rank[r.clone()],
            &self.cost_q[r],
            set_index,
            self.geometry,
        )
    }

    /// Looks up a line; returns the way it resides in, if present.
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        let set = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let r = self.range(set);
        self.valid[r.clone()]
            .iter()
            .zip(&self.tag[r])
            .position(|(&v, &t)| v && t == tag)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// Marks a resident way as most-recently-used (hit handling).
    pub fn touch(&mut self, line: LineAddr, way: usize) {
        let set = self.geometry.set_index(line);
        let r = self.range(set);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "way < ways, so the index stays inside the set's range"
        )]
        let i = r.start + way;
        debug_assert!(self.valid[i], "touching an invalid way");
        if usize::from(self.rank[i]) + 1 == r.len() {
            // Already MRU of a full set (the only way a rank reaches
            // assoc - 1): nothing moves.
            return;
        }
        self.rank[i] = close_gap(&mut self.rank[r], way);
        #[cfg(debug_assertions)]
        self.check_set_invariants(set);
    }

    /// Fills `line` into `way` of its set, returning the evicted block (if
    /// the way held a valid one). The filled block becomes MRU and the
    /// newest fill.
    pub fn fill(
        &mut self,
        line: LineAddr,
        way: usize,
        dirty: bool,
        cost_q: CostQ,
    ) -> Option<Evicted> {
        let set = self.geometry.set_index(line);
        let tag = self.geometry.tag(line);
        let r = self.range(set);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "way < ways, so the index stays inside the set's range"
        )]
        let i = r.start + way;
        let evicted = self.valid[i].then(|| Evicted {
            line: self.geometry.line_from_parts(self.tag[i], set),
            dirty: self.dirty[i],
            cost_q: self.cost_q[i],
        });
        if evicted.is_some() {
            // The set's valid count is unchanged: the newcomer takes the
            // evicted block's place at the top of both stacks.
            self.rank[i] = close_gap(&mut self.rank[r.clone()], way);
            self.fill_rank[i] = close_gap(&mut self.fill_rank[r], way);
        } else {
            // One more valid way: it goes on top of both stacks. The way
            // was invalid, so the count is below the 256-way cap.
            let top = self.valid[r].iter().filter(|&&v| v).count() as u8;
            self.rank[i] = top;
            self.fill_rank[i] = top;
        }
        self.valid[i] = true;
        self.tag[i] = tag;
        self.cost_q[i] = cost_q;
        self.dirty[i] = dirty;
        #[cfg(debug_assertions)]
        self.check_set_invariants(set);
        evicted
    }

    /// Updates the stored `cost_q` of a resident line (done when the miss
    /// that fetched it is finally serviced and its MLP-based cost is known).
    /// Returns `false` if the line is no longer resident.
    pub fn set_cost_q(&mut self, line: LineAddr, cost_q: CostQ) -> bool {
        match self.probe(line) {
            Some(way) => {
                let i = self.index(line, way);
                self.cost_q[i] = cost_q;
                #[cfg(debug_assertions)]
                self.check_set_invariants(self.geometry.set_index(line));
                true
            }
            None => false,
        }
    }

    /// The stored `cost_q` of a resident line, if present.
    pub fn cost_q_of(&self, line: LineAddr) -> Option<CostQ> {
        self.probe(line).map(|way| self.cost_q_at(line, way))
    }

    /// The stored `cost_q` of `way` in `line`'s set: the hit path's read,
    /// reusing the way its probe found.
    #[inline]
    pub fn cost_q_at(&self, line: LineAddr, way: usize) -> CostQ {
        self.cost_q[self.index(line, way)]
    }

    /// Sets the dirty bit of `way` in `line`'s set: the hit path's write,
    /// reusing the way its probe found.
    #[inline]
    pub fn mark_dirty_at(&mut self, line: LineAddr, way: usize) {
        let i = self.index(line, way);
        self.dirty[i] = true;
    }

    /// Number of valid blocks currently resident.
    pub fn resident_count(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Model check (in builds with debug assertions) after any mutation of
    /// one set: the valid ways' ranks and fill ranks are each a permutation
    /// of `0..valid_count` and invalid ways hold 0 in both, no two valid
    /// ways hold the same tag, and every `cost_q` fits the 3-bit field of
    /// Fig. 3b.
    #[cfg(debug_assertions)]
    fn check_set_invariants(&self, set_index: u32) {
        let r = self.range(set_index);
        let valid = &self.valid[r.clone()];
        debug_assert!(
            crate::set::is_rank_permutation(valid, &self.rank[r.clone()]),
            "recency ranks of valid ways must be a permutation of 0..valid_count"
        );
        debug_assert!(
            crate::set::is_rank_permutation(valid, &self.fill_rank[r.clone()]),
            "fill ranks of valid ways must be a permutation of 0..valid_count"
        );
        for i in r.clone() {
            if !self.valid[i] {
                debug_assert!(
                    self.rank[i] == 0 && self.fill_rank[i] == 0,
                    "invalid ways hold rank 0"
                );
                continue;
            }
            debug_assert!(
                self.cost_q[i] <= crate::meta::COST_Q_MAX,
                "cost_q is a 3-bit field"
            );
            for j in (i..r.end).skip(1) {
                debug_assert!(
                    !self.valid[j] || self.tag[j] != self.tag[i],
                    "a tag may be resident in at most one way of a set"
                );
            }
        }
    }
}

/// Record of a block evicted from a tag store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether the block was dirty (needs a writeback).
    pub dirty: bool,
    /// The quantized cost that was stored with it.
    pub cost_q: CostQ,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TagStore {
        TagStore::new(Geometry::from_sets(4, 2, 64))
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut t = store();
        let line = LineAddr(5);
        assert_eq!(t.probe(line), None);
        assert_eq!(t.fill(line, 0, false, 3), None);
        assert_eq!(t.probe(line), Some(0));
        assert_eq!(t.cost_q_of(line), Some(3));
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn fill_evicts_previous_occupant() {
        let mut t = store();
        let a = LineAddr(1); // set 1
        let b = LineAddr(9); // set 1 as well (9 % 4 == 1)
        t.fill(a, 0, true, 2);
        let ev = t.fill(b, 0, false, 0).expect("must evict a");
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
        assert_eq!(ev.cost_q, 2);
        assert!(t.contains(b));
        assert!(!t.contains(a));
    }

    #[test]
    fn touch_promotes_to_mru() {
        let mut t = store();
        let a = LineAddr(0);
        let b = LineAddr(4); // same set 0
        t.fill(a, 0, false, 0);
        t.fill(b, 1, false, 0);
        // b is MRU now; touching a should flip the order.
        t.touch(a, 0);
        let view = t.view(0);
        assert_eq!(view.lru_way(), Some(1));
        assert_eq!(view.recency_ranks(), [1, 0]);
        assert_eq!(view.fill_ranks(), [0, 1], "a touch leaves the fill order");
    }

    #[test]
    fn the_largest_associativity_is_supported() {
        let g = Geometry::from_sets(1, MAX_WAYS, 64);
        let mut t = TagStore::new(g);
        for line in 0..u64::from(MAX_WAYS) {
            t.fill(LineAddr(line), line as usize, false, 0);
        }
        t.touch(LineAddr(0), 0);
        let v = t.view(0);
        assert_eq!(v.recency_ranks()[0], 255);
        assert_eq!(v.lru_way(), Some(1));
        assert_eq!(v.oldest_fill_way(), Some(0));
    }

    #[test]
    #[should_panic(expected = "at most 256 ways")]
    fn associativity_above_the_rank_width_is_refused() {
        let _ = TagStore::new(Geometry::from_sets(1, MAX_WAYS + 1, 64));
    }

    #[test]
    fn set_cost_q_updates_resident_only() {
        let mut t = store();
        let a = LineAddr(3);
        assert!(!t.set_cost_q(a, 7));
        t.fill(a, 0, false, 0);
        assert!(t.set_cost_q(a, 7));
        assert_eq!(t.cost_q_of(a), Some(7));
    }

    #[test]
    fn mark_dirty_sets_bit() {
        let mut t = store();
        let a = LineAddr(7);
        t.fill(a, 0, false, 0);
        t.mark_dirty_at(a, 0);
        // Line 11 maps to the same set; refilling the way evicts `a`.
        let ev = t.fill(LineAddr(11), 0, false, 0).unwrap();
        assert_eq!(ev.line, a);
        assert!(ev.dirty);
    }

    #[test]
    fn view_exposes_columns_consistently() {
        let mut t = store();
        t.fill(LineAddr(0), 0, false, 2);
        t.fill(LineAddr(4), 1, true, 6);
        let v = t.view(0);
        assert!(v.valid(0) && v.valid(1));
        assert_eq!(v.cost_q(0), 2);
        assert_eq!(v.cost_q(1), 6);
        assert_eq!(v.line_of(0), Some(LineAddr(0)));
        assert_eq!(v.line_of(1), Some(LineAddr(4)));
        assert_eq!(v.recency_ranks(), [0, 1], "fill order sets recency");
        assert_eq!(v.fill_ranks(), v.recency_ranks());
    }

    /// The structural check runs in every debug build: two valid ways
    /// sharing a rank break the recency permutation on the next touch.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recency ranks of valid ways must be a permutation")]
    fn a_duplicated_rank_fails_the_set_check() {
        let mut t = TagStore::new(Geometry::from_sets(1, 4, 64));
        for way in 0..4 {
            t.fill(LineAddr(way as u64), way, false, 0);
        }
        t.rank[1] = t.rank[0];
        t.touch(LineAddr(2), 2);
    }
}
