//! Read-only views of a cache set, handed to replacement engines.

use crate::addr::{Geometry, LineAddr};
use crate::meta::{CostQ, WayMeta};

/// A read-only view of one cache set at victim-selection time.
///
/// Engines use this to inspect the candidate ways: their validity, recency
/// and fill ranks, `cost_q`, and the line addresses they hold. The view
/// also knows the cache [`Geometry`] so tags can be turned back into
/// [`LineAddr`]s (needed by Belady's OPT, which indexes its
/// future-knowledge table by line address).
///
/// The view borrows one column slice per metadata field (struct-of-arrays,
/// mirroring [`TagStore`](crate::tagstore::TagStore)'s layout) rather than
/// a slice of per-way structs: victim selection scans one field across all
/// ways at a time (all tags, then all ranks, …), so packing each field
/// contiguously keeps those scans within a cache line or two. To build a
/// view from standalone [`WayMeta`] records (tests, benchmarks), go
/// through [`OwnedSet`].
#[derive(Clone, Copy, Debug)]
pub struct SetView<'a> {
    valid: &'a [bool],
    tag: &'a [u64],
    rank: &'a [u8],
    fill_rank: &'a [u8],
    cost_q: &'a [CostQ],
    set_index: u32,
    geometry: Geometry,
}

impl<'a> SetView<'a> {
    /// Creates a view over one set's metadata columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns' lengths disagree with each other or with the
    /// geometry's associativity.
    pub fn new(
        valid: &'a [bool],
        tag: &'a [u64],
        rank: &'a [u8],
        fill_rank: &'a [u8],
        cost_q: &'a [CostQ],
        set_index: u32,
        geometry: Geometry,
    ) -> Self {
        let assoc = usize::from(geometry.ways());
        assert!(
            valid.len() == assoc
                && tag.len() == assoc
                && rank.len() == assoc
                && fill_rank.len() == assoc
                && cost_q.len() == assoc,
            "set view must cover exactly one set"
        );
        SetView {
            valid,
            tag,
            rank,
            fill_rank,
            cost_q,
            set_index,
            geometry,
        }
    }

    /// Whether `way` holds a valid block.
    #[inline]
    pub fn valid(&self, way: usize) -> bool {
        self.valid[way]
    }

    /// Tag of the block in `way` (meaningless when `!valid(way)`).
    #[inline]
    pub fn tag(&self, way: usize) -> u64 {
        self.tag[way]
    }

    /// Quantized MLP-based cost stored with `way`'s block.
    #[inline]
    pub fn cost_q(&self, way: usize) -> CostQ {
        self.cost_q[way]
    }

    /// Number of ways (associativity).
    #[inline]
    pub fn assoc(&self) -> usize {
        self.valid.len()
    }

    /// Index of this set within the cache.
    #[inline]
    pub fn set_index(&self) -> u32 {
        self.set_index
    }

    /// The cache geometry this set belongs to.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The line address resident in `way`, or `None` if the way is invalid.
    #[inline]
    pub fn line_of(&self, way: usize) -> Option<LineAddr> {
        self.valid[way].then(|| self.geometry.line_from_parts(self.tag[way], self.set_index))
    }

    /// Iterator over the indices of valid ways, in way order.
    pub fn valid_ways(&self) -> impl Iterator<Item = usize> + 'a {
        self.valid
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| i)
    }

    /// The first invalid way, if any.
    pub fn first_invalid(&self) -> Option<usize> {
        self.valid.iter().position(|&v| !v)
    }

    /// Number of valid ways.
    pub fn valid_count(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// LRU-stack positions of every way: `ranks[i]` is `R(i)` as defined in
    /// the paper (§5.1) — 0 for the least-recently-used valid way up to
    /// `valid_count() - 1` for the MRU way. Invalid ways hold 0.
    ///
    /// The tag store keeps these ranks up to date on every touch and fill,
    /// so this is the stored column itself: no allocation, no ranking.
    #[inline]
    pub fn recency_ranks(&self) -> &'a [u8] {
        crate::invariant!(
            is_rank_permutation(self.valid, self.rank),
            "recency ranks of valid ways must be a permutation of 0..valid_count"
        );
        self.rank
    }

    /// Validity of every way, as a column.
    #[inline]
    pub fn valid_flags(&self) -> &'a [bool] {
        self.valid
    }

    /// The stored `cost_q` of every way, as a column (meaningless for
    /// invalid ways).
    #[inline]
    pub fn cost_qs(&self) -> &'a [CostQ] {
        self.cost_q
    }

    /// Fill-order positions of every way: 0 for the valid way filled
    /// earliest up to `valid_count() - 1` for the newest fill. Invalid ways
    /// hold 0.
    #[inline]
    pub fn fill_ranks(&self) -> &'a [u8] {
        self.fill_rank
    }

    /// The valid way at recency rank 0 (the LRU way), or `None` if the set
    /// is empty.
    pub fn lru_way(&self) -> Option<usize> {
        first_valid_at_rank_zero(self.valid, self.rank)
    }

    /// The valid way at fill rank 0 (the FIFO victim), or `None` if the set
    /// is empty.
    pub fn oldest_fill_way(&self) -> Option<usize> {
        first_valid_at_rank_zero(self.valid, self.fill_rank)
    }
}

#[inline]
fn first_valid_at_rank_zero(valid: &[bool], ranks: &[u8]) -> Option<usize> {
    valid.iter().zip(ranks).position(|(&v, &r)| v && r == 0)
}

/// Whether the valid ways' `ranks` are a permutation of `0..valid_count`
/// — the recency stack orders every resident block exactly once, the
/// property Eq. 1's `R(i)` and the LIN policy's rank term rely on. The
/// model checks under the `invariants` feature call this; it does not
/// allocate, so it can run on the victim path.
#[cfg(any(test, feature = "invariants"))]
pub(crate) fn is_rank_permutation(valid: &[bool], ranks: &[u8]) -> bool {
    let mut seen = [0u64; 4];
    let mut count = 0usize;
    for (&v, &r) in valid.iter().zip(ranks) {
        if !v {
            continue;
        }
        let (word, bit) = (usize::from(r) / 64, 1u64 << (r % 64));
        if seen[word] & bit != 0 {
            return false;
        }
        seen[word] |= bit;
        count += 1;
    }
    // `count` distinct ranks are exactly 0..count iff none reaches count.
    valid
        .iter()
        .zip(ranks)
        .all(|(&v, &r)| !v || usize::from(r) < count)
}

/// One set's metadata in owned column form — the bridge from standalone
/// [`WayMeta`] records to a [`SetView`].
///
/// The tag store keeps its metadata as whole-cache columns and hands out
/// borrowed views directly; code that builds a set from scratch (unit
/// tests, property tests, benchmarks) assembles `WayMeta` values and goes
/// through this adapter instead.
#[derive(Clone, Debug)]
pub struct OwnedSet {
    valid: Vec<bool>,
    tag: Vec<u64>,
    rank: Vec<u8>,
    fill_rank: Vec<u8>,
    cost_q: Vec<CostQ>,
    set_index: u32,
    geometry: Geometry,
}

impl OwnedSet {
    /// Transposes per-way records into columns.
    ///
    /// # Panics
    ///
    /// Panics (via [`SetView::new`] at view time) if `ways.len()` does not
    /// match the geometry's associativity.
    pub fn from_ways(ways: &[WayMeta], set_index: u32, geometry: Geometry) -> Self {
        OwnedSet {
            valid: ways.iter().map(|w| w.valid).collect(),
            tag: ways.iter().map(|w| w.tag).collect(),
            rank: ways.iter().map(|w| w.rank).collect(),
            fill_rank: ways.iter().map(|w| w.fill_rank).collect(),
            cost_q: ways.iter().map(|w| w.cost_q).collect(),
            set_index,
            geometry,
        }
    }

    /// A view borrowing this set's columns.
    pub fn view(&self) -> SetView<'_> {
        SetView::new(
            &self.valid,
            &self.tag,
            &self.rank,
            &self.fill_rank,
            &self.cost_q,
            self.set_index,
            self.geometry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Geometry;

    fn meta(valid: bool, tag: u64, rank: u8, fill_rank: u8) -> WayMeta {
        WayMeta {
            valid,
            tag,
            rank,
            fill_rank,
            cost_q: 0,
            dirty: false,
        }
    }

    #[test]
    fn ranks_are_the_stored_column() {
        let g = Geometry::from_sets(4, 4, 64);
        let ways = [
            meta(true, 1, 2, 0),
            meta(true, 2, 0, 1),
            meta(true, 3, 3, 2),
            meta(true, 4, 1, 3),
        ];
        let set = OwnedSet::from_ways(&ways, 0, g);
        let v = set.view();
        assert_eq!(v.recency_ranks(), [2, 0, 3, 1]);
        assert_eq!(v.fill_ranks(), [0, 1, 2, 3]);
        assert_eq!(v.lru_way(), Some(1));
        assert_eq!(v.oldest_fill_way(), Some(0));
    }

    #[test]
    fn invalid_ways_are_skipped() {
        let g = Geometry::from_sets(4, 4, 64);
        let ways = [
            meta(true, 1, 0, 1),
            meta(false, 0, 0, 0),
            meta(true, 3, 1, 0),
            meta(false, 0, 0, 0),
        ];
        let set = OwnedSet::from_ways(&ways, 2, g);
        let v = set.view();
        assert_eq!(v.valid_count(), 2);
        assert_eq!(v.first_invalid(), Some(1));
        assert_eq!(v.recency_ranks(), [0, 0, 1, 0]);
        assert_eq!(v.lru_way(), Some(0));
        assert_eq!(v.oldest_fill_way(), Some(2));
        assert_eq!(v.valid_ways().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn rank_permutation_check() {
        let valid = [true, false, true, true];
        assert!(is_rank_permutation(&valid, &[2, 0, 0, 1]));
        assert!(!is_rank_permutation(&valid, &[2, 0, 2, 1]), "duplicate");
        assert!(!is_rank_permutation(&valid, &[3, 0, 0, 1]), "gap");
        assert!(is_rank_permutation(&[false; 3], &[0, 0, 0]));
    }

    #[test]
    fn line_of_reconstructs_address() {
        let g = Geometry::from_sets(8, 2, 64);
        let ways = [meta(true, 5, 0, 0), meta(false, 0, 0, 0)];
        let set = OwnedSet::from_ways(&ways, 3, g);
        let v = set.view();
        assert_eq!(v.line_of(0), Some(LineAddr(5 * 8 + 3)));
        assert_eq!(v.line_of(1), None);
    }

    #[test]
    #[should_panic(expected = "exactly one set")]
    fn wrong_width_panics() {
        let g = Geometry::from_sets(4, 4, 64);
        let ways = [meta(true, 1, 0, 0)];
        let _ = OwnedSet::from_ways(&ways, 0, g).view();
    }
}
