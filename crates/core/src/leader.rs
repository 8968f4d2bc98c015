//! Leader-set selection for sampling-based hybrid replacement (paper §6.4).
//!
//! The cache's sets are divided into `K` equally sized *constituencies*;
//! one *leader set* is chosen from each. Leader sets carry ATD entries and
//! update the PSEL counter; follower sets merely obey the PSEL output.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How leader sets are chosen within their constituencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectionPolicy {
    /// The paper's `simple-static` policy: constituency `c` leads with the
    /// set at offset `c` ("set 0 from constituency 0, set 33 from
    /// constituency 1, …" for K = 32, N = 1024 — identifiable with a
    /// five-bit comparator and no storage).
    SimpleStatic,
    /// The paper's `rand-dynamic` policy: a uniformly random offset per
    /// constituency, re-drawn by [`LeaderSets::reselect`] (the paper
    /// re-invokes it every 25 M instructions).
    RandDynamic,
}

/// The set-sampling map: which sets of the cache are leader sets.
///
/// # Example
///
/// ```
/// use mlpsim_core::leader::{LeaderSets, SelectionPolicy};
/// // The paper's default: 32 leaders over 1024 sets, simple-static.
/// let l = LeaderSets::new(1024, 32, SelectionPolicy::SimpleStatic, 0);
/// assert!(l.is_leader(0));
/// assert!(l.is_leader(33));
/// assert!(l.is_leader(1023));
/// assert!(!l.is_leader(1));
/// assert_eq!(l.leaders().count(), 32);
/// ```
#[derive(Clone, Debug)]
pub struct LeaderSets {
    sets: u32,
    constituency_size: u32,
    /// Offset of the leader within each constituency.
    offsets: Vec<u32>,
    policy: SelectionPolicy,
    rng: SmallRng,
}

impl LeaderSets {
    /// Creates a sampling map with `k` leader sets over `sets` cache sets.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, `sets` is not divisible by `k`, or `k` exceeds
    /// `sets`.
    pub fn new(sets: u32, k: u32, policy: SelectionPolicy, seed: u64) -> Self {
        assert!(k > 0 && k <= sets, "leader count must be in 1..=sets");
        assert!(
            sets.is_multiple_of(k),
            "constituencies must be equally sized"
        );
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "k is asserted non-zero above"
        )]
        let constituency_size = sets / k;
        let mut rng = SmallRng::seed_from_u64(seed);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "constituency_size >= 1 because k <= sets"
        )]
        let offsets = match policy {
            SelectionPolicy::SimpleStatic => (0..k).map(|c| c % constituency_size).collect(),
            SelectionPolicy::RandDynamic => (0..k)
                .map(|_| rng.random_range(0..constituency_size))
                .collect(),
        };
        LeaderSets {
            sets,
            constituency_size,
            offsets,
            policy,
            rng,
        }
    }

    /// Number of leader sets (K).
    pub fn k(&self) -> u32 {
        crate::convert::idx_u32(self.offsets.len())
    }

    /// Number of cache sets covered (N).
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// The selection policy in use.
    pub fn policy(&self) -> SelectionPolicy {
        self.policy
    }

    /// Whether `set_index` is a leader set.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "constituency_size >= 1 because new() asserts k <= sets"
    )]
    pub fn is_leader(&self, set_index: u32) -> bool {
        debug_assert!(set_index < self.sets);
        let c = crate::convert::idx(set_index / self.constituency_size);
        self.offsets[c] == set_index % self.constituency_size
    }

    /// Iterator over the leader set indices, in ascending order.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "c < k and off < constituency_size, so each index is below sets"
    )]
    pub fn leaders(&self) -> impl Iterator<Item = u32> + '_ {
        self.offsets
            .iter()
            .enumerate()
            .map(move |(c, &off)| crate::convert::idx_u32(c) * self.constituency_size + off)
    }

    /// Re-draws the leader offsets (only meaningful for
    /// [`SelectionPolicy::RandDynamic`]; a no-op for `SimpleStatic`). The
    /// paper invokes this once every 25 M instructions.
    pub fn reselect(&mut self) {
        if self.policy == SelectionPolicy::RandDynamic {
            for off in &mut self.offsets {
                *off = self.rng.random_range(0..self.constituency_size);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_static_matches_paper_example() {
        // "if K=32 and N=1024, the simple-static policy selects sets 0, 33,
        // 66, 99, …" — i.e. multiples of 33.
        let l = LeaderSets::new(1024, 32, SelectionPolicy::SimpleStatic, 0);
        let leaders: Vec<u32> = l.leaders().collect();
        assert_eq!(leaders.len(), 32);
        for (i, &s) in leaders.iter().enumerate() {
            assert_eq!(s, 33 * i as u32);
        }
        assert_eq!(*leaders.last().unwrap(), 1023);
    }

    #[test]
    fn one_leader_per_constituency() {
        for &k in &[8u32, 16, 32] {
            let l = LeaderSets::new(1024, k, SelectionPolicy::SimpleStatic, 0);
            let size = 1024 / k;
            let mut per_constituency = vec![0u32; k as usize];
            for s in 0..1024u32 {
                if l.is_leader(s) {
                    per_constituency[(s / size) as usize] += 1;
                }
            }
            assert!(per_constituency.iter().all(|&c| c == 1), "k={k}");
        }
    }

    #[test]
    fn rand_dynamic_is_seeded_and_reselects() {
        let mut a = LeaderSets::new(1024, 32, SelectionPolicy::RandDynamic, 9);
        let b = LeaderSets::new(1024, 32, SelectionPolicy::RandDynamic, 9);
        let first: Vec<u32> = a.leaders().collect();
        assert_eq!(
            first,
            b.leaders().collect::<Vec<_>>(),
            "same seed, same leaders"
        );
        a.reselect();
        let second: Vec<u32> = a.leaders().collect();
        assert_ne!(
            first, second,
            "32 uniform redraws virtually never all repeat"
        );
        // Still exactly one per constituency.
        for (c, &s) in second.iter().enumerate() {
            assert_eq!(s / 32, c as u32);
        }
    }

    #[test]
    fn simple_static_reselect_is_noop() {
        let mut l = LeaderSets::new(64, 8, SelectionPolicy::SimpleStatic, 1);
        let before: Vec<u32> = l.leaders().collect();
        l.reselect();
        assert_eq!(before, l.leaders().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn indivisible_constituencies_panic() {
        let _ = LeaderSets::new(100, 32, SelectionPolicy::SimpleStatic, 0);
    }
}
