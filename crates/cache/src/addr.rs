//! Line-address and cache-geometry arithmetic.
//!
//! Every address handled by the simulator is a [`LineAddr`]: a byte address
//! with the line offset already stripped. The paper's caches all use 64-byte
//! lines, but the arithmetic here is generic over the line size.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A cache-line address: the byte address divided by the line size.
///
/// Two byte addresses that fall in the same cache line map to the same
/// `LineAddr`, which is how "multiple concurrent misses to the same cache
/// block are treated as a single miss" (paper §1, footnote 1) falls out of
/// the model naturally.
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::LineAddr;
/// let a = LineAddr::from_byte_addr(0x1040, 64);
/// let b = LineAddr::from_byte_addr(0x1070, 64);
/// assert_eq!(a, b); // same 64-byte line
/// assert_eq!(a.byte_addr(64), 0x1040);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default, Serialize, Deserialize,
)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Converts a raw byte address into a line address.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "line_bytes is asserted non-zero above"
    )]
    pub fn from_byte_addr(addr: u64, line_bytes: u32) -> Self {
        assert!(line_bytes > 0, "line size must be non-zero");
        LineAddr(addr / u64::from(line_bytes))
    }

    /// Returns the byte address of the first byte in this line.
    ///
    /// Addresses are modular in the 64-bit physical space, so the
    /// expansion back to bytes wraps rather than panics on a
    /// pathological synthetic line number.
    #[inline]
    pub fn byte_addr(self, line_bytes: u32) -> u64 {
        self.0.wrapping_mul(u64::from(line_bytes))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

/// Error returned when a [`Geometry`] is requested with invalid parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeometryError {
    /// Capacity, associativity, or line size was zero.
    ZeroParameter,
    /// Capacity is not divisible by `ways * line_bytes`.
    NotDivisible,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroParameter => write!(f, "geometry parameter was zero"),
            GeometryError::NotDivisible => {
                write!(f, "capacity is not divisible by ways * line_bytes")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// The shape of a set-associative cache: number of sets, associativity, and
/// line size.
///
/// The paper's baseline L2 is 1 MB, 16-way, 64-byte lines → 1024 sets
/// (Table 2), available as [`Geometry::baseline_l2`].
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::Geometry;
/// let l2 = Geometry::baseline_l2();
/// assert_eq!(l2.sets(), 1024);
/// assert_eq!(l2.ways(), 16);
/// assert_eq!(l2.capacity_bytes(), 1 << 20);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Geometry {
    sets: u32,
    ways: u16,
    line_bytes: u32,
}

impl Geometry {
    /// Creates a geometry from total capacity in bytes, associativity, and
    /// line size.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any parameter is zero or the capacity is
    /// not an exact multiple of `ways * line_bytes`.
    pub fn new(capacity_bytes: u64, ways: u16, line_bytes: u32) -> Result<Self, GeometryError> {
        if capacity_bytes == 0 || ways == 0 || line_bytes == 0 {
            return Err(GeometryError::ZeroParameter);
        }
        #[expect(clippy::arithmetic_side_effects, reason = "u16 × u32 fits in u64")]
        let set_bytes = u64::from(ways) * u64::from(line_bytes);
        if !capacity_bytes.is_multiple_of(set_bytes) {
            return Err(GeometryError::NotDivisible);
        }
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "set_bytes is non-zero: both factors are checked above"
        )]
        let sets = capacity_bytes / set_bytes;
        Ok(Geometry {
            sets: u32::try_from(sets).expect("set count fits in u32"),
            ways,
            line_bytes,
        })
    }

    /// Creates a geometry directly from a set count, associativity, and line
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn from_sets(sets: u32, ways: u16, line_bytes: u32) -> Self {
        assert!(
            sets > 0 && ways > 0 && line_bytes > 0,
            "geometry parameters must be non-zero"
        );
        Geometry {
            sets,
            ways,
            line_bytes,
        }
    }

    /// The paper's baseline L2: 1 MB, 16-way, 64-byte lines (Table 2).
    pub fn baseline_l2() -> Self {
        Geometry::new(1 << 20, 16, 64).expect("baseline L2 geometry is valid")
    }

    /// The paper's baseline L1 data cache: 16 KB, 4-way, 64-byte lines.
    pub fn baseline_l1d() -> Self {
        Geometry::new(16 << 10, 4, 64).expect("baseline L1D geometry is valid")
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (ways per set).
    #[inline]
    pub fn ways(&self) -> u16 {
        self.ways
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.lines().saturating_mul(u64::from(self.line_bytes))
    }

    /// Total number of lines the cache can hold.
    #[inline]
    #[expect(clippy::arithmetic_side_effects, reason = "u32 × u16 fits in u64")]
    pub fn lines(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways)
    }

    /// Set index for a line address (modulo indexing, as in the paper's
    /// baseline). A power-of-two set count, which every paper geometry
    /// has, takes a mask instead of a 64-bit division.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "both constructors reject a zero set count"
    )]
    pub fn set_index(&self, line: LineAddr) -> u32 {
        if self.sets.is_power_of_two() {
            (line.0 & u64::from(self.sets - 1)) as u32
        } else {
            (line.0 % u64::from(self.sets)) as u32
        }
    }

    /// Tag for a line address: the line address with the set-index bits
    /// removed (a shift for a power-of-two set count).
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "both constructors reject a zero set count"
    )]
    pub fn tag(&self, line: LineAddr) -> u64 {
        if self.sets.is_power_of_two() {
            line.0 >> self.sets.trailing_zeros()
        } else {
            line.0 / u64::from(self.sets)
        }
    }

    /// Reconstructs a line address from a `(tag, set_index)` pair; the
    /// inverse of [`Geometry::tag`] + [`Geometry::set_index`].
    #[inline]
    pub fn line_from_parts(&self, tag: u64, set_index: u32) -> LineAddr {
        // Exact inverse of `tag` (division) + `set_index` (modulo): for
        // any pair they produced, the product re-assembles a value that
        // already fit in u64, so the wrap never fires on round trips.
        LineAddr(
            tag.wrapping_mul(u64::from(self.sets))
                .wrapping_add(u64::from(set_index)),
        )
    }

    /// Converts a raw byte address into a line address using this geometry's
    /// line size.
    #[inline]
    pub fn line_of_byte_addr(&self, addr: u64) -> LineAddr {
        LineAddr::from_byte_addr(addr, self.line_bytes)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sets x {} ways x {}B lines ({} KB)",
            self.sets,
            self.ways,
            self.line_bytes,
            self.capacity_bytes() / 1024
        )
    }
}

/// Fixed multiplicative hasher for line addresses: a 128-bit multiply by
/// a 64-bit odd constant, folded, so both halves of the line address reach
/// the bucket bits. It has no per-process seed and costs a few cycles,
/// against SipHash's few dozen.
///
/// A map or set keyed by line under this hasher keeps the simulation
/// deterministic only while it is never iterated: lookups, inserts and
/// removals do not depend on bucket layout, but iteration order does (lint
/// rule D1 forbids iterating hash maps in the simulation crates). Its keys
/// are simulated line addresses, never network input; a trace crafted to
/// collide would only slow its own simulation.
///
/// # Example
///
/// ```
/// use mlpsim_cache::addr::{LineAddr, LineBuildHasher};
/// use std::collections::HashSet;
///
/// let mut seen: HashSet<LineAddr, LineBuildHasher> = HashSet::default();
/// assert!(seen.insert(LineAddr(7)));
/// assert!(!seen.insert(LineAddr(7)));
/// ```
#[derive(Clone, Copy, Default, Debug)]
pub struct LineHasher(u64);

/// The [`BuildHasher`](std::hash::BuildHasher) for [`LineHasher`].
pub type LineBuildHasher = std::hash::BuildHasherDefault<LineHasher>;

impl std::hash::Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extreme_addresses_round_trip_without_panicking() {
        // The spelled-out bounds (D7): address expansion is modular, so
        // even a synthetic top-of-space line neither panics nor alters
        // the exact round trip for values that fit.
        let near_top = LineAddr(u64::MAX / 64);
        assert_eq!(
            LineAddr::from_byte_addr(near_top.byte_addr(64), 64),
            near_top
        );
        let g = Geometry::new(1 << 20, 16, 64).expect("valid baseline-like geometry");
        let line = LineAddr(u64::MAX / 64);
        assert_eq!(g.line_from_parts(g.tag(line), g.set_index(line)), line);
        // A pathological all-ones line wraps (modular) instead of aborting.
        let _ = LineAddr(u64::MAX).byte_addr(64);
    }

    #[test]
    fn line_addr_strips_offset() {
        let a = LineAddr::from_byte_addr(0x1000, 64);
        let b = LineAddr::from_byte_addr(0x103F, 64);
        let c = LineAddr::from_byte_addr(0x1040, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.byte_addr(64), 0x1000);
    }

    #[test]
    fn baseline_l2_matches_table2() {
        let g = Geometry::baseline_l2();
        assert_eq!(g.sets(), 1024);
        assert_eq!(g.ways(), 16);
        assert_eq!(g.line_bytes(), 64);
        assert_eq!(g.capacity_bytes(), 1 << 20);
        assert_eq!(g.lines(), 16384);
    }

    #[test]
    fn baseline_l1d_matches_table2() {
        let g = Geometry::baseline_l1d();
        assert_eq!(g.sets(), 64);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.capacity_bytes(), 16 << 10);
    }

    #[test]
    fn geometry_rejects_bad_parameters() {
        assert_eq!(Geometry::new(0, 4, 64), Err(GeometryError::ZeroParameter));
        assert_eq!(
            Geometry::new(1024, 0, 64),
            Err(GeometryError::ZeroParameter)
        );
        assert_eq!(Geometry::new(1024, 4, 0), Err(GeometryError::ZeroParameter));
        assert_eq!(Geometry::new(100, 4, 64), Err(GeometryError::NotDivisible));
    }

    #[test]
    fn tag_set_round_trip() {
        let g = Geometry::baseline_l2();
        for raw in [0u64, 1, 1023, 1024, 999_999_937, u64::MAX / 64] {
            let line = LineAddr(raw);
            let tag = g.tag(line);
            let set = g.set_index(line);
            assert_eq!(g.line_from_parts(tag, set), line);
        }
    }

    #[test]
    fn set_index_is_modulo() {
        let g = Geometry::from_sets(8, 2, 64);
        assert_eq!(g.set_index(LineAddr(0)), 0);
        assert_eq!(g.set_index(LineAddr(7)), 7);
        assert_eq!(g.set_index(LineAddr(8)), 0);
        assert_eq!(g.set_index(LineAddr(19)), 3);
    }

    #[test]
    fn display_is_informative() {
        let g = Geometry::baseline_l2();
        let s = format!("{g}");
        assert!(s.contains("1024 sets"));
        assert!(s.contains("16 ways"));
    }
}
