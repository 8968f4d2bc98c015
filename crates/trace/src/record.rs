//! The trace record format.

use serde::{Deserialize, Serialize};

/// Kind of memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load: the instruction window cannot retire past it until data
    /// returns.
    Load,
    /// A store: retires into the store buffer without blocking the window
    /// (unless the store buffer is full), per the paper's baseline.
    Store,
}

/// One memory access in a trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Access {
    /// The cache-line address (64-byte granularity).
    pub line: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Number of non-memory instructions *preceding* this access. Gaps of
    /// a window (128) or more isolate a miss from its predecessor.
    pub gap: u32,
}

impl Access {
    /// A load with the given line and gap.
    pub fn load(line: u64, gap: u32) -> Self {
        Access {
            line,
            kind: AccessKind::Load,
            gap,
        }
    }

    /// A store with the given line and gap.
    pub fn store(line: u64, gap: u32) -> Self {
        Access {
            line,
            kind: AccessKind::Store,
            gap,
        }
    }

    /// Instructions this record contributes (the access itself plus its
    /// gap).
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

/// A complete memory-reference trace.
///
/// # Example
///
/// ```
/// use mlpsim_trace::record::{Access, Trace};
/// let t = Trace::from_accesses(vec![Access::load(0, 10), Access::load(1, 0)]);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.instructions(), 12);
/// assert_eq!(t.unique_lines(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    accesses: Vec<Access>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Wraps a vector of accesses.
    pub fn from_accesses(accesses: Vec<Access>) -> Self {
        Trace { accesses }
    }

    /// Number of memory accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Total instruction count (accesses plus gaps).
    pub fn instructions(&self) -> u64 {
        self.accesses.iter().map(Access::instructions).sum()
    }

    /// Number of distinct cache lines touched.
    pub fn unique_lines(&self) -> u64 {
        let mut lines: Vec<u64> = self.accesses.iter().map(|a| a.line).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len() as u64
    }

    /// Iterator over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// The underlying access slice.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Appends an access.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_count_includes_gaps() {
        let t = Trace::from_accesses(vec![Access::load(0, 100), Access::store(1, 27)]);
        // (100 + 1) + (27 + 1) = 129
        assert_eq!(t.instructions(), 129);
    }

    #[test]
    fn unique_lines_dedups() {
        let t = Trace::from_accesses(vec![
            Access::load(5, 0),
            Access::load(5, 0),
            Access::store(5, 0),
            Access::load(9, 0),
        ]);
        assert_eq!(t.unique_lines(), 2);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = (0..4u64).map(|i| Access::load(i, 1)).collect();
        t.extend((4..6u64).map(|i| Access::store(i, 0)));
        assert_eq!(t.len(), 6);
        assert_eq!(t.iter().filter(|a| a.kind == AccessKind::Store).count(), 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.instructions(), 0);
        assert_eq!(t.unique_lines(), 0);
    }
}
