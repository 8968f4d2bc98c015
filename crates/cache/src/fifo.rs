//! First-in-first-out replacement (a non-recency baseline).

use crate::policy::{ReplacementEngine, VictimCtx};

/// FIFO replacement: evicts the valid way that was filled earliest,
/// regardless of how recently it was touched.
///
/// Not evaluated in the paper, but included as an extra baseline for the
/// replacement framework (and to exercise the fill-rank metadata).
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoEngine;

impl FifoEngine {
    /// Creates a FIFO engine.
    pub fn new() -> Self {
        FifoEngine
    }
}

impl ReplacementEngine for FifoEngine {
    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        ctx.set
            .oldest_fill_way()
            .expect("victim() is only invoked on full sets")
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Geometry, LineAddr};
    use crate::model::CacheModel;

    #[test]
    fn evicts_in_fill_order_despite_touches() {
        let g = Geometry::from_sets(1, 3, 64);
        let mut c = CacheModel::new(g, Box::new(FifoEngine::new()));
        c.access(LineAddr(0), false, 0);
        c.access(LineAddr(1), false, 1);
        c.access(LineAddr(2), false, 2);
        // Touch 0 repeatedly; FIFO must still evict it first.
        c.access(LineAddr(0), false, 3);
        c.access(LineAddr(0), false, 4);
        let res = c.access(LineAddr(9), false, 5);
        assert_eq!(res.evicted.unwrap().line, LineAddr(0));
        let res = c.access(LineAddr(12), false, 6);
        assert_eq!(res.evicted.unwrap().line, LineAddr(1));
    }
}
