//! Instruction-fetch modeling.
//!
//! The paper's baseline has a 16 KB instruction cache (Table 2) and its
//! cost model explicitly counts instruction accesses that miss the L2 as
//! demand misses (§3.1). Traces carry no program counters, so the fetch
//! stream is synthesized from the instruction *count*: the code is
//! modeled as a loop of `code_lines` cache lines executed front to back,
//! with one instruction-cache access per [`INSTS_PER_LINE`] instructions
//! (4-byte instructions, 64-byte lines).
//!
//! A fetch that misses the I-cache blocks *dispatch* (not retirement)
//! until the line arrives; I-misses go to the L2 and, on an L2 miss,
//! allocate a demand MSHR entry — so instruction misses participate in
//! MLP-cost accounting exactly like loads, as the paper specifies.
//!
//! Instruction fetch is optional (`SystemConfig::icache = None` by
//! default): the SPEC CPU2000 subset the paper evaluates is data-bound,
//! with negligible I-miss rates. The `icache_effects` experiment turns it
//! on to show the interaction.

use mlpsim_cache::addr::Geometry;
use serde::{Deserialize, Serialize};

/// Instructions per 64-byte cache line (4-byte fixed-width ISA, as on the
/// paper's Alpha).
pub const INSTS_PER_LINE: u64 = 16;

/// Line-address base for the synthesized code region — far above the
/// data slots used by the workload generators.
pub const CODE_BASE_LINE: u64 = 1 << 40;

/// Configuration of the instruction-fetch model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IcacheConfig {
    /// Instruction-cache geometry (the paper's baseline: 16 KB, 4-way,
    /// 64-byte lines).
    pub geometry: Geometry,
    /// I-cache hit latency in cycles (2 in the baseline; hits are fully
    /// pipelined and charged nothing by the fetch model).
    pub hit_cycles: u64,
    /// Size of the executed code loop, in cache lines. Footprints under
    /// the I-cache capacity (256 lines at 16 KB) hit after one warm-up
    /// pass; larger footprints thrash.
    pub code_lines: u64,
}

impl IcacheConfig {
    /// The paper's baseline I-cache (Table 2) with a loop footprint that
    /// comfortably fits (a compute kernel).
    pub fn baseline(code_lines: u64) -> Self {
        IcacheConfig {
            geometry: Geometry::new(16 << 10, 4, 64).expect("baseline I-cache geometry"),
            hit_cycles: 2,
            code_lines: code_lines.max(1),
        }
    }
}

/// The synthetic fetch walker: maps a running instruction count onto
/// code-region line addresses.
#[derive(Clone, Copy, Debug)]
pub struct FetchWalker {
    code_lines: u64,
    /// Instructions dispatched so far.
    instructions: u64,
}

impl FetchWalker {
    /// Creates a walker over a loop of `code_lines` lines.
    ///
    /// # Panics
    ///
    /// Panics if `code_lines` is zero.
    pub fn new(code_lines: u64) -> Self {
        assert!(code_lines > 0, "code footprint must be non-empty");
        FetchWalker {
            code_lines,
            instructions: 0,
        }
    }

    /// Advances by one dispatched instruction; returns the line address to
    /// fetch if this instruction starts a new cache line.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "new() asserts a non-zero code_lines"
    )]
    pub fn advance(&mut self) -> Option<u64> {
        let needs_fetch = self.instructions.is_multiple_of(INSTS_PER_LINE);
        let line = (self.instructions / INSTS_PER_LINE) % self.code_lines;
        self.instructions = self.instructions.saturating_add(1);
        needs_fetch.then_some(CODE_BASE_LINE.wrapping_add(line))
    }

    /// Instructions walked so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_fetch_per_line_of_instructions() {
        let mut w = FetchWalker::new(4);
        let mut fetches = 0;
        for _ in 0..64 {
            if w.advance().is_some() {
                fetches += 1;
            }
        }
        assert_eq!(fetches, 4, "64 insts / 16 per line");
        assert_eq!(w.instructions(), 64);
    }

    #[test]
    fn code_loop_wraps() {
        let mut w = FetchWalker::new(2);
        let mut lines = Vec::new();
        for _ in 0..64 {
            if let Some(l) = w.advance() {
                lines.push(l - CODE_BASE_LINE);
            }
        }
        assert_eq!(lines, vec![0, 1, 0, 1]);
    }

    #[test]
    fn baseline_geometry_matches_table2() {
        let c = IcacheConfig::baseline(10);
        assert_eq!(c.geometry.capacity_bytes(), 16 << 10);
        assert_eq!(c.geometry.ways(), 4);
        assert_eq!(c.code_lines, 10);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_footprint_panics() {
        let _ = FetchWalker::new(0);
    }
}
