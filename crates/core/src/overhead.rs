//! Hardware bit-budget model (paper §1.2: SBAR costs 1854 B, "less than
//! 0.2% area of the baseline 1MB cache").
//!
//! The model is parameterized so the ablation experiments can sweep leader
//! counts and PSEL widths and watch the budget move.

use mlpsim_cache::addr::Geometry;

/// Parameters of the overhead calculation.
#[derive(Clone, Copy, Debug)]
pub struct OverheadParams {
    /// Cache geometry of the main tag directory.
    pub geometry: Geometry,
    /// Physical address width in bits (mid-2000s high-end: 40).
    pub phys_addr_bits: u32,
    /// Number of leader sets carrying ATD entries.
    pub leader_sets: u32,
    /// PSEL counter width in bits.
    pub psel_bits: u32,
    /// Width of the quantized cost field stored per tag (3 bits).
    pub cost_q_bits: u32,
    /// MSHR entries carrying an `mlp_cost` accumulator.
    pub mshr_entries: u32,
    /// Width of the per-MSHR-entry cost accumulator. 10 bits count cycles
    /// up to 1023, enough headroom over the 444-cycle isolated miss.
    pub mshr_cost_bits: u32,
}

impl OverheadParams {
    /// The paper's baseline: 1 MB 16-way L2, 40-bit physical addresses,
    /// 32 leader sets, 6-bit PSEL, 3-bit cost_q, 32 MSHR entries.
    pub fn paper_baseline() -> Self {
        OverheadParams {
            geometry: Geometry::baseline_l2(),
            phys_addr_bits: 40,
            leader_sets: 32,
            psel_bits: 6,
            cost_q_bits: 3,
            mshr_entries: 32,
            mshr_cost_bits: 10,
        }
    }

    /// Tag width: physical address minus set-index and line-offset bits.
    pub fn tag_bits(&self) -> u32 {
        let index_bits = crate::convert::trunc_u32(f64::from(self.geometry.sets()).log2().ceil());
        let offset_bits =
            crate::convert::trunc_u32(f64::from(self.geometry.line_bytes()).log2().ceil());
        // A geometry larger than the physical address space would wrap
        // here; saturate to zero tag bits instead.
        self.phys_addr_bits
            .saturating_sub(index_bits)
            .saturating_sub(offset_bits)
    }

    /// Bits per ATD entry: tag + valid + LRU stack position.
    pub fn atd_entry_bits(&self) -> u32 {
        let lru_bits = crate::convert::trunc_u32(f64::from(self.geometry.ways()).log2().ceil());
        self.tag_bits().saturating_add(1).saturating_add(lru_bits)
    }
}

/// Itemized storage overhead, in bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Overhead {
    /// Auxiliary-tag-directory storage (leader sets × ways × entry bits).
    pub atd_bits: u64,
    /// Policy-selector counter(s).
    pub psel_bits: u64,
    /// Quantized-cost fields added to the main tag store.
    pub cost_q_bits: u64,
    /// Per-MSHR-entry cost accumulators.
    pub mshr_bits: u64,
}

impl Overhead {
    /// Total overhead in bits.
    pub fn total_bits(&self) -> u64 {
        self.atd_bits
            .saturating_add(self.psel_bits)
            .saturating_add(self.cost_q_bits)
            .saturating_add(self.mshr_bits)
    }

    /// Total overhead in bytes (rounded up).
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }

    /// Overhead as a fraction of a cache's data capacity.
    pub fn fraction_of(&self, geometry: Geometry) -> f64 {
        crate::convert::cycles_f64(self.total_bytes())
            / crate::convert::cycles_f64(geometry.capacity_bytes())
    }
}

/// The adaptation overhead of SBAR alone: one ATD covering only the leader
/// sets, plus a single PSEL. This is the quantity the paper prices at
/// 1854 B (§1.2); with 40-bit addresses the model yields 1856 B — a 2-byte
/// rounding difference from the paper's unstated tag width.
pub fn sbar_overhead(p: &OverheadParams) -> Overhead {
    let entries = u64::from(p.leader_sets).saturating_mul(u64::from(p.geometry.ways()));
    Overhead {
        atd_bits: entries.saturating_mul(u64::from(p.atd_entry_bits())),
        psel_bits: u64::from(p.psel_bits),
        cost_q_bits: 0,
        mshr_bits: 0,
    }
}

/// The overhead of MLP-aware replacement itself (independent of SBAR): the
/// 3-bit `cost_q` per main-tag-store entry and the CCL's per-MSHR-entry
/// accumulators.
pub fn lin_overhead(p: &OverheadParams) -> Overhead {
    Overhead {
        atd_bits: 0,
        psel_bits: 0,
        cost_q_bits: p.geometry.lines().saturating_mul(u64::from(p.cost_q_bits)),
        mshr_bits: u64::from(p.mshr_entries).saturating_mul(u64::from(p.mshr_cost_bits)),
    }
}

/// Overhead of CBS-local or CBS-global: two full-size ATDs (LIN and LRU)
/// plus PSEL counters (`sets` of them for local, one for global). This is
/// what makes CBS impractical and motivates sampling.
pub fn cbs_overhead(p: &OverheadParams, local: bool) -> Overhead {
    let entries = p.geometry.lines().saturating_mul(2); // two full ATDs
    let psel_count = if local {
        u64::from(p.geometry.sets())
    } else {
        1
    };
    Overhead {
        atd_bits: entries.saturating_mul(u64::from(p.atd_entry_bits())),
        psel_bits: psel_count.saturating_mul(u64::from(p.psel_bits)),
        cost_q_bits: 0,
        mshr_bits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_tag_is_24_bits() {
        let p = OverheadParams::paper_baseline();
        // 40 - 10 (1024 sets) - 6 (64 B lines) = 24.
        assert_eq!(p.tag_bits(), 24);
        // 24 + 1 valid + 4 LRU = 29 bits per ATD entry.
        assert_eq!(p.atd_entry_bits(), 29);
    }

    #[test]
    fn sbar_overhead_matches_papers_1854_bytes() {
        let p = OverheadParams::paper_baseline();
        let o = sbar_overhead(&p);
        // 32 sets × 16 ways × 29 bits + 6 = 14854 bits = 1857 B; the paper
        // quotes 1854 B. Allow a ±8 B window for the unstated tag width.
        let bytes = o.total_bytes();
        assert!((1846..=1862).contains(&bytes), "got {bytes} B");
        // And well under 0.2% of the 1 MB cache.
        assert!(o.fraction_of(p.geometry) < 0.002);
    }

    #[test]
    fn cbs_needs_64x_more_atd_entries_than_sbar() {
        let p = OverheadParams::paper_baseline();
        let sbar = sbar_overhead(&p);
        let cbs = cbs_overhead(&p, true);
        // "SBAR requires 64 times fewer ATD entries than CBS-local or
        // CBS-global" (§6.6): 2 × 1024 sets vs 1 × 32 sets.
        assert_eq!(cbs.atd_bits / sbar.atd_bits, 64);
    }

    #[test]
    fn lin_overhead_is_dominated_by_cost_q_fields() {
        let p = OverheadParams::paper_baseline();
        let o = lin_overhead(&p);
        assert_eq!(o.cost_q_bits, 16384 * 3);
        assert_eq!(o.mshr_bits, 32 * 10);
        assert!(o.cost_q_bits > 10 * o.mshr_bits);
    }

    #[test]
    fn fewer_leader_sets_cost_proportionally_less() {
        let mut p = OverheadParams::paper_baseline();
        let full = sbar_overhead(&p).atd_bits;
        p.leader_sets = 8;
        assert_eq!(sbar_overhead(&p).atd_bits * 4, full);
    }
}
