//! Reference numbers transcribed from the paper, used to print
//! paper-vs-measured comparisons in the experiment reports and to anchor
//! `EXPERIMENTS.md`.

use mlpsim_trace::spec::SpecBench;

/// Per-benchmark reference values from the paper.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// Benchmark.
    pub bench: SpecBench,
    /// Fig. 4 / Fig. 5 inset: IPC improvement (%) of LIN(λ=4) over LRU.
    pub lin_ipc_pct: f64,
    /// Fig. 5 inset: miss-count change (%) under LIN(λ=4).
    pub lin_miss_pct: f64,
    /// Fig. 9: IPC improvement (%) of SBAR over LRU (read from the bars;
    /// approximate where the paper gives no exact number).
    pub sbar_ipc_pct: f64,
    /// Table 1: % of deltas below 60 cycles.
    pub delta_lt60_pct: f64,
    /// Table 1: average delta in cycles.
    pub delta_avg: f64,
    /// Table 3: L2 misses (thousands) in the paper's 250 M-instruction
    /// slice.
    pub table3_misses_k: u64,
    /// Table 3: % compulsory misses.
    pub compulsory_pct: f64,
}

/// The paper's per-benchmark numbers.
///
/// `lin_ipc_pct`/`lin_miss_pct` come from the Fig. 5 insets; `sbar_ipc_pct`
/// from the Fig. 9 text and bars (ammp 18.3% and art ≈ 16% are quoted in
/// §6.6/§7.1; benchmarks where SBAR "maintains the performance improvement
/// provided by LIN" reuse the LIN number; the LIN-hostile trio is ≈ 0 with
/// a marginal loss). Table 1 and Table 3 values are verbatim.
pub const PAPER_ROWS: [PaperRow; 14] = [
    PaperRow {
        bench: SpecBench::Art,
        lin_ipc_pct: 19.0,
        lin_miss_pct: -31.0,
        sbar_ipc_pct: 16.0,
        delta_lt60_pct: 86.0,
        delta_avg: 27.0,
        table3_misses_k: 968,
        compulsory_pct: 0.5,
    },
    PaperRow {
        bench: SpecBench::Mcf,
        lin_ipc_pct: 22.0,
        lin_miss_pct: -11.0,
        sbar_ipc_pct: 22.0,
        delta_lt60_pct: 86.0,
        delta_avg: 36.0,
        table3_misses_k: 23_123,
        compulsory_pct: 2.2,
    },
    PaperRow {
        bench: SpecBench::Twolf,
        lin_ipc_pct: 1.5,
        lin_miss_pct: 7.0,
        sbar_ipc_pct: 1.5,
        delta_lt60_pct: 52.0,
        delta_avg: 99.0,
        table3_misses_k: 859,
        compulsory_pct: 2.9,
    },
    PaperRow {
        bench: SpecBench::Vpr,
        lin_ipc_pct: 15.0,
        lin_miss_pct: -9.0,
        sbar_ipc_pct: 15.0,
        delta_lt60_pct: 50.0,
        delta_avg: 96.0,
        table3_misses_k: 541,
        compulsory_pct: 4.3,
    },
    PaperRow {
        bench: SpecBench::Facerec,
        lin_ipc_pct: 4.4,
        lin_miss_pct: -3.0,
        sbar_ipc_pct: 4.4,
        delta_lt60_pct: 96.0,
        delta_avg: 18.0,
        table3_misses_k: 1_190,
        compulsory_pct: 18.0,
    },
    PaperRow {
        bench: SpecBench::Ammp,
        lin_ipc_pct: 4.2,
        lin_miss_pct: 4.0,
        sbar_ipc_pct: 18.3,
        delta_lt60_pct: 82.0,
        delta_avg: 43.0,
        table3_misses_k: 740,
        compulsory_pct: 5.1,
    },
    PaperRow {
        bench: SpecBench::Galgel,
        lin_ipc_pct: 5.1,
        lin_miss_pct: -6.0,
        sbar_ipc_pct: 7.0,
        delta_lt60_pct: 71.0,
        delta_avg: 63.0,
        table3_misses_k: 1_333,
        compulsory_pct: 5.9,
    },
    PaperRow {
        bench: SpecBench::Equake,
        lin_ipc_pct: 0.2,
        lin_miss_pct: 1.0,
        sbar_ipc_pct: 0.2,
        delta_lt60_pct: 78.0,
        delta_avg: 53.0,
        table3_misses_k: 464,
        compulsory_pct: 14.2,
    },
    PaperRow {
        bench: SpecBench::Bzip2,
        lin_ipc_pct: -3.3,
        lin_miss_pct: 6.0,
        sbar_ipc_pct: -0.5,
        delta_lt60_pct: 43.0,
        delta_avg: 126.0,
        table3_misses_k: 572,
        compulsory_pct: 15.5,
    },
    PaperRow {
        bench: SpecBench::Parser,
        lin_ipc_pct: -16.0,
        lin_miss_pct: 35.0,
        sbar_ipc_pct: -0.5,
        delta_lt60_pct: 43.0,
        delta_avg: 190.0,
        table3_misses_k: 382,
        compulsory_pct: 20.3,
    },
    PaperRow {
        bench: SpecBench::Sixtrack,
        lin_ipc_pct: 10.0,
        lin_miss_pct: -3.0,
        sbar_ipc_pct: 10.0,
        delta_lt60_pct: 100.0,
        delta_avg: 0.0,
        table3_misses_k: 150,
        compulsory_pct: 20.6,
    },
    PaperRow {
        bench: SpecBench::Apsi,
        lin_ipc_pct: 4.7,
        lin_miss_pct: -32.0,
        sbar_ipc_pct: 4.7,
        delta_lt60_pct: 85.0,
        delta_avg: 34.0,
        table3_misses_k: 740,
        compulsory_pct: 22.8,
    },
    PaperRow {
        bench: SpecBench::Lucas,
        lin_ipc_pct: 1.3,
        lin_miss_pct: 0.0,
        sbar_ipc_pct: 1.3,
        delta_lt60_pct: 84.0,
        delta_avg: 31.0,
        table3_misses_k: 441,
        compulsory_pct: 41.6,
    },
    PaperRow {
        bench: SpecBench::Mgrid,
        lin_ipc_pct: -33.0,
        lin_miss_pct: 3.0,
        sbar_ipc_pct: -0.5,
        delta_lt60_pct: 18.0,
        delta_avg: 187.0,
        table3_misses_k: 1_932,
        compulsory_pct: 46.6,
    },
];

/// Looks up the paper row for a benchmark.
pub fn paper_row(bench: SpecBench) -> &'static PaperRow {
    PAPER_ROWS
        .iter()
        .find(|r| r.bench == bench)
        .expect("every benchmark has a paper row")
}

/// Figure 1's per-iteration outcome for each policy: `(misses, stalls)`.
pub mod figure1 {
    /// Belady's OPT: 4 misses, 4 long-latency stalls per iteration.
    pub const OPT: (u64, u64) = (4, 4);
    /// LRU (footnote 2): 6 misses, 4 long-latency stalls per iteration.
    pub const LRU: (u64, u64) = (6, 4);
    /// The MLP-aware policy: 6 misses, 2 long-latency stalls per
    /// iteration.
    pub const MLP_AWARE: (u64, u64) = (6, 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_benchmarks_in_order() {
        assert_eq!(PAPER_ROWS.len(), SpecBench::ALL.len());
        for (row, bench) in PAPER_ROWS.iter().zip(SpecBench::ALL.iter()) {
            assert_eq!(row.bench, *bench);
        }
    }

    #[test]
    fn lookup_works() {
        assert_eq!(paper_row(SpecBench::Mgrid).lin_ipc_pct, -33.0);
        assert_eq!(paper_row(SpecBench::Art).lin_miss_pct, -31.0);
    }

    #[test]
    fn lin_hostile_trio_is_negative() {
        for b in [SpecBench::Bzip2, SpecBench::Parser, SpecBench::Mgrid] {
            assert!(paper_row(b).lin_ipc_pct < 0.0);
        }
    }
}
