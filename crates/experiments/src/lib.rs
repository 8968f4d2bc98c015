#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Experiment harness: one binary per paper table/figure.
//!
//! Binaries (run with `cargo run -p mlpsim-experiments --release --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1` | Figure 1: OPT vs LRU vs MLP-aware on the motivating loop |
//! | `fig2` | Figure 2: mlp-cost distribution per benchmark |
//! | `table1` | Table 1: delta (cost-predictability) distribution |
//! | `table2` | Table 2: baseline machine configuration |
//! | `table3` | Table 3: benchmark summary (misses, compulsory %) |
//! | `fig3b` | Figure 3(b): cost quantization map |
//! | `fig4` | Figure 4: IPC improvement of LIN(λ), λ = 1..4 |
//! | `fig5` | Figure 5: cost distribution under LRU vs LIN + ΔMISS/ΔIPC |
//! | `fig6` | Figure 6: the CBS PSEL update rule (mechanism demo) |
//! | `fig7` | Figure 7: hybrid-replacement organizations (structure + budgets) |
//! | `fig8` | Figure 8: analytical sampling model |
//! | `fig9` | Figure 9: LIN vs SBAR IPC improvement |
//! | `fig10` | Figure 10: leader-set selection policy / count sweep |
//! | `fig11` | Figure 11: ammp time-series case study |
//! | `cbs_compare` | §6.6: SBAR vs CBS-global vs CBS-local |
//! | `overhead` | §6.4: hardware-overhead budget (1854 B claim) |
//! | `ablate_adders` | footnote 3: 4 shared adders vs per-entry adders |
//! | `ablate_stall_accounting` | footnote 4: stall-cycles-only cost accrual |
//! | `ablate_lambda` | extension: LIN(λ) past the paper's λ = 4 |
//! | `care_alternatives` | extension: BCL as an alternative cost-sensitive CARE |
//! | `measure_p` | extension: §6.3's per-set preference fraction, measured |
//! | `sweep_cache` | extension: LIN/SBAR across L2 capacities |
//! | `sweep_latency` | extension: LIN/SBAR across memory latencies |
//! | `sweep_mlp_limits` | extension: window and MSHR size sweeps |
//! | `multi_seed` | extension: headline deltas across seeds (mean ± CI) |
//! | `icache_effects` | extension: instruction-fetch modeling |
//! | `wrong_path_effects` | extension: wrong-path traffic and demotion |
//! | `prefetch_effects` | extension: next-line prefetching interaction |
//! | `calibrate` | (internal) generator-tuning dashboard |
//! | `debug_regions` | (internal) per-region miss diagnosis |
//! | `debug_phases` | (internal) per-interval policy comparison |
//! | `all` | runs every experiment (concurrently, output in order) |
//!
//! Every sweep-shaped binary accepts `--jobs N` (env `MLPSIM_JOBS`;
//! default: all hardware threads) and fans its benchmark × policy matrix
//! out over the [`mlpsim_exec`] worker pool. Results, tables, and
//! `--telemetry` streams are byte-identical at every job count — see
//! [`runner::run_matrix`] for the mechanism.
//!
//! The library part hosts the shared [`runner`] plus the paper's reference
//! numbers ([`paper`]) used to print paper-vs-measured tables.

pub mod cli;
pub mod figures;
pub mod jobspec;
pub mod paper;
pub mod runner;

pub use runner::{run_bench, run_bench_with, run_many, run_matrix, CellSpanSink, RunOptions};
