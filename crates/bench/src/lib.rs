//! # MeLoPPR bench — the experiment harness
//!
//! Regenerates every table and figure of the MeLoPPR paper's evaluation
//! (§VI) plus the ablation studies listed in `DESIGN.md` §5. The library
//! half provides shared infrastructure; each experiment is a binary:
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Fig. 5 (FPGA scalability)        | `fig5_scalability` |
//! | Table I (resource utilization)   | `table1_resources` |
//! | Table II (memory comparison)     | `table2_memory` |
//! | Fig. 6 (sparsity & precision)    | `fig6_sparsity` |
//! | Fig. 7 (precision–latency)       | `fig7_tradeoff` |
//! | §V-A fixed-point study           | `study_fixed_point` |
//! | §V-B global-table study          | `study_global_table` |
//! | Fig. 2 design-space taxonomy     | `study_design_space` |
//! | Residual-policy ablation         | `ablation_residual` |
//! | Stage-split ablation             | `ablation_stages` |
//!
//! Each binary runs in a scaled-down *quick* mode by default and accepts
//! `--full` (paper-size graphs), `--seeds N` and `--scale F`; see
//! [`workload::ExperimentScale`]. All runs are deterministic.
//!
//! Criterion micro-benchmarks of the native Rust kernels live under
//! `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod costmodel;
pub mod runner;
pub mod table;
pub mod workload;

pub use costmodel::CpuCostModel;
pub use runner::{
    measure_batch_throughput, measure_precision, measure_tradeoff, BatchThroughput, TradeoffPoint,
};
pub use table::TextTable;
pub use workload::{
    sample_seeds, sample_zipf_queries, sample_zipf_queries_offset, CorpusGraph, ExperimentScale,
};
