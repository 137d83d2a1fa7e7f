//! # experiments — regenerating every table and figure of the paper
//!
//! Each module reproduces one artifact of the LOTTERYBUS paper's
//! evaluation and prints the same rows/series the paper reports:
//!
//! | Module      | Paper artifact | What it shows |
//! |-------------|----------------|----------------|
//! | [`fig4`]    | Figure 4       | bandwidth sharing under static priority, all 24 priority permutations |
//! | [`fig5`]    | Figure 5       | TDMA wait times under two phase alignments of the same periodic trace |
//! | [`fig6`]    | Figure 6(a/b)  | lottery bandwidth across ticket permutations; TDMA vs lottery latency |
//! | [`fig12`]   | Figure 12(a–c) | lottery bandwidth and TDMA/lottery latency across traffic classes T1–T9 |
//! | [`table1`]  | Table 1        | the ATM switch under all three architectures |
//! | [`hw_table`]| §5.2           | arbiter area and arbitration delay |
//!
//! Every experiment is deterministic under its seed. The binaries
//! (`cargo run -p experiments --bin fig4`, …) print human-readable
//! tables; `--bin all` runs everything, producing the data behind
//! `EXPERIMENTS.md`.

pub mod ablations;
pub mod common;
pub mod energy;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod hotpath;
pub mod hw_table;
pub mod json;
pub mod runner;
pub mod starvation;
pub mod suite;
pub mod sweeps;
pub mod table1;
pub mod telemetry;
pub mod validate;

pub use common::RunSettings;
