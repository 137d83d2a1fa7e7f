//! # lbbench — the repository benchmark
//!
//! Four workloads drive every layer of the simulator through its public
//! functions, single-threaded, at the settings a user gets by default:
//!
//! * `scenario-library` — the frozen 25-file `.scenario` library as one
//!   dependency plan, verdict JSON rendered ([`workloads`]).
//! * `paper-suite` — the 14 experiment calls of the paper reproduction.
//! * `dma-sweep` — one 24-lane lockstep [`socsim::Fleet`] of saturating
//!   64-word DMA masters.
//! * `design-search` — the `search` command on the 12 library scenarios
//!   with a scannable SLA.
//!
//! Every pass is digest-checked ([`digest`]) before its time counts.
//! [`measure`] is the untraced end-to-end run, [`sweep`] the traced
//! per-layer run, [`compare`] the verdict between two run sets.

pub mod compare;
pub mod digest;
pub mod json;
pub mod measure;
pub mod probe;
pub mod stats;
pub mod sweep;
pub mod tracer;
pub mod workloads;
