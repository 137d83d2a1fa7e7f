//! Closed-form performance predictors for the LOTTERYBUS protocol
//! lineup, and the instant design-space search built on them.
//!
//! The simulator measures bandwidth shares and latencies; this crate
//! *predicts* them in O(masters) arithmetic from the same inputs — the
//! traffic specs of [`traffic_gen`] and the bus parameters of
//! [`socsim::BusConfig`] — in the spirit of Mandal et al.'s analytic
//! NoC models. One full evaluation costs about a tenth of a
//! microsecond, and the search scores a point in a few tens of
//! nanoseconds by preparing each (burst, load-scale) cell once and
//! computing only what its targets read. That turns ticket-allocation
//! tuning from an overnight sweep into a scan of tens of millions of
//! design points per second ([`search()`]; one traced benchmark run
//! scans the library's 12.1 M points, 6.05 M of them evaluated, in
//! 0.32 s on a 2-vCPU shared virtual machine, a single run and so
//! indicative). Where tickets cannot matter, because the summed demand
//! fits on the bus, one evaluation stands for a whole cell; a
//! static-priority cell costs one evaluation per priority order.
//!
//! The model rests on three explicit approximations, stated once here
//! and assumed everywhere:
//!
//! 1. **Bernoulli independence** — arrivals are treated as memoryless
//!    per-cycle coin flips at the spec's long-run rate. Periodic and
//!    on–off sources are mapped to the same rate; their correlation
//!    structure (and TDMA's sensitivity to it) is only partially
//!    captured, and the validation grid records the resulting error.
//! 2. **Saturation water-filling** — when offered load exceeds bus
//!    capacity, each protocol is modelled as weighted max-min
//!    fair sharing in its natural resource space (cycles for
//!    TDMA, grants for round-robin and lottery, burst-clamped words
//!    for deficit round-robin, a strict waterfall for static
//!    priority).
//! 3. **Reduced-rate M/G/1 queueing** — below saturation each master
//!    sees the bus as a private server running at the rate its
//!    competitors leave behind; waiting times follow
//!    Pollaczek–Khinchine on the stretched service times, Cobham's
//!    formula for static priority.
//!
//! Every prediction is validated against simulation across the
//! experiment sweep grid (the `validate` binary of the `experiments`
//! crate); the measured per-cell error table lives in EXPERIMENTS.md,
//! and `tests/golden_validation.rs` holds the grid to its error
//! ceilings and cell floors.
//!
//! ```
//! use analytic::{MasterModel, Protocol, SystemModel};
//! use socsim::BusConfig;
//! use traffic_gen::{GeneratorSpec, SizeDist};
//!
//! // Four saturating masters, tickets 1:2:3:4, static lottery.
//! let bus = BusConfig::default();
//! let spec = GeneratorSpec::poisson(0.09, SizeDist::fixed(16));
//! let model = SystemModel::from_specs(
//!     Protocol::LotteryStatic,
//!     &vec![spec; 4],
//!     &[1, 2, 3, 4],
//!     &bus,
//! );
//! let p = model.predict();
//! assert!(p.saturated);
//! // Bandwidth divides like tickets: the 4-ticket master gets 40%.
//! assert!((p.masters[3].share - 0.4).abs() < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod latency;
pub mod model;
pub mod search;

pub use model::{
    MasterModel, Prediction, Protocol, Scratch, SystemModel, SystemPrediction, MAX_MASTERS,
};
pub use search::{
    search, Candidate, SearchReport, SearchSpace, SlaTarget, TargetKind, TrafficInput, MAX_TICKETS,
};
