//! # traffic-gen — parameterized stochastic on-chip traffic generators
//!
//! The LOTTERYBUS paper evaluates communication architectures on a
//! test-bed of "parameterized traffic generators" whose knobs span a wide
//! space of on-chip communication traffic (§5.1, and the companion
//! characterization paper, reference 19). This crate is that test-bed's generator
//! library:
//!
//! * [`GeneratorSpec`] — a serializable description of one component's
//!   traffic: an arrival process ([`ArrivalSpec`]: periodic with phase
//!   and jitter, Bernoulli/Poisson, or bursty on–off) combined with a
//!   message-size distribution ([`SizeDist`]).
//! * [`StochasticSource`] — the [`socsim::TrafficSource`] implementation
//!   produced by a spec, deterministic under a seed.
//! * [`ReplaySource`] — replays an explicit `(cycle, words)` trace, a
//!   cursor over a shared slice (used for the paper's Figure 5
//!   alignment experiment, and to replay traffic [`record_trace`]
//!   recorded once under several arbiters).
//! * [`classes`] — the nine named traffic classes T1–T9 used in the
//!   paper's Figure 12 experiments, plus the saturating class of
//!   Figures 4/6(a).
//! * [`SaturateSource`] — an always-requesting, RNG-free probe source
//!   for saturated hot-path benchmarks.
//! * [`SourceKind`] — enum dispatch over the built-in sources, so the
//!   simulator's per-cycle poll avoids `Box<dyn TrafficSource>`
//!   virtual calls.
//!
//! ```
//! use traffic_gen::{GeneratorSpec, SizeDist};
//! use socsim::TrafficSource;
//!
//! let spec = GeneratorSpec::periodic(50, 3, SizeDist::fixed(16));
//! let mut source = spec.build_source(42);
//! // First message arrives at the phase offset.
//! assert!(source.poll(socsim::Cycle::new(2)).is_none());
//! assert!(source.poll(socsim::Cycle::new(3)).is_some());
//! ```

pub mod classes;
pub mod generator;
pub mod kind;
pub mod record;
pub mod replay;
pub mod saturate;
pub mod size;
pub mod spec;

pub use classes::TrafficClass;
pub use generator::StochasticSource;
pub use kind::SourceKind;
pub use record::record_trace;
pub use replay::ReplaySource;
pub use saturate::SaturateSource;
pub use size::SizeDist;
pub use spec::{ArrivalSpec, GeneratorSpec};
