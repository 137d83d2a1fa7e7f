#![deny(missing_docs)]
//! # socsim — a cycle-based system-on-chip shared-bus simulation kernel
//!
//! This crate is the simulation substrate for the LOTTERYBUS reproduction.
//! It models a single shared on-chip bus in the style used by the paper's
//! PTOLEMY/POLIS test-bed: a set of *masters* issue multi-word
//! transactions addressed to *slaves*, a pluggable *arbiter* decides which
//! pending master owns the bus, and transfers proceed at one word per bus
//! cycle with a configurable maximum burst size. Arbitration is pipelined
//! with data transfer so that (by default) no bus cycles are lost to the
//! arbiter itself.
//!
//! The kernel is deterministic: given the same traffic sources and
//! arbiter it produces the same cycle-by-cycle schedule, which makes
//! experiments exactly reproducible. Each [`System`] is single-threaded
//! by construction, but independent systems share nothing — the
//! [`pool`] module fans whole simulations out across cores and collects
//! results in input order, so parallel sweeps stay byte-identical to
//! serial ones.
//!
//! Observability is layered on top without disturbing determinism: the
//! [`metrics`] module samples windowed counters/gauges/histograms into
//! time-series, the [`trace`] module streams events into pluggable
//! sinks (ring buffer, JSON lines, VCD), and the [`profile`] module
//! attributes wall-clock time to the kernel's simulation phases. All
//! three are off by default and cost at most a branch per cycle when
//! off.
//!
//! ## Quick example
//!
//! ```
//! use socsim::{BusConfig, SystemBuilder, Transaction, TrafficSource, Cycle, MasterId, SlaveId};
//!
//! /// A toy source that issues one 4-word transaction every 10 cycles.
//! struct Every10;
//! impl TrafficSource for Every10 {
//!     fn poll(&mut self, now: Cycle) -> Option<Transaction> {
//!         (now.index() % 10 == 0).then(|| Transaction::new(SlaveId::new(0), 4, now))
//!     }
//! }
//!
//! # fn main() -> Result<(), socsim::BuildSystemError> {
//! let mut system = SystemBuilder::new(BusConfig::default())
//!     .master("cpu", Every10)
//!     .master("dsp", Every10)
//!     .arbiter(socsim::arbiter::FixedOrderArbiter::new(2))
//!     .build()?;
//! let stats = system.run(1_000);
//! assert!(stats.bus_utilization() > 0.5);
//! # Ok(())
//! # }
//! ```

pub mod arbiter;
pub mod bus;
pub mod config;
pub mod cycle;
pub mod error;
pub mod fastforward;
pub mod fault;
pub mod fleet;
pub mod ids;
mod lane;
pub mod master;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod request;
pub mod slave;
pub mod stats;
pub mod system;
pub mod trace;
pub mod vcd;

pub use arbiter::{Arbiter, Grant, IntoArbiter, SoaKernel, WalkShare};
pub use bus::Bus;
pub use config::BusConfig;
pub use cycle::Cycle;
pub use error::BuildSystemError;
pub use fastforward::{Kernel, MoveCounters};
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultLog, FaultPlan, RetryPolicy};
pub use fleet::{Fleet, FleetBuildError};
pub use ids::{MasterId, SlaveId};
pub use lane::LaneBuilder;
pub use master::{MasterPort, RetryOutcome};
pub use metrics::{BusMetrics, WindowSample};
pub use profile::{PhaseProfiler, SimPhase};
pub use request::{RequestMap, Transaction, MAX_MASTERS};
pub use slave::Slave;
pub use stats::{BusStats, MasterStats};
pub use system::{BacklogPolls, IntoSource, System, SystemBuilder, TrafficSource};
pub use trace::{BusTrace, JsonlSink, RingSink, TraceEvent, TraceSink};
pub use vcd::VcdSink;
