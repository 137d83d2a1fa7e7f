//! Declarative robustness scenarios for the LOTTERYBUS simulator.
//!
//! A `.scenario` file names a complete robustness experiment: the
//! topology (masters, slaves, arbiter), per-master traffic classes, a
//! phase schedule (load ramps, flash crowds, drain phases), a fault
//! plan (stochastic fault classes plus deterministic arbiter-wedge
//! windows that trip failover), and SLA assertions that evaluate to a
//! structured pass/fail verdict. Scenarios compose into plans with
//! `after` dependencies and execute in parallel through the job pool
//! under any of the three simulation kernels.
//!
//! The crate also ships a seeded fuzzer ([`fuzz()`]) that generates
//! random-but-valid scenarios, checks cross-kernel determinism,
//! conservation and starvation invariants, and shrinks any failure to
//! a minimal reproducing `.scenario` file.
//!
//! ```
//! use scenario::{run_scenario, Scenario};
//! use socsim::Kernel;
//!
//! let sc = Scenario::parse(
//!     "scenario smoke\n\
//!      master cpu load=0.3 weight=2 size=8 poisson\n\
//!      master dma load=0.2 weight=1 size=16 burst\n\
//!      phase steady duration=20000\n\
//!      sla utilization min=0.1\n\
//!      sla losses max=0\n",
//! )
//! .expect("valid scenario");
//! let verdict = run_scenario(&sc, Kernel::Cycle).expect("runs");
//! assert!(verdict.passed);
//! ```

#![deny(missing_docs)]

pub mod fleet;
pub mod fuzz;
pub mod model;
pub mod parse;
pub mod phased;
pub mod plan;
pub mod run;
pub mod sla;
pub mod wedge;

pub use fleet::{fleet_eligible, run_scenarios_fleet};
pub use fuzz::{fuzz, shrink, Finding, FuzzConfig, FuzzReport};
pub use model::{
    ArbiterSel, Arrival, DepCondition, Dependency, Expectation, FailoverDecl, MasterDecl,
    PhaseDecl, Scenario, Sla, SlaKind, SlaveDecl, WedgeWindow,
};
pub use parse::ScenarioError;
pub use phased::PhasedSource;
pub use plan::{run_plan, run_plan_fleet, PlanOutcome, PlanReport};
pub use run::{arbiter_chain, build_arbiter, run_scenario, Outcome, PhaseReport};
pub use sla::Violation;
pub use wedge::WedgingArbiter;
