//! # arbiters — conventional SoC bus arbitration protocols
//!
//! Baseline protocols the LOTTERYBUS paper compares against (§2, §3):
//!
//! * [`StaticPriorityArbiter`] — the static-priority shared bus (§2.1):
//!   the highest-priority pending master always wins, with burst-mode
//!   transfers. Provides low latency for the top priority but no control
//!   over bandwidth shares, starving low priorities under load.
//! * [`TdmaArbiter`] — the two-level time-division-multiple-access bus
//!   (§2.2): a timing wheel of statically reserved single-word slots plus
//!   a round-robin second level that reclaims idle slots. Provides
//!   bandwidth guarantees but latencies that are very sensitive to the
//!   alignment of requests with reservations.
//! * [`RoundRobinArbiter`] and [`TokenRingArbiter`] — additional
//!   conventional protocols mentioned in §2/§2.3.
//! * [`DeficitRoundRobinArbiter`] — a deterministic weighted baseline
//!   from the traffic-scheduling literature the paper cites.
//! * [`FailoverArbiter`] — a robustness wrapper around any of the
//!   above: it detects a wedged or contract-violating primary and
//!   permanently falls over to round-robin, keeping the bus serviced.
//! * [`ArbiterKind`] — enum dispatch over every built-in protocol
//!   (including both lottery managers), so the simulator's hot loop
//!   makes direct calls instead of `Box<dyn Arbiter>` virtual calls.
//!
//! All arbiters implement [`socsim::Arbiter`] and plug into a
//! [`socsim::SystemBuilder`].
//!
//! ```
//! use arbiters::StaticPriorityArbiter;
//! use socsim::{Arbiter, RequestMap, MasterId, Cycle};
//!
//! # fn main() -> Result<(), arbiters::ArbiterConfigError> {
//! // Master 2 has the highest priority (3), master 0 the lowest (1).
//! let mut arb = StaticPriorityArbiter::new(vec![1, 2, 3])?;
//! let mut map = RequestMap::new(3);
//! map.set_pending(MasterId::new(0), 4);
//! map.set_pending(MasterId::new(2), 4);
//! let grant = arb.arbitrate(&map, Cycle::ZERO).expect("someone pending");
//! assert_eq!(grant.master, MasterId::new(2));
//! # Ok(())
//! # }
//! ```

pub mod deficit_rr;
pub mod error;
pub mod failover;
pub mod kind;
pub mod round_robin;
pub mod soa;
pub mod static_priority;
pub mod tdma;
pub mod token_ring;

pub use deficit_rr::DeficitRoundRobinArbiter;
pub use error::ArbiterConfigError;
pub use failover::FailoverArbiter;
pub use kind::ArbiterKind;
pub use round_robin::RoundRobinArbiter;
pub use soa::{
    SoaDeficitRoundRobin, SoaDynamicLottery, SoaRoundRobin, SoaStaticLottery, SoaStaticPriority,
    SoaTdma,
};
pub use static_priority::StaticPriorityArbiter;
pub use tdma::{TdmaArbiter, WheelLayout};
pub use token_ring::TokenRingArbiter;
