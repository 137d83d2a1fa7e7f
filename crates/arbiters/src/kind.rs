//! Enum dispatch over the built-in arbitration protocols.
//!
//! The bus consults its arbiter once per non-busy cycle — the hottest
//! virtual call in the simulator. [`ArbiterKind`] closes the protocol
//! set over the built-ins so `System::step` resolves `arbitrate`
//! statically (and can inline the round-robin scan or the lottery LUT
//! lookup), while [`ArbiterKind::Custom`] keeps arbitrary user
//! protocols pluggable at the old `Box<dyn Arbiter>` cost.
//!
//! Every variant defers to the wrapped protocol for *all* trait
//! methods, so wrapping never changes simulation results — the
//! `kernel_equivalence` differential tests pin this byte-for-byte.
//!
//! ```
//! use arbiters::{ArbiterKind, RoundRobinArbiter};
//! use socsim::{Arbiter, Cycle, MasterId, RequestMap};
//!
//! # fn main() -> Result<(), arbiters::ArbiterConfigError> {
//! let mut arb = ArbiterKind::from(RoundRobinArbiter::new(2)?);
//! let mut map = RequestMap::new(2);
//! map.set_pending(MasterId::new(1), 4);
//! assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(1));
//! assert_eq!(arb.name(), "round-robin");
//! # Ok(())
//! # }
//! ```

use crate::deficit_rr::DeficitRoundRobinArbiter;
use crate::failover::FailoverArbiter;
use crate::round_robin::RoundRobinArbiter;
use crate::soa::{
    SoaDeficitRoundRobin, SoaDynamicLottery, SoaRoundRobin, SoaStaticLottery, SoaStaticPriority,
    SoaTdma,
};
use crate::static_priority::StaticPriorityArbiter;
use crate::tdma::TdmaArbiter;
use crate::token_ring::TokenRingArbiter;
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter};
use socsim::arbiter::FixedOrderArbiter;
use socsim::{Arbiter, Cycle, Grant, RequestMap, SoaKernel};
use std::fmt;

/// A closed enum over every built-in protocol, plus an open escape
/// hatch. See the module docs for why.
//
// The dynamic-lottery variant carries its decision cache inline, which
// makes it much larger than the rest. A `System` holds exactly one
// `ArbiterKind` (never collections of them), so the footprint is
// irrelevant, while keeping the state inline spares the saturated
// arbitration loop a pointer chase.
#[allow(clippy::large_enum_variant)]
pub enum ArbiterKind {
    /// Lowest-index-wins placeholder ([`socsim::arbiter::FixedOrderArbiter`]).
    FixedOrder(FixedOrderArbiter),
    /// Fixed priority order ([`StaticPriorityArbiter`]).
    StaticPriority(StaticPriorityArbiter),
    /// Single-level round-robin ([`RoundRobinArbiter`]).
    RoundRobin(RoundRobinArbiter),
    /// Weighted deficit round-robin ([`DeficitRoundRobinArbiter`]).
    DeficitRoundRobin(DeficitRoundRobinArbiter),
    /// Two-level TDMA ([`TdmaArbiter`]).
    Tdma(TdmaArbiter),
    /// Token ring ([`TokenRingArbiter`]).
    TokenRing(TokenRingArbiter),
    /// Static lottery with a precomputed LUT ([`StaticLotteryArbiter`]).
    StaticLottery(StaticLotteryArbiter),
    /// Dynamic lottery with run-time tickets ([`DynamicLotteryArbiter`]).
    DynamicLottery(DynamicLotteryArbiter),
    /// Failover wrapper around any primary ([`FailoverArbiter`]).
    Failover(FailoverArbiter),
    /// Any other [`Arbiter`], dispatched virtually.
    Custom(Box<dyn Arbiter>),
}

impl fmt::Debug for ArbiterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArbiterKind").field(&self.name()).finish()
    }
}

/// Expands one delegating match over every variant.
macro_rules! for_each_kind {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            ArbiterKind::FixedOrder($inner) => $body,
            ArbiterKind::StaticPriority($inner) => $body,
            ArbiterKind::RoundRobin($inner) => $body,
            ArbiterKind::DeficitRoundRobin($inner) => $body,
            ArbiterKind::Tdma($inner) => $body,
            ArbiterKind::TokenRing($inner) => $body,
            ArbiterKind::StaticLottery($inner) => $body,
            ArbiterKind::DynamicLottery($inner) => $body,
            ArbiterKind::Failover($inner) => $body,
            ArbiterKind::Custom($inner) => $body,
        }
    };
}

impl Arbiter for ArbiterKind {
    #[inline]
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        for_each_kind!(self, inner => inner.arbitrate(requests, now))
    }

    fn name(&self) -> &str {
        for_each_kind!(self, inner => inner.name())
    }

    fn failovers(&self) -> u64 {
        for_each_kind!(self, inner => inner.failovers())
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Cycle {
        for_each_kind!(self, inner => inner.next_event(now))
    }

    #[inline]
    fn skip_idle(&mut self, delta: u64) {
        for_each_kind!(self, inner => inner.skip_idle(delta))
    }

    /// Grouping key for fleet SoA lowering: protocol variant plus master
    /// count. Protocols whose decision depends on hidden mutable inputs
    /// the kernel cannot replicate (attached ticket policies,
    /// compensation boosts, failover wrappers, arbitrary custom code)
    /// stay scalar by returning `None`.
    fn soa_signature(&self) -> Option<u64> {
        let (variant, masters) = match self {
            ArbiterKind::StaticPriority(a) => (1u64, a.masters()),
            ArbiterKind::RoundRobin(a) => (2, a.masters()),
            ArbiterKind::DeficitRoundRobin(a) => (3, a.quanta().len()),
            ArbiterKind::Tdma(a) => (4, a.masters()),
            ArbiterKind::StaticLottery(a) => (5, a.tickets().masters()),
            // Only frozen managers are pure functions of
            // (tickets, requests, draw state) — see
            // [`DynamicLotteryArbiter::is_frozen`].
            ArbiterKind::DynamicLottery(a) if a.is_frozen() => (6, a.tickets().len()),
            _ => return None,
        };
        Some((variant << 8) | masters as u64)
    }

    fn lower_group(peers: &[&Self]) -> Option<Box<dyn SoaKernel>> {
        /// Collects every peer's concrete arbiter, or `None` on any
        /// variant mismatch (unreachable for same-signature groups, but
        /// falling back to scalar is always safe).
        macro_rules! collect {
            ($variant:ident) => {{
                let peers: Option<Vec<_>> = peers
                    .iter()
                    .map(|p| match p {
                        ArbiterKind::$variant(a) => Some(a),
                        _ => None,
                    })
                    .collect();
                peers?
            }};
        }
        match peers.first()? {
            ArbiterKind::StaticPriority(_) => {
                Some(Box::new(SoaStaticPriority::lower(&collect!(StaticPriority))))
            }
            ArbiterKind::RoundRobin(_) => {
                Some(Box::new(SoaRoundRobin::lower(&collect!(RoundRobin))))
            }
            ArbiterKind::DeficitRoundRobin(_) => {
                Some(Box::new(SoaDeficitRoundRobin::lower(&collect!(DeficitRoundRobin))))
            }
            ArbiterKind::Tdma(_) => Some(Box::new(SoaTdma::lower(&collect!(Tdma)))),
            ArbiterKind::StaticLottery(_) => SoaStaticLottery::lower(&collect!(StaticLottery))
                .map(|k| Box::new(k) as Box<dyn SoaKernel>),
            ArbiterKind::DynamicLottery(_) => SoaDynamicLottery::lower(&collect!(DynamicLottery))
                .map(|k| Box::new(k) as Box<dyn SoaKernel>),
            _ => None,
        }
    }

    /// Copies slot `slot`'s lowered state back into the scalar arbiter
    /// so probes and runtime knobs observe exactly what scalar
    /// execution would have produced.
    fn writeback_from(&mut self, kernel: &dyn SoaKernel, slot: usize) {
        let any = kernel.as_any();
        match self {
            ArbiterKind::RoundRobin(a) => {
                if let Some(k) = any.downcast_ref::<SoaRoundRobin>() {
                    a.set_last(k.slot_last(slot));
                }
            }
            ArbiterKind::DeficitRoundRobin(a) => {
                if let Some(k) = any.downcast_ref::<SoaDeficitRoundRobin>() {
                    a.set_state(k.slot_deficit(slot), k.slot_next(slot));
                }
            }
            ArbiterKind::Tdma(a) => {
                if let Some(k) = any.downcast_ref::<SoaTdma>() {
                    a.set_position(k.slot_position(slot));
                    a.set_rr(k.slot_rr(slot));
                }
            }
            ArbiterKind::StaticLottery(a) => {
                if let Some(k) = any.downcast_ref::<SoaStaticLottery>() {
                    if let Some(source) = k.slot_source(slot).clone_builtin() {
                        a.set_random_source(source);
                    }
                }
            }
            ArbiterKind::DynamicLottery(a) => {
                if let Some(k) = any.downcast_ref::<SoaDynamicLottery>() {
                    if let Some(source) = k.slot_source(slot).clone_builtin() {
                        a.set_source_kind(source);
                    }
                }
            }
            // Static priority is stateless; the rest never lower.
            _ => {}
        }
    }
}

macro_rules! kind_from {
    ($($ty:ty => $variant:ident),* $(,)?) => {
        $(impl From<$ty> for ArbiterKind {
            fn from(arbiter: $ty) -> Self {
                ArbiterKind::$variant(arbiter)
            }
        })*
    };
}

kind_from! {
    FixedOrderArbiter => FixedOrder,
    StaticPriorityArbiter => StaticPriority,
    RoundRobinArbiter => RoundRobin,
    DeficitRoundRobinArbiter => DeficitRoundRobin,
    TdmaArbiter => Tdma,
    TokenRingArbiter => TokenRing,
    StaticLotteryArbiter => StaticLottery,
    DynamicLotteryArbiter => DynamicLottery,
    FailoverArbiter => Failover,
    Box<dyn Arbiter> => Custom,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdma::WheelLayout;
    use lotterybus::TicketAssignment;
    use socsim::MasterId;

    fn map_with(masters: usize, pending: &[usize]) -> RequestMap {
        let mut map = RequestMap::new(masters);
        for &m in pending {
            map.set_pending(MasterId::new(m), 8);
        }
        map
    }

    fn builtins(seed: u32) -> Vec<ArbiterKind> {
        let tickets = || TicketAssignment::new(vec![1, 2, 3, 4]).expect("valid");
        vec![
            ArbiterKind::from(FixedOrderArbiter::new(4)),
            ArbiterKind::from(StaticPriorityArbiter::new(vec![1, 2, 3, 4]).expect("valid")),
            ArbiterKind::from(RoundRobinArbiter::new(4).expect("valid")),
            ArbiterKind::from(DeficitRoundRobinArbiter::new(&[1, 2, 3, 4], 8).expect("valid")),
            ArbiterKind::from(
                TdmaArbiter::new(&[1, 2, 3, 4], WheelLayout::Contiguous).expect("valid"),
            ),
            ArbiterKind::from(TokenRingArbiter::new(4).expect("valid")),
            ArbiterKind::from(StaticLotteryArbiter::with_seed(tickets(), seed).expect("valid")),
            ArbiterKind::from(DynamicLotteryArbiter::with_seed(tickets(), seed).expect("valid")),
        ]
    }

    #[test]
    fn every_builtin_matches_its_boxed_copy_decision_for_decision() {
        // The enum wrapper and a `Custom(Box<dyn Arbiter>)` copy of the
        // same protocol must stay in lockstep over a busy schedule —
        // the devirtualized path cannot change a single grant.
        let seed = 0xACE1;
        for (enum_arb, boxed_src) in builtins(seed).into_iter().zip(builtins(seed)) {
            let mut direct = enum_arb;
            let mut boxed = ArbiterKind::Custom(Box::new(boxed_src));
            assert_eq!(direct.name(), boxed.name());
            for c in 0..2_000u64 {
                let pending: &[usize] = match c % 4 {
                    0 => &[0, 1, 2, 3],
                    1 => &[1, 3],
                    2 => &[2],
                    _ => &[],
                };
                let map = map_with(4, pending);
                assert_eq!(
                    direct.arbitrate(&map, Cycle::new(c)),
                    boxed.arbitrate(&map, Cycle::new(c)),
                    "{} diverged at cycle {c}",
                    direct.name()
                );
                assert_eq!(direct.next_event(Cycle::new(c)), boxed.next_event(Cycle::new(c)));
            }
        }
    }

    #[test]
    fn failover_variant_reports_failovers() {
        let primary: Box<dyn Arbiter> = Box::new(FixedOrderArbiter::new(2));
        let kind = ArbiterKind::from(FailoverArbiter::new(primary, 2).expect("valid"));
        assert_eq!(kind.failovers(), 0);
        assert!(kind.name().starts_with("failover("));
    }
}
