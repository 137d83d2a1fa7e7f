//! The arbitration interface between the bus and a protocol implementation.

use crate::cycle::Cycle;
use crate::ids::MasterId;
use crate::request::RequestMap;

/// The outcome of one arbitration decision: which master owns the bus next
/// and for at most how many words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The master granted ownership of the bus.
    pub master: MasterId,
    /// Upper bound on the number of words this grant may transfer.
    ///
    /// The bus additionally caps every grant by its configured maximum
    /// burst size and by the words remaining in the granted master's head
    /// transaction. Use [`Grant::whole_burst`] for protocols that delegate
    /// the cap entirely to the bus (priority, round-robin, lottery) and
    /// [`Grant::single_word`] for slot-based protocols (TDMA).
    pub max_words: u32,
}

impl Grant {
    /// A grant limited only by the bus's burst size and the master's need.
    pub fn whole_burst(master: MasterId) -> Self {
        Grant { master, max_words: u32::MAX }
    }

    /// A grant for exactly one bus word (one TDMA slot).
    pub fn single_word(master: MasterId) -> Self {
        Grant { master, max_words: 1 }
    }
}

/// A bus arbitration protocol.
///
/// The bus calls [`Arbiter::arbitrate`] exactly once per cycle in which the
/// bus is not occupied by an in-flight burst, passing the current request
/// map. Returning `None` leaves the bus idle for that cycle (e.g. a TDMA
/// slot whose owner is idle and no other master requests, or a token-ring
/// hop cycle).
///
/// Implementations must only grant masters whose request line is asserted;
/// the bus enforces this with a debug assertion.
pub trait Arbiter {
    /// Decides bus ownership for the cycle `now`.
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant>;

    /// A short human-readable protocol name, e.g. `"static-priority"`.
    fn name(&self) -> &str;

    /// Number of times this arbiter replaced a misbehaving primary with
    /// a backup policy. Only failover wrappers report nonzero values;
    /// plain protocols keep the default.
    fn failovers(&self) -> u64 {
        0
    }

    /// The earliest cycle `>= now` at which an [`Arbiter::arbitrate`]
    /// call with an **empty** request map would do something that
    /// [`Arbiter::skip_idle`] cannot replicate (e.g. a periodic ticket
    /// re-evaluation keyed on the cycle index).
    ///
    /// The fast-forward kernel never skips past this horizon. Returning
    /// `now` means "never skip over my idle decisions" — the safe
    /// default for protocols the kernel knows nothing about — while
    /// protocols whose idle behaviour is pure or a simple function of
    /// the number of skipped cycles return [`Cycle::NEVER`] and
    /// implement [`Arbiter::skip_idle`].
    fn next_event(&self, now: Cycle) -> Cycle {
        now
    }

    /// Replicates the state change of `delta` consecutive
    /// [`Arbiter::arbitrate`] calls with an empty request map, without
    /// performing them.
    ///
    /// Called by the fast-forward kernel when it jumps over `delta`
    /// cycles in which the bus was idle and no master requested. The
    /// default is a no-op, correct for every protocol that ignores
    /// empty maps (and, combined with the conservative
    /// [`Arbiter::next_event`] default, never reached for protocols
    /// that don't opt in).
    fn skip_idle(&mut self, delta: u64) {
        let _ = delta;
    }

    /// Cross-lane grouping key for fleet SoA lowering, or `None` for
    /// protocols (or configurations) that must stay scalar.
    ///
    /// Two arbiters returning the same signature promise that
    /// [`Arbiter::lower_group`] can host them as slots of one shared
    /// [`SoaKernel`]. The signature encodes only the protocol variant
    /// and the master count — never configuration contents, so a
    /// collision can group differently-configured lanes; kernels keep
    /// per-slot state for everything that differs and deduplicate
    /// shared tables by *actual equality* internally.
    ///
    /// The default keeps every protocol scalar. The boxed forwarding
    /// impl deliberately does **not** forward this method: a
    /// `Box<dyn Arbiter>` erases the concrete type that
    /// [`Arbiter::lower_group`] would need, so dyn-boxed lanes always
    /// take the scalar path.
    fn soa_signature(&self) -> Option<u64> {
        None
    }

    /// Lowers a group of same-signature arbiters into one SoA decision
    /// kernel, cloning each peer's live state into slot `i` of the
    /// kernel. Returns `None` when the group cannot be lowered (the
    /// fleet then keeps every member scalar).
    ///
    /// Only called with peers that all reported one identical
    /// `Some(signature)`.
    fn lower_group(peers: &[&Self]) -> Option<Box<dyn SoaKernel>>
    where
        Self: Sized,
    {
        let _ = peers;
        None
    }

    /// Copies slot `slot` of `kernel` back into this scalar arbiter, so
    /// external observers (scenario probes, runtime knobs) see exactly
    /// the state scalar execution would have produced. The default is a
    /// no-op, correct for protocols that never lower.
    fn writeback_from(&mut self, kernel: &dyn SoaKernel, slot: usize) {
        let _ = (kernel, slot);
    }
}

/// A structure-of-arrays decision kernel hosting a whole fleet group of
/// same-protocol arbiters, one *slot* per lane.
///
/// Produced by [`Arbiter::lower_group`] at `Fleet::build`. Per-slot
/// calls replicate the scalar protocol **exactly** — same grants, same
/// state evolution, same randomness consumption — while the kernel
/// shares whatever precomputation its slots have in common (largest-
/// remainder ticket tables, priority waterfalls, TDMA wheels). A
/// slot-wheel protocol also walks many single-word grants at once
/// ([`SoaKernel::walk_slots`]), which the fleet's fused loop uses while
/// a lane's pending set holds.
pub trait SoaKernel: std::any::Any {
    /// Decides bus ownership for slot `slot` at cycle `now`; the SoA
    /// twin of [`Arbiter::arbitrate`].
    fn arbitrate_slot(&mut self, slot: usize, requests: &RequestMap, now: Cycle) -> Option<Grant>;

    /// The SoA twin of [`Arbiter::next_event`]. Defaults conservative.
    fn next_event_slot(&self, slot: usize, now: Cycle) -> Cycle {
        let _ = slot;
        now
    }

    /// The SoA twin of [`Arbiter::skip_idle`].
    fn skip_idle_slot(&mut self, slot: usize, delta: u64) {
        let _ = (slot, delta);
    }

    /// Whether this kernel walks a slot wheel
    /// ([`SoaKernel::walk_slots`] returns `Some`). The fleet asks once
    /// per lane at lowering, so lanes of other protocols never prepare a
    /// walk.
    fn walks_slots(&self) -> bool {
        false
    }

    /// Walks slot `slot`'s timing wheel with the pending set of
    /// `requests` held fixed, as [`SoaKernel::arbitrate_slot`] would
    /// decide cycle after cycle: each cycle grants one word to the slot
    /// owner if it is pending, and otherwise to the pending master the
    /// round-robin reclaim reaches next. The walk stops after
    /// `max_cycles` cycles, or on the cycle a master's grants reach its
    /// `pending_words` (its head completes), whichever comes first.
    ///
    /// Writes master `m`'s share of the walk into `shares[m]`, leaves
    /// the wheel position and reclaim pointer where stepping would, and
    /// returns the cycles walked. Returns `None`, changing nothing, for
    /// protocols without a slot wheel. `requests` must hold at least one
    /// pending master and `max_cycles` must be at least one.
    fn walk_slots(
        &mut self,
        slot: usize,
        requests: &RequestMap,
        max_cycles: u64,
        shares: &mut [WalkShare],
    ) -> Option<u64> {
        let _ = (slot, requests, max_cycles, shares);
        None
    }

    /// Downcasting hook for [`Arbiter::writeback_from`].
    fn as_any(&self) -> &dyn std::any::Any;
}

/// One master's part of a slot walk ([`SoaKernel::walk_slots`]): the
/// single-word slots it was granted, and the cycle offsets, counted
/// from the walk's first cycle, of the first and the last of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkShare {
    /// Slots (words) granted.
    pub grants: u64,
    /// Offset of the first grant (0 when `grants` is 0).
    pub first: u64,
    /// Offset of the last grant (0 when `grants` is 0).
    pub last: u64,
}

impl<A: Arbiter + ?Sized> Arbiter for Box<A> {
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        (**self).arbitrate(requests, now)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn failovers(&self) -> u64 {
        (**self).failovers()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        (**self).next_event(now)
    }

    fn skip_idle(&mut self, delta: u64) {
        (**self).skip_idle(delta)
    }
}

/// Conversion into the arbiter slot of a [`crate::SystemBuilder`].
///
/// [`crate::SystemBuilder::arbiter`] accepts `impl IntoArbiter<A>`
/// rather than `A` directly so that passing `Box<Concrete>` to a
/// builder whose arbiter slot is the default `Box<dyn Arbiter>` keeps
/// compiling: the unsizing step happens through the second impl below
/// instead of a coercion the inference engine would otherwise pin to
/// `Box<Concrete>` before seeing the builder's annotated type.
pub trait IntoArbiter<A> {
    /// Converts `self` into the builder's arbiter type.
    fn into_arbiter(self) -> A;
}

impl<A: Arbiter> IntoArbiter<A> for A {
    fn into_arbiter(self) -> A {
        self
    }
}

impl<T: Arbiter + 'static> IntoArbiter<Box<dyn Arbiter>> for Box<T> {
    fn into_arbiter(self) -> Box<dyn Arbiter> {
        self
    }
}

/// The simplest possible arbiter: always grants the lowest-indexed pending
/// master a whole burst.
///
/// Useful as a deterministic placeholder in tests and doc examples; it is
/// equivalent to a static-priority arbiter in which lower master indices
/// have higher priority.
#[derive(Debug, Clone)]
pub struct FixedOrderArbiter {
    masters: usize,
}

impl FixedOrderArbiter {
    /// Creates a fixed-order arbiter for `masters` masters.
    pub fn new(masters: usize) -> Self {
        FixedOrderArbiter { masters }
    }

    /// Number of masters this arbiter serves.
    pub fn masters(&self) -> usize {
        self.masters
    }
}

impl Arbiter for FixedOrderArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        requests.iter_pending().next().map(Grant::whole_burst)
    }

    fn name(&self) -> &str {
        "fixed-order"
    }

    // Stateless: idle decisions neither observe the cycle index nor
    // mutate anything, so the fast-forward kernel may skip them freely.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_order_prefers_lowest_index() {
        let mut arb = FixedOrderArbiter::new(4);
        let mut map = RequestMap::new(4);
        map.set_pending(MasterId::new(3), 1);
        map.set_pending(MasterId::new(1), 1);
        let grant = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
        assert_eq!(grant.master, MasterId::new(1));
        assert_eq!(grant.max_words, u32::MAX);
    }

    #[test]
    fn fixed_order_idles_on_empty_map() {
        let mut arb = FixedOrderArbiter::new(2);
        let map = RequestMap::new(2);
        assert!(arb.arbitrate(&map, Cycle::ZERO).is_none());
    }

    #[test]
    fn grant_constructors() {
        let m = MasterId::new(2);
        assert_eq!(Grant::whole_burst(m).max_words, u32::MAX);
        assert_eq!(Grant::single_word(m).max_words, 1);
    }

    #[test]
    fn boxed_arbiter_delegates() {
        let mut arb: Box<dyn Arbiter> = Box::new(FixedOrderArbiter::new(2));
        let mut map = RequestMap::new(2);
        map.set_pending(MasterId::new(0), 1);
        assert!(arb.arbitrate(&map, Cycle::ZERO).is_some());
        assert_eq!(arb.name(), "fixed-order");
        assert_eq!(arb.next_event(Cycle::new(9)), Cycle::NEVER, "box forwards next_event");
        arb.skip_idle(1_000);
        assert!(arb.arbitrate(&map, Cycle::new(1_000)).is_some());
    }

    #[test]
    fn default_horizon_is_conservative() {
        // An arbiter that doesn't opt into fast-forward must pin the
        // horizon to `now` so the kernel never skips its idle calls.
        struct Opaque;
        impl Arbiter for Opaque {
            fn arbitrate(&mut self, _r: &RequestMap, _now: Cycle) -> Option<Grant> {
                None
            }
            fn name(&self) -> &str {
                "opaque"
            }
        }
        let arb = Opaque;
        assert_eq!(arb.next_event(Cycle::new(42)), Cycle::new(42));
    }
}
