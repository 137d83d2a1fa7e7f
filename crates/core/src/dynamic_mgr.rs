//! The dynamic lottery manager (paper §4.4, Figure 10).

use crate::error::LotteryError;
use crate::policy::TicketPolicy;
use crate::rng::{LfsrSource, RandomSource, RandomSourceKind};
use crate::tickets::{TicketAssignment, MAX_TICKETS_PER_MASTER};
use socsim::{Arbiter, Cycle, Grant, MasterId, RequestMap, MAX_MASTERS};
use std::fmt;

/// Memoized AND-stage + adder-tree output for one request bitmap.
///
/// Under contention the same contender set recurs for long stretches, so
/// the cumulative ticket ranges only change when the request bitmap or
/// the ticket holdings do. The cache key is `(bits, epoch)`: `epoch` is a
/// monotonic counter the arbiter bumps on *every* mutation of effective
/// holdings (external `set_tickets`, a policy update firing, a
/// compensation-boost write, enabling compensation), so a stale entry can
/// never be observed.
#[derive(Debug, Clone)]
struct DecisionCache {
    /// Request bitmap the entry was built for.
    bits: u32,
    /// Ticket epoch the entry was built at.
    epoch: u64,
    valid: bool,
    /// `cumsum[i]` = Σ_{k≤i, k pending} effective_tickets[k] — the same
    /// running partial sums [`crate::partial_sums`] computes.
    cumsum: [u64; MAX_MASTERS],
    /// Grand total of contending effective tickets.
    total: u64,
}

impl DecisionCache {
    fn new() -> Self {
        DecisionCache { bits: 0, epoch: 0, valid: false, cumsum: [0; MAX_MASTERS], total: 0 }
    }
}

/// Lottery-manager hardware with **dynamically assigned tickets**.
///
/// Unlike the static design, ticket holdings are inputs: the manager
/// cannot precompute ranges, so each lottery recomputes the partial sums
/// `Σ r_j·t_j` with a bitwise-AND stage and an adder tree, and the random
/// draw is reduced into `[0, T)` by modulo hardware (Figure 10). The rest
/// of the datapath (parallel comparators + priority selector) matches the
/// static manager.
///
/// Ticket updates arrive in two ways:
///
/// * externally, via [`DynamicLotteryArbiter::set_tickets`] — "the number
///   of tickets … is periodically communicated by the component to the
///   lottery manager";
/// * or from an attached [`TicketPolicy`] re-evaluated every
///   `update_period` cycles, modelling component-side logic such as
///   backlog-proportional shares.
///
/// ```
/// use lotterybus::{DynamicLotteryArbiter, TicketAssignment};
/// use socsim::{Arbiter, RequestMap, MasterId, Cycle};
///
/// # fn main() -> Result<(), lotterybus::LotteryError> {
/// let tickets = TicketAssignment::new(vec![1, 1])?;
/// let mut arb = DynamicLotteryArbiter::with_seed(tickets, 9)?;
/// // Shift all weight onto master 1 at run time.
/// arb.set_tickets(vec![0, 8])?;
/// let mut map = RequestMap::new(2);
/// map.set_pending(MasterId::new(0), 4);
/// map.set_pending(MasterId::new(1), 4);
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(1));
/// # Ok(())
/// # }
/// ```
pub struct DynamicLotteryArbiter {
    tickets: Vec<u32>,
    policy: Option<Box<dyn TicketPolicy>>,
    update_period: u64,
    source: RandomSourceKind,
    /// Compensation-ticket quantum in words (`None` = disabled).
    compensation_quantum: Option<u32>,
    /// Per-master compensation multiplier (×256 fixed point), active
    /// until the master's next win.
    boost: Vec<u32>,
    /// Bumped whenever effective holdings change; see [`DecisionCache`].
    epoch: u64,
    cache: DecisionCache,
}

impl fmt::Debug for DynamicLotteryArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicLotteryArbiter")
            .field("tickets", &self.tickets)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("update_period", &self.update_period)
            .field("source", &self.source.name())
            .finish()
    }
}

impl DynamicLotteryArbiter {
    /// Creates a dynamic lottery manager with initial holdings `tickets`,
    /// no update policy, drawing from a 32-bit LFSR seeded with 1.
    pub fn new(tickets: TicketAssignment) -> Self {
        Self::with_seed_infallible(tickets, 1)
    }

    /// Creates a dynamic lottery manager drawing from a 32-bit LFSR with
    /// the given seed.
    ///
    /// # Errors
    ///
    /// Currently infallible for any valid [`TicketAssignment`]; the
    /// `Result` keeps the signature parallel to the static manager.
    pub fn with_seed(tickets: TicketAssignment, seed: u32) -> Result<Self, LotteryError> {
        Ok(Self::with_seed_infallible(tickets, seed))
    }

    fn with_seed_infallible(tickets: TicketAssignment, seed: u32) -> Self {
        let n = tickets.masters();
        DynamicLotteryArbiter {
            tickets: tickets.tickets().to_vec(),
            policy: None,
            update_period: 1,
            source: RandomSourceKind::Lfsr(LfsrSource::new(32, seed)),
            compensation_quantum: None,
            boost: vec![256; n],
            epoch: 0,
            cache: DecisionCache::new(),
        }
    }

    /// Enables Waldspurger-style *compensation tickets* (the lottery
    /// scheduling technique of the paper's reference \[16\]) with the
    /// given quantum in words — typically the bus's maximum burst size.
    ///
    /// A master that consumes only a fraction `f` of the quantum when it
    /// wins has its tickets inflated by `1/f` until its next win, so
    /// components with short messages still receive their full
    /// ticket-proportional share of *bandwidth*, not merely of wins.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn enable_compensation(&mut self, quantum: u32) {
        assert!(quantum > 0, "compensation quantum must be nonzero");
        self.compensation_quantum = Some(quantum);
        self.epoch += 1;
    }

    /// Replaces the draw source (for ablations).
    pub fn set_source_kind(&mut self, source: RandomSourceKind) {
        self.source = source;
    }

    /// Attaches a ticket-update policy re-evaluated every `period`
    /// arbitration cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_policy(&mut self, policy: Box<dyn TicketPolicy>, period: u64) {
        assert!(period > 0, "update period must be nonzero");
        self.policy = Some(policy);
        self.update_period = period;
        self.epoch += 1;
    }

    /// The current ticket holdings.
    pub fn tickets(&self) -> &[u32] {
        &self.tickets
    }

    /// Overwrites the ticket holdings (an external ticket communication).
    ///
    /// # Errors
    ///
    /// Returns an error if the master count changes, the total is zero,
    /// or a holding exceeds [`MAX_TICKETS_PER_MASTER`].
    pub fn set_tickets(&mut self, tickets: Vec<u32>) -> Result<(), LotteryError> {
        if tickets.len() != self.tickets.len() {
            return Err(LotteryError::MasterCountChanged {
                got: tickets.len(),
                expected: self.tickets.len(),
            });
        }
        let validated = TicketAssignment::new(tickets)?;
        self.tickets = validated.tickets().to_vec();
        self.epoch += 1;
        Ok(())
    }

    /// `true` when no policy and no compensation are attached: the
    /// effective holdings can never change behind the caller's back, so
    /// the decision is a pure function of `(tickets, requests, source)`.
    /// Only frozen managers are eligible for SoA fleet lowering.
    pub fn is_frozen(&self) -> bool {
        self.policy.is_none() && self.compensation_quantum.is_none()
    }

    /// The draw source, register state included.
    pub fn random_source(&self) -> &RandomSourceKind {
        &self.source
    }

    /// The arbitration decision of a *frozen* manager taken against an
    /// external draw source. Recomputes the partial sums directly (the
    /// scalar path's memo cache is a pure optimization — it never alters
    /// the draw cadence), so the grant stream is bit-identical to
    /// [`Arbiter::arbitrate`] fed the same source.
    ///
    /// Debug-asserts [`DynamicLotteryArbiter::is_frozen`].
    pub fn decide_frozen(
        &self,
        requests: &RequestMap,
        source: &mut RandomSourceKind,
    ) -> Option<Grant> {
        debug_assert!(self.is_frozen(), "decide_frozen on a non-frozen manager");
        if requests.is_empty() {
            return None;
        }
        let n = self.tickets.len().min(MAX_MASTERS);
        let mut cumsum = [0u64; MAX_MASTERS];
        let mut acc = 0u64;
        for (i, slot) in cumsum.iter_mut().enumerate().take(n) {
            if requests.is_pending(MasterId::new(i)) {
                acc += u64::from(self.tickets[i]);
            }
            *slot = acc;
        }
        if acc == 0 {
            return requests.iter_pending().next().map(Grant::whole_burst);
        }
        let draw = u64::from(source.draw(acc as u32));
        let winner = (0..n)
            .map(MasterId::new)
            .find(|&id| requests.is_pending(id) && draw < cumsum[id.index()])
            .expect("draw below total has a winner");
        Some(Grant::whole_burst(winner))
    }

    /// Rebuilds the memoized partial sums for the current `(bits, epoch)`
    /// key. Effective holdings are materialized into a stack scratch
    /// array — the steady-state arbitration path performs no heap
    /// allocation.
    #[cold]
    fn rebuild_cache(&mut self, requests: &RequestMap) {
        let mut effective = [0u32; MAX_MASTERS];
        let n = self.tickets.len().min(MAX_MASTERS);
        if self.compensation_quantum.is_some() {
            for (i, slot) in effective.iter_mut().enumerate().take(n) {
                // Boost is always >= 1.0 (×256), so nonzero holdings stay
                // nonzero and the product stays well inside u32.
                *slot = ((u64::from(self.tickets[i]) * u64::from(self.boost[i])) / 256) as u32;
            }
        } else {
            effective[..n].copy_from_slice(&self.tickets[..n]);
        }
        let mut acc = 0u64;
        for (i, &t) in effective.iter().enumerate().take(n) {
            if requests.is_pending(MasterId::new(i)) {
                acc += u64::from(t);
            }
            self.cache.cumsum[i] = acc;
        }
        self.cache.total = acc;
        self.cache.bits = requests.bits();
        self.cache.epoch = self.epoch;
        self.cache.valid = true;
    }
}

impl Arbiter for DynamicLotteryArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        if let Some(policy) = self.policy.as_mut() {
            if now.index().is_multiple_of(self.update_period) {
                policy.update(requests, now, &mut self.tickets);
                for t in &mut self.tickets {
                    *t = (*t).min(MAX_TICKETS_PER_MASTER);
                }
                // The policy may have rewritten any holding.
                self.epoch += 1;
            }
        }
        if requests.is_empty() {
            return None;
        }
        // The AND stage + adder tree only runs when the contender set or
        // the (effective) holdings changed since the memoized pass.
        if !(self.cache.valid
            && self.cache.bits == requests.bits()
            && self.cache.epoch == self.epoch)
        {
            self.rebuild_cache(requests);
        }
        let total = self.cache.total;
        if total == 0 {
            // Zero-ticket contenders only: default grant, as in the
            // static manager, to avoid livelock.
            return requests.iter_pending().next().map(Grant::whole_burst);
        }
        let draw = u64::from(self.source.draw(total as u32));
        // Parallel comparators + priority selector: the first pending
        // master whose partial sum exceeds the draw wins — identical to
        // [`crate::draw_winner`] over the effective holdings.
        let n = self.tickets.len().min(MAX_MASTERS);
        let winner = (0..n)
            .map(MasterId::new)
            .find(|&id| requests.is_pending(id) && draw < self.cache.cumsum[id.index()])
            .expect("draw below total has a winner");
        if let Some(quantum) = self.compensation_quantum {
            // The winner will transfer min(quantum, pending) words; if
            // that underuses the quantum, inflate its tickets by the
            // inverse fraction until it wins again.
            let served = requests.pending_words(winner).min(quantum).max(1);
            let boost = ((u64::from(quantum) * 256) / u64::from(served)).min(256 * 64) as u32;
            if self.boost[winner.index()] != boost {
                self.boost[winner.index()] = boost;
                self.epoch += 1;
            }
        }
        Some(Grant::whole_burst(winner))
    }

    fn name(&self) -> &str {
        "lottery-dynamic"
    }

    /// Without a policy the manager is stateless on an empty map (the
    /// LFSR only draws once contenders exist) — never pins the horizon.
    /// With a policy attached, ticket updates fire on every multiple of
    /// the update period *even when nothing is pending*, so the horizon
    /// is the next such multiple: the kernel fast-forwards between
    /// updates and replays each update at its exact cycle.
    fn next_event(&self, now: Cycle) -> Cycle {
        if self.policy.is_none() {
            return Cycle::NEVER;
        }
        let idx = now.index();
        let rem = idx % self.update_period;
        if rem == 0 {
            now
        } else {
            Cycle::new(idx + self.update_period - rem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::QueueProportionalPolicy;
    use socsim::MasterId;

    fn map_with(masters: usize, pending: &[(usize, u32)]) -> RequestMap {
        let mut map = RequestMap::new(masters);
        for &(m, w) in pending {
            map.set_pending(MasterId::new(m), w);
        }
        map
    }

    fn arbiter(tickets: Vec<u32>) -> DynamicLotteryArbiter {
        DynamicLotteryArbiter::with_seed(TicketAssignment::new(tickets).expect("valid"), 0xBEEF)
            .expect("valid")
    }

    #[test]
    fn win_frequencies_track_current_tickets() {
        let mut arb = arbiter(vec![3, 1]);
        let map = map_with(2, &[(0, 8), (1, 8)]);
        let mut wins = [0u32; 2];
        for c in 0..20_000u64 {
            wins[arb.arbitrate(&map, Cycle::new(c)).unwrap().master.index()] += 1;
        }
        let share0 = f64::from(wins[0]) / 20_000.0;
        assert!((share0 - 0.75).abs() < 0.03, "share {share0}");
    }

    #[test]
    fn set_tickets_changes_shares_mid_run() {
        let mut arb = arbiter(vec![1, 1]);
        arb.set_tickets(vec![1, 9]).expect("valid update");
        let map = map_with(2, &[(0, 8), (1, 8)]);
        let mut wins = [0u32; 2];
        for c in 0..10_000u64 {
            wins[arb.arbitrate(&map, Cycle::new(c)).unwrap().master.index()] += 1;
        }
        let share1 = f64::from(wins[1]) / 10_000.0;
        assert!((share1 - 0.9).abs() < 0.03, "share {share1}");
    }

    #[test]
    fn horizon_lands_on_policy_update_cycles() {
        let mut arb = arbiter(vec![1, 1]);
        assert_eq!(arb.next_event(Cycle::new(7)), Cycle::NEVER, "no policy, no schedule");
        arb.set_policy(Box::new(QueueProportionalPolicy::new(vec![1, 1])), 10);
        assert_eq!(arb.next_event(Cycle::new(7)), Cycle::new(10));
        assert_eq!(arb.next_event(Cycle::new(10)), Cycle::new(10), "on a multiple: unskippable");
        assert_eq!(arb.next_event(Cycle::new(11)), Cycle::new(20));
    }

    #[test]
    fn set_tickets_validates() {
        let mut arb = arbiter(vec![1, 1]);
        assert!(matches!(
            arb.set_tickets(vec![1, 2, 3]).unwrap_err(),
            LotteryError::MasterCountChanged { .. }
        ));
        assert_eq!(arb.set_tickets(vec![0, 0]).unwrap_err(), LotteryError::ZeroTotalTickets);
        assert_eq!(arb.tickets(), &[1, 1], "failed updates leave holdings unchanged");
    }

    #[test]
    fn queue_proportional_policy_biases_toward_backlog() {
        let mut arb = arbiter(vec![1, 1]);
        arb.set_policy(Box::new(QueueProportionalPolicy::new(vec![1, 1])), 1);
        // Master 1 has a 15-word backlog, master 0 a single word.
        let map = map_with(2, &[(0, 1), (1, 15)]);
        let mut wins = [0u32; 2];
        for c in 0..10_000u64 {
            wins[arb.arbitrate(&map, Cycle::new(c)).unwrap().master.index()] += 1;
        }
        // Expected shares 2/18 vs 16/18.
        let share1 = f64::from(wins[1]) / 10_000.0;
        assert!(share1 > 0.8, "share {share1}");
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let mut arb = arbiter(vec![1, 1]);
        assert!(arb.arbitrate(&RequestMap::new(2), Cycle::ZERO).is_none());
    }

    #[test]
    fn compensation_restores_bandwidth_for_short_messages() {
        // Master 0 always has 4-word messages pending; master 1 always
        // 16-word messages; equal tickets and a 16-word quantum. Without
        // compensation master 1 moves ~4x the words; with compensation
        // master 0's win rate quadruples, equalizing word shares.
        let measure = |compensate: bool| -> (u64, u64) {
            let mut arb = arbiter(vec![1, 1]);
            if compensate {
                arb.enable_compensation(16);
            }
            let mut words = [0u64; 2];
            let map = map_with(2, &[(0, 4), (1, 16)]);
            for c in 0..40_000u64 {
                let g = arb.arbitrate(&map, Cycle::new(c)).expect("grant");
                // The bus would serve min(quantum, pending) words.
                words[g.master.index()] += u64::from(map.pending_words(g.master).min(16));
            }
            (words[0], words[1])
        };
        let (plain_short, plain_long) = measure(false);
        let ratio_plain = plain_long as f64 / plain_short as f64;
        assert!((ratio_plain - 4.0).abs() < 0.5, "plain ratio {ratio_plain:.2}");

        let (comp_short, comp_long) = measure(true);
        let ratio_comp = comp_long as f64 / comp_short as f64;
        assert!(ratio_comp < 1.3, "compensated ratio {ratio_comp:.2}");
        assert!(comp_short > plain_short, "short-message master gained bandwidth");
    }

    #[test]
    fn compensation_is_neutral_for_homogeneous_sizes() {
        let mut arb = arbiter(vec![1, 3]);
        arb.enable_compensation(16);
        let map = map_with(2, &[(0, 16), (1, 16)]);
        let mut wins = [0u32; 2];
        for c in 0..20_000u64 {
            wins[arb.arbitrate(&map, Cycle::new(c)).unwrap().master.index()] += 1;
        }
        let share1 = f64::from(wins[1]) / 20_000.0;
        assert!((share1 - 0.75).abs() < 0.03, "share {share1}");
    }

    #[test]
    fn zero_ticket_contenders_fall_back() {
        let mut arb = arbiter(vec![0, 1]);
        let map = map_with(2, &[(0, 4)]);
        assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(0));
    }
}
