//! The static lottery manager (paper §4.3, Figure 9).

use crate::error::LotteryError;
use crate::rng::{LfsrSource, RandomSource, RandomSourceKind};
use crate::tickets::TicketAssignment;
use socsim::{Arbiter, Cycle, Grant, MasterId, RequestMap};
use std::fmt;

/// Largest number of masters the static design supports: the look-up
/// table has `2^n` entries, which the paper notes is practical because
/// ticket assignments are known at design time.
pub const MAX_LUT_MASTERS: usize = 12;

/// One precomputed LUT row: cumulative scaled ticket sums for a request
/// map, plus the (power-of-two) total to draw from.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LutEntry {
    cumsum: Vec<u32>,
    total: u32,
}

/// Lottery-manager hardware with **statically assigned tickets**.
///
/// Because ticket holdings are fixed at design time, every possible
/// ticket range is precomputed: the request bitmap indexes a look-up
/// table holding the partial sums `Σ_{k≤i} r_k·t_k` for that subset of
/// contenders (Figure 9). Within each subset the holdings are rescaled so
/// the subset total is a power of two — the paper's trick for drawing the
/// random number with a bare LFSR instead of modulo hardware — using the
/// same largest-remainder scaling as
/// [`TicketAssignment::scaled_to_power_of_two`].
///
/// The draw is compared in parallel against all partial sums and a
/// priority selector asserts exactly one grant line; in software this is
/// the linear scan of [`crate::draw_winner`].
///
/// ```
/// use lotterybus::{StaticLotteryArbiter, TicketAssignment};
/// use socsim::{Arbiter, RequestMap, MasterId, Cycle};
///
/// # fn main() -> Result<(), lotterybus::LotteryError> {
/// let tickets = TicketAssignment::new(vec![1, 2, 3, 4])?;
/// let mut arb = StaticLotteryArbiter::with_seed(tickets, 7)?;
/// let mut map = RequestMap::new(4);
/// map.set_pending(MasterId::new(1), 16);
/// // Sole contender always wins, whatever the draw.
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(1));
/// # Ok(())
/// # }
/// ```
pub struct StaticLotteryArbiter {
    tickets: TicketAssignment,
    lut: Vec<LutEntry>,
    /// Enum-dispatched so the hot LFSR draw is a direct (inlinable)
    /// call; `Custom` sources from ablations still dispatch virtually.
    source: RandomSourceKind,
}

impl fmt::Debug for StaticLotteryArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StaticLotteryArbiter")
            .field("tickets", &self.tickets)
            .field("lut_entries", &self.lut.len())
            .field("source", &self.source.name())
            .finish()
    }
}

impl StaticLotteryArbiter {
    /// Creates a static lottery manager drawing from a 32-bit LFSR
    /// seeded with 1.
    ///
    /// # Errors
    ///
    /// Returns [`LotteryError::LutTooLarge`] if the assignment covers
    /// more than [`MAX_LUT_MASTERS`] masters.
    pub fn new(tickets: TicketAssignment) -> Result<Self, LotteryError> {
        Self::with_seed(tickets, 1)
    }

    /// Creates a static lottery manager drawing from a 32-bit LFSR with
    /// the given seed.
    ///
    /// # Errors
    ///
    /// See [`StaticLotteryArbiter::new`].
    pub fn with_seed(tickets: TicketAssignment, seed: u32) -> Result<Self, LotteryError> {
        Self::with_source_kind(tickets, RandomSourceKind::Lfsr(LfsrSource::new(32, seed)))
    }

    /// Creates a static lottery manager with an explicit draw source
    /// (used by ablations comparing LFSR draws with ideal uniform draws).
    /// The boxed source is dispatched virtually.
    ///
    /// # Errors
    ///
    /// See [`StaticLotteryArbiter::new`].
    pub fn with_source(
        tickets: TicketAssignment,
        source: Box<dyn RandomSource>,
    ) -> Result<Self, LotteryError> {
        Self::with_source_kind(tickets, RandomSourceKind::Custom(source))
    }

    /// Creates a static lottery manager with an enum-dispatched draw
    /// source, refusing more masters than the LUT holds.
    fn with_source_kind(
        tickets: TicketAssignment,
        source: RandomSourceKind,
    ) -> Result<Self, LotteryError> {
        let n = tickets.masters();
        if n > MAX_LUT_MASTERS {
            return Err(LotteryError::LutTooLarge { masters: n, max: MAX_LUT_MASTERS });
        }
        let lut = build_lut(&tickets);
        Ok(StaticLotteryArbiter { tickets, lut, source })
    }

    /// The design-time ticket assignment.
    pub fn tickets(&self) -> &TicketAssignment {
        &self.tickets
    }

    /// The scaled per-master ticket holdings the LUT stores for a given
    /// request bitmap — exposed for inspection and tests.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has bits set beyond the number of masters.
    pub fn scaled_tickets(&self, bits: u32) -> Vec<u32> {
        let entry = &self.lut[bits as usize];
        let mut prev = 0;
        entry
            .cumsum
            .iter()
            .map(|&c| {
                let t = c - prev;
                prev = c;
                t
            })
            .collect()
    }

    /// The draw source, register state included.
    pub fn random_source(&self) -> &RandomSourceKind {
        &self.source
    }

    /// Replaces the draw source. Used by SoA fleet lowering to write a
    /// kernel slot's register state back into the scalar arbiter.
    pub fn set_random_source(&mut self, source: RandomSourceKind) {
        self.source = source;
    }

    /// The arbitration decision taken against an *external* draw
    /// source: identical LUT walk, identical draw cadence.
    /// [`Arbiter::arbitrate`] is exactly this with `self.source`; SoA
    /// fleet kernels share one arbiter's LUT across many per-lane
    /// sources.
    pub fn decide_with(
        &self,
        requests: &RequestMap,
        source: &mut RandomSourceKind,
    ) -> Option<Grant> {
        decide(&self.lut, requests, source)
    }
}

/// The shared decision body: LUT row lookup, zero-ticket fallback, one
/// draw, priority-select against the partial sums.
fn decide(lut: &[LutEntry], requests: &RequestMap, source: &mut RandomSourceKind) -> Option<Grant> {
    if requests.is_empty() {
        return None;
    }
    let entry = &lut[requests.bits() as usize];
    if entry.total == 0 {
        // Only zero-ticket masters are requesting; fall back to a
        // default grant so the bus cannot livelock. The paper assumes
        // every master holds at least one ticket.
        return requests.iter_pending().next().map(Grant::whole_burst);
    }
    let draw = u64::from(source.draw(entry.total));
    let winner = entry
        .cumsum
        .iter()
        .position(|&c| draw < u64::from(c))
        .map(MasterId::new)
        .expect("draw below total always selects a winner");
    debug_assert!(requests.is_pending(winner));
    Some(Grant::whole_burst(winner))
}

fn build_lut(tickets: &TicketAssignment) -> Vec<LutEntry> {
    let n = tickets.masters();
    (0u32..(1 << n))
        .map(|bits| {
            let subset: Vec<u32> = tickets
                .tickets()
                .iter()
                .enumerate()
                .map(|(i, &t)| if (bits >> i) & 1 == 1 { t } else { 0 })
                .collect();
            let scaled = match TicketAssignment::new(subset) {
                Ok(subset) => subset.scaled_to_power_of_two().tickets().to_vec(),
                // No contending tickets for this map (e.g. bits == 0).
                Err(_) => vec![0; n],
            };
            let mut acc = 0u32;
            let cumsum: Vec<u32> = scaled
                .iter()
                .map(|&t| {
                    acc += t;
                    acc
                })
                .collect();
            LutEntry { cumsum, total: acc }
        })
        .collect()
}

impl Arbiter for StaticLotteryArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        decide(&self.lut, requests, &mut self.source)
    }

    fn name(&self) -> &str {
        "lottery-static"
    }

    /// An empty arbitration returns before the LFSR draws, so the random
    /// stream's cadence is untouched by idle cycles: never pins the
    /// fast-forward horizon.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(masters: usize, pending: &[usize]) -> RequestMap {
        let mut map = RequestMap::new(masters);
        for &m in pending {
            map.set_pending(MasterId::new(m), 8);
        }
        map
    }

    fn arbiter(tickets: Vec<u32>) -> StaticLotteryArbiter {
        StaticLotteryArbiter::with_seed(TicketAssignment::new(tickets).expect("valid"), 0xACE1)
            .expect("valid")
    }

    #[test]
    fn idle_cycles_never_consume_the_random_stream() {
        // The fast-forward kernel skips idle arbitrations entirely (the
        // default `skip_idle` is a no-op); that is only sound because an
        // empty map returns before the LFSR draws.
        let mut stepped = arbiter(vec![1, 2, 3]);
        let mut fresh = arbiter(vec![1, 2, 3]);
        let empty = map_with(3, &[]);
        for c in 0..1_000u64 {
            assert!(stepped.arbitrate(&empty, Cycle::new(c)).is_none());
        }
        let map = map_with(3, &[0, 1, 2]);
        for c in 0..50u64 {
            assert_eq!(
                stepped.arbitrate(&map, Cycle::new(1_000 + c)),
                fresh.arbitrate(&map, Cycle::new(c)),
                "idle span shifted the draw cadence"
            );
        }
    }

    #[test]
    fn lut_subsets_are_power_of_two_scaled() {
        let arb = arbiter(vec![1, 2, 4]);
        // Full map: 1:2:4 scales to 5:9:18 per the paper.
        assert_eq!(arb.scaled_tickets(0b111), vec![5, 9, 18]);
        // Subset {0, 1}: total 3 scales to the power of two ≥ 4×3,
        // preserving the 1:2 ratio to within the rounding resolution.
        let sub = arb.scaled_tickets(0b011);
        assert_eq!(sub[2], 0);
        assert_eq!(sub[0] + sub[1], 16);
        let share = f64::from(sub[0]) / 16.0;
        assert!((share - 1.0 / 3.0).abs() < 0.07, "share {share}");
        // Empty map carries no tickets.
        assert_eq!(arb.scaled_tickets(0), vec![0, 0, 0]);
    }

    #[test]
    fn empty_requests_grant_nothing() {
        let mut arb = arbiter(vec![1, 1]);
        assert!(arb.arbitrate(&RequestMap::new(2), Cycle::ZERO).is_none());
    }

    #[test]
    fn sole_contender_always_wins() {
        let mut arb = arbiter(vec![1, 2, 3, 4]);
        let map = map_with(4, &[2]);
        for _ in 0..50 {
            assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(2));
        }
    }

    #[test]
    fn win_frequencies_track_ticket_ratios() {
        let mut arb = arbiter(vec![1, 2, 3, 4]);
        let map = map_with(4, &[0, 1, 2, 3]);
        let mut wins = [0u32; 4];
        let draws = 40_000;
        for _ in 0..draws {
            wins[arb.arbitrate(&map, Cycle::ZERO).unwrap().master.index()] += 1;
        }
        for (i, &w) in wins.iter().enumerate() {
            let expected = f64::from(draws) * (i as f64 + 1.0) / 10.0;
            let got = f64::from(w);
            assert!(
                (got - expected).abs() < expected * 0.1,
                "master {i}: {got} wins, expected ~{expected}"
            );
        }
    }

    #[test]
    fn subset_frequencies_track_subset_ratios() {
        let mut arb = arbiter(vec![1, 2, 3, 4]);
        // Only masters 0 and 3 contend: shares should be 1/5 and 4/5.
        let map = map_with(4, &[0, 3]);
        let mut wins = [0u32; 4];
        for _ in 0..20_000 {
            wins[arb.arbitrate(&map, Cycle::ZERO).unwrap().master.index()] += 1;
        }
        assert_eq!(wins[1] + wins[2], 0);
        let share0 = f64::from(wins[0]) / 20_000.0;
        assert!((share0 - 0.2).abs() < 0.03, "share {share0}");
    }

    #[test]
    fn zero_ticket_requesters_fall_back_instead_of_livelocking() {
        let mut arb = arbiter(vec![0, 5]);
        let map = map_with(2, &[0]);
        assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(0));
    }

    #[test]
    fn too_many_masters_for_lut_rejected() {
        let tickets = TicketAssignment::new(vec![1; MAX_LUT_MASTERS + 1]).expect("valid");
        assert!(matches!(
            StaticLotteryArbiter::new(tickets).unwrap_err(),
            LotteryError::LutTooLarge { .. }
        ));
    }
}
