//! Lottery-ticket assignments and power-of-two scaling.

use crate::error::LotteryError;
use socsim::{MasterId, MAX_MASTERS};

/// Largest ticket count a single master may hold. Bounding individual
/// counts keeps every partial sum comfortably inside `u32`, matching the
/// fixed ticket-register width of the hardware design.
pub const MAX_TICKETS_PER_MASTER: u32 = 1 << 20;

/// A validated assignment of lottery tickets to masters.
///
/// Master *i* holds `tickets()[i]` tickets; its long-run bandwidth share
/// under saturation is `tickets()[i] / total()`. Individual masters may
/// hold zero tickets (they can then only win when no ticket holder
/// requests — i.e. never), but the total must be positive.
///
/// ```
/// use lotterybus::TicketAssignment;
/// # fn main() -> Result<(), lotterybus::LotteryError> {
/// let t = TicketAssignment::new(vec![1, 2, 4])?;
/// assert_eq!(t.total(), 7);
/// // §4.3: scaled so the total is a power of two while preserving ratios.
/// let scaled = t.scaled_to_power_of_two();
/// assert_eq!(scaled.tickets(), &[5, 9, 18]);
/// assert_eq!(scaled.total(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TicketAssignment {
    tickets: Vec<u32>,
}

impl TicketAssignment {
    /// Creates an assignment giving `tickets[i]` tickets to master *i*.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, exceeds
    /// [`socsim::MAX_MASTERS`] masters, sums to zero, or any count
    /// exceeds [`MAX_TICKETS_PER_MASTER`].
    pub fn new(tickets: Vec<u32>) -> Result<Self, LotteryError> {
        if tickets.is_empty() {
            return Err(LotteryError::NoMasters);
        }
        if tickets.len() > MAX_MASTERS {
            return Err(LotteryError::TooManyMasters { got: tickets.len(), max: MAX_MASTERS });
        }
        if let Some((master, &t)) =
            tickets.iter().enumerate().find(|(_, &t)| t > MAX_TICKETS_PER_MASTER)
        {
            return Err(LotteryError::TicketTooLarge {
                master,
                tickets: t,
                max: MAX_TICKETS_PER_MASTER,
            });
        }
        if tickets.iter().all(|&t| t == 0) {
            return Err(LotteryError::ZeroTotalTickets);
        }
        Ok(TicketAssignment { tickets })
    }

    /// The per-master ticket counts.
    pub fn tickets(&self) -> &[u32] {
        &self.tickets
    }

    /// Number of masters covered by the assignment.
    pub fn masters(&self) -> usize {
        self.tickets.len()
    }

    /// Tickets held by `master` (zero if out of range).
    pub fn get(&self, master: MasterId) -> u32 {
        self.tickets.get(master.index()).copied().unwrap_or(0)
    }

    /// Total number of tickets.
    pub fn total(&self) -> u32 {
        self.tickets.iter().sum()
    }

    /// The bandwidth fraction `master` is entitled to: `t_i / T`.
    pub fn fraction(&self, master: MasterId) -> f64 {
        f64::from(self.get(master)) / f64::from(self.total())
    }

    /// Rescales the assignment so the total is the next power of two,
    /// preserving ticket ratios as closely as possible (paper §4.3, which
    /// scales 1:2:4 with `T = 7` to 5:9:18 with `T = 32`).
    ///
    /// Masters holding at least one ticket keep at least one ticket, so
    /// scaling never disenfranchises anyone. The largest-remainder method
    /// guarantees the scaled counts hit the power-of-two total exactly.
    pub fn scaled_to_power_of_two(&self) -> TicketAssignment {
        // Two extra bits of resolution reproduce the paper's example
        // exactly: 1:2:4 (T = 7) → target 32 → 5:9:18.
        self.scaled_to_power_of_two_with_resolution(2)
    }

    /// Like [`TicketAssignment::scaled_to_power_of_two`] but with an
    /// explicit resolution: the target total is the next power of two at
    /// least `2^extra_bits` times the original total. More bits preserve
    /// the ratios more precisely at the cost of wider comparators; the
    /// `scaling_resolution` ablation quantifies the trade-off.
    pub fn scaled_to_power_of_two_with_resolution(&self, extra_bits: u32) -> TicketAssignment {
        let total = u64::from(self.total());
        if total.is_power_of_two() {
            return self.clone();
        }
        // The ticket-holder list is fixed for this assignment: build it
        // once and reuse the buffer across doubling retries instead of
        // reallocating (and re-filtering) inside every attempt. The
        // remainder sort itself depends on `target`, so it runs lazily
        // inside `try_scale_to` — only when a shortfall actually needs
        // distributing.
        let mut order: Vec<usize> =
            (0..self.tickets.len()).filter(|&i| self.tickets[i] > 0).collect();
        let mut target = (total << extra_bits).next_power_of_two();
        loop {
            if let Some(scaled) = self.try_scale_to(target, &mut order) {
                return scaled;
            }
            // Tiny ticket holders forced every entry to 1 and overflowed
            // the target; doubling makes room while staying a power of 2.
            target = target.checked_mul(2).expect("scaling target overflowed u64");
        }
    }

    fn try_scale_to(&self, target: u64, order: &mut [usize]) -> Option<TicketAssignment> {
        let total = u128::from(self.total());
        let wide = u128::from(target);
        // Floor of the exact share, with nonzero holders kept >= 1. The
        // product is taken in u128: with wide resolutions (large
        // `extra_bits`) `tickets[i] * target` can overflow u64.
        let mut scaled: Vec<u64> = self
            .tickets
            .iter()
            .map(|&t| if t == 0 { 0 } else { ((u128::from(t) * wide / total) as u64).max(1) })
            .collect();
        let assigned: u64 = scaled.iter().sum();
        if assigned > target {
            return None;
        }
        let mut short = target - assigned;
        if short > 0 {
            // Distribute the shortfall by largest fractional remainder,
            // ties broken by master index — the index tiebreak makes the
            // result independent of the buffer's incoming permutation
            // (it may carry a previous attempt's order on retries).
            order.sort_by_key(|&i| {
                (std::cmp::Reverse(u128::from(self.tickets[i]) * wide % total), i)
            });
            let mut next = 0usize;
            while short > 0 {
                scaled[order[next % order.len()]] += 1;
                next += 1;
                short -= 1;
            }
        }
        let tickets: Vec<u32> = scaled.into_iter().map(|t| t as u32).collect();
        // Construct directly: scaled holdings live in the lottery
        // manager's (wider) internal registers, so the per-master cap on
        // user-supplied assignments does not apply to them.
        Some(TicketAssignment { tickets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scaling_example() {
        // §4.3: "if the ticket holdings of three components are in the
        // ratio 1:2:4 (T=7), they would be scaled to 5:9:18 (T=32)".
        let t = TicketAssignment::new(vec![1, 2, 4]).expect("valid");
        let scaled = t.scaled_to_power_of_two();
        assert_eq!(scaled.tickets(), &[5, 9, 18]);
    }

    #[test]
    fn power_of_two_totals_are_untouched_in_total() {
        let t = TicketAssignment::new(vec![1, 3]).expect("valid");
        let scaled = t.scaled_to_power_of_two();
        assert_eq!(scaled.total(), 4);
        assert_eq!(scaled.tickets(), &[1, 3]);
    }

    #[test]
    fn zero_holders_stay_zero_and_others_stay_positive() {
        let t = TicketAssignment::new(vec![0, 1, 100]).expect("valid");
        let scaled = t.scaled_to_power_of_two();
        assert_eq!(scaled.tickets()[0], 0);
        assert!(scaled.tickets()[1] >= 1);
        assert!(scaled.total().is_power_of_two());
    }

    #[test]
    fn scaling_preserves_ratios_closely() {
        let t = TicketAssignment::new(vec![3, 5, 7, 11]).expect("valid");
        let scaled = t.scaled_to_power_of_two();
        assert!(scaled.total().is_power_of_two());
        for i in 0..4 {
            let before = t.fraction(MasterId::new(i));
            let after = scaled.fraction(MasterId::new(i));
            assert!(
                (before - after).abs() < 0.05,
                "master {i}: fraction {before:.3} became {after:.3}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_assignments() {
        assert_eq!(TicketAssignment::new(vec![]).unwrap_err(), LotteryError::NoMasters);
        assert_eq!(TicketAssignment::new(vec![0, 0]).unwrap_err(), LotteryError::ZeroTotalTickets);
        assert!(matches!(
            TicketAssignment::new(vec![MAX_TICKETS_PER_MASTER + 1]).unwrap_err(),
            LotteryError::TicketTooLarge { .. }
        ));
        assert!(matches!(
            TicketAssignment::new(vec![1; MAX_MASTERS + 1]).unwrap_err(),
            LotteryError::TooManyMasters { .. }
        ));
    }

    #[test]
    fn accessors() {
        let t = TicketAssignment::new(vec![2, 6]).expect("valid");
        assert_eq!(t.get(MasterId::new(1)), 6);
        assert_eq!(t.get(MasterId::new(9)), 0);
        assert!((t.fraction(MasterId::new(0)) - 0.25).abs() < 1e-12);
        assert_eq!(t.masters(), 2);
    }
}
