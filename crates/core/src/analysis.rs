//! Closed-form analysis of the lottery protocol (paper §4.2).
//!
//! The paper argues LOTTERYBUS is starvation-free: "the probability `p`
//! that a component with `t` tickets is able to access the bus within `n`
//! lottery drawings is given by `1 − (1 − t/T)^n`", which converges
//! rapidly to one. These helpers expose that bound and its inverses; the
//! test suite cross-checks them against Monte Carlo simulation of the
//! actual managers.

/// Probability that a contender holding `tickets` of `total` tickets
/// wins at least once within `drawings` lotteries: `1 − (1 − t/T)^n`.
///
/// # Panics
///
/// Panics if `total` is zero or `tickets > total`.
///
/// ```
/// use lotterybus::win_within_probability;
/// // A 10%-ticket holder is served within 44 lotteries with p > 0.99.
/// assert!(win_within_probability(1, 10, 44) > 0.99);
/// ```
pub fn win_within_probability(tickets: u32, total: u32, drawings: u32) -> f64 {
    assert!(total > 0, "total tickets must be nonzero");
    assert!(tickets <= total, "a contender cannot hold more than all tickets");
    let loss = 1.0 - f64::from(tickets) / f64::from(total);
    1.0 - loss.powi(drawings as i32)
}

/// Expected number of lotteries until a contender holding `tickets` of
/// `total` wins (geometric distribution mean `T/t`).
///
/// # Panics
///
/// Panics if `tickets` is zero or `tickets > total`.
pub fn expected_lotteries_to_win(tickets: u32, total: u32) -> f64 {
    assert!(tickets > 0, "a zero-ticket contender never wins");
    assert!(tickets <= total, "a contender cannot hold more than all tickets");
    f64::from(total) / f64::from(tickets)
}

/// Smallest number of lotteries after which a contender holding
/// `tickets` of `total` has won with probability at least `confidence`.
///
/// # Panics
///
/// Panics if `tickets` is zero, `tickets > total`, or `confidence` is
/// not in `(0, 1)`.
///
/// ```
/// use lotterybus::analysis::lotteries_for_confidence;
/// let n = lotteries_for_confidence(1, 10, 0.999);
/// assert_eq!(n, 66); // (1 - 0.1)^66 < 0.001
/// ```
pub fn lotteries_for_confidence(tickets: u32, total: u32, confidence: f64) -> u32 {
    assert!(tickets > 0, "a zero-ticket contender never wins");
    assert!(tickets <= total, "a contender cannot hold more than all tickets");
    assert!(confidence > 0.0 && confidence < 1.0, "confidence must be strictly between 0 and 1");
    if tickets == total {
        return 1;
    }
    let loss = 1.0 - f64::from(tickets) / f64::from(total);
    ((1.0 - confidence).ln() / loss.ln()).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_is_monotone_in_drawings() {
        let mut last = 0.0;
        for n in 1..50 {
            let p = win_within_probability(2, 10, n);
            assert!(p > last, "p({n}) = {p} not increasing");
            last = p;
        }
        assert!(last > 0.99995);
    }

    #[test]
    fn full_ticket_holder_wins_immediately() {
        assert!((win_within_probability(7, 7, 1) - 1.0).abs() < 1e-12);
        assert_eq!(lotteries_for_confidence(7, 7, 0.999), 1);
        assert!((expected_lotteries_to_win(7, 7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_wait_is_inverse_share() {
        assert!((expected_lotteries_to_win(1, 10) - 10.0).abs() < 1e-12);
        assert!((expected_lotteries_to_win(4, 10) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn confidence_bound_is_tight() {
        let n = lotteries_for_confidence(1, 10, 0.99);
        assert!(win_within_probability(1, 10, n) >= 0.99);
        assert!(win_within_probability(1, 10, n - 1) < 0.99);
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        use crate::rng::{LfsrSource, RandomSource};
        // Empirical P(win within 5 draws) for a 3-of-10 ticket holder.
        let mut source = LfsrSource::new(24, 0x5EED);
        let trials = 20_000;
        let mut hits = 0u32;
        for _ in 0..trials {
            if (0..5).any(|_| source.draw(10) < 3) {
                hits += 1;
            }
        }
        let empirical = f64::from(hits) / f64::from(trials);
        let predicted = win_within_probability(3, 10, 5);
        assert!(
            (empirical - predicted).abs() < 0.01,
            "empirical {empirical:.4} vs predicted {predicted:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "never wins")]
    fn zero_ticket_expected_wait_panics() {
        let _ = expected_lotteries_to_win(0, 10);
    }

    #[test]
    fn monte_carlo_share_respects_hoeffding() {
        use crate::rng::{LfsrSource, RandomSource};
        // 30% ticket holder, 10_000 lotteries: empirical share must fall
        // within the 99.9%-confidence epsilon.
        let epsilon = ((2.0f64 / 0.001).ln() / (2.0 * 10_000.0)).sqrt();
        let mut source = LfsrSource::new(28, 0xF00D);
        let wins = (0..10_000).filter(|_| source.draw(10) < 3).count();
        let share = wins as f64 / 10_000.0;
        assert!(
            (share - 0.3).abs() <= epsilon,
            "share {share:.4} deviates more than epsilon {epsilon:.4}"
        );
    }
}
