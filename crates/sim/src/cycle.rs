//! Bus-cycle time points.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in bus cycles since reset.
///
/// `Cycle` is a newtype around `u64` so that cycle counts cannot be
/// accidentally mixed with word counts or other integers.
///
/// ```
/// use socsim::Cycle;
/// let t = Cycle::new(10) + 5;
/// assert_eq!(t.index(), 15);
/// assert_eq!(t - Cycle::new(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// The first cycle after reset.
    pub const ZERO: Cycle = Cycle(0);

    /// A time point later than any reachable simulation cycle.
    ///
    /// The fast-forward kernel uses `NEVER` as the event horizon of
    /// components that have nothing scheduled (see
    /// [`crate::fastforward`]): taking the minimum over all horizons
    /// then naturally ignores them.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Creates a cycle time point from a raw cycle index.
    #[inline]
    pub fn new(index: u64) -> Self {
        Cycle(index)
    }

    /// Returns the raw cycle index.
    #[inline]
    pub fn index(self) -> u64 {
        self.0
    }

    /// Returns the cycle `n` cycles after `self`, saturating at `u64::MAX`.
    #[inline]
    pub fn saturating_add(self, n: u64) -> Self {
        Cycle(self.0.saturating_add(n))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Number of cycles from `rhs` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    fn from(index: u64) -> Self {
        Cycle(index)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = Cycle::new(100);
        assert_eq!((t + 20) - t, 20);
        let mut u = t;
        u += 5;
        assert_eq!(u.index(), 105);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::ZERO, Cycle::new(0));
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(Cycle::new(u64::MAX).saturating_add(3).index(), u64::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(7).to_string(), "cycle 7");
    }

    #[test]
    fn never_is_after_everything() {
        assert!(Cycle::new(u64::MAX - 1) < Cycle::NEVER);
        assert_eq!(Cycle::NEVER.saturating_add(10), Cycle::NEVER);
    }
}
