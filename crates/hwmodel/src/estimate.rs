//! Area/delay estimates and their composition rules.

use std::ops::Add;

/// An area/critical-path estimate for a hardware block.
///
/// Estimates compose in two ways: [`HwEstimate::then`] chains blocks in
/// series (areas add, delays add) and [`HwEstimate::beside`] places them
/// in parallel (areas add, delay is the slower path).
///
/// ```
/// use hwmodel::HwEstimate;
/// let a = HwEstimate::new(100.0, 1.0);
/// let b = HwEstimate::new(50.0, 2.0);
/// assert_eq!(a.then(b), HwEstimate::new(150.0, 3.0));
/// assert_eq!(a.beside(b), HwEstimate::new(150.0, 2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HwEstimate {
    /// Total area in cell grids.
    pub area_grids: f64,
    /// Critical-path delay in nanoseconds.
    pub delay_ns: f64,
}

impl HwEstimate {
    /// The empty block.
    pub const ZERO: HwEstimate = HwEstimate { area_grids: 0.0, delay_ns: 0.0 };

    /// Creates an estimate from raw numbers.
    pub fn new(area_grids: f64, delay_ns: f64) -> Self {
        HwEstimate { area_grids, delay_ns }
    }

    /// Series composition: `other` consumes this block's output.
    #[must_use]
    pub fn then(self, other: HwEstimate) -> HwEstimate {
        HwEstimate {
            area_grids: self.area_grids + other.area_grids,
            delay_ns: self.delay_ns + other.delay_ns,
        }
    }

    /// Parallel composition: both blocks operate side by side.
    #[must_use]
    pub fn beside(self, other: HwEstimate) -> HwEstimate {
        HwEstimate {
            area_grids: self.area_grids + other.area_grids,
            delay_ns: self.delay_ns.max(other.delay_ns),
        }
    }

    /// `n` copies of this block in parallel.
    #[must_use]
    pub fn replicated(self, n: usize) -> HwEstimate {
        HwEstimate { area_grids: self.area_grids * n as f64, delay_ns: self.delay_ns }
    }

    /// The highest clock frequency (MHz) at which this block completes
    /// in a single cycle.
    pub fn max_freq_mhz(&self) -> f64 {
        if self.delay_ns <= 0.0 {
            f64::INFINITY
        } else {
            1_000.0 / self.delay_ns
        }
    }
}

impl Add for HwEstimate {
    type Output = HwEstimate;

    /// `+` is series composition ([`HwEstimate::then`]).
    fn add(self, rhs: HwEstimate) -> HwEstimate {
        self.then(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_adds_delay_parallel_takes_max() {
        let a = HwEstimate::new(10.0, 0.5);
        let b = HwEstimate::new(20.0, 0.3);
        assert_eq!((a + b).delay_ns, 0.8);
        assert_eq!(a.beside(b).delay_ns, 0.5);
        assert_eq!((a + b).area_grids, 30.0);
    }

    #[test]
    fn replication_scales_area_only() {
        let a = HwEstimate::new(10.0, 0.5).replicated(4);
        assert_eq!(a.area_grids, 40.0);
        assert_eq!(a.delay_ns, 0.5);
    }

    #[test]
    fn max_freq_is_inverse_delay() {
        let a = HwEstimate::new(1.0, 2.0);
        assert!((a.max_freq_mhz() - 500.0).abs() < 1e-9);
        assert!(HwEstimate::ZERO.max_freq_mhz().is_infinite());
    }
}
