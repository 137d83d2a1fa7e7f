//! Configuration errors shared by the baseline arbiters.

use std::error::Error;
use std::fmt;

/// Error returned when an arbiter is constructed with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArbiterConfigError {
    /// The arbiter was configured for zero masters.
    NoMasters,
    /// More masters than the bus supports.
    TooManyMasters {
        /// Number of masters requested.
        got: usize,
        /// Maximum supported.
        max: usize,
    },
    /// Priority values must be unique (the paper's static-priority bus
    /// assigns each master a distinct priority level).
    DuplicatePriority(u32),
    /// Every master must own at least one slot / one token position.
    UnservedMaster(usize),
    /// The TDMA timing wheel would hold more than
    /// [`crate::tdma::MAX_WHEEL_SLOTS`] slots.
    WheelTooLarge {
        /// Slots the wheel would hold (saturating at `u64::MAX`).
        slots: u64,
        /// Maximum supported.
        max: usize,
    },
    /// A failover arbiter needs at least one cycle of patience before
    /// declaring its primary wedged.
    ZeroPatience,
    /// A recovering failover arbiter needs at least one healthy shadow
    /// decision before re-promoting its primary.
    ZeroRecoveryWindow,
}

impl fmt::Display for ArbiterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbiterConfigError::NoMasters => write!(f, "arbiter configured for zero masters"),
            ArbiterConfigError::TooManyMasters { got, max } => {
                write!(f, "arbiter configured for {got} masters but at most {max} supported")
            }
            ArbiterConfigError::DuplicatePriority(p) => {
                write!(f, "priority value {p} assigned to more than one master")
            }
            ArbiterConfigError::UnservedMaster(m) => {
                write!(f, "master {m} owns no slot in the timing wheel")
            }
            ArbiterConfigError::WheelTooLarge { slots, max } => {
                write!(f, "TDMA timing wheel of {slots} slots exceeds the limit of {max} slots")
            }
            ArbiterConfigError::ZeroPatience => {
                write!(f, "failover patience must be at least 1 cycle")
            }
            ArbiterConfigError::ZeroRecoveryWindow => {
                write!(f, "failover recovery window must be at least 1 healthy decision")
            }
        }
    }
}

impl Error for ArbiterConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_offenders() {
        assert!(ArbiterConfigError::DuplicatePriority(3).to_string().contains('3'));
        assert!(ArbiterConfigError::UnservedMaster(2).to_string().contains('2'));
        let wheel = ArbiterConfigError::WheelTooLarge { slots: 5_000_000, max: 1 << 20 };
        assert!(wheel.to_string().contains("5000000") && wheel.to_string().contains("1048576"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync>() {}
        assert_error::<ArbiterConfigError>();
    }
}
