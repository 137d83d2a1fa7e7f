//! Identifiers for bus components.

use std::fmt;

/// Identifies a bus master (a component that can initiate transactions,
/// e.g. a CPU, DSP or DMA controller).
///
/// Masters are numbered densely from zero in the order they are added to a
/// [`crate::SystemBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MasterId(usize);

impl MasterId {
    /// Creates a master id from its dense index.
    pub fn new(index: usize) -> Self {
        MasterId(index)
    }

    /// Returns the dense index of this master.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Identifies a bus slave (a component that only responds to transactions,
/// e.g. an on-chip memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlaveId(usize);

impl SlaveId {
    /// Creates a slave id from its dense index.
    pub fn new(index: usize) -> Self {
        SlaveId(index)
    }

    /// Returns the dense index of this slave.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SlaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_id_round_trips() {
        assert_eq!(MasterId::new(3).index(), 3);
        assert_eq!(MasterId::new(3).to_string(), "M3");
    }

    #[test]
    fn slave_id_round_trips() {
        assert_eq!(SlaveId::new(1).index(), 1);
        assert_eq!(SlaveId::new(1).to_string(), "S1");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(MasterId::new(0) < MasterId::new(1));
        assert!(SlaveId::new(2) > SlaveId::new(0));
    }
}
