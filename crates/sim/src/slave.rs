//! Slave-side bus components.

use crate::ids::SlaveId;

/// A bus slave: a component that responds to transactions (e.g. an
/// on-chip memory). The only performance-relevant property at the bus
/// level is how many wait states it inserts before responding to the
/// first word of a burst.
///
/// ```
/// use socsim::{Slave, SlaveId};
/// let mem = Slave::new(SlaveId::new(0), "shared-mem");
/// assert_eq!(mem.wait_states(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slave {
    id: SlaveId,
    name: String,
    wait_states: u32,
}

impl Slave {
    /// Creates a single-cycle (zero-wait-state) slave.
    pub fn new(id: SlaveId, name: impl Into<String>) -> Self {
        Slave { id, name: name.into(), wait_states: 0 }
    }

    /// Creates a slave inserting `wait_states` stall cycles before the
    /// first word of every burst addressed to it.
    pub fn with_wait_states(id: SlaveId, name: impl Into<String>, wait_states: u32) -> Self {
        Slave { id, name: name.into(), wait_states }
    }

    /// This slave's id.
    pub fn id(&self) -> SlaveId {
        self.id
    }

    /// The human-readable component name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stall cycles before the first word of each burst.
    pub fn wait_states(&self) -> u32 {
        self.wait_states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_states_configurable() {
        let s = Slave::with_wait_states(SlaveId::new(1), "sram", 2);
        assert_eq!(s.wait_states(), 2);
        assert_eq!(s.id(), SlaveId::new(1));
        assert_eq!(s.name(), "sram");
    }
}
