//! ATM cells.

use socsim::Cycle;

/// Payload size of one ATM cell in 32-bit bus words: the 48-byte payload
/// of a 53-byte cell (the 5-byte header travels with the queued address,
/// not over the shared payload bus).
pub const PAYLOAD_WORDS: u32 = 12;

/// One ATM cell queued for forwarding: the address of its payload in the
/// shared memory plus bookkeeping for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtmCell {
    /// Destination output port (dense index).
    pub port: usize,
    /// Word address of the payload in the shared memory.
    pub address: u32,
    /// Cycle at which the cell arrived at the switch.
    pub arrived_at: Cycle,
}

impl AtmCell {
    /// Creates a cell bound for `port`, stored at `address`, arriving at
    /// `arrived_at`.
    pub fn new(port: usize, address: u32, arrived_at: Cycle) -> Self {
        AtmCell { port, address, arrived_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_matches_atm_geometry() {
        // 48 payload bytes on a 32-bit bus.
        assert_eq!(PAYLOAD_WORDS * 4, 48);
    }

    #[test]
    fn cell_round_trips() {
        let c = AtmCell::new(2, 0x100, Cycle::new(5));
        assert_eq!(c.port, 2);
        assert_eq!(c.address, 0x100);
        assert_eq!(c.arrived_at, Cycle::new(5));
    }
}
