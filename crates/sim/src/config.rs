//! Bus configuration parameters.

/// Static parameters of a shared bus, mirroring the knobs of the paper's
/// test-bed (Figure 1: `BURST_SIZE=16, WIDTH=16, FREQ=66MHz, …`).
///
/// ```
/// use socsim::BusConfig;
/// let cfg = BusConfig { max_burst: 8, ..BusConfig::default() };
/// assert_eq!(cfg.max_burst, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Maximum number of words a single grant may transfer before the
    /// master must re-arbitrate. Prevents a master from monopolizing the
    /// bus (§4.1 of the paper).
    pub max_burst: u32,
    /// Extra bus cycles consumed by arbitration before the first word of
    /// each grant. The paper pipelines lottery-manager operation with data
    /// transfer, so the default is zero.
    pub arbitration_overhead: u32,
    /// Wait states inserted by the addressed slave before the first word
    /// of each grant (0 = single-cycle slave).
    pub slave_wait_states: u32,
    /// Bus width in bits. Only used for reporting (throughput in bits);
    /// transfers are counted in words.
    pub width_bits: u32,
    /// Nominal bus clock in MHz. Only used for reporting.
    pub freq_mhz: u32,
}

impl BusConfig {
    /// The configuration used throughout the paper's experiments:
    /// 16-word bursts, pipelined (zero-overhead) arbitration,
    /// single-cycle slaves, 32-bit data path.
    pub fn new() -> Self {
        BusConfig {
            max_burst: 16,
            arbitration_overhead: 0,
            slave_wait_states: 0,
            width_bits: 32,
            freq_mhz: 66,
        }
    }

    /// Stall cycles inserted before the first word of a grant whose
    /// addressed slave uses `wait_states`: arbitration overhead plus the
    /// slave's wait states. This is the per-tenure fixed cost — the bus
    /// step loop, the fleet's tenure batch, and the `analytic` predictors
    /// all derive tenure durations from it.
    #[inline]
    pub fn grant_stall(&self, wait_states: u32) -> u32 {
        self.arbitration_overhead + wait_states
    }

    /// [`BusConfig::grant_stall`] for the default (config-level) slave
    /// wait states: the per-grant overhead of a tenure addressed to an
    /// undeclared slave.
    #[inline]
    pub fn per_grant_overhead(&self) -> u32 {
        self.grant_stall(self.slave_wait_states)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: `max_burst` and
    /// `width_bits` must be nonzero.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_burst == 0 {
            return Err("max_burst must be at least 1".into());
        }
        if self.width_bits == 0 {
            return Err("width_bits must be at least 1".into());
        }
        Ok(())
    }
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let cfg = BusConfig::default();
        assert_eq!(cfg.max_burst, 16);
        assert_eq!(cfg.arbitration_overhead, 0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_burst_rejected() {
        let cfg = BusConfig { max_burst: 0, ..BusConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_width_rejected() {
        let cfg = BusConfig { width_bits: 0, ..BusConfig::default() };
        assert!(cfg.validate().is_err());
    }
}
