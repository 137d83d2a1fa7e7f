//! Generator specifications: serializable descriptions of a component's
//! communication traffic.

use crate::generator::StochasticSource;
use crate::kind::SourceKind;
use crate::size::SizeDist;
use socsim::TrafficSource;

/// The message *arrival process* of one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// One message every `period` cycles, starting at `phase`, each
    /// arrival delayed by an independent uniform jitter in `0..=jitter`.
    ///
    /// Deterministic periodic traffic is how the paper's Example 2 /
    /// Figure 5 exposes the TDMA architecture's sensitivity to the
    /// time-alignment of requests and slot reservations.
    Periodic {
        /// Cycles between arrivals.
        period: u64,
        /// Cycle of the first arrival.
        phase: u64,
        /// Maximum uniform jitter added to each arrival.
        jitter: u64,
    },
    /// Memoryless arrivals: each cycle a message arrives with
    /// probability `rate` (a discrete-time Poisson process).
    Bernoulli {
        /// Expected messages per cycle (must be in `[0, 1]`).
        rate: f64,
    },
    /// Bursty on–off traffic: bursts of `burst_min..=burst_max` messages
    /// spaced `intra_gap` cycles apart, separated by off periods drawn
    /// uniformly from `off_min..=off_max` cycles.
    OnOff {
        /// Fewest messages per burst.
        burst_min: u32,
        /// Most messages per burst.
        burst_max: u32,
        /// Cycles between messages inside a burst.
        intra_gap: u64,
        /// Shortest off period between bursts.
        off_min: u64,
        /// Longest off period between bursts.
        off_max: u64,
        /// Cycle of the first burst.
        phase: u64,
    },
}

/// A complete traffic description for one master: arrival process,
/// message sizes, and the addressed slave.
///
/// ```
/// use traffic_gen::{GeneratorSpec, SizeDist};
/// let spec = GeneratorSpec::poisson(0.02, SizeDist::fixed(16));
/// assert!((spec.offered_load() - 0.32).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorSpec {
    /// When messages arrive.
    pub arrival: ArrivalSpec,
    /// How large messages are.
    pub size: SizeDist,
    /// Dense index of the slave all messages address.
    pub slave: usize,
}

impl GeneratorSpec {
    /// Periodic traffic: a `size`-distributed message every `period`
    /// cycles starting at `phase`, without jitter.
    pub fn periodic(period: u64, phase: u64, size: SizeDist) -> Self {
        GeneratorSpec {
            arrival: ArrivalSpec::Periodic { period, phase, jitter: 0 },
            size,
            slave: 0,
        }
    }

    /// Periodic traffic with uniform per-arrival jitter in `0..=jitter`.
    pub fn periodic_jittered(period: u64, phase: u64, jitter: u64, size: SizeDist) -> Self {
        GeneratorSpec { arrival: ArrivalSpec::Periodic { period, phase, jitter }, size, slave: 0 }
    }

    /// Memoryless traffic at `rate` messages per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn poisson(rate: f64, size: SizeDist) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a per-cycle probability");
        GeneratorSpec { arrival: ArrivalSpec::Bernoulli { rate }, size, slave: 0 }
    }

    /// Bursty on–off traffic.
    ///
    /// # Panics
    ///
    /// Panics if `burst_min` is zero or a range is reversed.
    pub fn bursty(
        burst_min: u32,
        burst_max: u32,
        intra_gap: u64,
        off_min: u64,
        off_max: u64,
        phase: u64,
        size: SizeDist,
    ) -> Self {
        assert!(burst_min > 0, "bursts must contain at least one message");
        assert!(burst_min <= burst_max, "burst range reversed");
        assert!(off_min <= off_max, "off-period range reversed");
        GeneratorSpec {
            arrival: ArrivalSpec::OnOff {
                burst_min,
                burst_max,
                intra_gap,
                off_min,
                off_max,
                phase,
            },
            size,
            slave: 0,
        }
    }

    /// Redirects all messages to slave `slave`.
    pub fn to_slave(mut self, slave: usize) -> Self {
        self.slave = slave;
        self
    }

    /// Long-run offered load in bus words per cycle (ignoring jitter).
    pub fn offered_load(&self) -> f64 {
        let msgs_per_cycle = match self.arrival {
            ArrivalSpec::Periodic { period, .. } => 1.0 / period as f64,
            ArrivalSpec::Bernoulli { rate } => rate,
            ArrivalSpec::OnOff { burst_min, burst_max, intra_gap, off_min, off_max, .. } => {
                let msgs = f64::from(burst_min + burst_max) / 2.0;
                let burst_span = (msgs - 1.0).max(0.0) * intra_gap as f64 + 1.0;
                let off = (off_min + off_max) as f64 / 2.0;
                msgs / (burst_span + off)
            }
        };
        msgs_per_cycle * self.size.mean()
    }

    /// Instantiates the deterministic traffic source described by this
    /// spec, seeded with `seed`.
    pub fn build_source(self, seed: u64) -> Box<dyn TrafficSource> {
        Box::new(StochasticSource::new(self, seed))
    }

    /// Like [`GeneratorSpec::build_source`], but returns the
    /// enum-dispatched [`SourceKind`] the simulator's devirtualized hot
    /// loop polls without a vtable hop. Same spec + seed produce the
    /// identical traffic stream on either path.
    pub fn build_kind(self, seed: u64) -> SourceKind {
        SourceKind::Stochastic(StochasticSource::new(self, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_periodic() {
        let spec = GeneratorSpec::periodic(40, 0, SizeDist::fixed(8));
        assert!((spec.offered_load() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn offered_load_bursty_accounts_for_off_periods() {
        // Bursts of exactly 4 messages of 10 words, back-to-back, with
        // 99-cycle off periods: 40 words per ~100 cycles.
        let spec = GeneratorSpec::bursty(4, 4, 0, 99, 99, 0, SizeDist::fixed(10));
        let load = spec.offered_load();
        assert!((load - 0.4).abs() < 0.01, "load {load}");
    }

    #[test]
    fn to_slave_changes_destination() {
        let spec = GeneratorSpec::poisson(0.1, SizeDist::fixed(1)).to_slave(3);
        assert_eq!(spec.slave, 3);
    }

    #[test]
    #[should_panic(expected = "per-cycle probability")]
    fn silly_rate_rejected() {
        let _ = GeneratorSpec::poisson(3.0, SizeDist::fixed(1));
    }
}
