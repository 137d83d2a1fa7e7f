//! Switch assembly and the Table 1 experiment runner.

use crate::port::OutputPort;
use crate::report::AtmReport;
use crate::scheduler::{CellArrivals, CellScheduler};
use arbiters::{StaticPriorityArbiter, TdmaArbiter, WheelLayout};
use lotterybus::{StaticLotteryArbiter, TicketAssignment};
use socsim::{Arbiter, BusConfig, FaultConfig, MasterId, RetryPolicy, SlaveId, SystemBuilder};
use std::cell::RefCell;
use std::error::Error;
use std::rc::Rc;

/// Which communication architecture drives the switch's shared bus —
/// the three rows of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchArbiter {
    /// Static priority: port weights become priority levels.
    StaticPriority,
    /// Two-level TDMA: port weights become timing-wheel slot counts.
    Tdma,
    /// LOTTERYBUS: port weights become lottery tickets.
    Lottery,
}

impl SwitchArbiter {
    /// The architecture name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SwitchArbiter::StaticPriority => "static priority",
            SwitchArbiter::Tdma => "TDMA",
            SwitchArbiter::Lottery => "LOTTERYBUS",
        }
    }
}

/// Configuration of the cell-forwarding unit.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Cell-arrival pattern per output port.
    pub arrivals: Vec<CellArrivals>,
    /// QoS weights per port, applied uniformly as priorities, slot
    /// counts and lottery tickets (paper §5.3: "assigned uniformly in
    /// the ratio 1:2:4:6 for ports 1, 2, 3, 4").
    pub weights: Vec<u32>,
    /// Shared-bus parameters.
    pub bus: BusConfig,
    /// Warm-up cycles discarded before measurement.
    pub warmup: u64,
    /// TDMA wheel slots per weight unit (contiguous blocks, as in the
    /// paper's Figure 5 reservations).
    pub tdma_block: u32,
    /// Per-port address-queue capacity in cells (`None` = unbounded).
    /// With a bound, cells arriving at a full queue are dropped and
    /// reported as cell loss.
    pub queue_capacity: Option<usize>,
    /// Fault injection on the shared bus (`None` = fault-free). The
    /// plan seed lives inside the config, so a faulty run is exactly
    /// reproducible.
    pub fault: Option<FaultConfig>,
    /// Retry policy for payload fetches that hit injected errors. A
    /// fetch that exhausts its retries is a lost cell.
    pub retry: Option<RetryPolicy>,
    /// Watchdog timeout aborting wedged payload fetches, in cycles.
    pub timeout: Option<u64>,
}

impl SwitchConfig {
    /// The paper's §5.3 setup: ports 1–3 are heavily loaded data ports
    /// wanting bandwidth in ratio 1:2:4; port 4 carries sparse bursty
    /// latency-critical traffic; weights 1:2:4:6.
    ///
    /// The TDMA wheel uses 48 slots per weight unit (a 624-slot frame):
    /// commercial TDMA on-chip buses reserve long contiguous frames, and
    /// it is exactly this coarse slotting that makes TDMA latency suffer
    /// when bursty requests misalign with the reservations — the effect
    /// Table 1 reports (port-4 latency ≈ 7× the static-priority bus).
    pub fn paper_setup() -> Self {
        let payload = f64::from(crate::cell::PAYLOAD_WORDS);
        SwitchConfig {
            arrivals: vec![
                CellArrivals::Bernoulli { rate: 0.20 / payload },
                CellArrivals::Bernoulli { rate: 0.35 / payload },
                CellArrivals::Bernoulli { rate: 0.60 / payload },
                CellArrivals::Bursty { burst_min: 1, burst_max: 2, off_min: 300, off_max: 900 },
            ],
            weights: vec![1, 2, 4, 6],
            bus: BusConfig::default(),
            warmup: 20_000,
            tdma_block: 48,
            queue_capacity: None,
            fault: None,
            retry: None,
            timeout: None,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.arrivals.len()
    }

    /// Builds the arbiter realizing `arch` from the port weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the weights are invalid for the protocol
    /// (e.g. duplicate priorities for static priority).
    pub fn build_arbiter(
        &self,
        arch: SwitchArbiter,
        seed: u64,
    ) -> Result<Box<dyn Arbiter>, Box<dyn Error>> {
        Ok(match arch {
            SwitchArbiter::StaticPriority => {
                Box::new(StaticPriorityArbiter::new(self.weights.clone())?)
            }
            SwitchArbiter::Tdma => {
                let slots: Vec<u32> = self.weights.iter().map(|&w| w * self.tdma_block).collect();
                Box::new(TdmaArbiter::new(&slots, WheelLayout::Contiguous)?)
            }
            SwitchArbiter::Lottery => {
                let tickets = TicketAssignment::new(self.weights.clone())?;
                Box::new(StaticLotteryArbiter::with_seed(tickets, seed as u32 | 1)?)
            }
        })
    }

    /// Runs the switch for `cycles` measured cycles (after warm-up)
    /// under architecture `arch`, reproducing one row of Table 1.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration cannot be assembled (bad
    /// weights or bus parameters).
    pub fn run(
        &self,
        arch: SwitchArbiter,
        cycles: u64,
        seed: u64,
    ) -> Result<AtmReport, Box<dyn Error>> {
        let scheduler = Rc::new(RefCell::new(CellScheduler::with_capacity(
            self.arrivals.clone(),
            self.queue_capacity,
            seed,
        )));
        let shared_memory = SlaveId::new(0);
        let mut builder: SystemBuilder = SystemBuilder::new(self.bus);
        // With bounded address queues the port processes one cell at a
        // time (the paper's poll/dequeue/fetch loop), so overload backs
        // up into the queue and registers as cell loss; with unbounded
        // queues the interface pipelines freely.
        let pipeline = if self.queue_capacity.is_some() { 1 } else { usize::MAX };
        for port in 0..self.ports() {
            builder = builder.master(
                format!("port{}", port + 1),
                Box::new(
                    OutputPort::new(port, Rc::clone(&scheduler), shared_memory)
                        .with_pipeline_limit(pipeline),
                ),
            );
        }
        if let Some(fault) = self.fault {
            builder = builder.faults(fault);
        }
        if let Some(retry) = self.retry {
            builder = builder.retry_policy(retry);
        }
        if let Some(timeout) = self.timeout {
            builder = builder.timeout(timeout);
        }
        let mut system = builder.arbiter(self.build_arbiter(arch, seed)?).build()?;
        system.warm_up(self.warmup);
        system.run(cycles);
        let stats = system.stats();
        let ports = self.ports();
        let cells_dropped = (0..ports).map(|p| scheduler.borrow().dropped(p)).collect();
        let cells_aborted = (0..ports).map(|p| stats.master(MasterId::new(p)).aborted).collect();
        Ok(AtmReport {
            architecture: arch.name().into(),
            bandwidth: (0..ports).map(|p| stats.bandwidth_fraction(MasterId::new(p))).collect(),
            latency_cycles_per_word: (0..ports)
                .map(|p| stats.master(MasterId::new(p)).cycles_per_word())
                .collect(),
            cells_forwarded: (0..ports)
                .map(|p| stats.master(MasterId::new(p)).transactions)
                .collect(),
            cells_dropped,
            cells_aborted,
            utilization: stats.bus_utilization(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_is_consistent() {
        let cfg = SwitchConfig::paper_setup();
        assert_eq!(cfg.ports(), 4);
        assert_eq!(cfg.weights, vec![1, 2, 4, 6]);
    }

    #[test]
    fn lottery_run_shares_bandwidth_by_weight() {
        let cfg = SwitchConfig::paper_setup();
        let report = cfg.run(SwitchArbiter::Lottery, 150_000, 11).expect("runs");
        // Ports 1–3 are saturated relative to entitlement: their shares
        // should be ordered by weight 1 < 2 < 4.
        assert!(report.bandwidth_fraction(1) > report.bandwidth_fraction(0));
        assert!(report.bandwidth_fraction(2) > report.bandwidth_fraction(1));
        assert!(report.utilization > 0.5);
    }

    #[test]
    fn static_priority_starves_port_one() {
        let cfg = SwitchConfig::paper_setup();
        let report = cfg.run(SwitchArbiter::StaticPriority, 150_000, 11).expect("runs");
        // Port 1 has the lowest priority and the bus is oversubscribed.
        assert!(
            report.bandwidth_fraction(0) < 0.08,
            "port 1 got {:.3}",
            report.bandwidth_fraction(0)
        );
        // Port 4 (highest priority) sees near-minimum latency.
        let l4 = report.latency(3).expect("port 4 forwards cells");
        assert!(l4 < 2.5, "port 4 latency {l4}");
    }

    #[test]
    fn tdma_hurts_port_four_latency() {
        let cfg = SwitchConfig::paper_setup();
        let tdma = cfg.run(SwitchArbiter::Tdma, 150_000, 11).expect("runs");
        let lottery = cfg.run(SwitchArbiter::Lottery, 150_000, 11).expect("runs");
        let (lt, ll) = (tdma.latency(3).unwrap(), lottery.latency(3).unwrap());
        assert!(lt > 1.5 * ll, "TDMA latency {lt:.2} should far exceed lottery {ll:.2}");
    }

    #[test]
    fn finite_queues_drop_cells_on_oversubscribed_ports() {
        let mut cfg = SwitchConfig::paper_setup();
        cfg.queue_capacity = Some(8);
        let report = cfg.run(SwitchArbiter::StaticPriority, 150_000, 11).expect("runs");
        // Port 1 is starved by the priority scheme, so its bounded queue
        // overflows and cells are lost; the favoured port 4 loses none.
        assert!(report.cells_dropped[0] > 0, "port 1 drops: {:?}", report.cells_dropped);
        assert!(report.cell_loss_ratio(0) > 0.5);
        assert_eq!(report.cells_dropped[3], 0);

        // The unbounded default never drops.
        let unbounded = SwitchConfig::paper_setup()
            .run(SwitchArbiter::StaticPriority, 50_000, 11)
            .expect("runs");
        assert!(unbounded.cells_dropped.iter().all(|&d| d == 0));
    }

    #[test]
    fn faulty_bus_loses_cells_when_retries_run_out() {
        use socsim::{FaultConfig, RetryPolicy};
        let mut cfg = SwitchConfig::paper_setup();
        cfg.fault = Some(FaultConfig { slave_error_rate: 0.05, ..FaultConfig::with_seed(99) });
        cfg.retry = Some(RetryPolicy::exponential(2, 1));
        let report = cfg.run(SwitchArbiter::Lottery, 100_000, 11).expect("runs");
        let aborted: u64 = report.cells_aborted.iter().sum();
        assert!(aborted > 0, "5% error rate with 2 retries loses cells: {report}");
        // Losses show up in the per-port loss ratio even with unbounded
        // address queues.
        let lossy = (0..4).find(|&p| report.cells_aborted[p] > 0).expect("some port lost");
        assert!(report.cell_loss_ratio(lossy) > 0.0);

        // Bit-for-bit reproducible: same config and seed, same report.
        let again = cfg.run(SwitchArbiter::Lottery, 100_000, 11).expect("runs");
        assert_eq!(report, again);
    }

    #[test]
    fn fault_free_switch_never_aborts_cells() {
        let cfg = SwitchConfig::paper_setup();
        let report = cfg.run(SwitchArbiter::Lottery, 50_000, 11).expect("runs");
        assert!(report.cells_aborted.iter().all(|&a| a == 0));
    }

    #[test]
    fn every_architecture_builds() {
        let cfg = SwitchConfig::paper_setup();
        for arch in [SwitchArbiter::StaticPriority, SwitchArbiter::Tdma, SwitchArbiter::Lottery] {
            assert!(cfg.build_arbiter(arch, 3).is_ok(), "{}", arch.name());
        }
    }
}
