//! The cell scheduler: writes arriving cells into the shared memory and
//! their addresses into per-port queues.

use crate::cell::AtmCell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socsim::Cycle;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Cell-arrival pattern for one output port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellArrivals {
    /// Memoryless arrivals: a cell arrives each cycle with probability
    /// `rate` (heavily loaded data ports).
    Bernoulli {
        /// Expected cells per cycle.
        rate: f64,
    },
    /// Bursty arrivals: trains of `burst_min..=burst_max` back-to-back
    /// cells separated by off periods of `off_min..=off_max` cycles
    /// (the latency-critical port 4 traffic).
    Bursty {
        /// Fewest cells per train.
        burst_min: u32,
        /// Most cells per train.
        burst_max: u32,
        /// Shortest gap between trains.
        off_min: u64,
        /// Longest gap between trains.
        off_max: u64,
    },
}

/// Handle to one port's address queue, shared between the scheduler
/// (producer) and the output port (consumer).
pub type PortQueue = Rc<RefCell<VecDeque<AtmCell>>>;

/// The arrival side of the switch: advances all ports' arrival processes
/// and pushes cell addresses onto the per-port queues. Payload writes go
/// through the shared memory's second port and therefore do not contend
/// for the forwarding bus.
#[derive(Debug)]
pub struct CellScheduler {
    patterns: Vec<CellArrivals>,
    queues: Vec<PortQueue>,
    rng: StdRng,
    /// Next burst start per bursty port (ignored for Bernoulli ports).
    next_burst: Vec<u64>,
    /// First cycle not yet generated.
    horizon: u64,
    next_address: u32,
    scheduled: u64,
    /// Per-port address-queue capacity (`None` = unbounded).
    capacity: Option<usize>,
    /// Cells dropped per port because its queue was full.
    dropped: Vec<u64>,
}

impl CellScheduler {
    /// Creates a scheduler for `patterns.len()` ports with the given
    /// arrival patterns, seeded with `seed`, with unbounded queues.
    pub fn new(patterns: Vec<CellArrivals>, seed: u64) -> Self {
        Self::with_capacity(patterns, None, seed)
    }

    /// Like [`CellScheduler::new`], but with a per-port address-queue
    /// capacity: arriving cells that find their queue full are dropped
    /// and counted — real output-queued switches lose cells this way
    /// when an output is persistently oversubscribed.
    pub fn with_capacity(patterns: Vec<CellArrivals>, capacity: Option<usize>, seed: u64) -> Self {
        let n = patterns.len();
        CellScheduler {
            patterns,
            queues: (0..n).map(|_| Rc::new(RefCell::new(VecDeque::new()))).collect(),
            rng: StdRng::seed_from_u64(seed),
            next_burst: vec![0; n],
            horizon: 0,
            next_address: 0,
            scheduled: 0,
            capacity,
            dropped: vec![0; n],
        }
    }

    /// Cells dropped at `port` because its queue was full.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn dropped(&self, port: usize) -> u64 {
        self.dropped[port]
    }

    /// The shared queue handle for `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn queue(&self, port: usize) -> PortQueue {
        Rc::clone(&self.queues[port])
    }

    /// Total cells scheduled so far.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Generates all arrivals up to and including cycle `now`. Idempotent
    /// within a cycle, so every port may call it safely.
    pub fn advance_to(&mut self, now: Cycle) {
        while self.horizon <= now.index() {
            let cycle = self.horizon;
            for port in 0..self.patterns.len() {
                match self.patterns[port] {
                    CellArrivals::Bernoulli { rate } => {
                        if rate > 0.0 && self.rng.gen_bool(rate.min(1.0)) {
                            self.push_cell(port, cycle);
                        }
                    }
                    CellArrivals::Bursty { burst_min, burst_max, off_min, off_max } => {
                        if self.next_burst[port] == cycle {
                            let cells = self.rng.gen_range(burst_min..=burst_max);
                            for _ in 0..cells {
                                self.push_cell(port, cycle);
                            }
                            let off = self.rng.gen_range(off_min..=off_max);
                            self.next_burst[port] = cycle + 1 + off;
                        }
                    }
                }
            }
            self.horizon += 1;
        }
    }

    fn push_cell(&mut self, port: usize, cycle: u64) {
        self.scheduled += 1;
        if let Some(capacity) = self.capacity {
            if self.queues[port].borrow().len() >= capacity {
                self.dropped[port] += 1;
                return;
            }
        }
        let cell = AtmCell::new(port, self.next_address, Cycle::new(cycle));
        self.next_address = self.next_address.wrapping_add(crate::cell::PAYLOAD_WORDS);
        self.queues[port].borrow_mut().push_back(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_rate_is_respected() {
        let mut sched = CellScheduler::new(vec![CellArrivals::Bernoulli { rate: 0.05 }], 1);
        sched.advance_to(Cycle::new(99_999));
        let got = sched.queue(0).borrow().len() as f64;
        assert!((got / 100_000.0 - 0.05).abs() < 0.005, "rate {}", got / 100_000.0);
        assert_eq!(sched.scheduled(), got as u64);
    }

    #[test]
    fn bursts_arrive_in_trains() {
        let mut sched = CellScheduler::new(
            vec![CellArrivals::Bursty { burst_min: 3, burst_max: 3, off_min: 50, off_max: 50 }],
            2,
        );
        sched.advance_to(Cycle::new(200));
        let queue = sched.queue(0);
        let cells: Vec<AtmCell> = queue.borrow().iter().copied().collect();
        // Trains of 3 cells sharing an arrival stamp, 51 cycles apart.
        assert!(cells.len() >= 9);
        assert_eq!(cells[0].arrived_at, cells[2].arrived_at);
        assert_eq!(cells[3].arrived_at - cells[0].arrived_at, 51);
    }

    #[test]
    fn advance_is_idempotent_within_a_cycle() {
        let mut sched = CellScheduler::new(vec![CellArrivals::Bernoulli { rate: 1.0 }], 3);
        sched.advance_to(Cycle::new(9));
        let after_first = sched.scheduled();
        sched.advance_to(Cycle::new(9));
        assert_eq!(sched.scheduled(), after_first);
        assert_eq!(after_first, 10);
    }

    #[test]
    fn addresses_step_by_payload_size() {
        let mut sched = CellScheduler::new(vec![CellArrivals::Bernoulli { rate: 1.0 }], 4);
        sched.advance_to(Cycle::new(2));
        let queue = sched.queue(0);
        let q = queue.borrow();
        assert_eq!(q[1].address - q[0].address, crate::cell::PAYLOAD_WORDS);
    }
}
