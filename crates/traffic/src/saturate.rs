//! An always-requesting source for saturated-bus measurements.

use socsim::{BacklogPolls, Cycle, SlaveId, TrafficSource, Transaction};

/// A source that keeps its master's request line permanently asserted.
///
/// Whenever the bus interface has drained its backlog, the source hands
/// it a fresh fixed-size message stamped at the current cycle — so from
/// the arbiter's point of view the master requests on *every* cycle, the
/// worst-case contention regime of the paper's evaluation (Figs. 4–6).
///
/// Unlike a Bernoulli process at rate 1.0 it draws no random numbers and
/// allocates nothing per cycle, which makes it the probe of choice for
/// the saturated hot-path benchmark: the measurement isolates the
/// arbitration + transfer machinery instead of the RNG.
///
/// The backlog gate keeps the master-port queue bounded (at most one
/// queued message plus the one in flight), so a steady-state window
/// performs no queue growth — a requirement of the zero-allocation
/// invariant checked by the debug alloc counter.
///
/// ```
/// use traffic_gen::SaturateSource;
/// use socsim::{Cycle, TrafficSource};
///
/// let mut source = SaturateSource::new(0, 16);
/// assert!(source.poll_with_backlog(Cycle::ZERO, 0).is_some());
/// // With work still queued at the port, nothing new is issued.
/// assert!(source.poll_with_backlog(Cycle::new(1), 1).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturateSource {
    slave: usize,
    words: u32,
}

impl SaturateSource {
    /// Creates a source issuing `words`-word messages to `slave`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(slave: usize, words: u32) -> Self {
        assert!(words > 0, "message size must be nonzero");
        SaturateSource { slave, words }
    }
}

impl TrafficSource for SaturateSource {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        Some(Transaction::new(SlaveId::new(self.slave), self.words, now))
    }

    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        if backlog == 0 {
            self.poll(now)
        } else {
            None
        }
    }

    // `next_event` keeps the conservative default (`now`): the source
    // must be polled every cycle and is never fast-forwarded over.

    fn backlog_polls(&self) -> BacklogPolls {
        // With a backlog, `poll_with_backlog` returns `None` and touches
        // no state, and `next_event` keeps the identity default — exactly
        // the contract the fleet kernel's tenure batching requires.
        BacklogPolls::Elide
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issues_only_when_the_backlog_is_drained() {
        let mut source = SaturateSource::new(2, 8);
        let t = source.poll_with_backlog(Cycle::new(5), 0).expect("issues");
        assert_eq!(t.words(), 8);
        assert_eq!(t.issued_at(), Cycle::new(5));
        assert!(source.poll_with_backlog(Cycle::new(6), 1).is_none());
        assert!(source.poll_with_backlog(Cycle::new(7), 3).is_none());
        assert!(source.poll_with_backlog(Cycle::new(8), 0).is_some());
    }

    #[test]
    fn horizon_pins_every_cycle() {
        let source = SaturateSource::new(0, 4);
        assert_eq!(source.next_event(Cycle::new(9)), Cycle::new(9));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_words_rejected() {
        SaturateSource::new(0, 0);
    }
}
