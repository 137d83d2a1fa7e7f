//! Trace replay: issue an explicit list of transactions.

use socsim::{BacklogPolls, Cycle, SlaveId, TrafficSource, Transaction};
use std::sync::Arc;

/// Replays a fixed `(cycle, words)` trace as a traffic source.
///
/// The source is a cursor over a shared, read-only trace: any number of
/// replays of one [`Arc`] slice ([`ReplaySource::shared`]) hold one
/// copy of it, at 16 bytes per arrival. A poll emits the next entry
/// once its stamp is due, one entry per poll, stamped with its trace
/// cycle — so replaying what [`crate::record_trace`] recorded from a
/// generator reproduces that generator's emissions poll for poll.
///
/// Used by the Figure 5 reproduction, where the paper compares two
/// hand-written request traces that differ only in phase, by the
/// experiments that run one recorded spec set under several arbiters,
/// and by tests that need exact request patterns.
///
/// ```
/// use traffic_gen::ReplaySource;
/// use socsim::{TrafficSource, Cycle};
///
/// let mut source = ReplaySource::new(0, &[(2, 4), (10, 1)]);
/// assert!(source.poll(Cycle::new(0)).is_none());
/// assert_eq!(source.poll(Cycle::new(2)).unwrap().words(), 4);
/// assert_eq!(source.poll(Cycle::new(10)).unwrap().words(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySource {
    slave: SlaveId,
    trace: Arc<[(u64, u32)]>,
    /// Index of the next entry to emit.
    cursor: usize,
}

impl ReplaySource {
    /// Creates a replay of `trace`, a list of `(arrival_cycle, words)`
    /// pairs addressed to `slave`, copying it into a trace of its own.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival cycle or contains a
    /// zero-word entry.
    pub fn new(slave: usize, trace: &[(u64, u32)]) -> Self {
        ReplaySource::shared(slave, trace.into())
    }

    /// Creates a replay of a shared trace addressed to `slave`. The
    /// trace is not copied: every replay of one slice reads it in place.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival cycle or contains a
    /// zero-word entry.
    pub fn shared(slave: usize, trace: Arc<[(u64, u32)]>) -> Self {
        assert!(
            trace.is_sorted_by_key(|&(cycle, _)| cycle),
            "replay trace must be sorted by cycle"
        );
        assert!(trace.iter().all(|&(_, words)| words > 0), "replay trace entry with zero words");
        ReplaySource { slave: SlaveId::new(slave), trace, cursor: 0 }
    }

    /// A periodic trace: `count` messages of `words` words every
    /// `period` cycles starting at `phase` — the building block of the
    /// paper's Figure 5 request traces.
    pub fn periodic(slave: usize, phase: u64, period: u64, words: u32, count: usize) -> Self {
        let trace: Arc<[(u64, u32)]> =
            (0..count as u64).map(|k| (phase + k * period, words)).collect();
        ReplaySource::shared(slave, trace)
    }

    /// Transactions not yet emitted.
    pub fn remaining(&self) -> usize {
        self.trace.len() - self.cursor
    }
}

impl TrafficSource for ReplaySource {
    #[inline]
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        let &(cycle, words) = self.trace.get(self.cursor)?;
        if cycle > now.index() {
            return None;
        }
        self.cursor += 1;
        Some(Transaction::new(self.slave, words, Cycle::new(cycle)))
    }

    /// The next entry's arrival stamp, or [`Cycle::NEVER`] once the
    /// trace is exhausted — a replay is pure data, so its horizon is
    /// exact and the fast-forward kernel can jump the gaps between
    /// entries.
    #[inline]
    fn next_event(&self, now: Cycle) -> Cycle {
        self.trace.get(self.cursor).map_or(Cycle::NEVER, |&(cycle, _)| Cycle::new(cycle).max(now))
    }

    /// A replay ignores the backlog, and each poll emits the next entry
    /// once its stamp is due: its polls may be deferred.
    #[inline]
    fn backlog_polls(&self) -> BacklogPolls {
        BacklogPolls::Defer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_in_order_at_stamped_cycles() {
        let mut source = ReplaySource::new(0, &[(0, 1), (0, 2), (5, 3)]);
        assert_eq!(source.poll(Cycle::new(0)).unwrap().words(), 1);
        assert_eq!(source.poll(Cycle::new(1)).unwrap().words(), 2);
        assert!(source.poll(Cycle::new(2)).is_none());
        assert_eq!(source.poll(Cycle::new(7)).unwrap().words(), 3);
        assert_eq!(source.remaining(), 0);
    }

    #[test]
    fn periodic_builder_matches_manual_trace() {
        let mut a = ReplaySource::periodic(0, 3, 10, 2, 3);
        let mut b = ReplaySource::new(0, &[(3, 2), (13, 2), (23, 2)]);
        for c in 0..30 {
            let (ta, tb) = (a.poll(Cycle::new(c)), b.poll(Cycle::new(c)));
            assert_eq!(ta, tb, "divergence at cycle {c}");
        }
    }

    #[test]
    fn replays_of_one_shared_trace_are_independent_cursors() {
        let trace: Arc<[(u64, u32)]> = Arc::from(&[(1, 2), (4, 3)][..]);
        let mut a = ReplaySource::shared(1, Arc::clone(&trace));
        let mut b = ReplaySource::shared(1, Arc::clone(&trace));
        assert_eq!(Arc::strong_count(&trace), 3, "replays share the trace, not copies");
        let first = a.poll(Cycle::new(9)).expect("due");
        assert_eq!(
            (first.slave(), first.words(), first.issued_at()),
            (SlaveId::new(1), 2, Cycle::new(1))
        );
        assert_eq!(a.remaining(), 1);
        assert_eq!(b.remaining(), 2, "another replay's cursor is untouched");
        assert_eq!(b.poll(Cycle::new(1)), Some(first));
    }

    #[test]
    fn horizon_tracks_the_queue_head() {
        let mut source = ReplaySource::new(0, &[(4, 1), (9, 2)]);
        assert_eq!(source.next_event(Cycle::new(0)), Cycle::new(4));
        assert!(source.poll(Cycle::new(4)).is_some());
        assert_eq!(source.next_event(Cycle::new(5)), Cycle::new(9));
        assert!(source.poll(Cycle::new(9)).is_some());
        assert_eq!(source.next_event(Cycle::new(10)), Cycle::NEVER, "trace exhausted");
        // A stale stamp (emission delayed by backlog) clamps to now.
        let late = ReplaySource::new(0, &[(3, 1)]);
        assert_eq!(late.next_event(Cycle::new(8)), Cycle::new(8));
    }

    #[test]
    #[should_panic(expected = "sorted by cycle")]
    fn unsorted_trace_rejected() {
        let _ = ReplaySource::new(0, &[(5, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "zero words")]
    fn zero_word_entry_rejected() {
        let _ = ReplaySource::new(0, &[(5, 0)]);
    }
}
