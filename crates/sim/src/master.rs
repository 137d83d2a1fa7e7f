//! Master-side bus interface: per-master transaction queues.

use crate::cycle::Cycle;
use crate::fault::RetryPolicy;
use crate::ids::MasterId;
use crate::request::Transaction;
use std::collections::VecDeque;

/// A transaction that has been issued but not yet fully transferred.
///
/// A port queue holds one of these per outstanding transaction, and an
/// overloaded master's queue grows for the whole run, so the entry is
/// kept at 48 bytes: the two optional cycles are stored as [`Cycle`]s
/// with [`Cycle::NEVER`] for "not yet", a cycle no run reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    txn: Transaction,
    remaining: u32,
    /// Failed attempts (slave errors) so far.
    attempts: u32,
    /// Cycle of the first grant, or [`Cycle::NEVER`] before it.
    first_grant: Cycle,
    /// When the watchdog started observing this transaction at the
    /// queue head (re-armed after each retry backoff), or
    /// [`Cycle::NEVER`] while unwatched.
    watch_since: Cycle,
}

impl InFlight {
    /// The underlying transaction.
    pub fn transaction(&self) -> Transaction {
        self.txn
    }

    /// Words still to transfer.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Cycle at which the transaction first received a grant, if any.
    fn first_grant(&self) -> Option<Cycle> {
        (self.first_grant != Cycle::NEVER).then_some(self.first_grant)
    }

    /// Failed (error-response) attempts so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// What happened to a transaction after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOutcome {
    /// The transaction stays queued and may request again at `resume_at`.
    Retry {
        /// Failed attempts so far (1-based).
        attempt: u32,
        /// First cycle at which the request line re-asserts.
        resume_at: Cycle,
    },
    /// The transaction exhausted its retries and was dropped.
    Aborted {
        /// Total failed attempts.
        attempts: u32,
    },
}

/// A completed transaction together with its timing, reported to the
/// statistics collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The finished transaction.
    pub txn: Transaction,
    /// Cycle at which the transaction first owned the bus.
    pub first_grant: Cycle,
    /// Cycle *after* the last word transferred (exclusive end).
    pub finished_at: Cycle,
}

impl Completion {
    /// Total latency in cycles: waiting plus transfer time.
    pub fn latency(&self) -> u64 {
        self.finished_at - self.txn.issued_at()
    }

    /// Cycles spent waiting before the first word moved.
    pub fn wait(&self) -> u64 {
        self.first_grant - self.txn.issued_at()
    }
}

/// The bus-interface logic on the master side: a FIFO of outstanding
/// transactions. The head of the queue drives the master's request line.
///
/// ```
/// use socsim::{MasterPort, MasterId, Transaction, SlaveId, Cycle};
/// let mut port = MasterPort::new(MasterId::new(0), "cpu");
/// port.enqueue(Transaction::new(SlaveId::new(0), 2, Cycle::ZERO));
/// assert_eq!(port.pending_words(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MasterPort {
    id: MasterId,
    name: String,
    queue: VecDeque<InFlight>,
    issued: u64,
    issued_words: u64,
    /// First cycle at which an injected master stall ends.
    stall_until: Option<Cycle>,
    /// First cycle at which the head transaction's retry backoff ends.
    backoff_until: Option<Cycle>,
}

impl MasterPort {
    /// Creates an empty port for master `id` labelled `name`.
    pub fn new(id: MasterId, name: impl Into<String>) -> Self {
        MasterPort {
            id,
            name: name.into(),
            queue: VecDeque::new(),
            issued: 0,
            issued_words: 0,
            stall_until: None,
            backoff_until: None,
        }
    }

    /// This port's master id.
    #[inline]
    pub fn id(&self) -> MasterId {
        self.id
    }

    /// The human-readable component name (e.g. `"cpu"`, `"port3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a newly issued transaction to the queue.
    #[inline]
    pub fn enqueue(&mut self, txn: Transaction) {
        self.issued += 1;
        self.issued_words += u64::from(txn.words());
        self.queue.push_back(InFlight {
            txn,
            remaining: txn.words(),
            attempts: 0,
            first_grant: Cycle::NEVER,
            watch_since: Cycle::NEVER,
        });
    }

    /// Whether the request line is asserted (any transaction outstanding).
    #[inline]
    pub fn is_requesting(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Like [`MasterPort::is_requesting`], but accounting for injected
    /// master stalls and retry backoff: the request line is held
    /// deasserted until both have elapsed. Used only on fault-enabled
    /// buses; without faults neither is ever set, so this matches
    /// [`MasterPort::is_requesting`] exactly.
    #[inline]
    pub fn is_requesting_at(&self, now: Cycle) -> bool {
        !self.queue.is_empty() && self.eligible_at(now)
    }

    #[inline]
    fn eligible_at(&self, now: Cycle) -> bool {
        self.stall_until.is_none_or(|until| now >= until)
            && self.backoff_until.is_none_or(|until| now >= until)
    }

    /// Whether an injected stall is still in effect at `now`.
    pub fn is_stalled_at(&self, now: Cycle) -> bool {
        self.stall_until.is_some_and(|until| now < until)
    }

    /// Holds the request line deasserted until `until` (an injected
    /// master stall).
    pub fn set_stall(&mut self, until: Cycle) {
        self.stall_until = Some(until);
    }

    /// Watchdog bookkeeping: observes how long the head transaction
    /// has been wedged. Arms the watch when the head first becomes
    /// eligible and returns the cycles waited since; returns `None`
    /// while there is nothing eligible to watch.
    pub fn head_wait(&mut self, now: Cycle) -> Option<u64> {
        if !self.eligible_at(now) {
            return None;
        }
        let head = self.queue.front_mut()?;
        if head.watch_since == Cycle::NEVER {
            head.watch_since = now;
        }
        Some(now - head.watch_since)
    }

    /// The first cycle at which an injected stall no longer holds the
    /// request line ([`Cycle::ZERO`] when none was set).
    pub(crate) fn stall_end(&self) -> Cycle {
        self.stall_until.unwrap_or(Cycle::ZERO)
    }

    /// The first cycle from which the request line may assert: the
    /// injected stall and the retry backoff have both elapsed.
    pub(crate) fn eligible_from(&self) -> Cycle {
        self.stall_end().max(self.backoff_until.unwrap_or(Cycle::ZERO))
    }

    /// The first cycle `>= now` at which the watchdog would find this
    /// port's head wedged for `timeout` cycles, were [`head_wait`]
    /// called every cycle and nothing else happened to the port; `None`
    /// without a head. An unwatched head is armed on its first eligible
    /// cycle.
    ///
    /// [`head_wait`]: MasterPort::head_wait
    pub(crate) fn watch_deadline(&self, now: Cycle, timeout: u64) -> Option<Cycle> {
        let head = self.queue.front()?;
        let eligible = self.eligible_from().max(now);
        Some(if head.watch_since == Cycle::NEVER {
            eligible.saturating_add(timeout)
        } else {
            head.watch_since.saturating_add(timeout).max(eligible)
        })
    }

    /// Replays [`MasterPort::head_wait`] at every cycle of `[from, to)`,
    /// where it finds the same head and returns less than the timeout:
    /// only the arming remains.
    pub(crate) fn watch_span(&mut self, from: Cycle, to: Cycle) {
        let arm = self.eligible_from().max(from);
        if let Some(head) = self.queue.front_mut() {
            if head.watch_since == Cycle::NEVER && arm < to {
                head.watch_since = arm;
            }
        }
    }

    /// Records a failed attempt (slave error response) on the head
    /// transaction and applies `policy`: either the transaction stays
    /// queued behind an exponential backoff, or it exhausted its
    /// retries and is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the port has no outstanding transaction.
    pub fn fail_attempt(&mut self, now: Cycle, policy: &RetryPolicy) -> RetryOutcome {
        let head = self.queue.front_mut().expect("fail_attempt on idle master");
        head.attempts += 1;
        let attempts = head.attempts;
        if attempts > policy.max_retries {
            self.queue.pop_front();
            self.backoff_until = None;
            RetryOutcome::Aborted { attempts }
        } else {
            let resume_at = now + 1 + policy.backoff_after(attempts);
            head.watch_since = Cycle::NEVER;
            self.backoff_until = Some(resume_at);
            RetryOutcome::Retry { attempt: attempts, resume_at }
        }
    }

    /// Drops the head transaction (watchdog abort). Returns the
    /// abandoned record, or `None` if the queue was empty.
    pub fn abort_head(&mut self) -> Option<InFlight> {
        self.backoff_until = None;
        self.queue.pop_front()
    }

    /// Words remaining in the head transaction (zero when idle).
    #[inline]
    pub fn pending_words(&self) -> u32 {
        self.queue.front().map_or(0, |f| f.remaining)
    }

    /// Slave addressed by the head transaction, if any.
    #[inline]
    pub fn head_slave(&self) -> Option<crate::ids::SlaveId> {
        self.queue.front().map(|f| f.txn.slave())
    }

    /// Total words across all queued transactions (backlog depth).
    pub fn backlog_words(&self) -> u64 {
        self.queue.iter().map(|f| u64::from(f.remaining)).sum()
    }

    /// Number of outstanding transactions.
    #[inline]
    pub fn backlog_transactions(&self) -> usize {
        self.queue.len()
    }

    /// Transactions issued over the port's lifetime.
    pub fn issued_transactions(&self) -> u64 {
        self.issued
    }

    /// Words issued over the port's lifetime.
    pub fn issued_words(&self) -> u64 {
        self.issued_words
    }

    /// The fast-forward horizon of this port at `now`: the earliest
    /// cycle at which its request line can (re-)assert.
    ///
    /// * Empty queue → [`Cycle::NEVER`]: the port stays silent until a
    ///   traffic source hands it a transaction (the source's own
    ///   horizon bounds that separately).
    /// * Non-empty and eligible → `now`: the request is live, nothing
    ///   may be skipped.
    /// * Non-empty but held back by an injected stall and/or retry
    ///   backoff → the cycle at which the **last** of those holds
    ///   expires, which is exactly when the request line re-asserts.
    ///
    /// Only valid for buses without master-stall injection; with a
    /// nonzero stall rate the fault layer draws per cycle and
    /// [`MasterPort::next_event_under_stall_faults`] applies instead.
    #[inline]
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.queue.is_empty() {
            return Cycle::NEVER;
        }
        if self.eligible_at(now) {
            return now;
        }
        self.eligible_from()
    }

    /// The fast-forward horizon of this port when the fault plan draws
    /// per-cycle master stalls (`master_stall_rate > 0`).
    ///
    /// The fault layer's stall lottery fires every cycle in which the
    /// port is requesting and **not** already stalled — those draws
    /// consume the (deterministic, cycle-keyed) fault stream, so the
    /// kernel must not skip them. While a stall is in effect no draw
    /// happens, so the stall's expiry is a safe horizon even if a retry
    /// backoff stretches further: the draw at expiry must be replayed
    /// at its exact cycle.
    ///
    /// A port held back only by a retry backoff draws every cycle, so
    /// it reports `now`; the idle skip refines that with the fault plan,
    /// skipping to the backoff's end or the first draw that fires before
    /// it, whichever comes first.
    pub fn next_event_under_stall_faults(&self, now: Cycle) -> Cycle {
        if self.queue.is_empty() {
            return Cycle::NEVER;
        }
        match self.stall_until {
            Some(until) if now < until => until,
            _ => now,
        }
    }

    /// Records that the head transaction was granted the bus at `now`
    /// (only the first grant per transaction is remembered).
    #[inline]
    pub fn note_grant(&mut self, now: Cycle) {
        if let Some(head) = self.queue.front_mut() {
            if head.first_grant == Cycle::NEVER {
                head.first_grant = now;
            }
        }
    }

    /// Transfers `words` words of the head transaction, the last of which
    /// occupies the bus cycle `last_cycle`. Returns the completion record
    /// if the head transaction finished.
    ///
    /// # Panics
    ///
    /// Panics if the port has no outstanding transaction or `words`
    /// exceeds the head transaction's remaining words.
    #[inline]
    pub fn transfer(&mut self, words: u32, last_cycle: Cycle) -> Option<Completion> {
        let head = self.queue.front_mut().expect("transfer on idle master");
        assert!(words <= head.remaining, "transfer exceeds remaining words");
        head.remaining -= words;
        // Progress re-arms the watchdog: it measures time wedged, not
        // total queue-head residency.
        head.watch_since = Cycle::NEVER;
        if head.remaining == 0 {
            let done = self.queue.pop_front().expect("head exists");
            Some(Completion {
                txn: done.txn,
                first_grant: done.first_grant().expect("granted before completion"),
                finished_at: last_cycle + 1,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SlaveId;

    fn txn(words: u32, at: u64) -> Transaction {
        Transaction::new(SlaveId::new(0), words, Cycle::new(at))
    }

    #[test]
    fn fifo_order_and_partial_transfer() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        port.enqueue(txn(4, 0));
        port.enqueue(txn(2, 1));
        assert_eq!(port.pending_words(), 4);
        assert_eq!(port.backlog_words(), 6);
        port.note_grant(Cycle::new(3));
        assert!(port.transfer(3, Cycle::new(5)).is_none());
        assert_eq!(port.pending_words(), 1);
        let done = port.transfer(1, Cycle::new(6)).expect("completes");
        assert_eq!(done.latency(), 7); // issued at 0, last word in cycle 6
        assert_eq!(done.wait(), 3);
        assert_eq!(port.pending_words(), 2); // second transaction now head
    }

    #[test]
    fn queue_entries_are_48_bytes() {
        assert_eq!(std::mem::size_of::<InFlight>(), 48);
        // The sentinel stays behind the accessor: ungranted reads None.
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        port.enqueue(txn(4, 0));
        port.enqueue(txn(4, 1));
        port.note_grant(Cycle::new(3));
        assert_eq!(port.abort_head().and_then(|f| f.first_grant()), Some(Cycle::new(3)));
        assert_eq!(port.abort_head().map(|f| f.first_grant()), Some(None));
    }

    #[test]
    fn first_grant_is_sticky() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        port.enqueue(txn(8, 0));
        port.note_grant(Cycle::new(2));
        port.transfer(4, Cycle::new(5)).map(|_| ()).unwrap_or(());
        port.note_grant(Cycle::new(9)); // re-grant of same transaction
        let done = port.transfer(4, Cycle::new(12)).expect("completes");
        assert_eq!(done.first_grant, Cycle::new(2));
    }

    #[test]
    fn issue_counters_accumulate() {
        let mut port = MasterPort::new(MasterId::new(1), "m1");
        port.enqueue(txn(4, 0));
        port.enqueue(txn(6, 0));
        assert_eq!(port.issued_transactions(), 2);
        assert_eq!(port.issued_words(), 10);
        assert_eq!(port.backlog_transactions(), 2);
    }

    #[test]
    #[should_panic(expected = "idle master")]
    fn transfer_on_idle_panics() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        let _ = port.transfer(1, Cycle::ZERO);
    }

    #[test]
    fn retry_backoff_deasserts_request_line() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        port.enqueue(txn(4, 0));
        let policy = RetryPolicy::exponential(2, 2);
        let outcome = port.fail_attempt(Cycle::new(5), &policy);
        assert_eq!(outcome, RetryOutcome::Retry { attempt: 1, resume_at: Cycle::new(8) });
        // Backoff: deasserted until cycle 8, reasserted from then on.
        assert!(!port.is_requesting_at(Cycle::new(6)));
        assert!(port.is_requesting_at(Cycle::new(8)));
        assert!(port.is_requesting(), "plain request line ignores backoff");
    }

    #[test]
    fn exhausted_retries_abort_the_transaction() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        port.enqueue(txn(4, 0));
        port.enqueue(txn(2, 0));
        let policy = RetryPolicy::exponential(1, 1);
        assert!(matches!(port.fail_attempt(Cycle::new(0), &policy), RetryOutcome::Retry { .. }));
        let outcome = port.fail_attempt(Cycle::new(3), &policy);
        assert_eq!(outcome, RetryOutcome::Aborted { attempts: 2 });
        // The second transaction moved up and requests normally.
        assert_eq!(port.pending_words(), 2);
        assert!(port.is_requesting_at(Cycle::new(4)));
    }

    #[test]
    fn injected_stall_expires() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        port.enqueue(txn(1, 0));
        port.set_stall(Cycle::new(10));
        assert!(port.is_stalled_at(Cycle::new(9)));
        assert!(!port.is_requesting_at(Cycle::new(9)));
        assert!(!port.is_stalled_at(Cycle::new(10)));
        assert!(port.is_requesting_at(Cycle::new(10)));
    }

    #[test]
    fn next_event_tracks_request_line_state() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        // Idle port: nothing scheduled.
        assert_eq!(port.next_event(Cycle::new(5)), Cycle::NEVER);
        assert_eq!(port.next_event_under_stall_faults(Cycle::new(5)), Cycle::NEVER);
        // Live request: unskippable.
        port.enqueue(txn(4, 0));
        assert_eq!(port.next_event(Cycle::new(5)), Cycle::new(5));
        assert_eq!(port.next_event_under_stall_faults(Cycle::new(5)), Cycle::new(5));
        // Stalled: wakes when the stall expires.
        port.set_stall(Cycle::new(20));
        assert_eq!(port.next_event(Cycle::new(5)), Cycle::new(20));
        assert_eq!(port.next_event_under_stall_faults(Cycle::new(5)), Cycle::new(20));
        // A backoff that outlasts the stall moves the plain horizon but
        // not the stall-fault one (the stall-expiry draw must replay).
        let policy = RetryPolicy::exponential(4, 30);
        port.fail_attempt(Cycle::new(5), &policy);
        assert_eq!(port.next_event(Cycle::new(5)), Cycle::new(36));
        assert_eq!(port.next_event_under_stall_faults(Cycle::new(5)), Cycle::new(20));
        // Expired holds collapse back to "request live".
        assert_eq!(port.next_event(Cycle::new(40)), Cycle::new(40));
        assert_eq!(port.next_event_under_stall_faults(Cycle::new(40)), Cycle::new(40));
    }

    #[test]
    fn head_wait_arms_lazily_and_rearms_after_retry() {
        let mut port = MasterPort::new(MasterId::new(0), "m0");
        assert_eq!(port.head_wait(Cycle::new(0)), None);
        port.enqueue(txn(4, 0));
        assert_eq!(port.head_wait(Cycle::new(3)), Some(0));
        assert_eq!(port.head_wait(Cycle::new(7)), Some(4));
        // A retry resets the watch; during backoff nothing is watched.
        let policy = RetryPolicy::exponential(4, 4);
        port.fail_attempt(Cycle::new(7), &policy);
        assert_eq!(port.head_wait(Cycle::new(8)), None);
        assert_eq!(port.head_wait(Cycle::new(12)), Some(0));
        assert_eq!(port.head_wait(Cycle::new(20)), Some(8));
    }
}
