//! Transactions and the per-cycle request map presented to arbiters.

use crate::cycle::Cycle;
use crate::ids::{MasterId, SlaveId};
use std::fmt;

/// Maximum number of masters a single bus supports.
///
/// The request map is a fixed-size bitmap so that arbiters can be called
/// every cycle without allocating.
pub const MAX_MASTERS: usize = 32;

/// A multi-word communication transaction issued by a master.
///
/// A transaction requests the transfer of `words` bus words to or from a
/// slave. The bus serves it in one or more bursts, each bounded by the
/// bus's maximum burst size.
///
/// ```
/// use socsim::{Transaction, SlaveId, Cycle};
/// let t = Transaction::new(SlaveId::new(0), 16, Cycle::new(5));
/// assert_eq!(t.words(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transaction {
    slave: SlaveId,
    words: u32,
    issued_at: Cycle,
}

impl Transaction {
    /// Creates a transaction of `words` bus words addressed to `slave`,
    /// issued at `issued_at`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero — the bus cannot transfer empty
    /// transactions.
    #[inline]
    pub fn new(slave: SlaveId, words: u32, issued_at: Cycle) -> Self {
        assert!(words > 0, "a transaction must transfer at least one word");
        Transaction { slave, words, issued_at }
    }

    /// The slave this transaction addresses.
    pub fn slave(&self) -> SlaveId {
        self.slave
    }

    /// Total number of bus words the transaction transfers.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// The cycle at which the master issued (requested) the transaction.
    pub fn issued_at(&self) -> Cycle {
        self.issued_at
    }
}

/// Snapshot of all pending bus requests at one cycle, as seen by an
/// [`crate::Arbiter`].
///
/// For each master the map records whether its request line is asserted
/// and, if so, how many words its head transaction still needs. This is
/// the `r_1 r_2 … r_n` request vector of the paper plus the burst-length
/// hint real bus interfaces expose to the arbiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMap {
    bits: u32,
    masters: usize,
    pending_words: [u32; MAX_MASTERS],
}

impl RequestMap {
    /// Creates an empty request map for a bus with `masters` masters.
    ///
    /// # Panics
    ///
    /// Panics if `masters` exceeds [`MAX_MASTERS`] or is zero.
    #[inline]
    pub fn new(masters: usize) -> Self {
        assert!(masters > 0, "a bus needs at least one master");
        assert!(masters <= MAX_MASTERS, "at most {MAX_MASTERS} masters supported");
        RequestMap { bits: 0, masters, pending_words: [0; MAX_MASTERS] }
    }

    /// Number of masters on the bus (pending or not).
    pub fn masters(&self) -> usize {
        self.masters
    }

    /// Asserts `master`'s request line for `words` remaining words.
    ///
    /// # Panics
    ///
    /// Panics if the master index is out of range or `words` is zero.
    #[inline]
    pub fn set_pending(&mut self, master: MasterId, words: u32) {
        assert!(master.index() < self.masters, "master index out of range");
        assert!(words > 0, "a pending request must need at least one word");
        self.bits |= 1 << master.index();
        self.pending_words[master.index()] = words;
    }

    /// Whether `master` has a pending request this cycle.
    #[inline]
    pub fn is_pending(&self, master: MasterId) -> bool {
        master.index() < self.masters && (self.bits >> master.index()) & 1 == 1
    }

    /// Words still needed by `master`'s head transaction (zero if idle).
    #[inline]
    pub fn pending_words(&self, master: MasterId) -> u32 {
        if self.is_pending(master) {
            self.pending_words[master.index()]
        } else {
            0
        }
    }

    /// The raw request bitmap `r_n … r_1` (bit *i* set ⇔ master *i*
    /// pending). This is the LUT index used by the static lottery manager.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `true` if no master is requesting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Number of masters currently requesting.
    #[inline]
    pub fn pending_count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates over the ids of all pending masters in index order.
    ///
    /// ```
    /// use socsim::{RequestMap, MasterId};
    /// let mut map = RequestMap::new(4);
    /// map.set_pending(MasterId::new(2), 8);
    /// let pending: Vec<_> = map.iter_pending().collect();
    /// assert_eq!(pending, vec![MasterId::new(2)]);
    /// ```
    pub fn iter_pending(&self) -> IterPending<'_> {
        IterPending { map: self, next: 0 }
    }

    /// Clears every request line.
    pub fn clear(&mut self) {
        self.bits = 0;
        self.pending_words = [0; MAX_MASTERS];
    }

    /// Resets the map for reuse on a bus with `masters` masters without
    /// touching the word array — the per-arbitration fast path of the
    /// bus's scratch map. Stale `pending_words` entries are unobservable
    /// because every read is gated on the request bit, and every set bit
    /// rewrites its entry.
    #[inline]
    pub(crate) fn reset_for(&mut self, masters: usize) {
        debug_assert!(masters > 0 && masters <= MAX_MASTERS);
        self.bits = 0;
        self.masters = masters;
    }
}

impl fmt::Display for RequestMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.masters).rev() {
            let bit = if (self.bits >> i) & 1 == 1 { '1' } else { '0' };
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

/// Iterator over pending master ids produced by [`RequestMap::iter_pending`].
#[derive(Debug)]
pub struct IterPending<'a> {
    map: &'a RequestMap,
    next: usize,
}

impl Iterator for IterPending<'_> {
    type Item = MasterId;

    fn next(&mut self) -> Option<MasterId> {
        while self.next < self.map.masters {
            let i = self.next;
            self.next += 1;
            if (self.map.bits >> i) & 1 == 1 {
                return Some(MasterId::new(i));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_pending_raises_lines() {
        let mut map = RequestMap::new(4);
        assert!(map.is_empty());
        map.set_pending(MasterId::new(1), 10);
        map.set_pending(MasterId::new(3), 2);
        assert_eq!(map.bits(), 0b1010);
        assert_eq!(map.pending_count(), 2);
        assert_eq!(map.pending_words(MasterId::new(1)), 10);
        assert_eq!(map.pending_words(MasterId::new(0)), 0);
        assert!(map.is_pending(MasterId::new(3)));
        assert!(!map.is_pending(MasterId::new(2)));
    }

    #[test]
    fn iter_pending_in_index_order() {
        let mut map = RequestMap::new(5);
        for i in [4, 0, 2] {
            map.set_pending(MasterId::new(i), 1);
        }
        let ids: Vec<_> = map.iter_pending().map(MasterId::index).collect();
        assert_eq!(ids, vec![0, 2, 4]);
    }

    #[test]
    fn display_matches_paper_bit_order() {
        // Paper notation r1 r2 r3 r4 = 1011 means M1, M3, M4 pending; we
        // print with the highest-index master leftmost.
        let mut map = RequestMap::new(4);
        map.set_pending(MasterId::new(0), 1);
        map.set_pending(MasterId::new(2), 1);
        map.set_pending(MasterId::new(3), 1);
        assert_eq!(map.to_string(), "1101");
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_word_transaction_rejected() {
        let _ = Transaction::new(SlaveId::new(0), 0, Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_master_rejected() {
        let mut map = RequestMap::new(2);
        map.set_pending(MasterId::new(2), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut map = RequestMap::new(3);
        map.set_pending(MasterId::new(0), 4);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.pending_words(MasterId::new(0)), 0);
    }
}
