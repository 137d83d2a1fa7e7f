//! The two-level TDMA shared bus (paper §2.2, Figure 2).

use crate::error::ArbiterConfigError;
use socsim::{Arbiter, Cycle, Grant, MasterId, RequestMap, MAX_MASTERS};

/// How reserved slots for each master are arranged around the timing
/// wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WheelLayout {
    /// All of a master's slots are adjacent (the paper's Figure 5 shows
    /// contiguous reservations defining burst-sized slot blocks).
    Contiguous,
    /// Slots are spread around the wheel as evenly as possible, which
    /// reduces worst-case waiting for single-word transfers.
    Interleaved,
}

/// Two-level TDMA bus arbiter.
///
/// Level one is a timing wheel in which every slot is statically reserved
/// for one master; a slot grants a **single word**. Level two reclaims
/// slots whose owner is idle: a round-robin pointer scans for the next
/// requesting master and grants the slot to it (paper Figure 2). The
/// wheel rotates by one slot per arbitration, whether or not a grant was
/// issued.
///
/// Bandwidth guarantees follow from the slot counts, but latency is very
/// sensitive to the *phase alignment* of requests with reservations — the
/// paper's Example 2 / Figure 5, reproduced in experiment `fig5`.
///
/// ```
/// use arbiters::{TdmaArbiter, WheelLayout};
/// use socsim::{Arbiter, RequestMap, MasterId, Cycle};
///
/// # fn main() -> Result<(), arbiters::ArbiterConfigError> {
/// // Masters 0..2 reserve 1, 2 and 3 slots of a 6-slot wheel.
/// let mut arb = TdmaArbiter::new(&[1, 2, 3], WheelLayout::Contiguous)?;
/// let mut map = RequestMap::new(3);
/// map.set_pending(MasterId::new(1), 4);
/// // Slot 0 belongs to master 0, which is idle; the second level
/// // reclaims the slot for requesting master 1.
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TdmaArbiter {
    wheel: Vec<MasterId>,
    masters: usize,
    position: usize,
    rr: usize,
}

impl TdmaArbiter {
    /// Creates a TDMA arbiter in which master *i* reserves
    /// `slots_per_master[i]` slots, arranged per `layout`.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no masters, too many masters, or a
    /// master reserves zero slots (it could then never be guaranteed
    /// bandwidth).
    pub fn new(slots_per_master: &[u32], layout: WheelLayout) -> Result<Self, ArbiterConfigError> {
        if slots_per_master.is_empty() {
            return Err(ArbiterConfigError::NoMasters);
        }
        if slots_per_master.len() > MAX_MASTERS {
            return Err(ArbiterConfigError::TooManyMasters {
                got: slots_per_master.len(),
                max: MAX_MASTERS,
            });
        }
        if let Some(idle) = slots_per_master.iter().position(|&s| s == 0) {
            return Err(ArbiterConfigError::UnservedMaster(idle));
        }
        let wheel = match layout {
            WheelLayout::Contiguous => contiguous_wheel(slots_per_master),
            WheelLayout::Interleaved => interleaved_wheel(slots_per_master),
        };
        let masters = slots_per_master.len();
        Ok(TdmaArbiter { wheel, masters, position: 0, rr: masters - 1 })
    }

    /// The timing wheel (slot owners in rotation order).
    pub fn wheel(&self) -> &[MasterId] {
        &self.wheel
    }

    /// The current wheel position (next slot to be used).
    pub fn position(&self) -> usize {
        self.position
    }

    /// Rotates the wheel so that slot `position` is next; lets
    /// experiments control the phase between reservations and traffic.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    pub fn set_position(&mut self, position: usize) {
        assert!(position < self.wheel.len(), "wheel position out of range");
        self.position = position;
    }

    /// The number of masters the wheel serves.
    pub(crate) fn masters(&self) -> usize {
        self.masters
    }

    /// The slot-reclaim round-robin pointer.
    pub(crate) fn rr(&self) -> usize {
        self.rr
    }

    /// Overwrites the reclaim pointer (SoA kernel writeback).
    pub(crate) fn set_rr(&mut self, rr: usize) {
        self.rr = rr;
    }
}

fn contiguous_wheel(slots: &[u32]) -> Vec<MasterId> {
    let mut wheel = Vec::with_capacity(slots.iter().map(|&s| s as usize).sum());
    for (master, &count) in slots.iter().enumerate() {
        wheel.extend(std::iter::repeat_n(MasterId::new(master), count as usize));
    }
    wheel
}

fn interleaved_wheel(slots: &[u32]) -> Vec<MasterId> {
    // Earliest-virtual-deadline spreading: repeatedly pick the master
    // whose (k+1)-th slot is "due" soonest at rate slots[m]/total, i.e.
    // the one minimizing (placed[m]+1)/slots[m].
    let total: u32 = slots.iter().sum();
    let mut placed = vec![0u32; slots.len()];
    let mut wheel = Vec::with_capacity(total as usize);
    for _ in 0..total {
        let next = (0..slots.len())
            .filter(|&m| placed[m] < slots[m])
            .min_by(|&a, &b| {
                let deadline_a = u64::from(placed[a] + 1) * u64::from(slots[b]);
                let deadline_b = u64::from(placed[b] + 1) * u64::from(slots[a]);
                deadline_a.cmp(&deadline_b).then(a.cmp(&b))
            })
            .expect("total matches quotas");
        placed[next] += 1;
        wheel.push(MasterId::new(next));
    }
    wheel
}

impl Arbiter for TdmaArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        let owner = self.wheel[self.position];
        self.position = (self.position + 1) % self.wheel.len();
        if requests.is_pending(owner) {
            return Some(Grant::single_word(owner));
        }
        // Second level: hand the wasted slot to the next requesting
        // master after the round-robin pointer.
        for k in 1..=self.masters {
            let candidate = MasterId::new((self.rr + k) % self.masters);
            if requests.is_pending(candidate) {
                self.rr = candidate.index();
                return Some(Grant::single_word(candidate));
            }
        }
        None
    }

    fn name(&self) -> &str {
        "tdma-2level"
    }

    /// The wheel has no timed events of its own — it rotates per
    /// *arbitration*, not per absolute cycle, so idle spans are freely
    /// skippable as long as [`TdmaArbiter::skip_idle`] replays the
    /// rotations.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }

    /// Replays `delta` empty arbitrations: the wheel rotates once per
    /// call regardless of requests, while the second-level round-robin
    /// pointer only moves on a reclaimed grant and therefore stays put.
    fn skip_idle(&mut self, delta: u64) {
        self.position =
            (self.position + (delta % self.wheel.len() as u64) as usize) % self.wheel.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(map: &mut RequestMap, masters: &[usize]) {
        map.clear();
        for &m in masters {
            map.set_pending(MasterId::new(m), 8);
        }
    }

    #[test]
    fn contiguous_wheel_shape() {
        let arb = TdmaArbiter::new(&[2, 1, 3], WheelLayout::Contiguous).expect("valid");
        let owners: Vec<usize> = arb.wheel().iter().map(|m| m.index()).collect();
        assert_eq!(owners, vec![0, 0, 1, 2, 2, 2]);
    }

    #[test]
    fn interleaved_wheel_spreads_slots() {
        let arb = TdmaArbiter::new(&[1, 1, 2], WheelLayout::Interleaved).expect("valid");
        let owners: Vec<usize> = arb.wheel().iter().map(|m| m.index()).collect();
        // Master 2's two slots must not be adjacent in a 4-slot wheel.
        let positions: Vec<usize> =
            owners.iter().enumerate().filter(|(_, &m)| m == 2).map(|(i, _)| i).collect();
        assert_eq!(owners.len(), 4);
        assert!(positions[1] - positions[0] >= 2, "wheel {owners:?} not spread");
    }

    #[test]
    fn owner_with_pending_request_gets_slot() {
        let mut arb = TdmaArbiter::new(&[1, 1], WheelLayout::Contiguous).expect("valid");
        let mut map = RequestMap::new(2);
        pending(&mut map, &[0, 1]);
        let g = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
        assert_eq!(g.master, MasterId::new(0));
        assert_eq!(g.max_words, 1);
        // Wheel rotated: next slot belongs to master 1.
        let g = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
        assert_eq!(g.master, MasterId::new(1));
    }

    #[test]
    fn second_level_reclaims_idle_slot_round_robin() {
        // Paper Figure 2: slot owner M4 idle; rr was M1, moves to the
        // next pending request M2.
        let mut arb = TdmaArbiter::new(&[1, 1, 1, 1], WheelLayout::Contiguous).expect("valid");
        arb.set_position(3); // current slot reserved for master 3 (paper's M4)
        arb.rr = 0; // paper's "old rr" at M1
        let mut map = RequestMap::new(4);
        pending(&mut map, &[1, 2]); // M2 and M3 pending, M4 idle
        let g = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
        assert_eq!(g.master, MasterId::new(1), "rr advances to next pending");
        assert_eq!(arb.rr, 1, "new rr parked at granted master");
    }

    #[test]
    fn empty_requests_waste_the_slot() {
        let mut arb = TdmaArbiter::new(&[2, 2], WheelLayout::Contiguous).expect("valid");
        let map = RequestMap::new(2);
        assert!(arb.arbitrate(&map, Cycle::ZERO).is_none());
        assert_eq!(arb.position(), 1, "wheel still rotates");
    }

    #[test]
    fn skip_idle_matches_empty_arbitrations() {
        let empty = RequestMap::new(3);
        for delta in [0u64, 1, 5, 6, 7, 100, 12_345] {
            let mut stepped = TdmaArbiter::new(&[1, 2, 3], WheelLayout::Interleaved).expect("ok");
            stepped.rr = 1;
            let mut skipped = stepped.clone();
            for c in 0..delta {
                assert!(stepped.arbitrate(&empty, Cycle::new(c)).is_none());
            }
            skipped.skip_idle(delta);
            assert_eq!(stepped.position(), skipped.position(), "delta {delta}");
            assert_eq!(stepped.rr, skipped.rr, "delta {delta}");
            // And the next real decision agrees.
            let mut map = RequestMap::new(3);
            pending(&mut map, &[2]);
            assert_eq!(
                stepped.arbitrate(&map, Cycle::new(delta)),
                skipped.arbitrate(&map, Cycle::new(delta))
            );
        }
    }

    #[test]
    fn zero_slot_master_rejected() {
        let err = TdmaArbiter::new(&[2, 0], WheelLayout::Contiguous).unwrap_err();
        assert_eq!(err, ArbiterConfigError::UnservedMaster(1));
    }

    #[test]
    fn bandwidth_follows_slot_counts_under_saturation() {
        let mut arb = TdmaArbiter::new(&[1, 3], WheelLayout::Contiguous).expect("valid");
        let mut map = RequestMap::new(2);
        pending(&mut map, &[0, 1]);
        let mut wins = [0u32; 2];
        for _ in 0..4000 {
            let g = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
            wins[g.master.index()] += 1;
        }
        assert_eq!(wins, [1000, 3000]);
    }
}
