//! The static-priority shared bus (paper §2.1).

use crate::error::ArbiterConfigError;
use socsim::{Arbiter, Cycle, Grant, MasterId, RequestMap, MAX_MASTERS};

/// Static-priority bus arbiter: of all masters with pending requests, the
/// one with the *highest* priority value wins and transfers a whole burst.
///
/// This models the commercial shared-bus protocols of the paper's §2.1
/// (e.g. Peripheral Interconnect Bus style): priorities are fixed at
/// design time, so the architecture gives the designer no control over
/// bandwidth shares — under heavy traffic, low-priority masters starve
/// (the paper's Example 1 / Figure 4).
///
/// ```
/// use arbiters::StaticPriorityArbiter;
/// use socsim::{Arbiter, RequestMap, MasterId, Cycle};
///
/// # fn main() -> Result<(), arbiters::ArbiterConfigError> {
/// let mut arb = StaticPriorityArbiter::new(vec![3, 1, 2])?;
/// let mut map = RequestMap::new(3);
/// map.set_pending(MasterId::new(1), 8);
/// map.set_pending(MasterId::new(2), 8);
/// // Master 2 (priority 2) beats master 1 (priority 1).
/// assert_eq!(arb.arbitrate(&map, Cycle::ZERO).unwrap().master, MasterId::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StaticPriorityArbiter {
    /// Priority value per master; larger wins.
    priorities: Vec<u32>,
}

impl StaticPriorityArbiter {
    /// Creates an arbiter assigning `priorities[i]` to master *i*.
    /// Larger values denote higher priority.
    ///
    /// # Errors
    ///
    /// Returns an error if the list is empty, longer than
    /// [`MAX_MASTERS`], or contains duplicate values — the paper's bus
    /// requires unique priorities so arbitration is deterministic.
    pub fn new(priorities: Vec<u32>) -> Result<Self, ArbiterConfigError> {
        if priorities.is_empty() {
            return Err(ArbiterConfigError::NoMasters);
        }
        if priorities.len() > MAX_MASTERS {
            return Err(ArbiterConfigError::TooManyMasters {
                got: priorities.len(),
                max: MAX_MASTERS,
            });
        }
        let mut sorted = priorities.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            if pair[0] == pair[1] {
                return Err(ArbiterConfigError::DuplicatePriority(pair[0]));
            }
        }
        Ok(StaticPriorityArbiter { priorities })
    }

    /// The priority value of `master` (larger wins).
    pub fn priority(&self, master: MasterId) -> u32 {
        self.priorities[master.index()]
    }

    /// Number of masters this arbiter serves.
    pub fn masters(&self) -> usize {
        self.priorities.len()
    }
}

impl Arbiter for StaticPriorityArbiter {
    fn arbitrate(&mut self, requests: &RequestMap, _now: Cycle) -> Option<Grant> {
        requests.iter_pending().max_by_key(|m| self.priorities[m.index()]).map(Grant::whole_burst)
    }

    fn name(&self) -> &str {
        "static-priority"
    }

    /// Stateless decision function: idle spans change nothing, never
    /// pins the fast-forward horizon.
    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_priority_pending_wins() {
        let mut arb = StaticPriorityArbiter::new(vec![1, 4, 2, 3]).expect("valid");
        let mut map = RequestMap::new(4);
        map.set_pending(MasterId::new(0), 1);
        map.set_pending(MasterId::new(2), 1);
        map.set_pending(MasterId::new(3), 1);
        // Master 1 (priority 4) is idle, so master 3 (priority 3) wins.
        let grant = arb.arbitrate(&map, Cycle::ZERO).expect("grant");
        assert_eq!(grant.master, MasterId::new(3));
        assert_eq!(grant.max_words, u32::MAX);
    }

    #[test]
    fn idle_bus_when_nobody_requests() {
        let mut arb = StaticPriorityArbiter::new(vec![1, 2]).expect("valid");
        assert!(arb.arbitrate(&RequestMap::new(2), Cycle::ZERO).is_none());
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let err = StaticPriorityArbiter::new(vec![1, 2, 2]).unwrap_err();
        assert_eq!(err, ArbiterConfigError::DuplicatePriority(2));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(StaticPriorityArbiter::new(vec![]).unwrap_err(), ArbiterConfigError::NoMasters);
    }
}
