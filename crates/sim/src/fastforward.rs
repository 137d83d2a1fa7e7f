//! Event horizons for the fast-forward kernel.
//!
//! The cycle-accurate kernel pays full per-cycle cost even when every
//! master is between bursts — exactly the idle gaps the paper's
//! low-duty-cycle traffic classes create. The fast-forward kernel
//! (selected with [`crate::SystemBuilder::kernel`]) closes those
//! gaps in one jump: each step it computes the **event horizon** — the
//! earliest future cycle at which any component does something that
//! batched accounting cannot replicate — and, when the bus is idle and
//! no request is live, advances time straight to that horizon.
//!
//! # The horizon contract
//!
//! Every component's `next_event` (on [`crate::TrafficSource`],
//! [`crate::Arbiter`], [`crate::MasterPort`]) returns the earliest
//! cycle `>= now` at which the component acts in a way the skip path
//! cannot reproduce arithmetically. Slaves and fault plans keep no
//! per-cycle state, so they never bound a skip; the one per-cycle fault
//! draw (master stalls) is pinned by
//! [`crate::MasterPort::next_event_under_stall_faults`]. Three values
//! matter:
//!
//! * `now` — "do not skip over me". The conservative answer, and the
//!   default for any component the kernel does not know; it degrades
//!   the fast kernel to the cycle kernel but can never change results.
//! * a future cycle — nothing interesting happens strictly before it,
//!   so the kernel may jump to `min` over all horizons (clamped by the
//!   run's end).
//! * [`Cycle::NEVER`] — nothing is scheduled at all; the component is
//!   ignored by the `min`.
//!
//! What *is* replicated arithmetically during a skip of `delta` idle
//! cycles (the idle skip of `System` and of every fleet lane, written
//! once in the lane core): the idle cycle counter, per-cycle
//! idle trace events, windowed-metrics gauge sampling and window
//! closes, profiler laps, and each arbiter's empty-map decision state
//! (via [`crate::Arbiter::skip_idle`]). Everything else must be pinned
//! by a horizon.
//!
//! The differential harness in `tests/kernel_equivalence.rs` and the
//! proptest properties in `tests/proptest_invariants.rs` hold the two
//! kernels to byte-identical statistics, metrics, and traces.

use crate::cycle::Cycle;

/// Which simulation kernel drives [`crate::System::run`].
///
/// Both kernels share the per-cycle [`crate::System::step`] as their
/// ground truth and produce byte-identical results:
///
/// * [`Kernel::Cycle`] — steps every cycle. The reference kernel.
/// * [`Kernel::Fast`] — additionally jumps over provably idle gaps
///   (see the module docs).
/// * [`Kernel::Tlm`] — the name `tlm`, kept so spec files and
///   `--kernel tlm` flags written for the retired transaction-level
///   kernel still work. It runs exactly what [`Kernel::Fast`] runs.
///   Exact tenure batching lives in [`crate::fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Cycle-accurate reference kernel.
    #[default]
    Cycle,
    /// Idle-skipping event kernel.
    Fast,
    /// Alias of [`Kernel::Fast`] under the name `tlm`.
    Tlm,
}

impl Kernel {
    /// Parses a kernel name as used by CLI flags and spec files.
    pub fn parse(name: &str) -> Option<Kernel> {
        match name {
            "cycle" => Some(Kernel::Cycle),
            "fast" => Some(Kernel::Fast),
            "tlm" => Some(Kernel::Tlm),
            _ => None,
        }
    }

    /// The canonical lowercase name (`cycle`, `fast`, `tlm`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cycle => "cycle",
            Kernel::Fast => "fast",
            Kernel::Tlm => "tlm",
        }
    }

    /// Whether the kernel jumps over idle gaps.
    pub fn skips_idle(self) -> bool {
        !matches!(self, Kernel::Cycle)
    }
}

/// How a [`crate::System`] or fleet lane advanced simulated time: the
/// cycles each execution move covered, and the source polls actually
/// run. The counts are deterministic (no timing), so a run that fell
/// back to per-cycle stepping shows up here, not only as a slower wall
/// time.
///
/// Every simulated cycle is counted under exactly one move. The
/// counters cover the whole life of the system or lane: statistics
/// resets (warm-up) do not clear them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveCounters {
    /// Cycles simulated one at a time by the per-cycle step.
    pub stepped: u64,
    /// Idle cycles jumped by the idle skip.
    pub idle_skipped: u64,
    /// Busy cycles replayed by tenure batching.
    pub tenure_batched: u64,
    /// Cycles covered by the fused arbitrate-and-batch loop.
    pub fused: u64,
    /// Cycles covered by the arithmetic TDMA wheel walk.
    pub wheel_batched: u64,
    /// Moves made: one per step, skip or batch.
    pub moves: u64,
    /// Source polls actually run; polls elided on busy cycles or
    /// jumped by a skip are not counted.
    pub polls: u64,
}

impl MoveCounters {
    /// Total simulated cycles, over all moves.
    pub fn cycles(&self) -> u64 {
        self.stepped + self.idle_skipped + self.tenure_batched + self.fused + self.wheel_batched
    }

    /// Share of the cycles simulated one at a time (0 before any cycle).
    pub fn stepped_share(&self) -> f64 {
        ratio(self.stepped, self.cycles())
    }

    /// Source polls run per simulated cycle (0 before any cycle).
    pub fn polls_per_cycle(&self) -> f64 {
        ratio(self.polls, self.cycles())
    }

    /// Mean cycles covered per move (0 before any move).
    pub fn cycles_per_move(&self) -> f64 {
        ratio(self.cycles(), self.moves)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Folds a component horizon into an accumulated minimum, saturating at
/// `now` (horizons in the past mean "cannot skip", not "skip backwards").
pub fn fold_horizon(acc: Cycle, component: Cycle, now: Cycle) -> Cycle {
    acc.min(component.max(now))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip_and_unknowns_are_rejected() {
        for k in [Kernel::Cycle, Kernel::Fast, Kernel::Tlm] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse("turbo"), None);
        assert_eq!(Kernel::parse("TLM"), None, "names are case-sensitive");
        assert_eq!(Kernel::default(), Kernel::Cycle);
        assert!(!Kernel::Cycle.skips_idle());
        assert!(Kernel::Fast.skips_idle() && Kernel::Tlm.skips_idle());
    }

    #[test]
    fn move_counter_ratios_are_zero_before_any_cycle() {
        let none = MoveCounters::default();
        assert_eq!(
            (none.stepped_share(), none.polls_per_cycle(), none.cycles_per_move()),
            (0.0, 0.0, 0.0)
        );
        let some =
            MoveCounters { stepped: 1, idle_skipped: 3, fused: 4, moves: 4, polls: 2, ..none };
        assert_eq!(some.cycles(), 8);
        assert_eq!(
            (some.stepped_share(), some.polls_per_cycle(), some.cycles_per_move()),
            (0.125, 0.25, 2.0)
        );
    }

    #[test]
    fn fold_clamps_stale_horizons_to_now() {
        let now = Cycle::new(100);
        // A component reporting a past cycle pins the horizon to `now`.
        assert_eq!(fold_horizon(Cycle::NEVER, Cycle::new(3), now), now);
        // Future horizons fold by minimum.
        let acc = fold_horizon(Cycle::NEVER, Cycle::new(400), now);
        assert_eq!(fold_horizon(acc, Cycle::new(250), now), Cycle::new(250));
        // NEVER never tightens the fold.
        assert_eq!(fold_horizon(acc, Cycle::NEVER, now), Cycle::new(400));
    }
}
