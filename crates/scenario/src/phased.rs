//! Phase-scheduled traffic: one [`TrafficSource`] per master that
//! switches between per-phase stochastic generators at the scenario's
//! phase boundaries.
//!
//! Each (master, phase) pair gets its own seeded [`SourceKind`] built
//! from the master's traffic class with the phase's load scaling
//! applied. Switching is a pure function of the polled cycle, so the
//! cycle-accurate and fast-forward kernels see identical arrival
//! streams — the fuzzer's kernel-equivalence invariant depends on it.
//!
//! Two subtleties keep the streams byte-identical across kernels:
//!
//! * Periodic and on–off generators catch up when first polled at a
//!   late cycle: they emit every arrival their schedule placed in the
//!   skipped span, stamped in the past. (Bernoulli generators start
//!   drawing at their first poll instead, so they have no such span.)
//!   A phase's generator is first polled at the phase start, so
//!   arrivals stamped before the phase went live are discarded here,
//!   and a Bernoulli generator's draws always start at the phase start.
//! * [`PhasedSource::next_event`] never reports a horizon past the
//!   current phase's end, so the fast kernel cannot skip a boundary
//!   and miss the generator switch.

use crate::model::{MasterDecl, PhaseDecl};
use socsim::{Cycle, TrafficSource, Transaction};
use traffic_gen::SourceKind;

/// Splitmix64 finalizer; used to give every (master, phase) pair an
/// independent seed derived from the scenario seed.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A master's traffic across the whole phase schedule.
pub struct PhasedSource {
    /// First cycle of each phase.
    starts: Vec<u64>,
    /// One-past-last cycle of each phase.
    ends: Vec<u64>,
    /// Per-phase generator; `None` while the master is silent.
    inner: Vec<Option<SourceKind>>,
}

impl PhasedSource {
    /// Builds master `index`'s source for the given phase schedule,
    /// deriving per-phase seeds from `seed`.
    pub fn build(index: usize, master: &MasterDecl, phases: &[PhaseDecl], seed: u64) -> Self {
        let mut starts = Vec::with_capacity(phases.len());
        let mut ends = Vec::with_capacity(phases.len());
        let mut inner = Vec::with_capacity(phases.len());
        let mut start = 0u64;
        for (k, phase) in phases.iter().enumerate() {
            let scale = match &phase.focus {
                Some(focus) if *focus != master.name => 1.0,
                _ => phase.scale,
            };
            let load = master.load * scale;
            let phase_seed = mix(seed ^ mix((index as u64) << 32 | k as u64));
            starts.push(start);
            ends.push(start + phase.duration);
            inner.push(master.generator(index, load, start).map(|g| g.build_kind(phase_seed)));
            start += phase.duration;
        }
        PhasedSource { starts, ends, inner }
    }

    /// Index of the phase containing `now`, or `None` after the
    /// schedule has run out.
    fn phase_of(&self, now: Cycle) -> Option<usize> {
        let c = now.index();
        self.ends.iter().position(|&end| c < end)
    }
}

impl TrafficSource for PhasedSource {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        self.poll_with_backlog(now, 0)
    }

    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        let k = self.phase_of(now)?;
        let start = self.starts[k];
        let src = self.inner[k].as_mut()?;
        loop {
            let txn = src.poll_with_backlog(now, backlog)?;
            if txn.issued_at().index() >= start {
                return Some(txn);
            }
            // Catch-up arrival stamped before this phase went live (a
            // periodic/on–off schedule emits arrivals for cycles it
            // was never polled at); drop it and keep draining.
        }
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        let Some(k) = self.phase_of(now) else {
            return Cycle::NEVER;
        };
        let boundary = Cycle::new(self.ends[k]);
        match &self.inner[k] {
            // Silent phase: nothing can happen before the next phase
            // boundary (where the generator may switch on).
            None => boundary,
            Some(src) => src.next_event(now).min(boundary),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Arrival, Scenario};

    fn master(load: f64, arrival: Arrival) -> MasterDecl {
        MasterDecl { name: "m".into(), weight: 1, load, size: 4, arrival, slave: 0 }
    }

    fn phases() -> Vec<PhaseDecl> {
        vec![
            PhaseDecl { name: "warm".into(), duration: 1000, scale: 1.0, focus: None },
            PhaseDecl { name: "quiet".into(), duration: 1000, scale: 0.0, focus: None },
            PhaseDecl { name: "flash".into(), duration: 1000, scale: 2.0, focus: None },
        ]
    }

    /// Drains the source cycle by cycle, recording arrival stamps.
    fn drain(src: &mut PhasedSource, cycles: u64) -> Vec<u64> {
        let mut stamps = Vec::new();
        for c in 0..cycles {
            while let Some(txn) = src.poll(Cycle::new(c)) {
                stamps.push(txn.issued_at().index());
            }
        }
        stamps
    }

    #[test]
    fn silent_phase_emits_nothing_and_later_phases_resume() {
        let m = master(0.5, Arrival::Poisson);
        let mut src = PhasedSource::build(0, &m, &phases(), 11);
        let stamps = drain(&mut src, 3000);
        assert!(stamps.iter().any(|&s| s < 1000), "phase 1 should emit");
        assert!(!stamps.iter().any(|&s| (1000..2000).contains(&s)), "scale=0 phase must be silent");
        assert!(stamps.iter().any(|&s| s >= 2000), "phase 3 should resume");
    }

    #[test]
    fn no_arrival_is_stamped_before_its_phase_started() {
        // First poll of the flash phase happens at cycle 2000. The
        // Bernoulli generator starts drawing there, so nothing may be
        // stamped earlier (periodic and on–off generators would back-fill
        // from their schedule start, which the wrapper discards).
        let m = master(0.5, Arrival::Poisson);
        let mut src = PhasedSource::build(0, &m, &phases(), 11);
        let mut stamps = Vec::new();
        // Skip straight to the flash phase without polling earlier
        // cycles, as the fast kernel would after an idle skip.
        while let Some(txn) = src.poll(Cycle::new(2000)) {
            stamps.push(txn.issued_at().index());
        }
        assert!(stamps.iter().all(|&s| s == 2000), "stale catch-up stamps leaked: {stamps:?}");
    }

    #[test]
    fn next_event_never_reports_past_the_phase_boundary() {
        let m = master(0.01, Arrival::Periodic);
        let src = PhasedSource::build(0, &m, &phases(), 11);
        for c in [0u64, 500, 999, 1000, 1500, 2999] {
            let horizon = src.next_event(Cycle::new(c)).index();
            let boundary = 1000 * (c / 1000 + 1);
            assert!(horizon <= boundary, "horizon {horizon} skips boundary {boundary}");
        }
        assert_eq!(src.next_event(Cycle::new(3000)), Cycle::NEVER);
    }

    #[test]
    fn focus_scaling_applies_only_to_the_named_master() {
        let mut sched = phases();
        sched[2].focus = Some("other".into());
        let focused = master(0.5, Arrival::Poisson);
        let mut with_focus = PhasedSource::build(0, &focused, &sched, 11);
        let mut without = PhasedSource::build(0, &focused, &phases()[..2], 11);
        // Phase 3 focuses a different master, so this master runs at
        // base load there — the first two phases are identical either
        // way.
        let a = drain(&mut with_focus, 2000);
        let b = drain(&mut without, 2000);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ_across_masters_and_phases() {
        let m = master(0.5, Arrival::Poisson);
        let mut a = PhasedSource::build(0, &m, &phases(), 11);
        let mut b = PhasedSource::build(1, &m, &phases(), 11);
        assert_ne!(drain(&mut a, 1000), drain(&mut b, 1000));
    }

    #[test]
    fn validate_catches_model_errors_used_by_these_fixtures() {
        // Guard: the fixtures above stay in sync with the model's
        // validation rules.
        let mut sc = Scenario::empty("phased-fixture");
        sc.masters.push(master(0.5, Arrival::Poisson));
        sc.phases = phases();
        assert!(sc.validate().is_ok());
    }
}
