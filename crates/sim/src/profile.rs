//! Wall-clock profiling of the cycle kernel's simulation phases.
//!
//! Each [`crate::System::step`] passes through three phases: polling
//! the traffic sources, stepping the bus/arbiter, and accounting
//! (statistics, metrics, failover bookkeeping). The [`PhaseProfiler`]
//! attributes wall-clock time to each, so a run can report *where*
//! simulation time goes instead of only totals. `lbbench` measures the
//! profiler's own cost as `socsim.profile_overhead_frac`.
//!
//! Profiling is wall-clock measurement, not simulated time — it never
//! participates in deterministic results, and a disabled profiler costs
//! one branch per phase per cycle (no clock reads).

use std::time::{Duration, Instant};

/// The phases of one simulated cycle, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Polling every master's traffic source for new transactions.
    Poll,
    /// Stepping the bus: arbitration, fault machinery, word transfer.
    Bus,
    /// Statistics, metrics sampling and failover bookkeeping.
    Accounting,
}

impl SimPhase {
    /// All phases in execution order.
    pub const ALL: [SimPhase; 3] = [SimPhase::Poll, SimPhase::Bus, SimPhase::Accounting];

    /// A stable lowercase label (used in reports).
    pub fn label(self) -> &'static str {
        match self {
            SimPhase::Poll => "poll",
            SimPhase::Bus => "bus",
            SimPhase::Accounting => "accounting",
        }
    }

    fn index(self) -> usize {
        match self {
            SimPhase::Poll => 0,
            SimPhase::Bus => 1,
            SimPhase::Accounting => 2,
        }
    }
}

/// Accumulates wall-clock time per [`SimPhase`] across many cycles.
///
/// The lap protocol keeps the disabled path free of clock reads:
/// [`PhaseProfiler::start`] returns `None` when disabled, and
/// [`PhaseProfiler::lap`] is a no-op on a `None` token.
///
/// ```
/// use socsim::profile::{PhaseProfiler, SimPhase};
/// let mut profiler = PhaseProfiler::enabled();
/// let mut lap = profiler.start();
/// // ... poll traffic sources ...
/// profiler.lap(SimPhase::Poll, &mut lap);
/// // ... step the bus ...
/// profiler.lap(SimPhase::Bus, &mut lap);
/// assert_eq!(profiler.laps(), 1);
/// assert!(profiler.total(SimPhase::Poll) <= profiler.total_wall());
///
/// let mut off = PhaseProfiler::disabled();
/// assert!(off.start().is_none()); // no clock read on the hot path
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    totals: [Duration; 3],
    laps: u64,
}

impl PhaseProfiler {
    /// A profiler that records nothing (the default).
    pub fn disabled() -> Self {
        PhaseProfiler::default()
    }

    /// A profiler that attributes wall time to each phase.
    pub fn enabled() -> Self {
        PhaseProfiler { enabled: true, ..PhaseProfiler::default() }
    }

    /// Whether this profiler records time.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a lap sequence: returns a timing token, or `None` when
    /// disabled (no clock is read).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Attributes the time since the token to `phase` and re-arms the
    /// token. No-op (and no clock read) when the token is `None`.
    #[inline]
    pub fn lap(&mut self, phase: SimPhase, token: &mut Option<Instant>) {
        if let Some(t) = token {
            let now = Instant::now();
            self.totals[phase.index()] += now - *t;
            *token = Some(now);
            if phase == SimPhase::Poll {
                self.laps += 1;
            }
        }
    }

    /// Attributes the time since the token to `phase` and credits the
    /// profiler with `cycles` completed laps in one go — the Δ-cycle
    /// aware form of [`PhaseProfiler::lap`] used when the fast-forward
    /// kernel covers many simulated cycles in one jump. Keeps the
    /// invariant that [`PhaseProfiler::laps`] equals the number of
    /// simulated cycles regardless of kernel.
    #[inline]
    pub fn lap_span(&mut self, phase: SimPhase, cycles: u64, token: &mut Option<Instant>) {
        if let Some(t) = token {
            let now = Instant::now();
            self.totals[phase.index()] += now - *t;
            *token = Some(now);
            self.laps += cycles;
        }
    }

    /// Accumulated wall time of `phase`.
    pub fn total(&self, phase: SimPhase) -> Duration {
        self.totals[phase.index()]
    }

    /// Sum of all phase times.
    pub fn total_wall(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Number of completed lap sequences (cycles profiled).
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Fraction of the total profiled time spent in `phase`
    /// (`None` before any time accumulates).
    pub fn fraction(&self, phase: SimPhase) -> Option<f64> {
        let total = self.total_wall().as_secs_f64();
        (total > 0.0).then(|| self.total(phase).as_secs_f64() / total)
    }

    /// Clears accumulated time (e.g. after a warm-up period) without
    /// changing the enabled state.
    pub fn reset(&mut self) {
        self.totals = [Duration::ZERO; 3];
        self.laps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reads_no_clock_and_stays_zero() {
        let mut p = PhaseProfiler::disabled();
        let mut token = p.start();
        assert!(token.is_none());
        p.lap(SimPhase::Poll, &mut token);
        p.lap(SimPhase::Bus, &mut token);
        assert!(!p.is_enabled());
        assert_eq!(p.laps(), 0);
        assert_eq!(p.total_wall(), Duration::ZERO);
        assert_eq!(p.fraction(SimPhase::Bus), None);
    }

    #[test]
    fn laps_attribute_time_to_phases() {
        let mut p = PhaseProfiler::enabled();
        for _ in 0..3 {
            let mut token = p.start();
            std::thread::sleep(Duration::from_micros(200));
            p.lap(SimPhase::Poll, &mut token);
            p.lap(SimPhase::Bus, &mut token);
            p.lap(SimPhase::Accounting, &mut token);
        }
        assert_eq!(p.laps(), 3);
        assert!(p.total(SimPhase::Poll) >= Duration::from_micros(600));
        let total: f64 = SimPhase::ALL.iter().filter_map(|&ph| p.fraction(ph)).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to 1, got {total}");
        p.reset();
        assert_eq!(p.laps(), 0);
        assert_eq!(p.total_wall(), Duration::ZERO);
        assert!(p.is_enabled(), "reset keeps the profiler on");
    }

    #[test]
    fn lap_span_counts_skipped_cycles() {
        let mut p = PhaseProfiler::enabled();
        // One cycle-accurate lap…
        let mut token = p.start();
        p.lap(SimPhase::Poll, &mut token);
        p.lap(SimPhase::Bus, &mut token);
        p.lap(SimPhase::Accounting, &mut token);
        // …then a fast-forward jump over 499 cycles.
        let mut token = p.start();
        p.lap_span(SimPhase::Accounting, 499, &mut token);
        assert_eq!(p.laps(), 500, "laps equal simulated cycles, not steps");

        // Disabled: no clock reads, no lap counting.
        let mut off = PhaseProfiler::disabled();
        let mut token = off.start();
        off.lap_span(SimPhase::Accounting, 1_000, &mut token);
        assert_eq!(off.laps(), 0);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = SimPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["poll", "bus", "accounting"]);
    }
}
