//! Recording stochastic generators into replayable traces.
//!
//! A recording is the exact emission stream of one seeded generator:
//! [`record_trace`] drains the source poll by poll, at the horizons it
//! reports, and keeps every `(stamp, words)` it emits. A
//! [`crate::ReplaySource`] over that trace then emits the same
//! transactions at the same polls as the live source would, over the
//! recorded window, because
//!
//! * a [`crate::StochasticSource`]'s stream is a function of its seed
//!   and its first poll's cycle alone (a recording starts at cycle 0,
//!   where a bus polls every source first);
//! * both sources emit one due message per poll, the earliest stamp
//!   first, and a poll before the source's horizon is a no-op.
//!
//! The experiments use this to generate a spec set's traffic once and
//! replay it under every arbiter they compare (see
//! `experiments::common::RecordedTraffic`). Tests use it to pin a
//! stochastic workload down: any simulator change that alters
//! behaviour then shows up as an exact diff instead of a statistical
//! drift.

use crate::generator::StochasticSource;
use crate::spec::GeneratorSpec;
use socsim::{Cycle, TrafficSource};

/// Runs the generator described by `spec` over cycles `0..cycles` and
/// returns its transactions, in emission order, as a
/// `(arrival_cycle, words)` trace suitable for
/// [`crate::ReplaySource::new`].
///
/// The source is polled at cycle 0 and then at each horizon it reports
/// ([`TrafficSource::next_event`]), which emits exactly what polling it
/// every cycle would: the polls in between are no-ops by the horizon
/// contract. Emissions come earliest stamp first, so the trace is
/// sorted.
///
/// ```
/// use traffic_gen::{record_trace, GeneratorSpec, ReplaySource, SizeDist};
/// let spec = GeneratorSpec::periodic(10, 0, SizeDist::fixed(4));
/// let trace = record_trace(&spec, 1, 35);
/// assert_eq!(trace, vec![(0, 4), (10, 4), (20, 4), (30, 4)]);
/// let _replay = ReplaySource::new(0, &trace);
/// ```
pub fn record_trace(spec: &GeneratorSpec, seed: u64, cycles: u64) -> Vec<(u64, u32)> {
    let mut source = StochasticSource::new(*spec, seed);
    let end = Cycle::new(cycles);
    let mut trace = Vec::new();
    let mut now = Cycle::ZERO;
    loop {
        let at = source.next_event(now);
        if at >= end {
            return trace;
        }
        if let Some(txn) = source.poll(at) {
            trace.push((txn.issued_at().index(), txn.words()));
        }
        now = at + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplaySource;
    use crate::size::SizeDist;

    fn drain(source: &mut dyn TrafficSource, cycles: u64) -> Vec<(u64, u32)> {
        (0..cycles)
            .filter_map(|c| source.poll(Cycle::new(c)).map(|t| (t.issued_at().index(), t.words())))
            .collect()
    }

    #[test]
    fn horizon_driven_recording_equals_polling_every_cycle() {
        // Every arrival kind, including jitter wider than the period
        // (stamps generated out of order) and on–off bursts whose
        // messages share one stamp (intra_gap 0, a backlog emitted one
        // per poll).
        let specs = [
            GeneratorSpec::periodic(25, 5, SizeDist::fixed(3)),
            GeneratorSpec::periodic_jittered(24, 3, 30, SizeDist::uniform(2, 8)),
            GeneratorSpec::periodic_jittered(20, 0, 5, SizeDist::fixed(1)),
            GeneratorSpec::poisson(0.05, SizeDist::fixed(16)),
            GeneratorSpec::poisson(0.003, SizeDist::uniform(1, 32)),
            GeneratorSpec::poisson(1.0, SizeDist::fixed(1)),
            GeneratorSpec::poisson(0.0, SizeDist::fixed(1)),
            GeneratorSpec::bursty(2, 6, 4, 30, 90, 7, SizeDist::uniform(1, 16)),
            GeneratorSpec::bursty(3, 8, 0, 10, 40, 0, SizeDist::fixed(4)),
        ];
        for (i, spec) in specs.iter().enumerate() {
            for cycles in [0, 1, 777, 20_000] {
                let seed = 40 + i as u64;
                let polled = drain(&mut StochasticSource::new(*spec, seed), cycles);
                assert_eq!(
                    record_trace(spec, seed, cycles),
                    polled,
                    "spec {i} over {cycles} cycles"
                );
            }
        }
    }

    #[test]
    fn replaying_a_recording_reproduces_the_stream() {
        let spec = GeneratorSpec::bursty(2, 5, 3, 40, 120, 7, SizeDist::uniform(2, 20));
        let trace = record_trace(&spec, 99, 5_000);
        assert!(!trace.is_empty());
        let mut replay = ReplaySource::new(0, &trace);
        let replayed = drain(&mut replay, 6_000);
        assert_eq!(replayed, trace);
    }

    #[test]
    fn recording_is_deterministic_per_seed() {
        let spec = GeneratorSpec::poisson(0.02, SizeDist::fixed(8));
        assert_eq!(record_trace(&spec, 5, 10_000), record_trace(&spec, 5, 10_000));
        assert_ne!(record_trace(&spec, 5, 10_000), record_trace(&spec, 6, 10_000));
    }

    #[test]
    fn recorded_load_matches_the_spec() {
        let spec = GeneratorSpec::poisson(0.03, SizeDist::fixed(16));
        let cycles = 100_000;
        let trace = record_trace(&spec, 3, cycles);
        let words: u64 = trace.iter().map(|&(_, w)| u64::from(w)).sum();
        let load = words as f64 / cycles as f64;
        assert!((load - spec.offered_load()).abs() < 0.05, "load {load:.3}");
    }
}
