//! Exactness of the Bernoulli source's drawn-ahead arrival schedule.
//!
//! [`StochasticSource`] draws a memoryless process ahead of time so it
//! can report a real horizon instead of pinning every cycle. That is
//! only legal if the stream it produces is the stream of the original
//! per-poll process: one `gen_bool(rate)` per cycle from the first
//! poll, the message size sampled right after each hit, the message
//! stamped with the cycle of its hit. [`Oracle`] below is that original
//! per-poll process, kept verbatim as the reference; every case checks
//! the source against it under three polling patterns:
//!
//! * every cycle (what `record_trace` does);
//! * only when `next_event(c) <= c` (what every horizon-aware kernel
//!   does), where each emission must land exactly on the horizon
//!   reported just before it;
//! * late, at random cycles past the horizon (catch-up), where the
//!   `(words, issued_at)` sequence must still match.

use lotterybus_repro::experiments::common::protocol_arbiter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socsim::arbiter::Grant;
use socsim::{Arbiter, BusConfig, Cycle, Kernel, RequestMap, SlaveId, SystemBuilder};
use socsim::{TrafficSource, Transaction};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traffic_gen::{ArrivalSpec, GeneratorSpec, SizeDist, StochasticSource, TrafficClass};

/// The per-poll Bernoulli process the drawn-ahead schedule replaces:
/// each poll draws once and stamps a hit at the polled cycle.
struct Oracle {
    spec: GeneratorSpec,
    rng: StdRng,
    pending: VecDeque<Transaction>,
}

impl Oracle {
    fn new(spec: GeneratorSpec, seed: u64) -> Self {
        Oracle { spec, rng: StdRng::seed_from_u64(seed), pending: VecDeque::new() }
    }

    fn push_message(&mut self, arrival: u64) {
        let words = self.spec.size.sample(&mut self.rng);
        self.pending.push_back(Transaction::new(
            SlaveId::new(self.spec.slave),
            words,
            Cycle::new(arrival),
        ));
    }

    fn generate_arrivals(&mut self, now: u64) {
        let ArrivalSpec::Bernoulli { rate } = self.spec.arrival else {
            unreachable!("the oracle models Bernoulli arrivals only")
        };
        if rate > 0.0 && self.rng.gen_bool(rate.min(1.0)) {
            self.push_message(now);
        }
    }

    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        self.generate_arrivals(now.index());
        let due = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, t)| t.issued_at() <= now)
            .min_by_key(|(_, t)| t.issued_at())
            .map(|(i, _)| i)?;
        self.pending.remove(due)
    }
}

/// `(emission cycle, words, issued_at)` per emitted message.
type Emission = (u64, u32, u64);

fn emission(cycle: u64, txn: &Transaction) -> Emission {
    (cycle, txn.words(), txn.issued_at().index())
}

/// The reference stream: the oracle polled every cycle in `start..end`.
fn oracle_stream(spec: GeneratorSpec, seed: u64, start: u64, end: u64) -> Vec<Emission> {
    let mut oracle = Oracle::new(spec, seed);
    (start..end).filter_map(|c| oracle.poll(Cycle::new(c)).map(|t| emission(c, &t))).collect()
}

/// The source polled every cycle in `start..end`; every emission must
/// sit on the horizon reported just before it, and every poll before
/// the horizon must leave the source untouched.
fn every_cycle(spec: GeneratorSpec, seed: u64, start: u64, end: u64) -> Vec<Emission> {
    let mut source = StochasticSource::new(spec, seed);
    let mut out = Vec::new();
    for c in start..end {
        let horizon = source.next_event(Cycle::new(c));
        assert!(horizon >= Cycle::new(c), "horizon {horizon:?} in the past at {c}");
        let before = (horizon > Cycle::new(c)).then(|| format!("{source:?}"));
        if let Some(t) = source.poll(Cycle::new(c)) {
            assert_eq!(horizon, Cycle::new(c), "emission at {c} was skippable");
            out.push(emission(c, &t));
        }
        if let Some(before) = before {
            assert_eq!(format!("{source:?}"), before, "poll at {c}, before the horizon, acted");
        }
    }
    out
}

/// The source polled only when its horizon is due, as a horizon-aware
/// kernel does. Returns the emissions and the number of polls run.
fn horizon_driven(spec: GeneratorSpec, seed: u64, start: u64, end: u64) -> (Vec<Emission>, u64) {
    let mut source = StochasticSource::new(spec, seed);
    let mut out = Vec::new();
    let mut polls = 0;
    for c in start..end {
        let horizon = source.next_event(Cycle::new(c));
        if horizon > Cycle::new(c) {
            continue;
        }
        assert_eq!(horizon, Cycle::new(c), "horizon in the past at {c}");
        polls += 1;
        if let Some(t) = source.poll(Cycle::new(c)) {
            out.push(emission(c, &t));
        }
    }
    (out, polls)
}

/// The source polled at random cycles at or past its horizon, draining
/// every due message at each poll, and finally at `end - 1`; returns
/// `(words, issued_at)` pairs.
fn late_polls(
    spec: GeneratorSpec,
    seed: u64,
    start: u64,
    end: u64,
    picker: &mut StdRng,
) -> Vec<(u32, u64)> {
    let mut source = StochasticSource::new(spec, seed);
    let mut out = Vec::new();
    let mut c = start;
    loop {
        while let Some(t) = source.poll(Cycle::new(c)) {
            assert!(t.issued_at() <= Cycle::new(c), "message stamped in the future");
            out.push((t.words(), t.issued_at().index()));
        }
        if c == end - 1 {
            return out;
        }
        let horizon = source.next_event(Cycle::new(c + 1)).index();
        c = horizon.saturating_add(picker.gen_range(0..=300u64)).min(end - 1);
    }
}

fn sizes() -> [SizeDist; 3] {
    [SizeDist::fixed(4), SizeDist::uniform(1, 16), SizeDist::bimodal(2, 48, 0.25)]
}

/// Cycles per case: longer than three draw-ahead windows (4096 cycles
/// each), so window checkpoints are crossed repeatedly.
const RUN: u64 = 3 * 4096 + 1_500;

fn check_case(spec: GeneratorSpec, seed: u64, start: u64, picker: &mut StdRng) {
    let end = start + RUN;
    let reference = oracle_stream(spec, seed, start, end);
    let label = format!("{spec:?} seed {seed} first poll {start}");
    assert_eq!(every_cycle(spec, seed, start, end), reference, "every-cycle polls: {label}");
    let (driven, _) = horizon_driven(spec, seed, start, end);
    assert_eq!(driven, reference, "horizon-driven polls: {label}");
    let stamps: Vec<(u32, u64)> = reference.iter().map(|&(_, w, at)| (w, at)).collect();
    assert_eq!(late_polls(spec, seed, start, end, picker), stamps, "late polls: {label}");
}

#[test]
fn drawn_ahead_schedule_reproduces_the_per_poll_stream() {
    let mut picker = StdRng::seed_from_u64(0x5eed);
    let fixed_rates = [0.0, 1e-7, 1e-3, 0.05, 0.5, 1.0];
    let mut case = 0u64;
    for &rate in &fixed_rates {
        for size in sizes() {
            let start = picker.gen_range(0..5_000u64);
            check_case(GeneratorSpec::poisson(rate, size), 1_000 + case, start, &mut picker);
            case += 1;
        }
    }
    for _ in 0..12 {
        let rate: f64 = picker.gen_range(0.0..1.0);
        let size = sizes()[picker.gen_range(0..3usize)];
        let start = picker.gen_range(0..100_000u64);
        let spec = GeneratorSpec::poisson(rate, size).to_slave(picker.gen_range(0..4usize));
        check_case(spec, picker.gen_range(0..u64::MAX), start, &mut picker);
    }
}

#[test]
fn sparse_sources_need_few_polls() {
    // The point of the schedule: a horizon-driven caller polls a sparse
    // source about once per arrival (plus one per empty window), not
    // once per cycle.
    let spec = GeneratorSpec::poisson(0.01, SizeDist::fixed(4));
    let (emitted, polls) = horizon_driven(spec, 7, 0, 100_000);
    assert!(!emitted.is_empty());
    assert!(polls <= emitted.len() as u64 + 100_000 / 4096 + 2, "{polls} polls");
}

/// Forwards to a real arbiter while counting the idle cycles the kernel
/// hands it to skip, through a shared handle.
struct SpyArbiter<A> {
    inner: A,
    skipped: Arc<AtomicU64>,
}

impl<A: Arbiter> Arbiter for SpyArbiter<A> {
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        self.inner.arbitrate(requests, now)
    }

    fn name(&self) -> &str {
        "spy"
    }

    fn failovers(&self) -> u64 {
        self.inner.failovers()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.inner.next_event(now)
    }

    fn skip_idle(&mut self, delta: u64) {
        self.skipped.fetch_add(delta, Ordering::Relaxed);
        self.inner.skip_idle(delta);
    }
}

#[test]
fn fast_kernel_skips_idle_cycles_of_sparse_bernoulli_traffic_exactly() {
    // T3 is sparse memoryless traffic (40% target utilization): with
    // drawn-ahead horizons the fast kernel jumps its idle gaps, and
    // still matches the cycle kernel in every output stream.
    let run = |kernel: Kernel| {
        let skipped = Arc::new(AtomicU64::new(0));
        let spy = SpyArbiter { inner: protocol_arbiter(4, 9), skipped: Arc::clone(&skipped) };
        let mut builder = SystemBuilder::new(BusConfig::default());
        for (i, spec) in TrafficClass::T3.specs(&[1, 2, 3, 4]).into_iter().enumerate() {
            builder = builder.master(format!("C{}", i + 1), spec.build_source(40 + i as u64));
        }
        let mut system = builder
            .arbiter(spy)
            .trace_capacity(1 << 16)
            .metrics_window(500)
            .kernel(kernel)
            .build()
            .expect("valid system");
        system.warm_up(1_000);
        system.run(20_000);
        system.flush_metrics();
        (
            system.stats().clone(),
            system.trace().clone(),
            system.metrics().expect("metrics on").samples().to_vec(),
            system.now(),
            skipped.load(Ordering::Relaxed),
            system.moves().idle_skipped,
        )
    };
    let (stats, trace, metrics, now, cycle_skipped, _) = run(Kernel::Cycle);
    let (fast_stats, fast_trace, fast_metrics, fast_now, fast_skipped, fast_moves) =
        run(Kernel::Fast);
    assert_eq!(stats, fast_stats);
    assert_eq!(trace, fast_trace);
    assert_eq!(metrics, fast_metrics);
    assert_eq!(now, fast_now);
    assert_eq!(cycle_skipped, 0, "the cycle kernel never skips");
    assert!(fast_skipped > 5_000, "fast kernel jumped only {fast_skipped} idle cycles");
    assert_eq!(fast_moves, fast_skipped, "move counters agree with the arbiter's view");
}
