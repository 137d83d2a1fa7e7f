//! The stochastic traffic source driven by a [`GeneratorSpec`].

use crate::spec::{ArrivalSpec, GeneratorSpec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use socsim::{BacklogPolls, Cycle, SlaveId, TrafficSource, Transaction};
use std::collections::VecDeque;

/// Cycles a Bernoulli source draws ahead of a poll while looking for
/// its next hit. A window without one ends at a checkpoint horizon, so
/// a sparse source is polled about once per arrival, and at least once
/// every this many cycles.
const DRAW_AHEAD: u64 = 4096;

/// `next_event` of a Bernoulli source that has not been polled yet: its
/// draws start at its first poll, wherever that falls.
const UNANCHORED: u64 = u64::MAX;

/// The integer form of a Bernoulli draw at probability `p` in `(0, 1]`:
/// a draw `bits` hits iff [`bernoulli_hit`]`(bits, bernoulli_threshold(p))`.
///
/// This is `gen_bool(p)`'s test on the same draw without the float
/// path. `gen_bool` hits iff `(bits >> 11) · 2^-53 < p`; both sides
/// are exact (a 53-bit integer scaled by a power of two), so for the
/// integer `x = bits >> 11` that is `x < p · 2^53`, which holds iff
/// `x < ⌈p · 2^53⌉`; the float product `p · 2^53` is exact as well, so
/// its ceiling is the true one.
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Whether the 64 random bits `bits` hit a Bernoulli draw whose
/// [`bernoulli_threshold`] is `threshold`.
#[inline]
fn bernoulli_hit(bits: u64, threshold: u64) -> bool {
    bits >> 11 < threshold
}

/// A deterministic (seeded) stochastic traffic source.
///
/// Internally the source keeps a small queue of generated-but-not-yet-due
/// messages so that bursty arrival processes can stamp several messages
/// with their true arrival cycles while the bus interface consumes them
/// one per cycle.
///
/// Every arrival process is a schedule known ahead of time, so
/// [`TrafficSource::next_event`] always reports a real horizon. The
/// memoryless (Bernoulli) process makes one `gen_bool(rate)` draw per
/// cycle from its first poll on (made as the same comparison in
/// integer form: `next_u64() >> 11 < ⌈rate · 2^53⌉`), samples the
/// message size right after
/// each hit, and stamps the message with the hit's cycle. A poll draws
/// ahead up to the next hit, so the cycles before it need no poll; a
/// poll that comes later than the horizon catches up over the skipped
/// cycles and stamps their arrivals in the past, like the periodic and
/// on–off processes do. The stream is therefore a function of the
/// seed and the first poll's cycle alone, however often it is polled.
///
/// ```
/// use traffic_gen::{GeneratorSpec, SizeDist, StochasticSource};
/// use socsim::{TrafficSource, Cycle};
///
/// let spec = GeneratorSpec::periodic(10, 0, SizeDist::fixed(4));
/// let mut source = StochasticSource::new(spec, 1);
/// assert!(source.poll(Cycle::new(0)).is_some());
/// assert!(source.poll(Cycle::new(1)).is_none());
/// assert!(source.poll(Cycle::new(10)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct StochasticSource {
    spec: GeneratorSpec,
    rng: StdRng,
    /// Messages stamped with their arrival cycle, awaiting emission.
    pending: VecDeque<Transaction>,
    /// Next arrival event for the periodic / on–off processes; for the
    /// Bernoulli process, the first cycle not drawn yet ([`UNANCHORED`]
    /// before the first poll).
    next_event: u64,
}

impl StochasticSource {
    /// Creates the source described by `spec`, seeded with `seed`.
    pub fn new(spec: GeneratorSpec, seed: u64) -> Self {
        let next_event = match spec.arrival {
            ArrivalSpec::Periodic { phase, .. } => phase,
            ArrivalSpec::Bernoulli { .. } => UNANCHORED,
            ArrivalSpec::OnOff { phase, .. } => phase,
        };
        StochasticSource {
            spec,
            rng: StdRng::seed_from_u64(seed),
            pending: VecDeque::new(),
            next_event,
        }
    }

    /// The spec this source realizes.
    pub fn spec(&self) -> &GeneratorSpec {
        &self.spec
    }

    /// Whether the process stamps its messages in nondecreasing order,
    /// so the queue's head is its earliest message: Bernoulli, on–off,
    /// and periodic without jitter.
    fn monotone(&self) -> bool {
        !matches!(self.spec.arrival, ArrivalSpec::Periodic { jitter, .. } if jitter > 0)
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
        match self.spec.arrival {
            ArrivalSpec::Periodic { period, jitter, .. } => {
                while self.next_event <= now {
                    let offset = if jitter == 0 { 0 } else { self.rng.gen_range(0..=jitter) };
                    self.push_message(self.next_event + offset);
                    // Saturates to `Cycle::NEVER`: a period past the end
                    // of time means no further arrival.
                    self.next_event = self.next_event.saturating_add(period);
                }
            }
            ArrivalSpec::Bernoulli { rate } => {
                if rate <= 0.0 {
                    return;
                }
                if self.next_event == UNANCHORED {
                    self.next_event = now;
                }
                // Draw only once the horizon has come, and only if no
                // earlier poll drew past `now` already; otherwise the
                // poll just drains the queue.
                let due = self.next_event <= now
                    || self.pending.front().is_some_and(|t| t.issued_at().index() <= now);
                if !due || self.next_event > now + 1 {
                    return;
                }
                // Catch up on every cycle up to `now`, then draw ahead to
                // the next hit. An empty window leaves `next_event` as
                // the checkpoint horizon. The draws run on local copies
                // of the generator and the cursor, written back before
                // each hit samples its size from the same generator.
                let window_end = now.saturating_add(DRAW_AHEAD);
                let threshold = bernoulli_threshold(rate.min(1.0));
                loop {
                    let (mut rng, mut next) = (self.rng.clone(), self.next_event);
                    let mut hit = None;
                    while next <= window_end {
                        let cycle = next;
                        next += 1;
                        if bernoulli_hit(rng.next_u64(), threshold) {
                            hit = Some(cycle);
                            break;
                        }
                    }
                    (self.rng, self.next_event) = (rng, next);
                    let Some(cycle) = hit else { return };
                    self.push_message(cycle);
                    if cycle > now {
                        return;
                    }
                }
            }
            ArrivalSpec::OnOff { burst_min, burst_max, intra_gap, off_min, off_max, .. } => {
                while self.next_event <= now {
                    let start = self.next_event;
                    let messages = self.rng.gen_range(burst_min..=burst_max);
                    for k in 0..u64::from(messages) {
                        self.push_message(start + k * intra_gap);
                    }
                    let burst_span = u64::from(messages.saturating_sub(1)) * intra_gap + 1;
                    let off = self.rng.gen_range(off_min..=off_max);
                    // Saturates to `Cycle::NEVER` like the periodic arm:
                    // a wrapped sum would re-arm the burst forever.
                    self.next_event = start.saturating_add(burst_span).saturating_add(off);
                }
            }
        }
    }
}

impl TrafficSource for StochasticSource {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        self.generate_arrivals(now.index());
        // Messages stamped in the future (jitter / intra-burst gaps) wait
        // in the queue until due. Where the process stamps in order, the
        // head is the earliest message; jitter can stamp out of order,
        // and a linear scan of the short queue finds the earliest due
        // message then.
        if self.monotone() {
            let head = self.pending.front()?;
            return if head.issued_at() <= now { self.pending.pop_front() } else { None };
        }
        let due = self
            .pending
            .iter()
            .enumerate()
            .filter(|(_, t)| t.issued_at() <= now)
            .min_by_key(|(_, t)| t.issued_at())
            .map(|(i, _)| i)?;
        self.pending.remove(due)
    }

    /// The earliest cycle at which a poll could emit a message or draw
    /// from the RNG (see [`socsim::fastforward`]).
    ///
    /// * A Bernoulli source that has not been polled yet reports `now`:
    ///   its draws start at its first poll. After that its horizon is
    ///   its next hit (drawn ahead by the last poll) or, when the
    ///   draw-ahead window held none, the first cycle not drawn yet. A
    ///   zero rate never draws nor emits.
    /// * Periodic and on–off processes mutate state only once
    ///   `next_event` comes due, so the horizon is the earlier of that
    ///   arrival event and the earliest already-generated message
    ///   waiting in the queue (jitter and intra-burst stamps can sit in
    ///   the future).
    fn next_event(&self, now: Cycle) -> Cycle {
        let pending = if self.monotone() {
            self.pending.front().map(Transaction::issued_at)
        } else {
            self.pending.iter().map(Transaction::issued_at).min()
        };
        let horizon = match self.spec.arrival {
            ArrivalSpec::Bernoulli { rate } if rate <= 0.0 => pending.unwrap_or(Cycle::NEVER),
            ArrivalSpec::Bernoulli { .. } if self.next_event == UNANCHORED => return now,
            _ => {
                let arrival = Cycle::new(self.next_event);
                pending.map_or(arrival, |p| p.min(arrival))
            }
        };
        horizon.max(now)
    }

    /// The generator ignores the backlog and stamps its own arrivals,
    /// and its draws and emissions depend only on the cycles it is
    /// polled at: its polls may be deferred.
    fn backlog_polls(&self) -> BacklogPolls {
        BacklogPolls::Defer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::SizeDist;

    fn drain(source: &mut StochasticSource, cycles: u64) -> Vec<(u64, u32)> {
        (0..cycles).filter_map(|c| source.poll(Cycle::new(c)).map(|t| (c, t.words()))).collect()
    }

    #[test]
    fn integer_bernoulli_draw_agrees_with_gen_bool_draw_for_draw() {
        let probabilities = [1e-300, 1e-4, 0.09, 0.25, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0];
        for (i, &p) in probabilities.iter().enumerate() {
            let threshold = bernoulli_threshold(p);
            let mut float_path = StdRng::seed_from_u64(0x5EED + i as u64);
            let mut integer_path = float_path.clone();
            let mut hits = 0u32;
            for draw in 0..200_000 {
                let expected = float_path.gen_bool(p);
                assert_eq!(
                    bernoulli_hit(integer_path.next_u64(), threshold),
                    expected,
                    "p = {p:e}, draw {draw}"
                );
                hits += u32::from(expected);
            }
            assert!(p < 1.0 || hits == 200_000, "p = 1 always hits");
        }
        // Random draws almost never land next to the threshold, so
        // check the 53-bit values around it against `gen_bool`'s float
        // comparison directly.
        for &p in &probabilities {
            let threshold = bernoulli_threshold(p);
            for x in threshold.saturating_sub(2)..(threshold + 2).min(1 << 53) {
                let float_hit = x as f64 * (1.0 / (1u64 << 53) as f64) < p;
                assert_eq!(bernoulli_hit(x << 11, threshold), float_hit, "p = {p:e}, x = {x}");
            }
        }
        // The thresholds at the edges: one hit value above zero, all
        // 2^53 values at one.
        assert_eq!(bernoulli_threshold(1e-300), 1);
        assert_eq!(bernoulli_threshold(1.0 - f64::EPSILON / 2.0), (1 << 53) - 1);
        assert_eq!(bernoulli_threshold(1.0), 1 << 53);
    }

    #[test]
    fn periodic_arrivals_hit_the_grid() {
        let spec = GeneratorSpec::periodic(25, 5, SizeDist::fixed(3));
        let mut source = StochasticSource::new(spec, 9);
        let got = drain(&mut source, 100);
        assert_eq!(got, vec![(5, 3), (30, 3), (55, 3), (80, 3)]);
    }

    #[test]
    fn jitter_delays_but_preserves_count() {
        let spec = GeneratorSpec::periodic_jittered(20, 0, 5, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, 10);
        let got = drain(&mut source, 200);
        assert_eq!(got.len(), 10);
        for (k, &(cycle, _)) in got.iter().enumerate() {
            let grid = k as u64 * 20;
            assert!(
                (grid..=grid + 5).contains(&cycle),
                "arrival {k} at {cycle} outside jitter window"
            );
        }
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let spec = GeneratorSpec::poisson(0.1, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, 11);
        let got = drain(&mut source, 50_000);
        let rate = got.len() as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bursts_emit_every_message_with_true_stamps() {
        // Bursts of exactly 3 messages, 2 cycles apart, 50-cycle gaps.
        let spec = GeneratorSpec::bursty(3, 3, 2, 50, 50, 10, SizeDist::fixed(4));
        let mut source = StochasticSource::new(spec, 12);
        let mut stamps = Vec::new();
        for c in 0..120u64 {
            if let Some(t) = source.poll(Cycle::new(c)) {
                stamps.push(t.issued_at().index());
            }
        }
        assert_eq!(stamps, vec![10, 12, 14, 65, 67, 69]);
    }

    #[test]
    fn back_to_back_burst_messages_queue_up() {
        // intra_gap 0: all 4 messages arrive at once, drained 1/cycle.
        let spec = GeneratorSpec::bursty(4, 4, 0, 1000, 1000, 0, SizeDist::fixed(2));
        let mut source = StochasticSource::new(spec, 13);
        let got = drain(&mut source, 10);
        assert_eq!(got.iter().map(|&(c, _)| c).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // All four carry the burst-start stamp for latency accounting.
        let spec2 = GeneratorSpec::bursty(4, 4, 0, 1000, 1000, 0, SizeDist::fixed(2));
        let mut source2 = StochasticSource::new(spec2, 13);
        for c in 0..4u64 {
            let t = source2.poll(Cycle::new(c)).expect("queued message");
            assert_eq!(t.issued_at().index(), 0);
        }
    }

    #[test]
    fn off_period_at_the_end_of_time_never_rearms() {
        // An off period of u64::MAX (what a vanishing load saturates to)
        // ends the process after its first burst instead of wrapping
        // the next burst start back into the past.
        let spec = GeneratorSpec::bursty(2, 2, 0, u64::MAX, u64::MAX, 5, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, 14);
        assert_eq!(drain(&mut source, 100), vec![(5, 1), (6, 1)]);
        assert_eq!(source.next_event(Cycle::new(100)), Cycle::NEVER);
    }

    #[test]
    fn period_at_the_end_of_time_never_rearms() {
        let spec = GeneratorSpec::periodic(u64::MAX, 7, SizeDist::fixed(2));
        let mut source = StochasticSource::new(spec, 15);
        assert_eq!(drain(&mut source, 100), vec![(7, 2)]);
        assert_eq!(source.next_event(Cycle::new(100)), Cycle::NEVER);
    }

    #[test]
    fn horizon_is_exact_for_every_arrival_process() {
        // Whenever a poll emits, the horizon computed just before must
        // have been exactly that cycle — the fast-forward kernel's "time
        // never jumps past an event" invariant, checked per cycle.
        let specs = [
            GeneratorSpec::periodic(25, 5, SizeDist::fixed(3)),
            GeneratorSpec::periodic_jittered(20, 0, 5, SizeDist::fixed(1)),
            GeneratorSpec::bursty(2, 4, 3, 40, 80, 7, SizeDist::uniform(1, 8)),
            GeneratorSpec::poisson(0.02, SizeDist::uniform(1, 8)),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let mut source = StochasticSource::new(spec, 31 + i as u64);
            for c in 0..2_000u64 {
                let h = source.next_event(Cycle::new(c));
                let emitted = source.poll(Cycle::new(c)).is_some();
                assert!(h >= Cycle::new(c), "spec {i}: horizon in the past at {c}");
                if emitted {
                    assert_eq!(h, Cycle::new(c), "spec {i}: emission at {c} was skippable");
                }
            }
        }
    }

    #[test]
    fn bernoulli_horizon_is_the_next_hit() {
        let spec = GeneratorSpec::poisson(0.01, SizeDist::fixed(1));
        let mut live = StochasticSource::new(spec, 3);
        // Unpolled, the draws have not started: the first poll is due.
        assert_eq!(live.next_event(Cycle::new(42)), Cycle::new(42));
        // After a poll, the horizon is the next cycle that emits when
        // an identical source is polled every cycle.
        let mut reference = StochasticSource::new(spec, 3);
        assert_eq!(live.poll(Cycle::new(42)), reference.poll(Cycle::new(42)));
        let next_hit = (43..)
            .find(|&c| reference.poll(Cycle::new(c)).is_some())
            .expect("a positive rate hits eventually");
        assert_eq!(live.next_event(Cycle::new(43)), Cycle::new(next_hit));
        let dead = StochasticSource::new(GeneratorSpec::poisson(0.0, SizeDist::fixed(1)), 3);
        assert_eq!(dead.next_event(Cycle::new(42)), Cycle::NEVER);
    }

    #[test]
    fn empty_draw_ahead_window_ends_at_a_checkpoint() {
        // A rate this low almost surely draws no hit in one window: the
        // horizon is then the first cycle not drawn yet.
        let spec = GeneratorSpec::poisson(1e-9, SizeDist::fixed(1));
        let mut source = StochasticSource::new(spec, 5);
        assert!(source.poll(Cycle::new(100)).is_none());
        assert_eq!(source.next_event(Cycle::new(101)), Cycle::new(101 + DRAW_AHEAD));
    }

    #[test]
    fn seeded_sources_are_reproducible() {
        let spec = GeneratorSpec::poisson(0.05, SizeDist::uniform(1, 16));
        let a = drain(&mut StochasticSource::new(spec, 77), 10_000);
        let b = drain(&mut StochasticSource::new(spec, 77), 10_000);
        let c = drain(&mut StochasticSource::new(spec, 78), 10_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empirical_load_matches_spec_estimate() {
        let spec = GeneratorSpec::bursty(2, 6, 4, 100, 300, 0, SizeDist::uniform(8, 24));
        let mut source = StochasticSource::new(spec, 21);
        let cycles = 200_000u64;
        let words: u64 = drain(&mut source, cycles).iter().map(|&(_, w)| u64::from(w)).sum();
        let load = words as f64 / cycles as f64;
        let predicted = spec.offered_load();
        assert!(
            (load - predicted).abs() < predicted * 0.15,
            "load {load:.3} vs predicted {predicted:.3}"
        );
    }
}
