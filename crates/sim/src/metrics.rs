//! Observability: windowed metrics sampled from the cycle kernel.
//!
//! The paper's entire evaluation is built on *observing* the bus —
//! bandwidth shares (Fig. 4/6), latency distributions (Fig. 5/12) and
//! crossover behaviour under bursty traffic — yet end-of-run aggregates
//! hide all of the dynamics. This module adds a metric registry that the
//! [`crate::System`] samples every *N* cycles into a time-series, so
//! experiments can plot per-window bandwidth shares, contention and
//! latency percentiles over simulated time.
//!
//! Design constraints, in order:
//!
//! 1. **Off by default, free when off.** A system built without
//!    [`crate::SystemBuilder::metrics_window`] carries `Option::None`
//!    and pays one branch per cycle.
//! 2. **Zero allocation on the hot path.** Per-cycle work is a counter
//!    increment and a boundary compare; all vectors are preallocated at
//!    build time. Allocation happens only once per *window* (pushing the
//!    finished [`WindowSample`]), never per cycle.
//! 3. **Deterministic.** Metrics read the kernel's own deterministic
//!    counters ([`crate::BusStats`]); enabling them never changes the
//!    cycle-by-cycle schedule, so `--jobs 1` and `--jobs N` runs stay
//!    byte-identical with metrics on.
//!
//! The building blocks — [`Counter`], [`Gauge`] and
//! [`WindowedHistogram`] — are public so custom drivers (such as the ATM
//! switch) can assemble their own registries.

use crate::cycle::Cycle;
use crate::master::MasterPort;
use crate::stats::BusStats;

/// A monotone counter with a window marker, the basic unit of the
/// metric registry.
///
/// The counter tracks a cumulative total plus the value it had when the
/// current window opened; [`BusMetrics`] closes the window at each
/// window boundary and samples the in-window delta. Totals may be accumulated directly
/// ([`Counter::add`]) or mirrored from an external cumulative source
/// ([`Counter::observe`]), which is how [`BusMetrics`] windows the
/// kernel's [`BusStats`] counters without touching the hot path.
///
/// ```
/// use socsim::metrics::Counter;
/// let mut grants = Counter::new();
/// grants.add(3);
/// assert_eq!(grants.window(), 3);
/// grants.observe(5);                 // cumulative total is now 5
/// grants.observe(4);                 // totals never go backwards
/// assert_eq!(grants.window(), 5);
/// assert_eq!(grants.total(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: u64,
    window_base: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increments the cumulative total by `n`.
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Sets the cumulative total from an external monotone source.
    /// Totals never go backwards; a smaller value is ignored.
    pub fn observe(&mut self, total: u64) {
        self.total = self.total.max(total);
    }

    /// The cumulative total since creation.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The count accumulated in the current window.
    pub fn window(&self) -> u64 {
        self.total - self.window_base
    }

    /// Closes the current window: returns the in-window count and opens
    /// a fresh window at the current total.
    fn roll(&mut self) -> u64 {
        let w = self.window();
        self.window_base = self.total;
        w
    }

    /// Discards all history (used when statistics are reset after a
    /// warm-up period).
    pub fn reset(&mut self) {
        *self = Counter::default();
    }
}

/// A point-in-time measurement, sampled (not accumulated) at window
/// boundaries — e.g. a master's queue depth.
///
/// ```
/// use socsim::metrics::Gauge;
/// let mut depth = Gauge::new();
/// depth.set(4);
/// assert_eq!(depth.get(), 4);
/// depth.set(1);
/// assert_eq!(depth.get(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: u64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Records the current value.
    pub fn set(&mut self, value: u64) {
        self.value = value;
    }

    /// The most recently recorded value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A log₂-bucketed histogram that resets every window, for per-window
/// latency distributions at constant memory.
///
/// Bucket *k* counts samples in `[2^k, 2^(k+1))`, the same coarse
/// geometry as [`crate::stats::LatencyHistogram`]; quantiles are upper
/// bounds within a factor of two. Unlike the run-length histogram it is
/// cheap to snapshot and clear once per window.
///
/// ```
/// use socsim::metrics::WindowedHistogram;
/// let mut h = WindowedHistogram::new();
/// for latency in [1, 2, 3, 100] {
///     h.record(latency);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.5), Some(4));
/// assert_eq!(h.quantile(1.0), Some(128));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedHistogram {
    buckets: [u64; 64],
    count: u64,
    max: u64,
}

impl WindowedHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        WindowedHistogram { buckets: [0; 64], count: 0, max: 0 }
    }

    /// Records one sample (e.g. a transaction latency in cycles).
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 { 0 } else { 63 - value.leading_zeros() as usize };
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded in the current window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound (within 2×) on the `q`-quantile of the current
    /// window, or `None` if the window is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(1u64.checked_shl(k as u32 + 1).unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }

    /// Closes the window: returns a compact summary and clears the
    /// histogram for the next window.
    fn roll(&mut self) -> LatencySummary {
        let summary = LatencySummary {
            count: self.count,
            p50: self.quantile(0.5).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            max: self.max,
        };
        self.buckets = [0; 64];
        self.count = 0;
        self.max = 0;
        summary
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

/// Compact per-window latency distribution: sample count, p50/p99 upper
/// bounds (within 2×, from the log₂ buckets) and the exact maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Transactions completed in the window.
    pub count: u64,
    /// Upper bound (within 2×) on the median latency; 0 when empty.
    pub p50: u64,
    /// Upper bound (within 2×) on the 99th-percentile latency; 0 when
    /// empty.
    pub p99: u64,
    /// Exact largest latency observed in the window; 0 when empty.
    pub max: u64,
}

/// One master's activity within a single window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterWindow {
    /// Words the master transferred in the window.
    pub words: u64,
    /// Grants the master won in the window.
    pub grants: u64,
    /// Transactions queued at the master's port at the window boundary
    /// (a point-in-time gauge, not an accumulation).
    pub queue_depth: u64,
}

/// One sample of the time-series: everything the bus did during one
/// window of `cycles` simulated cycles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSample {
    /// First cycle of the window.
    pub start: Cycle,
    /// Cycles covered (smaller than the configured window only for a
    /// flushed partial tail).
    pub cycles: u64,
    /// Cycles in which a word transferred.
    pub busy: u64,
    /// Cycles lost to arbitration overhead, wait states or faults.
    pub stalls: u64,
    /// Cycles in which the bus idled (no request pending).
    pub idle: u64,
    /// Grants issued in the window.
    pub grants: u64,
    /// Arbitration decisions taken with two or more masters pending —
    /// the window's contention count.
    pub contended_arbitrations: u64,
    /// Failed attempts re-queued for retry in the window.
    pub retries: u64,
    /// Injected fault disturbances (slave errors, dropped/corrupted
    /// grants) in the window.
    pub faults: u64,
    /// Masters with a request pending at the window boundary (gauge).
    pub pending_masters: u64,
    /// Latency distribution of transactions completed in the window.
    pub latency: LatencySummary,
    /// Per-master activity, indexed by master id.
    pub per_master: Vec<MasterWindow>,
}

impl WindowSample {
    /// Fraction of the window's cycles spent transferring master `m`'s
    /// words — the per-window equivalent of
    /// [`crate::BusStats::bandwidth_fraction`].
    pub fn bandwidth_share(&self, m: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.per_master[m].words as f64 / self.cycles as f64
        }
    }

    /// Fraction of the window's cycles in which a word transferred.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy as f64 / self.cycles as f64
        }
    }
}

/// Bank of windowed counters mirroring the kernel's cumulative
/// [`BusStats`] counters.
#[derive(Debug, Clone)]
struct CounterBank {
    busy: Counter,
    stalls: Counter,
    grants: Counter,
    contended: Counter,
    retries: Counter,
    faults: Counter,
    words: Vec<Counter>,
    master_grants: Vec<Counter>,
}

impl CounterBank {
    fn new(masters: usize) -> Self {
        CounterBank {
            busy: Counter::new(),
            stalls: Counter::new(),
            grants: Counter::new(),
            contended: Counter::new(),
            retries: Counter::new(),
            faults: Counter::new(),
            words: vec![Counter::new(); masters],
            master_grants: vec![Counter::new(); masters],
        }
    }

    fn reset(&mut self) {
        self.busy.reset();
        self.stalls.reset();
        self.grants.reset();
        self.contended.reset();
        self.retries.reset();
        self.faults.reset();
        for c in &mut self.words {
            c.reset();
        }
        for c in &mut self.master_grants {
            c.reset();
        }
    }
}

/// The metric registry the [`crate::System`] drives: windowed counters
/// over the kernel's statistics, per-master gauges, and a per-window
/// latency histogram, sampled every `window` cycles into a time-series
/// of [`WindowSample`]s.
///
/// Constructed by [`crate::SystemBuilder::metrics_window`]; read back
/// through [`crate::System::metrics`]. See the module docs for the cost
/// model.
#[derive(Debug, Clone)]
pub struct BusMetrics {
    window: u64,
    cycles_in_window: u64,
    window_start: Cycle,
    bank: CounterBank,
    latency: WindowedHistogram,
    samples: Vec<WindowSample>,
}

impl BusMetrics {
    /// A registry sampling every `window` cycles for `masters` masters.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (the builder validates this before
    /// construction).
    pub fn new(window: u64, masters: usize) -> Self {
        assert!(window > 0, "metrics window must be at least 1 cycle");
        BusMetrics {
            window,
            cycles_in_window: 0,
            window_start: Cycle::ZERO,
            bank: CounterBank::new(masters),
            latency: WindowedHistogram::new(),
            samples: Vec::new(),
        }
    }

    /// The configured window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The completed windows sampled so far, in time order.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Records the latency of a transaction that completed this cycle.
    #[inline]
    pub fn note_completion(&mut self, latency: u64) {
        self.latency.record(latency);
    }

    /// Counts one elapsed cycle and, at a window boundary, closes the
    /// window: rolls every counter against `stats`, samples the
    /// per-master queue-depth gauges from `masters`, and appends the
    /// finished [`WindowSample`]. Called once per [`crate::System::step`].
    #[inline]
    pub fn end_cycle(&mut self, now: Cycle, stats: &BusStats, masters: &[MasterPort]) {
        self.cycles_in_window += 1;
        if self.cycles_in_window >= self.window {
            self.close_window(now, stats, masters);
        }
    }

    /// Cycles left in the current window, counting the cycle that closes
    /// it: a span of this many cycles ends exactly on the next boundary.
    /// Always at least 1.
    #[inline]
    pub fn cycles_to_boundary(&self) -> u64 {
        self.window - self.cycles_in_window
    }

    /// Counts `delta` elapsed cycles starting at `start` in one step,
    /// closing windows at the exact boundary cycles they would have
    /// closed at under per-cycle sampling — the Δ-cycle aware form of
    /// [`BusMetrics::end_cycle`], called with `stats` and `masters` as
    /// they stand after the span's last cycle.
    ///
    /// Sound for two kinds of span, and the time-series is then
    /// identical to a per-cycle [`BusMetrics::end_cycle`] loop's:
    ///
    /// - **Frozen spans** of any length, in which the observed state
    ///   does not change: no grants, transfers, retries or faults
    ///   happen, and no master's request state or backlog changes
    ///   (the idle spans the kernels skip). Every window closed inside
    ///   the span rolls zero deltas and samples the same gauges.
    /// - **Batched spans** of at most [`BusMetrics::cycles_to_boundary`]
    ///   cycles, in which anything may change (the tenure batches of a
    ///   fleet lane). At most one window closes, on the span's last
    ///   cycle, so it rolls the counters and samples the gauges exactly
    ///   where `end_cycle` would; the latency of every completion in
    ///   the span must have been noted first
    ///   ([`BusMetrics::note_completion`]).
    pub fn skip_cycles(
        &mut self,
        start: Cycle,
        delta: u64,
        stats: &BusStats,
        masters: &[MasterPort],
    ) {
        let mut remaining = delta;
        let mut cursor = start;
        while remaining > 0 {
            let to_boundary = self.cycles_to_boundary();
            if remaining < to_boundary {
                self.cycles_in_window += remaining;
                return;
            }
            // The window's last counted cycle — `close_window` derives
            // the next window start from it, as `end_cycle` would.
            let last = cursor + (to_boundary - 1);
            self.cycles_in_window = self.window;
            self.close_window(last, stats, masters);
            remaining -= to_boundary;
            cursor = last + 1;
        }
    }

    /// Flushes a partial tail window, if any cycles have elapsed since
    /// the last boundary. Call after the final [`crate::System::run`];
    /// the flushed sample reports its true (shorter) `cycles` span.
    pub fn flush(&mut self, now: Cycle, stats: &BusStats, masters: &[MasterPort]) {
        if self.cycles_in_window > 0 {
            self.close_window(now, stats, masters);
        }
    }

    /// Discards all windows and re-baselines every counter at zero.
    /// Called by [`crate::System::reset_stats`] so that, like the
    /// aggregate statistics, the time-series covers only the measured
    /// (post-warm-up) span. `next` is the first cycle of the new
    /// measurement window.
    pub fn reset(&mut self, next: Cycle) {
        self.samples.clear();
        self.bank.reset();
        self.latency = WindowedHistogram::new();
        self.cycles_in_window = 0;
        self.window_start = next;
    }

    fn close_window(&mut self, now: Cycle, stats: &BusStats, masters: &[MasterPort]) {
        let bank = &mut self.bank;
        bank.busy.observe(stats.busy_cycles);
        bank.stalls.observe(stats.stall_cycles);
        bank.grants.observe(stats.grants);
        bank.contended.observe(stats.contended_arbitrations);
        bank.retries.observe(stats.retries);
        bank.faults.observe(stats.fault_disturbances());
        let cycles = self.cycles_in_window;
        let busy = bank.busy.roll();
        let stalls = bank.stalls.roll();
        let mut pending = 0u64;
        let per_master: Vec<MasterWindow> = masters
            .iter()
            .enumerate()
            .map(|(i, port)| {
                bank.words[i].observe(stats.master(port.id()).words);
                bank.master_grants[i].observe(stats.master(port.id()).grants);
                if port.is_requesting() {
                    pending += 1;
                }
                let mut depth = Gauge::new();
                depth.set(port.backlog_transactions() as u64);
                MasterWindow {
                    words: bank.words[i].roll(),
                    grants: bank.master_grants[i].roll(),
                    queue_depth: depth.get(),
                }
            })
            .collect();
        self.samples.push(WindowSample {
            start: self.window_start,
            cycles,
            busy,
            stalls,
            idle: cycles.saturating_sub(busy + stalls),
            grants: bank.grants.roll(),
            contended_arbitrations: bank.contended.roll(),
            retries: bank.retries.roll(),
            faults: bank.faults.roll(),
            pending_masters: pending,
            latency: self.latency.roll(),
            per_master,
        });
        self.cycles_in_window = 0;
        self.window_start = now + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MasterId;

    #[test]
    fn counter_windows_roll_independently_of_totals() {
        let mut c = Counter::new();
        c.add(10);
        assert_eq!(c.roll(), 10);
        c.observe(25);
        c.observe(25); // idempotent
        assert_eq!(c.window(), 15);
        assert_eq!(c.roll(), 15);
        assert_eq!(c.roll(), 0);
        assert_eq!(c.total(), 25);
        c.observe(20); // monotone: never goes backwards
        assert_eq!(c.total(), 25);
        c.reset();
        assert_eq!((c.total(), c.window()), (0, 0));
    }

    #[test]
    fn windowed_histogram_resets_between_windows() {
        let mut h = WindowedHistogram::new();
        for v in [3u64, 5, 9] {
            h.record(v);
        }
        let s1 = h.roll();
        assert_eq!(s1.count, 3);
        assert_eq!(s1.max, 9);
        assert!(s1.p50 >= 3 && s1.p50 <= 8, "p50 bound {}", s1.p50);
        let s2 = h.roll();
        assert_eq!(s2, LatencySummary::default());
    }

    #[test]
    fn empty_window_sample_is_well_defined() {
        let sample = WindowSample {
            cycles: 0,
            per_master: vec![MasterWindow::default()],
            ..Default::default()
        };
        assert_eq!(sample.bandwidth_share(0), 0.0);
        assert_eq!(sample.utilization(), 0.0);
    }

    fn port_with_backlog(i: usize, txns: usize) -> MasterPort {
        let mut port = MasterPort::new(MasterId::new(i), format!("m{i}"));
        for _ in 0..txns {
            port.enqueue(crate::request::Transaction::new(
                crate::ids::SlaveId::new(0),
                4,
                Cycle::ZERO,
            ));
        }
        port
    }

    #[test]
    fn windows_close_on_schedule_and_flush_partials() {
        let mut metrics = BusMetrics::new(10, 2);
        let ports = vec![port_with_backlog(0, 2), port_with_backlog(1, 0)];
        let mut stats = BusStats::new(2);
        for c in 0..25u64 {
            stats.record_cycle();
            stats.record_words(MasterId::new(0), 1);
            metrics.end_cycle(Cycle::new(c), &stats, &ports);
        }
        assert_eq!(metrics.samples().len(), 2, "two full windows of 10");
        metrics.flush(Cycle::new(24), &stats, &ports);
        assert_eq!(metrics.samples().len(), 3);
        let tail = &metrics.samples()[2];
        assert_eq!(tail.cycles, 5, "partial tail window");
        assert_eq!(tail.busy, 5);
        let full = &metrics.samples()[0];
        assert_eq!(full.start, Cycle::ZERO);
        assert_eq!((full.cycles, full.busy, full.idle), (10, 10, 0));
        assert!((full.bandwidth_share(0) - 1.0).abs() < 1e-12);
        assert_eq!(full.per_master[0].queue_depth, 2, "gauge sampled at boundary");
        assert_eq!(full.pending_masters, 1);
        assert_eq!(metrics.samples()[1].start, Cycle::new(10));
    }

    #[test]
    fn skip_cycles_matches_per_cycle_accounting() {
        // During a fast-forward skip the stats and ports are frozen, so
        // batched window accounting must emit the exact sample series a
        // per-cycle `end_cycle` loop would.
        let ports = vec![port_with_backlog(0, 3), port_with_backlog(1, 1)];
        let mut stats = BusStats::new(2);
        stats.record_words(MasterId::new(0), 7);

        for (lead_in, delta) in [(0u64, 25u64), (3, 17), (9, 1), (4, 6), (0, 0)] {
            let mut slow = BusMetrics::new(10, 2);
            let mut fast = BusMetrics::new(10, 2);
            // A lead-in of cycle-accurate steps leaves the window
            // partially filled before the skip begins.
            for c in 0..lead_in {
                slow.end_cycle(Cycle::new(c), &stats, &ports);
                fast.end_cycle(Cycle::new(c), &stats, &ports);
            }
            for c in lead_in..lead_in + delta {
                slow.end_cycle(Cycle::new(c), &stats, &ports);
            }
            fast.skip_cycles(Cycle::new(lead_in), delta, &stats, &ports);
            assert_eq!(
                slow.samples(),
                fast.samples(),
                "lead-in {lead_in}, delta {delta}: sample series diverged"
            );
            let end = Cycle::new(lead_in + delta);
            slow.flush(end, &stats, &ports);
            fast.flush(end, &stats, &ports);
            assert_eq!(slow.samples(), fast.samples(), "partial tail diverged");
        }

        // A batched span may change anything when it ends at or before
        // the next boundary. Here it ends exactly on one, after words,
        // a grant, a completion and both backlogs changed: the window
        // closes once, on the span's last cycle, over the state a step
        // would see there.
        let mut ports = vec![port_with_backlog(0, 3), port_with_backlog(1, 1)];
        let mut stats = BusStats::new(2);
        let mut slow = BusMetrics::new(10, 2);
        let mut fast = BusMetrics::new(10, 2);
        for c in 0..4 {
            stats.record_cycle();
            slow.end_cycle(Cycle::new(c), &stats, &ports);
            fast.end_cycle(Cycle::new(c), &stats, &ports);
        }
        assert_eq!(fast.cycles_to_boundary(), 6);
        let m0 = MasterId::new(0);
        for c in 4..10 {
            stats.record_cycle();
            stats.record_words(m0, 1);
            if c == 5 {
                stats.record_grant(m0);
                ports[0].note_grant(Cycle::new(c));
            }
            if c == 7 {
                ports[1].enqueue(crate::request::Transaction::new(
                    crate::ids::SlaveId::new(0),
                    2,
                    Cycle::new(c),
                ));
            }
            if c == 8 {
                let done = ports[0].transfer(4, Cycle::new(c)).expect("head completes");
                stats.record_completion(m0, &done);
                slow.note_completion(done.latency());
                fast.note_completion(done.latency());
            }
            slow.end_cycle(Cycle::new(c), &stats, &ports);
        }
        fast.skip_cycles(Cycle::new(4), 6, &stats, &ports);
        assert_eq!(slow.samples(), fast.samples(), "batched span diverged");
        let window = &fast.samples()[0];
        assert_eq!((window.grants, window.latency.count), (1, 1));
        let depths: Vec<u64> = window.per_master.iter().map(|m| m.queue_depth).collect();
        assert_eq!(depths, [2, 2], "gauges sampled after the span's changes");
        assert_eq!(fast.cycles_to_boundary(), 10, "a fresh window opens");
    }

    #[test]
    fn reset_discards_history_and_rebaselines() {
        let mut metrics = BusMetrics::new(4, 1);
        let ports = vec![port_with_backlog(0, 0)];
        let mut stats = BusStats::new(1);
        for c in 0..6u64 {
            stats.record_cycle();
            metrics.end_cycle(Cycle::new(c), &stats, &ports);
        }
        assert_eq!(metrics.samples().len(), 1);
        // Warm-up over: the kernel zeroes its stats and the registry
        // must re-baseline, not report a negative delta.
        stats = BusStats::new(1);
        metrics.reset(Cycle::new(6));
        for c in 6..10u64 {
            stats.record_cycle();
            stats.record_grant(MasterId::new(0));
            metrics.end_cycle(Cycle::new(c), &stats, &ports);
        }
        assert_eq!(metrics.samples().len(), 1);
        let s = &metrics.samples()[0];
        assert_eq!(s.start, Cycle::new(6));
        assert_eq!(s.grants, 4);
    }

    #[test]
    #[should_panic(expected = "at least 1 cycle")]
    fn zero_window_is_rejected() {
        let _ = BusMetrics::new(0, 1);
    }
}
