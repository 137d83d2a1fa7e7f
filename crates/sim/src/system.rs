//! System assembly and the top-level simulation loop.

use crate::arbiter::{Arbiter, IntoArbiter};
use crate::bus::Bus;
use crate::config::BusConfig;
use crate::cycle::Cycle;
use crate::error::BuildSystemError;
use crate::fastforward::{Kernel, MoveCounters};
use crate::fault::{FaultConfig, FaultEvent, RetryPolicy};
use crate::ids::MasterId;
use crate::lane::{idle_horizon, Lane, LaneBuilder};
use crate::master::MasterPort;
use crate::metrics::BusMetrics;
use crate::profile::{PhaseProfiler, SimPhase};
use crate::request::Transaction;
use crate::slave::Slave;
use crate::stats::BusStats;
use crate::trace::{BusTrace, TraceSink};

/// A source of communication transactions for one master — the
/// simulator-side stand-in for the component's computation.
///
/// The system polls a source at most once per cycle, *before*
/// arbitration, so a transaction returned for cycle `c` can be granted in
/// cycle `c`; it skips the polls that the source's
/// [`TrafficSource::next_event`] horizon proves to be no-ops. A source
/// that needs to issue several transactions in the same cycle should
/// keep an internal backlog and emit them on successive polls with the
/// original `issued_at` stamp — latency accounting uses the
/// transaction's own timestamp, not the poll cycle.
pub trait TrafficSource {
    /// Returns the transaction (if any) this component issues at `now`.
    fn poll(&mut self, now: Cycle) -> Option<Transaction>;

    /// Like [`TrafficSource::poll`], but additionally told how many
    /// transactions the component's bus interface still has outstanding.
    /// Sources modelling components that process one request at a time
    /// (e.g. the ATM switch's output ports) override this to hold new
    /// work back; the default ignores the backlog.
    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        let _ = backlog;
        self.poll(now)
    }

    /// The fast-forward horizon of this source (see
    /// [`crate::fastforward`]): the earliest cycle `>= now` at which a
    /// poll could return a transaction or mutate internal state, or
    /// [`Cycle::NEVER`] if the source is permanently silent.
    ///
    /// A poll before the horizon must be a pure no-op, so skipping it
    /// changes nothing. The default returns `now`, which forbids the
    /// kernel from ever skipping past a poll — always correct, never
    /// fast. Sources whose arrivals are a schedule known ahead of time
    /// override this to unlock poll elision, idle skipping and tenure
    /// batching: the deterministic ones directly, the stochastic
    /// `StochasticSource` of the `traffic-gen` crate by drawing its
    /// arrival process ahead.
    fn next_event(&self, now: Cycle) -> Cycle {
        now
    }

    /// What a kernel may do with this source's polls while its master's
    /// port holds work (see [`BacklogPolls`]).
    ///
    /// The default, [`BacklogPolls::Run`], is always correct: the source
    /// is polled whenever its [`TrafficSource::next_event`] horizon comes
    /// due — inside a fleet batch too, at its own cycle — and a source
    /// that keeps the every-cycle default horizon is stepped. Any other
    /// answer is a contract with the batched kernels (the fleet in
    /// [`crate::fleet`]), stated on its variant.
    fn backlog_polls(&self) -> BacklogPolls {
        BacklogPolls::Run
    }
}

impl<T: TrafficSource + ?Sized> TrafficSource for Box<T> {
    fn poll(&mut self, now: Cycle) -> Option<Transaction> {
        (**self).poll(now)
    }

    fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
        (**self).poll_with_backlog(now, backlog)
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        (**self).next_event(now)
    }

    fn backlog_polls(&self) -> BacklogPolls {
        (**self).backlog_polls()
    }
}

/// What a kernel may do with a [`TrafficSource`]'s polls while its
/// master's port holds work ([`TrafficSource::backlog_polls`]).
///
/// While a port holds work, the bus reads nothing of it but its head:
/// the request map carries the pending bit and the head's words, and
/// every arbiter reads only that. Polls that cannot change the head may
/// therefore be skipped or postponed, as long as the source's own state
/// and the port's queue come out as polling every due cycle would
/// leave them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BacklogPolls {
    /// Every poll runs when its horizon comes due. Always correct.
    #[default]
    Run,
    /// The source is *pure while backlogged*: whenever the port's
    /// backlog is `>= 1`, [`TrafficSource::poll_with_backlog`] returns
    /// `None` **without mutating any internal state**, and
    /// [`TrafficSource::next_event`] returns its argument unchanged
    /// (the every-cycle default). Such polls are provable no-ops, so a
    /// kernel may skip them for as long as the backlog persists; the
    /// source never bounds a fleet batch meanwhile. Only stateless
    /// backlog-gated sources (e.g. `SaturateSource` in the
    /// `traffic-gen` crate) should answer this.
    Elide,
    /// The source ignores the backlog and stamps its own arrivals:
    /// [`TrafficSource::poll_with_backlog`] behaves as
    /// [`TrafficSource::poll`], and the stream it emits depends only on
    /// the cycles it is polled at. A kernel may then run the polls that
    /// come due while the port holds work *late* — each still at its
    /// own cycle, in order, with the horizon after each poll taken as
    /// [`TrafficSource::next_event`] of the next cycle — once the
    /// port's queue drains or someone observes the port. Every emission,
    /// stamp and RNG draw is the one per-cycle polling makes; the queue
    /// behind the head only fills later. Replayed traces
    /// (`ReplaySource`) and the seeded generators (`StochasticSource`)
    /// of the `traffic-gen` crate answer this.
    Defer,
}

/// Conversion into the source slot of a [`SystemBuilder`]; the traffic
/// twin of [`crate::arbiter::IntoArbiter`]. Lets `Box<Concrete>` flow
/// into a builder whose source slot is the default
/// `Box<dyn TrafficSource>` without an unsize coercion the inference
/// engine can miss.
pub trait IntoSource<S> {
    /// Converts `self` into the builder's source type.
    fn into_source(self) -> S;
}

impl<S: TrafficSource> IntoSource<S> for S {
    fn into_source(self) -> S {
        self
    }
}

impl<T: TrafficSource + 'static> IntoSource<Box<dyn TrafficSource>> for Box<T> {
    fn into_source(self) -> Box<dyn TrafficSource> {
        self
    }
}

/// A traffic source that never issues anything (an idle master).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SilentSource;

impl TrafficSource for SilentSource {
    fn poll(&mut self, _now: Cycle) -> Option<Transaction> {
        None
    }

    fn next_event(&self, _now: Cycle) -> Cycle {
        Cycle::NEVER
    }
}

/// Builder for a [`System`]: a [`LaneBuilder`] lane description (see
/// `From<LaneBuilder>`) plus what only a scalar system has — the
/// kernel, the phase profiler and a streaming trace sink.
///
/// The builder (and the [`System`] it produces) is generic over the
/// arbiter type `A` and the traffic-source type `S`, both defaulting to
/// the boxed trait objects every existing call site uses. Passing
/// concrete types — or the dispatch enums `ArbiterKind` /
/// `SourceKind` from the `arbiters` and `traffic-gen` crates — lets the
/// compiler resolve the two hottest per-cycle calls (source poll,
/// arbitration) statically instead of through a vtable.
///
/// ```
/// use socsim::{SystemBuilder, BusConfig};
/// use socsim::arbiter::FixedOrderArbiter;
/// use socsim::system::SilentSource;
///
/// # fn main() -> Result<(), socsim::BuildSystemError> {
/// // Boxed (the default type parameters)…
/// let builder: SystemBuilder = SystemBuilder::new(BusConfig::default());
/// let system = builder
///     .master("cpu", Box::new(SilentSource))
///     .arbiter(Box::new(FixedOrderArbiter::new(1)))
///     .build()?;
/// assert_eq!(system.masters(), 1);
/// // …or fully devirtualized with concrete types.
/// let system = SystemBuilder::new(BusConfig::default())
///     .master("cpu", SilentSource)
///     .arbiter(FixedOrderArbiter::new(1))
///     .build()?;
/// assert_eq!(system.masters(), 1);
/// # Ok(())
/// # }
/// ```
pub struct SystemBuilder<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    lane: LaneBuilder<A, S>,
    trace_sink: Option<Box<dyn TraceSink>>,
    profiling: bool,
    kernel: Kernel,
}

impl<A: Arbiter, S: TrafficSource> std::fmt::Debug for SystemBuilder<A, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("config", &self.lane.config)
            .field("masters", &self.lane.names)
            .field("slaves", &self.lane.slaves)
            .field("has_arbiter", &self.lane.arbiter.is_some())
            .finish()
    }
}

/// A system built from a lane description runs exactly like that lane
/// in a [`crate::Fleet`], under the default cycle kernel, unprofiled
/// and without a streaming sink.
impl<A, S> From<LaneBuilder<A, S>> for SystemBuilder<A, S> {
    fn from(lane: LaneBuilder<A, S>) -> Self {
        SystemBuilder { lane, trace_sink: None, profiling: false, kernel: Kernel::Cycle }
    }
}

/// Defines `SystemBuilder` setters that set the wrapped lane
/// description through the [`LaneBuilder`] setter of the same name.
macro_rules! forward_to_lane {
    ($($name:ident($($arg:ident: $ty:ty),+);)+) => {$(
        #[doc = concat!("Sets the lane description; see [`LaneBuilder::", stringify!($name), "`].")]
        pub fn $name(mut self, $($arg: $ty),+) -> Self {
            self.lane = self.lane.$name($($arg),+);
            self
        }
    )+};
}

impl<A: Arbiter, S: TrafficSource> SystemBuilder<A, S> {
    /// Starts building a system around a bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        LaneBuilder::new(config).into()
    }

    forward_to_lane! {
        master(name: impl Into<String>, source: impl IntoSource<S>);
        slave(slave: Slave);
        arbiter(arbiter: impl IntoArbiter<A>);
        trace_capacity(capacity: usize);
        metrics_window(window: u64);
        faults(config: FaultConfig);
        retry_policy(policy: RetryPolicy);
        timeout(cycles: u64);
    }

    /// Attaches a streaming trace sink (JSONL writer, ring, VCD bridge —
    /// see [`crate::trace`]) that observes every bus event with no
    /// capacity limit, independently of the in-memory buffer.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Enables wall-clock phase profiling of the cycle kernel (see
    /// [`crate::profile`]). Off by default; profiling never affects
    /// simulated behaviour, only wall-clock reporting.
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Selects the simulation kernel for [`System::run`] (see
    /// [`Kernel`]): the cycle-accurate reference or the idle-skipping
    /// fast-forward kernel (see [`crate::fastforward`]), which jumps
    /// straight to the next event horizon whenever the bus is idle and
    /// replicates the skipped cycles' accounting arithmetically.
    /// Results — statistics, metrics time-series, traces, fault logs —
    /// are cycle-exact under either; only wall-clock time changes.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns an error if no master was added, too many masters were
    /// added, no arbiter was set, or the bus, fault, retry, timeout or
    /// metrics configuration is invalid.
    pub fn build(self) -> Result<System<A, S>, BuildSystemError> {
        let parts = self.lane.assemble()?;
        let mut trace = parts.trace;
        if let Some(sink) = self.trace_sink {
            trace = trace.with_sink(sink);
        }
        Ok(System {
            bus: parts.bus,
            poll_horizon: vec![Cycle::ZERO; parts.ports.len()],
            masters: parts.ports,
            sources: parts.sources,
            slaves: parts.slaves,
            arbiter: parts.arbiter,
            stats: parts.stats,
            trace,
            metrics: parts.metrics,
            profiler: if self.profiling {
                PhaseProfiler::enabled()
            } else {
                PhaseProfiler::disabled()
            },
            now: Cycle::ZERO,
            failover_baseline: 0,
            kernel: self.kernel,
            moves: MoveCounters::default(),
        })
    }
}

/// A complete single-bus system: masters with traffic sources, slaves,
/// an arbiter and the shared bus, plus statistics collection.
///
/// Generic over the arbiter and source types; see [`SystemBuilder`].
pub struct System<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    bus: Bus,
    masters: Vec<MasterPort>,
    sources: Vec<S>,
    /// Per-source poll horizon: the earliest cycle at which source `i`
    /// must be polled again ([`TrafficSource::next_event`] computed
    /// after its last actual poll). Busy cycles skip the poll (and its
    /// dispatch) for every source whose horizon is still in the future.
    poll_horizon: Vec<Cycle>,
    slaves: Vec<Slave>,
    arbiter: A,
    stats: BusStats,
    trace: BusTrace,
    metrics: Option<BusMetrics>,
    profiler: PhaseProfiler,
    now: Cycle,
    /// Arbiter failover count at the last statistics reset, so
    /// steady-state windows report only their own failovers.
    failover_baseline: u64,
    /// Which kernel [`System::run`] uses.
    kernel: Kernel,
    /// Cycles per execution move and polls run, since build.
    moves: MoveCounters,
}

impl<A: Arbiter, S: TrafficSource> std::fmt::Debug for System<A, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("masters", &self.masters.len())
            .field("arbiter", &self.arbiter.name())
            .finish()
    }
}

impl<A: Arbiter, S: TrafficSource> System<A, S> {
    /// Number of masters on the bus.
    pub fn masters(&self) -> usize {
        self.masters.len()
    }

    /// The current simulation time (the next cycle to be simulated).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The master port for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn master(&self, id: MasterId) -> &MasterPort {
        &self.masters[id.index()]
    }

    /// The bus (for configuration inspection).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// The arbiter, for protocols with runtime knobs (e.g. dynamic
    /// lottery-ticket updates).
    pub fn arbiter_mut(&mut self) -> &mut A {
        &mut self.arbiter
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// The recorded bus trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &BusTrace {
        &self.trace
    }

    /// The recorded fault trace (empty unless fault injection was
    /// configured).
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.bus.fault_events()
    }

    /// The metrics registry's time-series, or `None` when metrics were
    /// not enabled via [`SystemBuilder::metrics_window`]. Call
    /// [`System::flush_metrics`] first if the run length is not a
    /// multiple of the window and the tail matters.
    pub fn metrics(&self) -> Option<&BusMetrics> {
        self.metrics.as_ref()
    }

    /// Closes a partial metrics window at the current cycle, if any
    /// cycles elapsed since the last boundary. No-op without metrics.
    pub fn flush_metrics(&mut self) {
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.flush(self.now, &self.stats, &self.masters);
        }
    }

    /// How this system has advanced time since it was built: cycles per
    /// move (stepped or idle-skipped) and source polls actually run.
    pub fn moves(&self) -> &MoveCounters {
        &self.moves
    }

    /// The wall-clock phase profiler (disabled unless enabled via
    /// [`SystemBuilder::profiling`]).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Completes the streaming trace sink, if one is attached: flushes
    /// buffered output (and, for VCD, writes the closing timestamp) and
    /// surfaces any I/O error latched during the run.
    ///
    /// # Errors
    ///
    /// Returns any I/O error the sink latched while recording.
    pub fn finish_trace(&mut self) -> std::io::Result<()> {
        self.trace.finish_sink()
    }

    /// Clears accumulated statistics, e.g. after a warm-up period, so
    /// that subsequent measurements reflect steady state only. The
    /// metrics time-series and profiler are reset along with the
    /// aggregate counters.
    pub fn reset_stats(&mut self) {
        self.stats = BusStats::new(self.masters.len());
        self.failover_baseline = self.arbiter.failovers();
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.reset(self.now);
        }
        self.profiler.reset();
    }

    /// Borrows the system as one lane of the core it shares with
    /// [`crate::Fleet`], plus its profiler.
    #[inline]
    fn split(&mut self) -> (Lane<'_, A, S>, &mut PhaseProfiler) {
        let lane = Lane {
            bus: &mut self.bus,
            arbiter: &mut self.arbiter,
            ports: &mut self.masters,
            sources: &mut self.sources,
            poll_horizon: &mut self.poll_horizon,
            slaves: &self.slaves,
            stats: &mut self.stats,
            trace: &mut self.trace,
            metrics: &mut self.metrics,
            failover_baseline: self.failover_baseline,
            now: &mut self.now,
            moves: &mut self.moves,
        };
        (lane, &mut self.profiler)
    }

    /// Simulates one bus cycle: polls every traffic source, then steps
    /// the bus/arbiter, then updates statistics and (when enabled) the
    /// metrics registry.
    ///
    /// The poll phase is *horizon-aware*: after each actual poll the
    /// source's [`TrafficSource::next_event`] horizon (from the cycle
    /// after the poll) is cached, and while that horizon lies in the
    /// future the poll — a provable no-op by the horizon contract — is
    /// skipped with one integer compare. This applies the fast-forward
    /// kernel's per-source reasoning inside *busy* cycles, where the bus
    /// itself pins simulated time. Sources that keep the conservative
    /// default (`next_event == now`) are polled every cycle, unchanged.
    pub fn step(&mut self) {
        let (mut lane, profiler) = self.split();
        let mut lap = profiler.start();
        lane.poll();
        profiler.lap(SimPhase::Poll, &mut lap);
        let completed = lane.bus_step();
        profiler.lap(SimPhase::Bus, &mut lap);
        lane.end_cycle(completed);
        profiler.lap(SimPhase::Accounting, &mut lap);
    }

    /// The kernel [`System::run`] uses.
    pub fn run_kernel(&self) -> Kernel {
        self.kernel
    }

    /// The event horizon of the whole system at the current cycle: the
    /// earliest cycle `>= now` at which any component does something the
    /// skip path cannot replicate (see [`crate::fastforward`]). Returns
    /// `now` whenever the bus is busy or any request line is live —
    /// i.e. whenever nothing may be skipped — and [`Cycle::NEVER`] when
    /// nothing is scheduled at all.
    pub fn idle_horizon(&self) -> Cycle {
        self.idle_horizon_until(Cycle::NEVER)
    }

    /// [`System::idle_horizon`] clipped at `bound`, which also bounds the
    /// scan for master-stall draws ahead of a retry backoff.
    fn idle_horizon_until(&self, bound: Cycle) -> Cycle {
        idle_horizon(&self.bus, &self.masters, &self.sources, &self.arbiter, self.now, bound)
    }

    /// Jumps simulation time from `now` to `target`, replicating the
    /// skipped idle cycles' accounting arithmetically (and crediting
    /// the profiler's laps). Callers must have established (via
    /// [`System::idle_horizon`]) that nothing else happens in
    /// `now..target`.
    fn skip_to(&mut self, target: Cycle) {
        let (mut lane, profiler) = self.split();
        let mut lap = profiler.start();
        let delta = lane.skip_to(target);
        profiler.lap_span(SimPhase::Accounting, delta, &mut lap);
    }

    /// Simulates `cycles` bus cycles and returns the statistics so far.
    ///
    /// Under the default cycle kernel this is `cycles` calls to
    /// [`System::step`]. Under the fast-forward kernel (see
    /// [`SystemBuilder::kernel`]) idle spans are jumped in one step
    /// each, with cycle-exact results.
    pub fn run(&mut self, cycles: u64) -> &BusStats {
        if self.kernel.skips_idle() {
            let end = self.now + cycles;
            while self.now < end {
                let target = self.idle_horizon_until(end);
                if target > self.now {
                    self.skip_to(target);
                } else {
                    self.step();
                }
            }
        } else {
            for _ in 0..cycles {
                self.step();
            }
        }
        &self.stats
    }

    /// Runs `cycles` warm-up cycles and then discards the statistics, so
    /// a following [`System::run`] measures steady-state behaviour.
    pub fn warm_up(&mut self, cycles: u64) {
        self.run(cycles);
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FixedOrderArbiter;
    use crate::ids::SlaveId;
    use crate::request::MAX_MASTERS;

    struct OneShot(Option<Transaction>);
    impl TrafficSource for OneShot {
        fn poll(&mut self, _now: Cycle) -> Option<Transaction> {
            self.0.take()
        }
    }

    fn one_shot(words: u32) -> Box<dyn TrafficSource> {
        Box::new(OneShot(Some(Transaction::new(SlaveId::new(0), words, Cycle::ZERO))))
    }

    #[test]
    fn build_validates_inputs() {
        let builder: SystemBuilder = SystemBuilder::new(BusConfig::default());
        let err = builder.build().unwrap_err();
        assert_eq!(err, BuildSystemError::NoMasters);

        let builder: SystemBuilder = SystemBuilder::new(BusConfig::default());
        let err = builder.master("m", Box::new(SilentSource)).build().unwrap_err();
        assert_eq!(err, BuildSystemError::NoArbiter);

        let bad = BusConfig { max_burst: 0, ..BusConfig::default() };
        let err = SystemBuilder::new(bad)
            .master("m", SilentSource)
            .arbiter(FixedOrderArbiter::new(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildSystemError::InvalidConfig(_)));
    }

    #[test]
    fn end_to_end_single_master() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("m0", one_shot(5))
            .arbiter(FixedOrderArbiter::new(1))
            .trace_capacity(64)
            .build()
            .expect("valid system");
        let stats = system.run(10);
        assert_eq!(stats.master(MasterId::new(0)).words, 5);
        assert_eq!(stats.master(MasterId::new(0)).transactions, 1);
        assert_eq!(stats.cycles, 10);
        assert_eq!(system.trace().render_owners(0..6), "00000.");
    }

    #[test]
    fn warm_up_discards_statistics() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("m0", one_shot(5))
            .arbiter(FixedOrderArbiter::new(1))
            .build()
            .expect("valid system");
        system.warm_up(10);
        assert_eq!(system.stats().cycles, 0);
        let stats = system.run(5);
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.master(MasterId::new(0)).words, 0); // already done
    }

    #[test]
    fn exactly_max_masters_is_accepted_and_one_more_rejected() {
        let build = |n: usize| {
            let mut builder = SystemBuilder::new(BusConfig::default());
            for i in 0..n {
                builder = builder.master(format!("m{i}"), SilentSource);
            }
            builder.arbiter(FixedOrderArbiter::new(n)).build()
        };
        assert!(build(MAX_MASTERS).is_ok());
        assert!(matches!(
            build(MAX_MASTERS + 1).unwrap_err(),
            BuildSystemError::TooManyMasters { got, max }
                if got == MAX_MASTERS + 1 && max == MAX_MASTERS
        ));
    }

    #[test]
    fn full_width_system_serves_every_master() {
        let mut builder = SystemBuilder::new(BusConfig::default());
        for i in 0..MAX_MASTERS {
            builder = builder.master(format!("m{i}"), one_shot(2));
        }
        let mut system =
            builder.arbiter(FixedOrderArbiter::new(MAX_MASTERS)).build().expect("valid system");
        system.run(2 * MAX_MASTERS as u64 + 4);
        for i in 0..MAX_MASTERS {
            assert_eq!(system.stats().master(MasterId::new(i)).transactions, 1, "master {i}");
        }
    }

    /// A deterministic source issuing `words` every `period` cycles,
    /// with an exact fast-forward horizon.
    struct EveryN {
        period: u64,
        words: u32,
    }

    impl TrafficSource for EveryN {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            now.index()
                .is_multiple_of(self.period)
                .then(|| Transaction::new(SlaveId::new(0), self.words, now))
        }

        fn next_event(&self, now: Cycle) -> Cycle {
            let rem = now.index() % self.period;
            if rem == 0 {
                now
            } else {
                Cycle::new(now.index() + self.period - rem)
            }
        }
    }

    /// Forwards to a fixed-order arbiter while counting skipped idle
    /// cycles through a shared handle, so tests can prove the fast
    /// kernel actually jumped.
    struct SpyArbiter {
        inner: FixedOrderArbiter,
        skipped: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Arbiter for SpyArbiter {
        fn arbitrate(
            &mut self,
            map: &crate::request::RequestMap,
            now: Cycle,
        ) -> Option<crate::arbiter::Grant> {
            self.inner.arbitrate(map, now)
        }

        fn name(&self) -> &str {
            "spy"
        }

        fn next_event(&self, now: Cycle) -> Cycle {
            self.inner.next_event(now)
        }

        fn skip_idle(&mut self, delta: u64) {
            self.skipped.fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
            self.inner.skip_idle(delta);
        }
    }

    #[test]
    fn fast_forward_is_cycle_exact_and_actually_skips() {
        let run = |kernel: Kernel| {
            let skipped = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
            let spy = SpyArbiter {
                inner: FixedOrderArbiter::new(2),
                skipped: std::sync::Arc::clone(&skipped),
            };
            let mut system = SystemBuilder::new(BusConfig::default())
                .master("a", EveryN { period: 50, words: 4 })
                .master("b", EveryN { period: 70, words: 2 })
                .arbiter(spy)
                .trace_capacity(4096)
                .metrics_window(32)
                .kernel(kernel)
                .build()
                .expect("valid system");
            system.run(1_000);
            system.flush_metrics();
            (
                system.stats().clone(),
                system.trace().clone(),
                system.metrics().expect("metrics on").samples().to_vec(),
                system.now(),
                skipped.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        let (slow_stats, slow_trace, slow_metrics, slow_now, slow_skipped) = run(Kernel::Cycle);
        let (fast_stats, fast_trace, fast_metrics, fast_now, fast_skipped) = run(Kernel::Fast);
        assert_eq!(slow_stats, fast_stats);
        assert_eq!(slow_trace, fast_trace);
        assert_eq!(slow_metrics, fast_metrics);
        assert_eq!(slow_now, fast_now);
        assert_eq!(slow_skipped, 0, "cycle kernel never skips");
        assert!(fast_skipped > 500, "fast kernel jumped the idle gaps, got {fast_skipped}");
    }

    #[test]
    fn fast_forward_never_jumps_past_the_run_end() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("quiet", SilentSource)
            .arbiter(FixedOrderArbiter::new(1))
            .kernel(Kernel::Fast)
            .build()
            .expect("valid system");
        assert!(system.run_kernel().skips_idle());
        assert_eq!(system.idle_horizon(), Cycle::NEVER, "nothing scheduled");
        system.run(10_000);
        assert_eq!(system.now(), Cycle::new(10_000), "end clamps the jump");
        assert_eq!(system.stats().cycles, 10_000);
        assert_eq!(system.stats().bus_utilization(), 0.0);
    }

    #[test]
    fn profiler_discards_warm_up_laps() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("a", EveryN { period: 3, words: 2 })
            .master("b", EveryN { period: 5, words: 4 })
            .arbiter(FixedOrderArbiter::new(2))
            .profiling(true)
            .build()
            .expect("valid system");
        system.warm_up(500);
        system.run(4_000);
        assert_eq!(system.stats().cycles, 4_000);
        assert_eq!(system.profiler().laps(), 4_000, "warm-up laps are discarded");
        assert!(system.profiler().total_wall() > std::time::Duration::ZERO);
    }

    #[test]
    fn two_masters_share_in_fixed_order() {
        let mut system = SystemBuilder::new(BusConfig::default())
            .master("a", one_shot(3))
            .master("b", one_shot(3))
            .arbiter(FixedOrderArbiter::new(2))
            .trace_capacity(64)
            .build()
            .expect("valid system");
        system.run(8);
        assert_eq!(system.trace().render_owners(0..7), "000111.");
        let b = system.stats().master(MasterId::new(1));
        // b issued at 0, finished after cycle 5 => latency 6 over 3 words.
        assert_eq!(b.cycles_per_word(), Some(2.0));
    }
}
