//! One bus system's description, and the per-lane core that
//! [`System`] and [`Fleet`] share.
//!
//! A [`LaneBuilder`] describes one bus system: bus config, masters with
//! their sources, slaves, arbiter, in-memory trace, windowed metrics and
//! the fault machinery (fault plan, retry policy, watchdog). A
//! [`SystemBuilder`] is a lane description plus what only a scalar
//! system has (kernel, profiler, streaming trace sink), and
//! [`Fleet::build`] packs many lane descriptions. Both validate and
//! assemble a lane here, in one place.
//!
//! [`Lane`] borrows one system's state for a single move: the poll
//! phase, the end-of-cycle accounting and the idle-skip accounting are
//! written once, over those borrowed parts, and so is the idle horizon
//! ([`idle_horizon`]). The bus phase is [`Bus::step`]. `System` borrows
//! its own fields; a fleet lane borrows its slices of the fleet's
//! structure-of-arrays state.
//!
//! [`System`]: crate::System
//! [`SystemBuilder`]: crate::SystemBuilder
//! [`Fleet`]: crate::Fleet
//! [`Fleet::build`]: crate::Fleet::build

use crate::arbiter::{Arbiter, IntoArbiter};
use crate::bus::Bus;
use crate::config::BusConfig;
use crate::cycle::Cycle;
use crate::error::BuildSystemError;
use crate::fastforward::{fold_horizon, MoveCounters};
use crate::fault::{build_fault_layer, FaultConfig, RetryPolicy};
use crate::ids::MasterId;
use crate::master::{Completion, MasterPort};
use crate::metrics::BusMetrics;
use crate::request::MAX_MASTERS;
use crate::slave::Slave;
use crate::stats::BusStats;
use crate::system::{IntoSource, TrafficSource};
use crate::trace::BusTrace;

/// Builder for one bus system, run as a [`crate::Fleet`] lane or, via
/// `SystemBuilder::from`, as a scalar [`crate::System`].
///
/// A fleet lane batches and fuses tenures, polling the sources that
/// come due inside a batch at their own cycles (see [`crate::fleet`]).
/// Lanes with windowed metrics batch too, each batch ending at or
/// before the next window boundary. Lanes with a fault plan, retry
/// policy or watchdog step every arbitration and batch each tenure up
/// to the next master-stall draw or watchdog deadline inside it; they
/// never fuse.
#[derive(Debug)]
pub struct LaneBuilder<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    pub(crate) config: BusConfig,
    pub(crate) names: Vec<String>,
    sources: Vec<S>,
    pub(crate) slaves: Vec<Slave>,
    pub(crate) arbiter: Option<A>,
    trace_capacity: usize,
    metrics_window: Option<u64>,
    faults: Option<FaultConfig>,
    retry: Option<RetryPolicy>,
    timeout: Option<u64>,
}

impl<A: Arbiter, S: TrafficSource> LaneBuilder<A, S> {
    /// Starts building a lane around a bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        LaneBuilder {
            config,
            names: Vec::new(),
            sources: Vec::new(),
            slaves: Vec::new(),
            arbiter: None,
            trace_capacity: 0,
            metrics_window: None,
            faults: None,
            retry: None,
            timeout: None,
        }
    }

    /// Adds a master named `name` driven by `source`. Masters receive
    /// dense [`MasterId`]s in the order they are added.
    pub fn master(mut self, name: impl Into<String>, source: impl IntoSource<S>) -> Self {
        self.names.push(name.into());
        self.sources.push(source.into_source());
        self
    }

    /// Registers a slave (only needed for nonzero wait states).
    pub fn slave(mut self, slave: Slave) -> Self {
        self.slaves.push(slave);
        self
    }

    /// Sets the arbitration protocol.
    pub fn arbiter(mut self, arbiter: impl IntoArbiter<A>) -> Self {
        self.arbiter = Some(arbiter.into_arbiter());
        self
    }

    /// Enables bus tracing, buffering at most `capacity` events in
    /// memory. Overflow is counted (see [`BusTrace::is_truncated`])
    /// rather than silently discarded.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables the metrics registry (see [`crate::metrics`]): windowed
    /// counters, gauges and latency histograms sampled every `window`
    /// cycles into a time-series. Off by default; when off the kernel
    /// pays one branch per cycle.
    pub fn metrics_window(mut self, window: u64) -> Self {
        self.metrics_window = Some(window);
        self
    }

    /// Attaches a seeded fault-injection plan (see [`crate::fault`]).
    pub fn faults(mut self, config: FaultConfig) -> Self {
        self.faults = Some(config);
        self
    }

    /// Sets the recovery policy applied when an injected slave error
    /// hits a transaction. Without a policy the first error aborts.
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arms the transaction watchdog: a transaction wedged at the head
    /// of a master's queue for `cycles` cycles without progress is
    /// aborted and counted.
    pub fn timeout(mut self, cycles: u64) -> Self {
        self.timeout = Some(cycles);
        self
    }

    /// Validates the description and builds the lane's parts.
    ///
    /// # Errors
    ///
    /// Returns an error if no master was added, too many masters were
    /// added, no arbiter was set, or the bus, fault, retry, timeout or
    /// metrics configuration is invalid.
    pub(crate) fn assemble(self) -> Result<LaneParts<A, S>, BuildSystemError> {
        let n = self.names.len();
        if n == 0 {
            return Err(BuildSystemError::NoMasters);
        }
        if self.metrics_window == Some(0) {
            return Err(BuildSystemError::InvalidMetricsWindow(0));
        }
        if n > MAX_MASTERS {
            return Err(BuildSystemError::TooManyMasters { got: n, max: MAX_MASTERS });
        }
        self.config.validate().map_err(BuildSystemError::InvalidConfig)?;
        let faults = build_fault_layer(self.faults, self.retry, self.timeout)?;
        let arbiter = self.arbiter.ok_or(BuildSystemError::NoArbiter)?;
        Ok(LaneParts {
            bus: Bus::with_faults(self.config, faults),
            ports: self
                .names
                .into_iter()
                .enumerate()
                .map(|(i, name)| MasterPort::new(MasterId::new(i), name))
                .collect(),
            sources: self.sources,
            slaves: self.slaves,
            arbiter,
            stats: BusStats::new(n),
            trace: if self.trace_capacity > 0 {
                BusTrace::enabled(self.trace_capacity)
            } else {
                BusTrace::disabled()
            },
            metrics: self.metrics_window.map(|w| BusMetrics::new(w, n)),
        })
    }
}

/// A validated lane, ready to become a [`crate::System`] or a fleet lane.
pub(crate) struct LaneParts<A, S> {
    pub bus: Bus,
    pub ports: Vec<MasterPort>,
    pub sources: Vec<S>,
    pub slaves: Vec<Slave>,
    pub arbiter: A,
    pub stats: BusStats,
    pub trace: BusTrace,
    pub metrics: Option<BusMetrics>,
}

/// One system's state, borrowed for one move.
pub(crate) struct Lane<'a, R: ?Sized, S> {
    pub bus: &'a mut Bus,
    pub arbiter: &'a mut R,
    pub ports: &'a mut [MasterPort],
    pub sources: &'a mut [S],
    /// Per-source poll horizon: the earliest cycle at which source `i`
    /// must be polled again ([`TrafficSource::next_event`] computed
    /// after its last actual poll).
    pub poll_horizon: &'a mut [Cycle],
    pub slaves: &'a [Slave],
    pub stats: &'a mut BusStats,
    pub trace: &'a mut BusTrace,
    pub metrics: &'a mut Option<BusMetrics>,
    /// Arbiter failover count at the last statistics reset.
    pub failover_baseline: u64,
    pub now: &'a mut Cycle,
    pub moves: &'a mut MoveCounters,
}

impl<R: Arbiter + ?Sized, S: TrafficSource> Lane<'_, R, S> {
    /// The poll phase of a step: polls every source whose cached horizon
    /// has come, and caches its next horizon. Sources whose horizon lies
    /// in the future are skipped with one integer compare: by the
    /// horizon contract their poll is a no-op.
    #[inline]
    pub(crate) fn poll(&mut self) {
        let now = *self.now;
        let polls =
            self.ports.iter_mut().zip(self.sources.iter_mut()).zip(self.poll_horizon.iter_mut());
        for ((port, source), horizon) in polls {
            if *horizon > now {
                continue;
            }
            self.moves.polls += 1;
            if let Some(txn) = source.poll_with_backlog(now, port.backlog_transactions()) {
                port.enqueue(txn);
            }
            *horizon = source.next_event(now + 1);
        }
    }

    /// The bus phase of a step: arbitration, fault machinery and word
    /// transfer. Returns the transaction that completed, if any.
    #[inline]
    pub(crate) fn bus_step(&mut self) -> Option<(MasterId, Completion)> {
        self.bus.step(self.arbiter, self.ports, self.slaves, *self.now, self.stats, self.trace)
    }

    /// The bus and accounting phases of a step, for a caller that has
    /// run the poll phase.
    #[inline]
    pub(crate) fn finish_step(&mut self) {
        let completed = self.bus_step();
        self.end_cycle(completed);
    }

    /// The accounting phase of a step: statistics, failovers and the
    /// metrics registry; then the clock moves to the next cycle.
    #[inline]
    pub(crate) fn end_cycle(&mut self, completed: Option<(MasterId, Completion)>) {
        let now = *self.now;
        self.stats.record_cycle();
        self.stats.failovers = self.arbiter.failovers() - self.failover_baseline;
        if let Some(metrics) = self.metrics.as_mut() {
            if let Some((_, done)) = completed {
                metrics.note_completion(done.latency());
            }
            metrics.end_cycle(now, self.stats, self.ports);
        }
        self.moves.stepped += 1;
        self.moves.moves += 1;
        *self.now = now + 1;
    }

    /// Jumps from the current cycle to `target`, replicating the skipped
    /// idle cycles' accounting arithmetically: the cycle counter, the
    /// trace's idle events, the arbiter's empty-map decision state and
    /// the metrics window closes. Callers must have established (via
    /// [`idle_horizon`]) that nothing else happens before `target`.
    /// Returns the number of cycles skipped.
    pub(crate) fn skip_to(&mut self, target: Cycle) -> u64 {
        let now = *self.now;
        let delta = target - now;
        self.trace.record_idle_span(now, delta);
        self.arbiter.skip_idle(delta);
        self.stats.record_cycles(delta);
        self.stats.failovers = self.arbiter.failovers() - self.failover_baseline;
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.skip_cycles(now, delta, self.stats, self.ports);
        }
        self.moves.idle_skipped += delta;
        self.moves.moves += 1;
        *self.now = target;
        delta
    }
}

/// The event horizon of one system at `now`, clipped at `bound`: the
/// earliest cycle `>= now` at which any component does something the
/// idle skip cannot replicate (see [`crate::fastforward`]). Returns
/// `now` whenever the bus is busy or any request line is live, and
/// `bound` when nothing is scheduled before it.
///
/// A bus drawing per-cycle master stalls uses the stall-aware port
/// horizon. A port that holds work but is held back only by a retry
/// backoff draws a stall every cycle; the fault plan keeps no state, so
/// its draws are scanned ahead ([`FaultPlan::next_master_stall`]) up to
/// the horizon of everything else, and the first one that fires bounds
/// the skip. The scan covers only cycles the skip then jumps.
///
/// [`FaultPlan::next_master_stall`]: crate::FaultPlan::next_master_stall
pub(crate) fn idle_horizon<R: Arbiter + ?Sized, S: TrafficSource>(
    bus: &Bus,
    ports: &[MasterPort],
    sources: &[S],
    arbiter: &R,
    now: Cycle,
    bound: Cycle,
) -> Cycle {
    if bus.is_busy() {
        return now;
    }
    let stall_plan = bus.stall_plan();
    let mut horizon = bound;
    // Ports held back only by a retry backoff, whose stall draws are
    // scanned once the rest of the horizon is known.
    let mut backoff = 0u32;
    for (i, port) in ports.iter().enumerate() {
        let h = if stall_plan.is_some() {
            let h = port.next_event_under_stall_faults(now);
            if h == now && !port.is_requesting_at(now) {
                backoff |= 1 << i;
                port.eligible_from()
            } else {
                h
            }
        } else {
            port.next_event(now)
        };
        horizon = fold_horizon(horizon, h, now);
        if horizon == now {
            return now;
        }
    }
    for source in sources {
        horizon = fold_horizon(horizon, source.next_event(now), now);
        if horizon == now {
            return now;
        }
    }
    horizon = fold_horizon(horizon, arbiter.next_event(now), now);
    if let Some(plan) = stall_plan {
        while backoff != 0 {
            let port = &ports[backoff.trailing_zeros() as usize];
            backoff &= backoff - 1;
            if let Some(draw) = plan.next_master_stall(port.id(), now, horizon) {
                horizon = draw;
            }
        }
    }
    horizon
}
