//! Batched lockstep fleet execution over structure-of-arrays state.
//!
//! A [`Fleet`] advances N *independent* bus systems together. Lanes never
//! interact — lockstep is purely a performance structure: all mutable
//! per-lane state lives in contiguous arrays (master ports, sources and
//! poll horizons flattened lane-major with an offset table; the bus
//! transfer state decomposed into parallel `Vec<u32>` owner/stall/burst
//! counters; arbiters, statistics and traces as dense per-lane vectors),
//! so sweeping a fleet touches memory linearly instead of pointer-chasing
//! N heap-scattered [`System`]s.
//!
//! ## Exactness contract
//!
//! Every lane is **byte-identical** to running the same configuration
//! through the scalar [`System`] under the default cycle kernel: the
//! statistics, trace events, metrics time-series, port states and source
//! states all match exactly. This holds because the fleet only ever does
//! three things, each individually exact:
//!
//! 1. **Per-cycle stepping** (`step_lane` internally) replicates the
//!    scalar step and the fault-free arms of the bus engine
//!    statement for statement over the SoA state.
//! 2. **Idle skipping** replicates the fast-forward kernel's idle jump
//!    (trace idle spans, arbiter decision-state advance, cycle counters,
//!    metrics window closes), which PR 4's differential harness proved
//!    cycle-exact.
//! 3. **Tenure batching** replays the interior of a bus tenure
//!    arithmetically, and is only entered when every elided poll is a
//!    *provable no-op*: the source must declare
//!    [`TrafficSource::pure_while_backlogged`] and its port's backlog
//!    must be nonempty for the whole batch. Sources that cannot make
//!    that promise bound the batch (future horizons) or force a
//!    per-cycle step (due polls), never an approximation. Batching is
//!    skipped entirely on lanes with windowed metrics, whose gauges
//!    sample every busy cycle boundary.
//!
//! Point 3 is what makes fleets fast at saturation, where the scalar
//! cycle kernel pays the full per-cycle cost: a saturated 8-word tenure
//! collapses into one arbitration plus one arithmetic batch.
//!
//! Fault injection, retry policies, watchdog timeouts and streaming
//! trace sinks are deliberately *not* supported on fleet lanes — their
//! per-cycle machinery defeats batching. Callers with faulted
//! configurations keep using the scalar [`System`] (the scenario fleet
//! runner falls back automatically).
//!
//! ## When jobs beat lanes
//!
//! The PR-2 pool and the fleet compose: a fleet is single-threaded, so a
//! sweep can shard its lanes across pool jobs. For *low-utilization*
//! workloads the scalar fast-forward kernel already skips almost every
//! cycle in O(1), leaving little for lane batching to win; fleets pay
//! off when lanes are busy (saturated sweeps, search short-lists) or
//! when the workload is many small same-shape systems whose per-job
//! spawn overhead dominates.
//!
//! [`System`]: crate::System
//! [`TrafficSource::pure_while_backlogged`]: crate::TrafficSource::pure_while_backlogged

use crate::arbiter::{Arbiter, IntoArbiter, SoaKernel};
use crate::config::BusConfig;
use crate::cycle::Cycle;
use crate::error::BuildSystemError;
use crate::fastforward::{fold_horizon, MoveCounters};
use crate::ids::MasterId;
use crate::master::{Completion, MasterPort};
use crate::metrics::BusMetrics;
use crate::request::{RequestMap, MAX_MASTERS};
use crate::slave::Slave;
use crate::stats::BusStats;
use crate::system::{IntoSource, TrafficSource};
use crate::trace::{BusTrace, TraceEvent};

/// Lockstep chunk length: lanes are advanced in windows of this many
/// cycles so the whole fleet stays within one chunk of simulated time.
/// Tenures and idle spans are far shorter than this in practice, so the
/// cap never truncates a batch that matters.
const CHUNK: u64 = 1024;

/// Builder for one fleet lane — the supported subset of
/// [`crate::SystemBuilder`]: bus config, named masters with sources,
/// slaves, an arbiter, optional in-memory tracing and windowed metrics.
///
/// Fault plans, retry policies, watchdog timeouts, streaming trace sinks
/// and phase profiling are not available on lanes (see the module docs);
/// configurations needing them run on the scalar [`System`].
///
/// [`System`]: crate::System
#[derive(Debug)]
pub struct LaneBuilder<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    config: BusConfig,
    names: Vec<String>,
    sources: Vec<S>,
    slaves: Vec<Slave>,
    arbiter: Option<A>,
    trace_capacity: usize,
    metrics_window: Option<u64>,
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
        }
    }

    /// Adds a master named `name` driven by `source`; dense
    /// [`MasterId`]s are assigned in insertion order, exactly like
    /// [`crate::SystemBuilder::master`].
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

    /// Enables in-memory bus tracing with at most `capacity` buffered
    /// events, exactly like [`crate::SystemBuilder::trace_capacity`].
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enables the windowed metrics registry, exactly like
    /// [`crate::SystemBuilder::metrics_window`]. Lanes with metrics stay
    /// exact but forgo tenure batching (gauges sample every busy cycle
    /// boundary), so they advance at fast-forward-kernel speed.
    pub fn metrics_window(mut self, window: u64) -> Self {
        self.metrics_window = Some(window);
        self
    }
}

/// A lane failed to validate while building a [`Fleet`].
#[derive(Debug, PartialEq, Eq)]
pub struct FleetBuildError {
    /// Index of the offending lane in build order.
    pub lane: usize,
    /// The underlying builder error, identical to what
    /// [`crate::SystemBuilder::build`] would report.
    pub error: BuildSystemError,
}

impl std::fmt::Display for FleetBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet lane {}: {}", self.lane, self.error)
    }
}

impl std::error::Error for FleetBuildError {}

/// N independent bus systems advancing in lockstep over
/// structure-of-arrays state. See the module docs for the layout and
/// the exactness contract.
pub struct Fleet<A = Box<dyn Arbiter>, S = Box<dyn TrafficSource>> {
    /// Lane boundaries into the flattened per-master arrays:
    /// lane `l` owns indices `offsets[l]..offsets[l + 1]`.
    offsets: Vec<usize>,
    /// All master ports, lane-major.
    ports: Vec<MasterPort>,
    /// All traffic sources, lane-major (parallel to `ports`).
    sources: Vec<S>,
    /// Cached per-source poll horizons (parallel to `ports`), the fleet
    /// twin of `System::poll_horizon`.
    poll_horizon: Vec<Cycle>,
    /// Cached [`TrafficSource::pure_while_backlogged`] per source, so
    /// the batch legality scan costs one load instead of a dispatch.
    pure_backlog: Vec<bool>,
    /// Lane boundaries into the flattened slave table.
    slave_offsets: Vec<usize>,
    /// All registered slaves, lane-major.
    slaves: Vec<Slave>,
    /// Per-lane bus configuration.
    configs: Vec<BusConfig>,
    /// Decomposed bus transfer state, one element per lane: the master
    /// index owning the tenure in flight (meaningful while busy),
    owner: Vec<u32>,
    /// remaining setup-stall cycles (`Stalled` when nonzero),
    stall_left: Vec<u32>,
    /// the burst length armed behind the stall,
    stall_words: Vec<u32>,
    /// and remaining burst words (`Bursting` when nonzero with no
    /// stall). A lane is idle iff `stall_left == 0 && words_left == 0`.
    words_left: Vec<u32>,
    /// Per-lane arbiters, contiguous. A lowered lane's scalar arbiter
    /// is *stale* while its SoA kernel slot is live; [`Fleet::arbiter`]
    /// and [`Fleet::arbiter_mut`] write the kernel state back before
    /// exposing it.
    arbiters: Vec<A>,
    /// Cross-lane SoA decision kernels, one per lowered same-protocol
    /// group (see [`Arbiter::lower_group`]).
    kernels: Vec<Box<dyn SoaKernel>>,
    /// Per-lane kernel membership: `Some((kernel, slot))` routes the
    /// lane's arbitration through `kernels[kernel]`, `None` keeps the
    /// scalar arbiter (heterogeneous packs, never-lowered protocols,
    /// lanes dissolved by [`Fleet::arbiter_mut`]).
    lowered: Vec<Option<(u32, u32)>>,
    /// Whether the lane may take the fused arbitrate-plus-batch fast
    /// path at all: tracing off and no metrics registry (both sample
    /// per-cycle detail the fused path elides).
    fast_ok: Vec<bool>,
    /// Whether every possible grant on this lane has a zero setup
    /// stall (no arbitration overhead, no wait states anywhere) — a
    /// precondition of the arithmetic TDMA wheel walk.
    zero_stall: Vec<bool>,
    /// Per-lane statistics.
    stats: Vec<BusStats>,
    /// Per-lane traces (disabled unless a capacity was set).
    traces: Vec<BusTrace>,
    /// Per-lane windowed metrics registries.
    metrics: Vec<Option<BusMetrics>>,
    /// Per-lane arbiter failover counts at the last statistics reset.
    failover_baseline: Vec<u64>,
    /// Per-lane simulation time (the next cycle to simulate).
    now: Vec<Cycle>,
    /// Per-lane cycles per execution move and polls run, since build.
    moves: Vec<MoveCounters>,
    /// Shared arbitration scratch map, rebuilt in place per idle cycle.
    scratch: RequestMap,
    /// Reusable per-lane target buffer for [`Fleet::run`], kept on the
    /// struct so steady-state runs stay allocation-free.
    targets: Vec<Cycle>,
}

impl<A: Arbiter, S: TrafficSource> std::fmt::Debug for Fleet<A, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("lanes", &self.len())
            .field("masters", &self.ports.len())
            .finish()
    }
}

impl<A: Arbiter, S: TrafficSource> Fleet<A, S> {
    /// Builds a fleet from per-lane builders. Lane indices follow build
    /// order. An empty fleet is valid and inert.
    ///
    /// # Errors
    ///
    /// Returns the first lane that fails the same validation
    /// [`crate::SystemBuilder::build`] applies (no masters, too many
    /// masters, no arbiter, invalid bus config or metrics window).
    pub fn build(lanes: Vec<LaneBuilder<A, S>>) -> Result<Self, FleetBuildError> {
        let mut fleet = Fleet {
            offsets: Vec::with_capacity(lanes.len() + 1),
            ports: Vec::new(),
            sources: Vec::new(),
            poll_horizon: Vec::new(),
            pure_backlog: Vec::new(),
            slave_offsets: Vec::with_capacity(lanes.len() + 1),
            slaves: Vec::new(),
            configs: Vec::with_capacity(lanes.len()),
            owner: vec![0; lanes.len()],
            stall_left: vec![0; lanes.len()],
            stall_words: vec![0; lanes.len()],
            words_left: vec![0; lanes.len()],
            arbiters: Vec::with_capacity(lanes.len()),
            kernels: Vec::new(),
            lowered: vec![None; lanes.len()],
            fast_ok: Vec::with_capacity(lanes.len()),
            zero_stall: Vec::with_capacity(lanes.len()),
            stats: Vec::with_capacity(lanes.len()),
            traces: Vec::with_capacity(lanes.len()),
            metrics: Vec::with_capacity(lanes.len()),
            failover_baseline: vec![0; lanes.len()],
            now: vec![Cycle::ZERO; lanes.len()],
            moves: vec![MoveCounters::default(); lanes.len()],
            scratch: RequestMap::new(1),
            targets: Vec::with_capacity(lanes.len()),
        };
        fleet.offsets.push(0);
        fleet.slave_offsets.push(0);
        for (lane, spec) in lanes.into_iter().enumerate() {
            let fail = |error| FleetBuildError { lane, error };
            if spec.names.is_empty() {
                return Err(fail(BuildSystemError::NoMasters));
            }
            if spec.metrics_window == Some(0) {
                return Err(fail(BuildSystemError::InvalidMetricsWindow(0)));
            }
            if spec.names.len() > MAX_MASTERS {
                return Err(fail(BuildSystemError::TooManyMasters {
                    got: spec.names.len(),
                    max: MAX_MASTERS,
                }));
            }
            spec.config.validate().map_err(|e| fail(BuildSystemError::InvalidConfig(e)))?;
            let arbiter = spec.arbiter.ok_or_else(|| fail(BuildSystemError::NoArbiter))?;
            let n = spec.names.len();
            for (i, name) in spec.names.into_iter().enumerate() {
                fleet.ports.push(MasterPort::new(MasterId::new(i), name));
            }
            for source in spec.sources {
                fleet.pure_backlog.push(source.pure_while_backlogged());
                fleet.sources.push(source);
                fleet.poll_horizon.push(Cycle::ZERO);
            }
            fleet.offsets.push(fleet.ports.len());
            fleet.zero_stall.push(
                spec.config.arbitration_overhead == 0
                    && spec.config.slave_wait_states == 0
                    && spec.slaves.iter().all(|s| s.wait_states() == 0),
            );
            fleet.slaves.extend(spec.slaves);
            fleet.slave_offsets.push(fleet.slaves.len());
            fleet.configs.push(spec.config);
            fleet.arbiters.push(arbiter);
            fleet.fast_ok.push(spec.trace_capacity == 0 && spec.metrics_window.is_none());
            fleet.stats.push(BusStats::new(n));
            fleet.traces.push(if spec.trace_capacity > 0 {
                BusTrace::enabled(spec.trace_capacity)
            } else {
                BusTrace::disabled()
            });
            fleet.metrics.push(spec.metrics_window.map(|w| BusMetrics::new(w, n)));
        }
        fleet.lower_groups();
        Ok(fleet)
    }

    /// Detects same-protocol lane groups (by [`Arbiter::soa_signature`])
    /// and lowers each group into one shared SoA decision kernel.
    /// Singleton groups lower too — they gain no table sharing, but
    /// they do gain the kernels' batch machinery (the TDMA arithmetic
    /// wheel walk in particular). Lanes whose protocol declines to
    /// lower keep the scalar path.
    fn lower_groups(&mut self) {
        let mut groups: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (lane, arbiter) in self.arbiters.iter().enumerate() {
            if let Some(signature) = arbiter.soa_signature() {
                groups.entry(signature).or_default().push(lane);
            }
        }
        for lanes in groups.values() {
            let peers: Vec<&A> = lanes.iter().map(|&l| &self.arbiters[l]).collect();
            if let Some(kernel) = A::lower_group(&peers) {
                let index = self.kernels.len() as u32;
                for (slot, &lane) in lanes.iter().enumerate() {
                    self.lowered[lane] = Some((index, slot as u32));
                }
                self.kernels.push(kernel);
            }
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the fleet has no lanes.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Number of masters on lane `lane`.
    pub fn masters(&self, lane: usize) -> usize {
        self.offsets[lane + 1] - self.offsets[lane]
    }

    /// Simulation time of lane `lane` (the next cycle to simulate).
    pub fn now(&self, lane: usize) -> Cycle {
        self.now[lane]
    }

    /// How lane `lane` has advanced time since the fleet was built:
    /// cycles per move (stepped, idle-skipped, tenure-batched, fused,
    /// wheel-batched) and source polls actually run.
    pub fn moves(&self, lane: usize) -> &MoveCounters {
        &self.moves[lane]
    }

    /// Accumulated statistics of lane `lane`.
    pub fn stats(&self, lane: usize) -> &BusStats {
        &self.stats[lane]
    }

    /// The recorded trace of lane `lane` (empty unless a capacity was
    /// set on its builder).
    pub fn trace(&self, lane: usize) -> &BusTrace {
        &self.traces[lane]
    }

    /// The metrics time-series of lane `lane`, or `None` when metrics
    /// were not enabled on its builder.
    pub fn metrics(&self, lane: usize) -> Option<&BusMetrics> {
        self.metrics[lane].as_ref()
    }

    /// The master ports of lane `lane`, in [`MasterId`] order.
    pub fn lane_ports(&self, lane: usize) -> &[MasterPort] {
        &self.ports[self.offsets[lane]..self.offsets[lane + 1]]
    }

    /// The master port `id` of lane `lane`.
    pub fn master(&self, lane: usize, id: MasterId) -> &MasterPort {
        &self.lane_ports(lane)[id.index()]
    }

    /// Copies a lowered lane's live kernel state back into its scalar
    /// arbiter, so external observers see exactly what scalar execution
    /// would have produced. No-op for scalar lanes.
    fn sync_lane_arbiter(&mut self, lane: usize) {
        if let Some((kernel, slot)) = self.lowered[lane] {
            let kernel = self.kernels[kernel as usize].as_ref();
            self.arbiters[lane].writeback_from(kernel, slot as usize);
        }
    }

    /// The arbiter of lane `lane`, for protocols with runtime knobs.
    ///
    /// Mutating the returned arbiter **dissolves** the lane's SoA
    /// kernel membership (after writing the kernel state back): the
    /// kernel's copy can no longer be trusted, so the lane reverts to
    /// the scalar path for the rest of the run. Lanes that were never
    /// lowered are unaffected.
    pub fn arbiter_mut(&mut self, lane: usize) -> &mut A {
        self.sync_lane_arbiter(lane);
        self.lowered[lane] = None;
        &mut self.arbiters[lane]
    }

    /// The arbiter of lane `lane`. Takes `&mut self` because a lowered
    /// lane's scalar arbiter is refreshed from its SoA kernel slot
    /// first (the lane stays lowered).
    pub fn arbiter(&mut self, lane: usize) -> &A {
        self.sync_lane_arbiter(lane);
        &self.arbiters[lane]
    }

    /// Number of lanes currently lowered into a grouped SoA decision
    /// kernel; the remaining lanes arbitrate through their scalar
    /// arbiter (heterogeneous packs, custom sources, dissolved lanes).
    pub fn lowered_lanes(&self) -> usize {
        self.lowered.iter().filter(|slot| slot.is_some()).count()
    }

    /// Number of grouped SoA decision kernels backing the lowered
    /// lanes (one per same-protocol group of two or more lanes).
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Closes partial metrics windows on every lane at its current
    /// cycle, mirroring [`crate::System::flush_metrics`].
    pub fn flush_metrics(&mut self) {
        for lane in 0..self.len() {
            let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
            if let Some(metrics) = self.metrics[lane].as_mut() {
                metrics.flush(self.now[lane], &self.stats[lane], &self.ports[lo..hi]);
            }
        }
    }

    /// Clears accumulated statistics on every lane, mirroring
    /// [`crate::System::reset_stats`].
    pub fn reset_stats(&mut self) {
        for lane in 0..self.len() {
            self.stats[lane] = BusStats::new(self.masters(lane));
            self.failover_baseline[lane] = self.arbiters[lane].failovers();
            if let Some(metrics) = self.metrics[lane].as_mut() {
                metrics.reset(self.now[lane]);
            }
        }
    }

    /// Advances every lane by `cycles` cycles in lockstep chunks.
    pub fn run(&mut self, cycles: u64) {
        let Some(&start) = self.now.iter().min() else {
            return;
        };
        // The target buffer lives on the struct (capacity reserved at
        // build) so steady-state runs make no heap allocations.
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        targets.extend(self.now.iter().map(|&n| n + cycles));
        let end = targets.iter().copied().max().unwrap_or(start);
        let mut chunk_end = start;
        while chunk_end < end {
            chunk_end = (chunk_end + CHUNK).min(end);
            for (lane, &lane_target) in targets.iter().enumerate() {
                let target = lane_target.min(chunk_end);
                self.advance_lane(lane, target);
            }
        }
        self.targets = targets;
    }

    /// Advances every lane whose clock is behind `target` up to exactly
    /// `target`, in lockstep chunks. Lanes already at or past `target`
    /// are untouched. This is the phase driver for packed scenario
    /// lanes, whose phase boundaries differ per lane.
    pub fn run_until(&mut self, target: Cycle) {
        let Some(&start) = self.now.iter().min() else {
            return;
        };
        let mut chunk_end = start;
        while chunk_end < target {
            chunk_end = (chunk_end + CHUNK).min(target);
            for lane in 0..self.len() {
                if self.now[lane] < chunk_end {
                    self.advance_lane(lane, chunk_end);
                }
            }
        }
    }

    /// Advances one lane to exactly `target` (no-op if its clock is
    /// already there or past). Lets drivers with per-lane schedules —
    /// scenario packs whose lanes end at different cycles — cap each
    /// lane at its own boundary while iterating boundaries in global
    /// order for lockstep locality.
    pub fn run_lane_until(&mut self, lane: usize, target: Cycle) {
        if self.now[lane] < target {
            self.advance_lane(lane, target);
        }
    }

    /// Runs `cycles` warm-up cycles on every lane and then discards the
    /// statistics, mirroring [`crate::System::warm_up`].
    pub fn warm_up(&mut self, cycles: u64) {
        self.run(cycles);
        self.reset_stats();
    }

    /// Whether lane `lane` has a tenure (or its setup stall) in flight.
    #[inline]
    fn lane_busy(&self, lane: usize) -> bool {
        self.stall_left[lane] > 0 || self.words_left[lane] > 0
    }

    /// Advances one lane to `target` using the three exact moves (step,
    /// idle skip, tenure batch); the fleet twin of the scalar kernel's
    /// run loop.
    fn advance_lane(&mut self, lane: usize, target: Cycle) {
        while self.now[lane] < target {
            let horizon = self.idle_horizon_lane(lane).min(target);
            if horizon > self.now[lane] {
                self.skip_lane_to(lane, horizon);
            } else if self.lane_busy(lane) {
                if !self.skip_tenure_lane(lane, target) {
                    self.step_lane(lane);
                }
            } else if !self.fast_arbitrate_lane(lane, target) {
                self.step_lane(lane);
            }
        }
    }

    /// The idle event horizon of lane `lane`; replicates
    /// [`crate::System::idle_horizon`] (fleet lanes never carry stall
    /// faults, so the plain port horizon always applies).
    fn idle_horizon_lane(&self, lane: usize) -> Cycle {
        let now = self.now[lane];
        if self.lane_busy(lane) {
            return now;
        }
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let mut horizon = Cycle::NEVER;
        for port in &self.ports[lo..hi] {
            horizon = fold_horizon(horizon, port.next_event(now), now);
            if horizon == now {
                return now;
            }
        }
        for source in &self.sources[lo..hi] {
            horizon = fold_horizon(horizon, source.next_event(now), now);
            if horizon == now {
                return now;
            }
        }
        let arbiter_horizon = match self.lowered[lane] {
            Some((kernel, slot)) => {
                self.kernels[kernel as usize].next_event_slot(slot as usize, now)
            }
            None => self.arbiters[lane].next_event(now),
        };
        fold_horizon(horizon, arbiter_horizon, now)
    }

    /// Jumps lane `lane` from its current cycle to `target`, replicating
    /// the scalar kernel's idle skip accounting exactly.
    fn skip_lane_to(&mut self, lane: usize, target: Cycle) {
        let now = self.now[lane];
        let delta = target - now;
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        self.traces[lane].record_idle_span(now, delta);
        match self.lowered[lane] {
            Some((kernel, slot)) => {
                self.kernels[kernel as usize].skip_idle_slot(slot as usize, delta)
            }
            None => self.arbiters[lane].skip_idle(delta),
        }
        self.stats[lane].record_cycles(delta);
        self.stats[lane].failovers = self.arbiters[lane].failovers() - self.failover_baseline[lane];
        if let Some(metrics) = self.metrics[lane].as_mut() {
            metrics.skip_cycles(now, delta, &self.stats[lane], &self.ports[lo..hi]);
        }
        self.moves[lane].idle_skipped += delta;
        self.moves[lane].moves += 1;
        self.now[lane] = target;
    }

    /// Batches the interior of lane `lane`'s tenure in flight, exactly.
    ///
    /// The batch only proceeds when every due poll is a provable no-op
    /// (deferring a due poll would thin the source's arrival process):
    /// the source declares
    /// [`TrafficSource::pure_while_backlogged`] and its port has a
    /// nonempty backlog, which persists for the whole batch (the owner's
    /// head transaction pops only in the bus phase of its completion
    /// cycle, after that cycle's polls; non-owners transfer nothing).
    /// Sources with true future horizons bound the batch instead, so
    /// their next poll happens on time. Lanes with windowed metrics
    /// never batch (their gauges sample every busy cycle boundary).
    ///
    /// Returns whether any cycles were consumed; `false` sends the
    /// caller to a per-cycle step.
    fn skip_tenure_lane(&mut self, lane: usize, end: Cycle) -> bool {
        if self.metrics[lane].is_some() {
            return false;
        }
        let now = self.now[lane];
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let mut limit = end;
        for i in lo..hi {
            let cached = self.poll_horizon[i];
            if cached > now {
                // A true future horizon: nothing to poll before it, so
                // it bounds the batch and the source stays exact.
                limit = limit.min(cached);
                continue;
            }
            // A poll is due this cycle (and every batched cycle). It may
            // only be elided if it is a no-op by contract: pure while
            // backlogged, with a backlog that cannot drain mid-batch.
            if !(self.pure_backlog[i] && self.ports[i].backlog_transactions() > 0) {
                return false;
            }
        }
        if limit <= now {
            return false;
        }
        let consumed = self.batch_tenure(lane, now, limit - now);
        if consumed == 0 {
            return false;
        }
        self.stats[lane].record_cycles(consumed);
        self.stats[lane].failovers = self.arbiters[lane].failovers() - self.failover_baseline[lane];
        // Elided sources keep their (due) cached horizons: their
        // `next_event` is the identity while backlogged, so per-cycle
        // stepping would also leave them due at the new `now` — they are
        // re-polled at the next unskipped cycle either way.
        self.moves[lane].tenure_batched += consumed;
        self.moves[lane].moves += 1;
        self.now[lane] = now + consumed;
        true
    }

    /// Replays up to `max_cycles` of lane `lane`'s in-flight tenure
    /// arithmetically over the SoA counters, leaving counters, ports,
    /// statistics and trace exactly where per-cycle stepping would.
    fn batch_tenure(&mut self, lane: usize, now: Cycle, max_cycles: u64) -> u64 {
        let lo = self.offsets[lane];
        let master = MasterId::new(self.owner[lane] as usize);
        let mut consumed = 0u64;
        let stall_left = self.stall_left[lane];
        if stall_left > 0 {
            let pay = u64::from(stall_left).min(max_cycles) as u32;
            if pay > 0 {
                self.stats[lane].record_stall(pay);
                consumed += u64::from(pay);
                self.stall_left[lane] = stall_left - pay;
                if self.stall_left[lane] == 0 {
                    self.words_left[lane] = self.stall_words[lane];
                    self.stall_words[lane] = 0;
                }
            }
        }
        let words_left = self.words_left[lane];
        if self.stall_left[lane] == 0 && words_left > 0 {
            let burst = u64::from(words_left).min(max_cycles - consumed) as u32;
            if burst > 0 {
                let start = now + consumed;
                self.stats[lane].record_words(master, burst);
                self.traces[lane].record_word_span(start, burst, master);
                // A tenure never covers more words than its head
                // transaction has left (the grant clamps to
                // `pending_words`), so at most one completion can occur,
                // on the batch's final word.
                let last = start + (u64::from(burst) - 1);
                if let Some(done) = self.ports[lo + master.index()].transfer(burst, last) {
                    self.stats[lane].record_completion(master, &done);
                }
                consumed += u64::from(burst);
                self.words_left[lane] = words_left - burst;
            }
        }
        consumed
    }

    /// Fuses an idle lane's arbitration cycle with the tenure batch it
    /// starts, eliding the per-cycle poll/step machinery when every
    /// elided poll is a provable no-op (the same legality scan as
    /// [`Fleet::skip_tenure_lane`]). Exact because the elided pieces
    /// are exactly the pieces proven elidable there, the arbitration
    /// itself runs unchanged, and [`Fleet::batch_tenure`] replays the
    /// armed tenure — including the grant cycle's own stall payment or
    /// first word — with identical accounting. Lanes with tracing or
    /// metrics (which observe per-cycle detail) never take this path.
    ///
    /// Wheel-lowered lanes with every master pending divert into the
    /// arithmetic slot walk ([`Fleet::wheel_batch_lane`]) instead,
    /// covering many single-word TDMA tenures per call.
    ///
    /// Returns whether any cycles were consumed; `false` sends the
    /// caller to a per-cycle step.
    fn fast_arbitrate_lane(&mut self, lane: usize, end: Cycle) -> bool {
        if !self.fast_ok[lane] {
            return false;
        }
        let now = self.now[lane];
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let mut limit = end;
        for i in lo..hi {
            let cached = self.poll_horizon[i];
            if cached > now {
                limit = limit.min(cached);
                continue;
            }
            if !(self.pure_backlog[i] && self.ports[i].backlog_transactions() > 0) {
                return false;
            }
        }
        if limit <= now {
            return false;
        }
        self.scratch.reset_for(hi - lo);
        let mut all_pending = true;
        for port in &self.ports[lo..hi] {
            if port.is_requesting() {
                self.scratch.set_pending(port.id(), port.pending_words());
            } else {
                all_pending = false;
            }
        }
        if all_pending && self.zero_stall[lane] {
            if let Some((kernel, slot)) = self.lowered[lane] {
                if self.kernels[kernel as usize].wheel_walk(slot as usize).is_some() {
                    return self.wheel_batch_lane(lane, now, limit);
                }
            }
        }
        // Serve tenures back to back until the legality window closes.
        // The scan above holds for every cycle in `[now, limit)`: bounded
        // sources never come due before `limit`, and elided due polls
        // stay no-ops as long as their backlog survives — which only the
        // granted master's completion can change, so only its entry is
        // re-validated (and its scratch slot refreshed) between tenures.
        // No other port changes state: elided polls enqueue nothing and
        // non-owners transfer nothing.
        let mut cursor = now;
        let mut consumed_total = 0u64;
        let mut polls = 0u64;
        loop {
            if self.scratch.pending_count() >= 2 {
                self.stats[lane].record_contended_arbitration();
            }
            let decision = match self.lowered[lane] {
                Some((kernel, slot)) => self.kernels[kernel as usize].arbitrate_slot(
                    slot as usize,
                    &self.scratch,
                    cursor,
                ),
                None => self.arbiters[lane].arbitrate(&self.scratch, cursor),
            };
            let Some(grant) = decision else {
                // An idle decision consumes exactly one cycle; the elided
                // polls are no-ops and tracing is off on this path. Hand
                // the (rare) idle lane back to the horizon machinery.
                consumed_total += 1;
                cursor += 1;
                break;
            };
            debug_assert!(
                (self.scratch.bits() >> grant.master.index()) & 1 == 1,
                "arbiter `{}` granted idle master {}",
                self.arbiters[lane].name(),
                grant.master
            );
            debug_assert!(grant.max_words > 0, "arbiter granted zero words");
            let winner = grant.master;
            let port = &mut self.ports[lo + winner.index()];
            let words = grant.max_words.min(self.configs[lane].max_burst).min(port.pending_words());
            self.stats[lane].record_grant(winner);
            port.note_grant(cursor);
            // A zero-stall lane (no arbitration overhead, every slave at
            // zero wait states) makes the slave lookup dead: grant_stall
            // is zero for any wait-state value it could resolve.
            let stall = if self.zero_stall[lane] {
                0
            } else {
                let slave = port.head_slave().expect("pending master has head");
                let (slo, shi) = (self.slave_offsets[lane], self.slave_offsets[lane + 1]);
                let wait_states = self.slaves[slo..shi]
                    .iter()
                    .find(|s| s.id() == slave)
                    .map_or(self.configs[lane].slave_wait_states, Slave::wait_states);
                self.configs[lane].grant_stall(wait_states)
            };
            self.owner[lane] = winner.index() as u32;
            // Arm the whole tenure *including* the grant cycle's own
            // work: paying `stall` from `stall_left` records the same
            // stall cycles as the scalar's 1 + (stall - 1) split, and a
            // zero-stall grant's first word is just the first word of
            // the armed burst. A stall-free burst that fits the window
            // replays inline — `batch_tenure` with the stall arm and
            // the leftover-words round-trip folded away, and the trace
            // call elided because `fast_ok` proved tracing off.
            let consumed = if stall == 0 && u64::from(words) <= limit - cursor {
                self.stats[lane].record_words(winner, words);
                let last = cursor + (u64::from(words) - 1);
                if let Some(done) = self.ports[lo + winner.index()].transfer(words, last) {
                    self.stats[lane].record_completion(winner, &done);
                }
                u64::from(words)
            } else {
                if stall > 0 {
                    self.stall_left[lane] = stall;
                    self.stall_words[lane] = words;
                } else {
                    self.words_left[lane] = words;
                }
                self.batch_tenure(lane, cursor, limit - cursor)
            };
            debug_assert!(consumed > 0, "fused arbitration must consume cycles");
            consumed_total += consumed;
            cursor += consumed;
            if cursor >= limit || self.stall_left[lane] > 0 || self.words_left[lane] > 0 {
                // Window exhausted (possibly mid-tenure, which the busy
                // path resumes next window).
                break;
            }
            // The winner's completion may have drained the backlog that
            // proved its due poll elidable; anyone else is untouched. A
            // no-longer-elidable poll is simply *run* — exactly as the
            // stepped poll phase would at `cursor` — so back-to-back
            // tenures keep fusing across transaction refills.
            let wi = lo + winner.index();
            if self.poll_horizon[wi] <= cursor
                && !(self.pure_backlog[wi] && self.ports[wi].backlog_transactions() > 0)
            {
                let port = &mut self.ports[wi];
                let source = &mut self.sources[wi];
                polls += 1;
                if let Some(txn) = source.poll_with_backlog(cursor, port.backlog_transactions()) {
                    port.enqueue(txn);
                }
                self.poll_horizon[wi] = source.next_event(cursor + 1);
                // Further fusing needs the entry scan's proof for this
                // master: elidable no-op polls, or no poll due inside
                // the window (shrinking it to the fresh horizon).
                if !(self.pure_backlog[wi] && port.backlog_transactions() > 0) {
                    if self.poll_horizon[wi] > cursor {
                        limit = limit.min(self.poll_horizon[wi]);
                    } else {
                        break;
                    }
                }
            }
            let port = &self.ports[wi];
            if port.is_requesting() {
                self.scratch.set_pending(winner, port.pending_words());
            } else {
                self.scratch.clear_pending(winner);
            }
        }
        self.stats[lane].record_cycles(consumed_total);
        self.stats[lane].failovers = self.arbiters[lane].failovers() - self.failover_baseline[lane];
        let moves = &mut self.moves[lane];
        moves.fused += consumed_total;
        moves.moves += 1;
        moves.polls += polls;
        self.now[lane] = cursor;
        true
    }

    /// Replays a window of an all-pending TDMA lane arithmetically: with
    /// every master pending, the grant sequence from the current wheel
    /// position is exactly the wheel sequence (the owner is always
    /// pending, so slot reclaim never fires and the round-robin reclaim
    /// pointer is untouched), every grant moves one word with zero
    /// setup stall, and every cycle is busy and contended. The walk is
    /// cut at the first head-transaction completion, so at most one
    /// completion occurs, at the batch's final cycle — identical to the
    /// per-cycle path's bookkeeping.
    fn wheel_batch_lane(&mut self, lane: usize, now: Cycle, limit: Cycle) -> bool {
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let masters = hi - lo;
        let (kernel, slot) = self.lowered[lane].expect("wheel lanes are lowered");
        let (kernel, slot) = (kernel as usize, slot as usize);
        let walk = self.kernels[kernel].wheel_walk(slot).expect("wheel kernel");
        // The batch ends at the window bound or one cycle past the
        // earliest completion, whichever is sooner. Masters owning no
        // wheel slots are never granted while everyone is pending (the
        // paths that could reach them all go through reclaim), so they
        // transfer nothing and impose no bound — exactly like scalar.
        let mut span = limit - now;
        for m in 0..masters {
            let remaining = u64::from(self.ports[lo + m].pending_words());
            if let Some(offset) = walk.occurrence_offset(m, remaining) {
                span = span.min(offset + 1);
            }
        }
        debug_assert!(span > 0);
        for m in 0..masters {
            let granted = walk.count_in(m, span);
            if granted == 0 {
                continue;
            }
            let id = MasterId::new(m);
            // `granted` never exceeds the head's remaining words: the
            // span is cut at the earliest completion, so it fits u32.
            let first = now + walk.occurrence_offset(m, 1).expect("granted > 0");
            let last = now + walk.occurrence_offset(m, granted).expect("granted > 0");
            self.stats[lane].record_grants(id, granted);
            self.stats[lane].record_words(id, granted as u32);
            let port = &mut self.ports[lo + m];
            port.note_grant(first);
            if let Some(done) = port.transfer(granted as u32, last) {
                self.stats[lane].record_completion(id, &done);
            }
        }
        if masters >= 2 {
            self.stats[lane].record_contended_arbitrations(span);
        }
        self.kernels[kernel].advance_wheel(slot, span);
        self.stats[lane].record_cycles(span);
        self.stats[lane].failovers = self.arbiters[lane].failovers() - self.failover_baseline[lane];
        self.moves[lane].wheel_batched += span;
        self.moves[lane].moves += 1;
        self.now[lane] = now + span;
        true
    }

    /// Simulates one cycle of lane `lane`, replicating
    /// [`crate::System::step`] exactly (poll phase with cached horizons,
    /// bus phase, accounting phase).
    fn step_lane(&mut self, lane: usize) {
        let now = self.now[lane];
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let mut polls = 0u64;
        {
            let ports = &mut self.ports[lo..hi];
            let sources = &mut self.sources[lo..hi];
            let horizons = &mut self.poll_horizon[lo..hi];
            for ((port, source), horizon) in
                ports.iter_mut().zip(sources.iter_mut()).zip(horizons.iter_mut())
            {
                if *horizon > now {
                    continue;
                }
                polls += 1;
                if let Some(txn) = source.poll_with_backlog(now, port.backlog_transactions()) {
                    port.enqueue(txn);
                }
                *horizon = source.next_event(now + 1);
            }
        }
        let completed = self.bus_step(lane, now);
        self.stats[lane].record_cycle();
        self.stats[lane].failovers = self.arbiters[lane].failovers() - self.failover_baseline[lane];
        if let Some(metrics) = self.metrics[lane].as_mut() {
            if let Some((_, done)) = completed {
                metrics.note_completion(done.latency());
            }
            metrics.end_cycle(now, &self.stats[lane], &self.ports[lo..hi]);
        }
        let moves = &mut self.moves[lane];
        moves.stepped += 1;
        moves.moves += 1;
        moves.polls += polls;
        self.now[lane] = now + 1;
    }

    /// One bus cycle of lane `lane` over the SoA transfer state,
    /// replicating the fault-free arms of the bus engine exactly.
    fn bus_step(&mut self, lane: usize, now: Cycle) -> Option<(MasterId, Completion)> {
        // Stalled: pay one setup cycle.
        let stall_left = self.stall_left[lane];
        if stall_left > 0 {
            self.stats[lane].record_stall(1);
            self.stall_left[lane] = stall_left - 1;
            if self.stall_left[lane] == 0 {
                self.words_left[lane] = self.stall_words[lane];
                self.stall_words[lane] = 0;
            }
            return None;
        }
        // Bursting: move one word.
        let words_left = self.words_left[lane];
        if words_left > 0 {
            let master = MasterId::new(self.owner[lane] as usize);
            let done = self.transfer_word(lane, master, now);
            self.words_left[lane] = words_left - 1;
            return done;
        }
        // Idle: arbitrate.
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        self.scratch.reset_for(hi - lo);
        for port in &self.ports[lo..hi] {
            if port.is_requesting() {
                self.scratch.set_pending(port.id(), port.pending_words());
            }
        }
        if self.scratch.pending_count() >= 2 {
            self.stats[lane].record_contended_arbitration();
        }
        let decision = match self.lowered[lane] {
            Some((kernel, slot)) => {
                self.kernels[kernel as usize].arbitrate_slot(slot as usize, &self.scratch, now)
            }
            None => self.arbiters[lane].arbitrate(&self.scratch, now),
        };
        match decision {
            Some(grant) => {
                assert!(
                    (self.scratch.bits() >> grant.master.index()) & 1 == 1,
                    "arbiter `{}` granted idle master {}",
                    self.arbiters[lane].name(),
                    grant.master
                );
                assert!(grant.max_words > 0, "arbiter granted zero words");
                let winner = grant.master;
                let port = &mut self.ports[lo + winner.index()];
                let words =
                    grant.max_words.min(self.configs[lane].max_burst).min(port.pending_words());
                self.stats[lane].record_grant(winner);
                port.note_grant(now);
                self.traces[lane].record(TraceEvent::Grant { cycle: now, master: winner, words });
                let slave = port.head_slave().expect("pending master has head");
                let (slo, shi) = (self.slave_offsets[lane], self.slave_offsets[lane + 1]);
                let wait_states = self.slaves[slo..shi]
                    .iter()
                    .find(|s| s.id() == slave)
                    .map_or(self.configs[lane].slave_wait_states, Slave::wait_states);
                let stall = self.configs[lane].grant_stall(wait_states);
                self.owner[lane] = winner.index() as u32;
                if stall > 0 {
                    self.stats[lane].record_stall(1);
                    if stall == 1 {
                        self.words_left[lane] = words;
                    } else {
                        self.stall_left[lane] = stall - 1;
                        self.stall_words[lane] = words;
                    }
                    None
                } else {
                    let done = self.transfer_word(lane, winner, now);
                    self.words_left[lane] = words - 1;
                    done
                }
            }
            None => {
                self.traces[lane].record(TraceEvent::Idle { cycle: now });
                None
            }
        }
    }

    /// Moves one word for `master` on lane `lane`, replicating the bus
    /// engine's per-word accounting exactly.
    #[inline]
    fn transfer_word(
        &mut self,
        lane: usize,
        master: MasterId,
        now: Cycle,
    ) -> Option<(MasterId, Completion)> {
        let lo = self.offsets[lane];
        self.stats[lane].record_words(master, 1);
        self.traces[lane].record(TraceEvent::Word { cycle: now, master });
        let done = self.ports[lo + master.index()].transfer(1, now)?;
        self.stats[lane].record_completion(master, &done);
        Some((master, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FixedOrderArbiter;
    use crate::config::BusConfig;
    use crate::ids::SlaveId;
    use crate::request::Transaction;
    use crate::system::{System, SystemBuilder};

    /// A deterministic pseudo-random source: issues a `words`-word
    /// transaction whenever a cheap hash of the cycle clears `threshold`.
    /// Impure (it counts polls), so it exercises the step path.
    #[derive(Clone)]
    struct HashSource {
        seed: u64,
        threshold: u64,
        words: u32,
        polls: u64,
    }

    impl HashSource {
        fn new(seed: u64, threshold: u64, words: u32) -> Self {
            HashSource { seed, threshold, words, polls: 0 }
        }
    }

    impl TrafficSource for HashSource {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            self.polls += 1;
            let mut z = now.index().wrapping_add(self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 31;
            (z % 1000 < self.threshold).then(|| Transaction::new(SlaveId::new(0), self.words, now))
        }
    }

    /// A saturate-style source upholding the pure-while-backlogged
    /// contract, so fleet lanes batch tenures.
    #[derive(Clone, Copy)]
    struct Saturating {
        words: u32,
    }

    impl TrafficSource for Saturating {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            Some(Transaction::new(SlaveId::new(0), self.words, now))
        }

        fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
            (backlog == 0).then(|| Transaction::new(SlaveId::new(0), self.words, now))
        }

        fn pure_while_backlogged(&self) -> bool {
            true
        }
    }

    enum TestSource {
        Hash(HashSource),
        Saturating(Saturating),
    }

    impl TrafficSource for TestSource {
        fn poll(&mut self, now: Cycle) -> Option<Transaction> {
            match self {
                TestSource::Hash(s) => s.poll(now),
                TestSource::Saturating(s) => s.poll(now),
            }
        }

        fn poll_with_backlog(&mut self, now: Cycle, backlog: usize) -> Option<Transaction> {
            match self {
                TestSource::Hash(s) => s.poll_with_backlog(now, backlog),
                TestSource::Saturating(s) => s.poll_with_backlog(now, backlog),
            }
        }

        fn next_event(&self, now: Cycle) -> Cycle {
            match self {
                TestSource::Hash(s) => s.next_event(now),
                TestSource::Saturating(s) => s.next_event(now),
            }
        }

        fn pure_while_backlogged(&self) -> bool {
            match self {
                TestSource::Hash(s) => s.pure_while_backlogged(),
                TestSource::Saturating(s) => s.pure_while_backlogged(),
            }
        }
    }

    struct LaneShape {
        masters: usize,
        words: u32,
        threshold: u64,
        saturated: bool,
        wait_states: u32,
        metrics: Option<u64>,
    }

    fn shapes() -> Vec<LaneShape> {
        vec![
            LaneShape {
                masters: 3,
                words: 8,
                threshold: 120,
                saturated: false,
                wait_states: 0,
                metrics: None,
            },
            LaneShape {
                masters: 4,
                words: 8,
                threshold: 0,
                saturated: true,
                wait_states: 0,
                metrics: None,
            },
            LaneShape {
                masters: 2,
                words: 5,
                threshold: 400,
                saturated: false,
                wait_states: 2,
                metrics: Some(64),
            },
            LaneShape {
                masters: 4,
                words: 3,
                threshold: 0,
                saturated: true,
                wait_states: 1,
                metrics: Some(128),
            },
            LaneShape {
                masters: 1,
                words: 16,
                threshold: 30,
                saturated: false,
                wait_states: 0,
                metrics: None,
            },
        ]
    }

    fn source_for(shape: &LaneShape, master: usize) -> TestSource {
        if shape.saturated {
            TestSource::Saturating(Saturating { words: shape.words })
        } else {
            TestSource::Hash(HashSource::new(master as u64 * 7 + 1, shape.threshold, shape.words))
        }
    }

    fn scalar_for(shape: &LaneShape) -> System<FixedOrderArbiter, TestSource> {
        let mut builder = SystemBuilder::new(BusConfig::default())
            .slave(Slave::with_wait_states(SlaveId::new(0), "s0", shape.wait_states))
            .trace_capacity(512);
        for m in 0..shape.masters {
            builder = builder.master(format!("m{m}"), source_for(shape, m));
        }
        if let Some(w) = shape.metrics {
            builder = builder.metrics_window(w);
        }
        builder.arbiter(FixedOrderArbiter::new(shape.masters)).build().expect("valid system")
    }

    fn lane_for(shape: &LaneShape) -> LaneBuilder<FixedOrderArbiter, TestSource> {
        let mut lane = LaneBuilder::new(BusConfig::default())
            .slave(Slave::with_wait_states(SlaveId::new(0), "s0", shape.wait_states))
            .trace_capacity(512);
        for m in 0..shape.masters {
            lane = lane.master(format!("m{m}"), source_for(shape, m));
        }
        if let Some(w) = shape.metrics {
            lane = lane.metrics_window(w);
        }
        lane.arbiter(FixedOrderArbiter::new(shape.masters))
    }

    fn assert_lane_matches_scalar(
        fleet: &Fleet<FixedOrderArbiter, TestSource>,
        lane: usize,
        scalar: &System<FixedOrderArbiter, TestSource>,
    ) {
        assert_eq!(fleet.stats(lane), scalar.stats(), "lane {lane} stats diverge");
        assert_eq!(fleet.trace(lane), scalar.trace(), "lane {lane} trace diverges");
        assert_eq!(
            fleet.metrics(lane).map(|m| m.samples()),
            scalar.metrics().map(|m| m.samples()),
            "lane {lane} metrics diverge"
        );
        for m in 0..scalar.masters() {
            let id = MasterId::new(m);
            assert_eq!(
                fleet.master(lane, id).backlog_words(),
                scalar.master(id).backlog_words(),
                "lane {lane} master {m} backlog diverges"
            );
            assert_eq!(
                fleet.master(lane, id).issued_transactions(),
                scalar.master(id).issued_transactions(),
                "lane {lane} master {m} issue count diverges"
            );
        }
    }

    #[test]
    fn every_lane_matches_its_solo_scalar_run() {
        let shapes = shapes();
        let fleet_lanes = shapes.iter().map(lane_for).collect();
        let mut fleet = Fleet::build(fleet_lanes).expect("valid fleet");
        fleet.run(5_000);
        fleet.flush_metrics();
        for (lane, shape) in shapes.iter().enumerate() {
            let mut scalar = scalar_for(shape);
            scalar.run(5_000);
            scalar.flush_metrics();
            assert_lane_matches_scalar(&fleet, lane, &scalar);
        }
    }

    #[test]
    fn warm_up_and_reset_match_scalar() {
        let shapes = shapes();
        let fleet_lanes = shapes.iter().map(lane_for).collect();
        let mut fleet = Fleet::build(fleet_lanes).expect("valid fleet");
        fleet.warm_up(1_000);
        fleet.run(3_000);
        fleet.flush_metrics();
        for (lane, shape) in shapes.iter().enumerate() {
            let mut scalar = scalar_for(shape);
            scalar.warm_up(1_000);
            scalar.run(3_000);
            scalar.flush_metrics();
            assert_lane_matches_scalar(&fleet, lane, &scalar);
        }
    }

    #[test]
    fn run_until_advances_only_trailing_lanes() {
        let shapes = shapes();
        let fleet_lanes = shapes.iter().map(lane_for).collect();
        let mut fleet = Fleet::build(fleet_lanes).expect("valid fleet");
        fleet.run_until(Cycle::new(700));
        assert!((0..fleet.len()).all(|l| fleet.now(l) == Cycle::new(700)));
        fleet.run_until(Cycle::new(500));
        assert!((0..fleet.len()).all(|l| fleet.now(l) == Cycle::new(700)), "no lane rewinds");
        fleet.run_until(Cycle::new(2_500));
        for (lane, shape) in shapes.iter().enumerate() {
            let mut scalar = scalar_for(shape);
            scalar.run(2_500);
            assert_lane_matches_scalar(&fleet, lane, &scalar);
        }
    }

    #[test]
    fn build_validation_mirrors_system_builder() {
        let empty: Vec<LaneBuilder<FixedOrderArbiter, TestSource>> = Vec::new();
        assert!(Fleet::build(empty).expect("empty fleet is valid").is_empty());

        let no_masters: LaneBuilder<FixedOrderArbiter, TestSource> =
            LaneBuilder::new(BusConfig::default());
        let err = Fleet::build(vec![no_masters]).unwrap_err();
        assert_eq!(err, FleetBuildError { lane: 0, error: BuildSystemError::NoMasters });

        let no_arbiter: LaneBuilder<FixedOrderArbiter, TestSource> =
            LaneBuilder::new(BusConfig::default())
                .master("m0", TestSource::Saturating(Saturating { words: 4 }));
        let err = Fleet::build(vec![no_arbiter]).unwrap_err();
        assert_eq!(err.lane, 0);
        assert_eq!(err.error, BuildSystemError::NoArbiter);

        let ok = lane_for(&shapes()[0]);
        let bad = LaneBuilder::new(BusConfig { max_burst: 0, ..BusConfig::default() })
            .master("m0", TestSource::Saturating(Saturating { words: 4 }))
            .arbiter(FixedOrderArbiter::new(1));
        let err = Fleet::build(vec![ok, bad]).unwrap_err();
        assert_eq!(err.lane, 1, "error names the offending lane");
        assert!(matches!(err.error, BuildSystemError::InvalidConfig(_)));
    }

    /// `shape`'s lane with trace and metrics off — the configuration
    /// under which `fast_arbitrate_lane` is legal (`fast_ok`).
    fn untraced_lane_for(shape: &LaneShape) -> LaneBuilder<FixedOrderArbiter, TestSource> {
        let mut lane = LaneBuilder::new(BusConfig::default()).slave(Slave::with_wait_states(
            SlaveId::new(0),
            "s0",
            shape.wait_states,
        ));
        for m in 0..shape.masters {
            lane = lane.master(format!("m{m}"), source_for(shape, m));
        }
        lane.arbiter(FixedOrderArbiter::new(shape.masters))
    }

    /// The scalar twin of [`untraced_lane_for`].
    fn untraced_scalar_for(shape: &LaneShape) -> System<FixedOrderArbiter, TestSource> {
        let mut builder = SystemBuilder::new(BusConfig::default()).slave(Slave::with_wait_states(
            SlaveId::new(0),
            "s0",
            shape.wait_states,
        ));
        for m in 0..shape.masters {
            builder = builder.master(format!("m{m}"), source_for(shape, m));
        }
        builder.arbiter(FixedOrderArbiter::new(shape.masters)).build().expect("valid system")
    }

    #[test]
    fn untraced_saturated_lane_takes_the_fused_path_and_stays_exact() {
        // wait_states=0 additionally exercises the zero-stall grant
        // shortcut and the fused loop's in-loop winner poll;
        // wait_states=1 routes fused decisions through the stall arm.
        for wait_states in [0u32, 1] {
            let shape = LaneShape {
                masters: 4,
                words: 8,
                threshold: 0,
                saturated: true,
                wait_states,
                metrics: None,
            };
            let mut fleet = Fleet::build(vec![untraced_lane_for(&shape)]).expect("valid fleet");
            assert!(fleet.fast_ok[0], "untraced, metric-less lane must qualify for fusing");
            assert_eq!(fleet.zero_stall[0], wait_states == 0);
            let mut scalar = untraced_scalar_for(&shape);
            // Odd slice lengths land window limits mid-tenure and
            // mid-stall; exactness must survive every resume.
            for slice in [1u64, 5, 63, 2, 640, 9, 3000, 17, 1000] {
                fleet.run(slice);
                scalar.run(slice);
                assert_lane_matches_scalar(&fleet, 0, &scalar);
            }
        }
    }

    #[test]
    fn untraced_mixed_fleet_interleaves_fused_and_step_lanes_exactly() {
        // Saturated lanes fuse whole multi-tenure windows while hash
        // lanes (impure sources, every-cycle horizons) decline the
        // fast path and single-step; both must agree with their solo
        // scalar twins at every slice boundary.
        let shapes = shapes();
        let fleet_lanes = shapes.iter().map(untraced_lane_for).collect();
        let mut fleet = Fleet::build(fleet_lanes).expect("valid fleet");
        assert!(fleet.fast_ok.iter().all(|&ok| ok), "every untraced lane qualifies");
        let mut scalars: Vec<_> = shapes.iter().map(untraced_scalar_for).collect();
        for slice in [7u64, 1, 500, 64, 3, 2000, 11] {
            fleet.run(slice);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                scalar.run(slice);
                assert_lane_matches_scalar(&fleet, lane, scalar);
            }
        }
    }

    #[test]
    fn saturated_lane_batches_but_stays_exact_mid_run() {
        // Run in many small slices so batches constantly hit `target`
        // boundaries mid-tenure; exactness must survive partial batches.
        let shape = &shapes()[1];
        let mut fleet = Fleet::build(vec![lane_for(shape)]).expect("valid fleet");
        let mut scalar = scalar_for(shape);
        for slice in [1u64, 3, 7, 2, 64, 5, 333, 11, 1000] {
            fleet.run(slice);
            scalar.run(slice);
            assert_lane_matches_scalar(&fleet, 0, &scalar);
        }
    }
}
