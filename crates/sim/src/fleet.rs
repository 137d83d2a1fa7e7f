//! Batched lockstep fleet execution over structure-of-arrays state.
//!
//! A [`Fleet`] advances N *independent* bus systems together. Lanes never
//! interact — lockstep is purely a performance structure: master ports,
//! sources and poll horizons are flattened lane-major with an offset
//! table, and each lane's [`Bus`], arbiter, statistics, trace and
//! metrics sit in dense per-lane vectors, so sweeping a fleet touches
//! memory linearly instead of pointer-chasing N heap-scattered
//! [`System`]s.
//!
//! ## Exactness contract
//!
//! Every lane is **byte-identical** to running the same lane description
//! through the scalar [`System`] under the default cycle kernel: the
//! statistics, trace events, metrics time-series, fault events, port
//! states and source states all match exactly. The fleet advances a lane
//! with four kinds of move:
//!
//! 1. **Per-cycle stepping** and 2. **idle skipping** are not the
//!    fleet's own code: a lane steps and skips through the same lane core
//!    and the same [`Bus`] as [`System`] does, so they match by
//!    construction. Lowered lanes route the bus's arbitration to their
//!    SoA kernel slot, which replicates the scalar protocol exactly.
//! 3. **Tenure batching** replays the rest of a bus tenure
//!    arithmetically. A source that comes due inside the tenure is
//!    polled inline, at its own cycle: a tenure never re-arbitrates, an
//!    enqueue lands behind work the bus already sees, and the owner's
//!    backlog changes only at its last word, whose poll comes before
//!    the transfer, so every poll sees the backlog a step would show
//!    it. A source that declares
//!    [`TrafficSource::pure_while_backlogged`] and whose port holds work
//!    is *elidable*: its polls are provable no-ops, so it is not polled
//!    and never bounds a window.
//! 4. **The fused loop** serves back-to-back tenures of an idle lane,
//!    running each boundary's poll phase before its arbitration, as a
//!    step orders them. A lowered TDMA lane grants one word per slot,
//!    so every busy cycle is a boundary; there the loop walks the slot
//!    wheel with the pending set held fixed, up to the first head
//!    completion or the next poll of a port that could join the set
//!    ([`SoaKernel::walk_slots`]). With every master pending the walk
//!    is counted arithmetically; otherwise it runs slot by slot inside
//!    the kernel, without a per-cycle arbitration.
//!
//! A batch move starts with the current cycle's poll phase. When the
//! next poll (or the run target) then falls on the very next cycle —
//! a *one-cycle window* — the cycle finishes as an ordinary step, so a
//! source that keeps the every-cycle default horizon is still stepped.
//! Otherwise the move runs on to the run target or the chunk boundary,
//! polling inline: a Bernoulli arrival no longer ends it.
//!
//! On a lane with windowed metrics a batch move also ends at the
//! lane's next window boundary. The move's cycles then enter the
//! registry at once: a window closes only on the move's last cycle,
//! where the statistics and ports stand as a per-cycle step would leave
//! them, and every completion inside the move notes its latency in the
//! window it falls in. So the time-series stays exact.
//!
//! On a lane with a fault plan, retry policy or watchdog (a *fault
//! lane*) every arbitration is a step: `Bus::step` draws the grant and
//! slave faults and applies the retry policy, written once. Tenure
//! batching then replays the rest of each tenure, up to the first cycle
//! at which the fault machinery would act inside it
//! (`Bus::tenure_fault_horizon`): a master-stall draw that fires on a
//! port other than the owner, or a watchdog deadline. The fault plan
//! keeps no state, so its next stall draw is found by scanning ahead
//! ([`crate::fault::FaultPlan::next_master_stall`]), and the watchdog
//! arming of the replayed cycles is replayed with them. Fault lanes
//! never fuse; the fused loop also needs tracing off.
//!
//! Moves 3 and 4 are what make fleets fast at saturation, where the
//! scalar cycle kernel pays the full per-cycle cost: a saturated 8-word
//! tenure collapses into one arbitration plus one arithmetic batch.
//! That is also why a one-lane fleet is the cycle kernel's fastest
//! exact form, and why the experiments run through one.
//!
//! Streaming trace sinks and the phase profiler exist on [`System`]
//! only.
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

use crate::arbiter::{Arbiter, Grant, SoaKernel, WalkShare};
use crate::bus::Bus;
use crate::cycle::Cycle;
use crate::error::BuildSystemError;
use crate::fastforward::MoveCounters;
use crate::fault::FaultEvent;
use crate::ids::MasterId;
use crate::lane::{idle_horizon, Lane};
use crate::master::{Completion, MasterPort};
use crate::metrics::BusMetrics;
use crate::request::{RequestMap, MAX_MASTERS};
use crate::slave::Slave;
use crate::stats::BusStats;
use crate::system::TrafficSource;
use crate::trace::BusTrace;

pub use crate::lane::LaneBuilder;

/// Lockstep chunk length: lanes are advanced in windows of this many
/// cycles so the whole fleet stays within one chunk of simulated time.
/// A batch move ends at a chunk boundary, which costs a lane one extra
/// move per chunk.
const CHUNK: u64 = 1024;

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

/// A fleet lane's arbiter as its bus sees it: the lane's slot in its
/// SoA decision kernel when the lane is lowered, its scalar arbiter
/// otherwise. Built by [`lane_arbiter`], the one place that makes the
/// choice. Name and failovers always come from the scalar arbiter
/// (protocols that lower have no failover state).
struct LaneArbiter<'a, A> {
    scalar: &'a mut A,
    lowered: Option<(&'a mut dyn SoaKernel, usize)>,
}

/// The arbitration route of lane `lane` (see [`LaneArbiter`]).
#[inline]
fn lane_arbiter<'a, A>(
    kernels: &'a mut [Box<dyn SoaKernel>],
    arbiters: &'a mut [A],
    lowered: Option<(u32, u32)>,
    lane: usize,
) -> LaneArbiter<'a, A> {
    let lowered = lowered.map(|(kernel, slot)| (kernels[kernel as usize].as_mut(), slot as usize));
    LaneArbiter { scalar: &mut arbiters[lane], lowered }
}

impl<A: Arbiter> Arbiter for LaneArbiter<'_, A> {
    #[inline]
    fn arbitrate(&mut self, requests: &RequestMap, now: Cycle) -> Option<Grant> {
        match &mut self.lowered {
            Some((kernel, slot)) => kernel.arbitrate_slot(*slot, requests, now),
            None => self.scalar.arbitrate(requests, now),
        }
    }

    fn name(&self) -> &str {
        self.scalar.name()
    }

    fn failovers(&self) -> u64 {
        self.scalar.failovers()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        match &self.lowered {
            Some((kernel, slot)) => kernel.next_event_slot(*slot, now),
            None => self.scalar.next_event(now),
        }
    }

    fn skip_idle(&mut self, delta: u64) {
        match &mut self.lowered {
            Some((kernel, slot)) => kernel.skip_idle_slot(*slot, delta),
            None => self.scalar.skip_idle(delta),
        }
    }
}

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
    /// Per-lane buses: configuration, tenure in flight and fault layer.
    buses: Vec<Bus>,
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
    /// path: no fault layer (whose draws act at every arbitration) and
    /// tracing off (the fused path elides per-cycle trace detail).
    fast_ok: Vec<bool>,
    /// Whether every possible grant on this lane has a zero setup
    /// stall (no arbitration overhead, no wait states anywhere) — a
    /// precondition of the TDMA slot walk.
    zero_stall: Vec<bool>,
    /// Whether the fused loop walks this lane's slot wheel: a lowered
    /// zero-stall lane whose kernel walks slots
    /// ([`SoaKernel::walks_slots`]).
    slot_walk: Vec<bool>,
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
    /// Arbitration scratch map of the fused loop, rebuilt in place per
    /// fused window.
    scratch: RequestMap,
    /// Per-master results of the fused loop's slot walk, one entry per
    /// possible master so steady-state walks stay allocation-free.
    shares: Vec<WalkShare>,
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
    /// Returns the first lane that fails the validation
    /// [`crate::SystemBuilder::build`] applies (no masters, too many
    /// masters, no arbiter, invalid bus, fault, retry, timeout or
    /// metrics configuration).
    pub fn build(lanes: Vec<LaneBuilder<A, S>>) -> Result<Self, FleetBuildError> {
        let n = lanes.len();
        let mut fleet = Fleet {
            offsets: Vec::with_capacity(n + 1),
            ports: Vec::new(),
            sources: Vec::new(),
            poll_horizon: Vec::new(),
            pure_backlog: Vec::new(),
            slave_offsets: Vec::with_capacity(n + 1),
            slaves: Vec::new(),
            buses: Vec::with_capacity(n),
            arbiters: Vec::with_capacity(n),
            kernels: Vec::new(),
            lowered: vec![None; n],
            fast_ok: Vec::with_capacity(n),
            zero_stall: Vec::with_capacity(n),
            slot_walk: vec![false; n],
            stats: Vec::with_capacity(n),
            traces: Vec::with_capacity(n),
            metrics: Vec::with_capacity(n),
            failover_baseline: vec![0; n],
            now: vec![Cycle::ZERO; n],
            moves: vec![MoveCounters::default(); n],
            scratch: RequestMap::new(1),
            shares: vec![WalkShare::default(); MAX_MASTERS],
            targets: Vec::with_capacity(n),
        };
        fleet.offsets.push(0);
        fleet.slave_offsets.push(0);
        for (lane, spec) in lanes.into_iter().enumerate() {
            let parts = spec.assemble().map_err(|error| FleetBuildError { lane, error })?;
            fleet.ports.extend(parts.ports);
            for source in parts.sources {
                fleet.pure_backlog.push(source.pure_while_backlogged());
                fleet.sources.push(source);
                fleet.poll_horizon.push(Cycle::ZERO);
            }
            fleet.offsets.push(fleet.ports.len());
            let config = parts.bus.config();
            fleet.zero_stall.push(
                config.arbitration_overhead == 0
                    && config.slave_wait_states == 0
                    && parts.slaves.iter().all(|s| s.wait_states() == 0),
            );
            fleet.slaves.extend(parts.slaves);
            fleet.slave_offsets.push(fleet.slaves.len());
            fleet.fast_ok.push(parts.bus.faults.is_none() && !parts.trace.is_enabled());
            fleet.buses.push(parts.bus);
            fleet.arbiters.push(parts.arbiter);
            fleet.stats.push(parts.stats);
            fleet.traces.push(parts.trace);
            fleet.metrics.push(parts.metrics);
        }
        fleet.lower_groups();
        Ok(fleet)
    }

    /// Detects same-protocol lane groups (by [`Arbiter::soa_signature`])
    /// and lowers each group into one shared SoA decision kernel.
    /// Singleton groups lower too — they gain no table sharing, but
    /// they do gain the kernels' batch machinery (the TDMA slot walk in
    /// particular). Lanes whose protocol declines to
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
                    self.slot_walk[lane] = self.zero_stall[lane] && kernel.walks_slots();
                }
                self.kernels.push(kernel);
            }
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.buses.len()
    }

    /// Whether the fleet has no lanes.
    pub fn is_empty(&self) -> bool {
        self.buses.is_empty()
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

    /// The recorded fault trace of lane `lane` (empty unless its builder
    /// set a fault plan, retry policy or watchdog).
    pub fn fault_events(&self, lane: usize) -> &[FaultEvent] {
        self.buses[lane].fault_events()
    }

    /// The metrics time-series of lane `lane`, or `None` when metrics
    /// were not enabled on its builder.
    pub fn metrics(&self, lane: usize) -> Option<&BusMetrics> {
        self.metrics[lane].as_ref()
    }

    /// The master ports of lane `lane`, in [`MasterId`] order.
    fn lane_ports(&self, lane: usize) -> &[MasterPort] {
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
        self.slot_walk[lane] = false;
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

    /// Advances every lane by `cycles` cycles, in lockstep chunks so the
    /// whole fleet stays within one chunk of simulated time.
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
                self.advance_lane(lane, lane_target.min(chunk_end));
            }
        }
        self.targets = targets;
    }

    /// Advances one lane to exactly `target` (no-op if its clock is
    /// already there or past). Lets drivers with per-lane schedules —
    /// scenario packs whose lanes end at different cycles — cap each
    /// lane at its own boundary while iterating boundaries in global
    /// order for lockstep locality.
    pub fn run_lane_until(&mut self, lane: usize, target: Cycle) {
        self.advance_lane(lane, target);
    }

    /// Runs `cycles` warm-up cycles on every lane and then discards the
    /// statistics, mirroring [`crate::System::warm_up`].
    pub fn warm_up(&mut self, cycles: u64) {
        self.run(cycles);
        self.reset_stats();
    }

    /// Advances one lane to `target`: an idle skip where nothing is due,
    /// and a batch move ([`Fleet::batch_lane`]) otherwise, clipped at
    /// the lane's next metrics window boundary; the fleet's counterpart
    /// of the scalar run loop.
    fn advance_lane(&mut self, lane: usize, target: Cycle) {
        while self.now[lane] < target {
            let now = self.now[lane];
            let horizon = self.idle_horizon_lane(lane, target);
            if horizon > now {
                self.with_lane(lane, |core| core.skip_to(horizon));
            } else {
                let end = match &self.metrics[lane] {
                    Some(metrics) => target.min(now + metrics.cycles_to_boundary()),
                    None => target,
                };
                self.batch_lane(lane, end);
            }
        }
    }

    /// Lends lane `lane`'s slices of the fleet's state to `f` as one
    /// [`Lane`] of the core shared with [`crate::System`].
    #[inline]
    fn with_lane<T>(
        &mut self,
        lane: usize,
        f: impl FnOnce(&mut Lane<'_, LaneArbiter<'_, A>, S>) -> T,
    ) -> T {
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let (slo, shi) = (self.slave_offsets[lane], self.slave_offsets[lane + 1]);
        let mut arbiter =
            lane_arbiter(&mut self.kernels, &mut self.arbiters, self.lowered[lane], lane);
        f(&mut Lane {
            bus: &mut self.buses[lane],
            arbiter: &mut arbiter,
            ports: &mut self.ports[lo..hi],
            sources: &mut self.sources[lo..hi],
            poll_horizon: &mut self.poll_horizon[lo..hi],
            slaves: &self.slaves[slo..shi],
            stats: &mut self.stats[lane],
            trace: &mut self.traces[lane],
            metrics: &mut self.metrics[lane],
            failover_baseline: self.failover_baseline[lane],
            now: &mut self.now[lane],
            moves: &mut self.moves[lane],
        })
    }

    /// The idle event horizon of lane `lane`, clipped at `bound` (see
    /// [`crate::System::idle_horizon`]).
    #[inline]
    fn idle_horizon_lane(&mut self, lane: usize, bound: Cycle) -> Cycle {
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let arbiter = lane_arbiter(&mut self.kernels, &mut self.arbiters, self.lowered[lane], lane);
        idle_horizon(
            &self.buses[lane],
            &self.ports[lo..hi],
            &self.sources[lo..hi],
            &arbiter,
            self.now[lane],
            bound,
        )
    }

    /// Whether source `i`'s polls are provable no-ops: it is pure while
    /// backlogged and its port holds work. Such a source never bounds a
    /// window and is never polled inside one; its cached horizon stays
    /// due, so the first poll phase after its backlog drains polls it.
    #[inline]
    fn elidable(&self, i: usize) -> bool {
        self.pure_backlog[i] && self.ports[i].backlog_transactions() > 0
    }

    /// The earliest cycle at which a source of lane `lane` that is not
    /// [elidable](Fleet::elidable) comes due.
    fn next_poll(&self, lane: usize) -> Cycle {
        (self.offsets[lane]..self.offsets[lane + 1])
            .filter(|&i| !self.elidable(i))
            .map(|i| self.poll_horizon[i])
            .min()
            .unwrap_or(Cycle::NEVER)
    }

    /// Runs every poll of lane `lane` that comes due in `[from, to)`, each
    /// at its own cycle, source by source: a source whose cached horizon
    /// has passed is polled at `from`, then at each horizon it reports,
    /// until it is [elidable](Fleet::elidable) or its horizon reaches `to`.
    ///
    /// Running the span's polls ahead of its bus work is exact when the
    /// bus reads no request line inside `(from, to)` (no arbitration, or
    /// only ports that stay requesting) and no queue head pops before the
    /// span's last cycle. Then an enqueue only lands behind work the bus
    /// already sees, every poll reads the backlog a step would show it
    /// (the one completion, on the last cycle, pops after that cycle's
    /// poll), and sources never read each other.
    fn poll_span(&mut self, lane: usize, from: Cycle, to: Cycle) {
        let mut polls = 0;
        for i in self.offsets[lane]..self.offsets[lane + 1] {
            loop {
                let at = self.poll_horizon[i].max(from);
                if at >= to || self.elidable(i) {
                    break;
                }
                let (port, source) = (&mut self.ports[i], &mut self.sources[i]);
                polls += 1;
                if let Some(txn) = source.poll_with_backlog(at, port.backlog_transactions()) {
                    port.enqueue(txn);
                }
                self.poll_horizon[i] = source.next_event(at + 1);
            }
        }
        self.moves[lane].polls += polls;
    }

    /// One batch move of lane `lane` from its current cycle toward `end`.
    ///
    /// The move first runs the current cycle's poll phase, as a step
    /// orders it: before the bus phase. A one-cycle window — the next
    /// poll or `end` falls on the very next cycle, as for a source that
    /// keeps the every-cycle default — finishes as an ordinary step, and
    /// so does an idle lane that may not fuse or has nothing to
    /// arbitrate. Otherwise the move replays the tenure in flight
    /// ([`Fleet::resume_tenure`]) and, on lanes that may fuse, serves
    /// tenures back to back ([`Fleet::fuse_tenures`]) until `end`. Polls
    /// that come due meanwhile run inline at their own cycles
    /// ([`Fleet::poll_span`]), so a Bernoulli arrival no longer ends the
    /// move. On a lane with a fault layer a tenure batch also ends where
    /// the fault machinery acts ([`Bus::tenure_fault_horizon`]), and
    /// every arbitration is a step.
    fn batch_lane(&mut self, lane: usize, end: Cycle) {
        let now = self.now[lane];
        self.poll_span(lane, now, now + 1);
        let busy = self.buses[lane].is_busy();
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let fuses = self.fast_ok[lane] && self.ports[lo..hi].iter().any(MasterPort::is_requesting);
        let end = if busy {
            let (ports, polls) = (&self.ports[lo..hi], &self.poll_horizon[lo..hi]);
            self.buses[lane].tenure_fault_horizon(ports, polls, now, end)
        } else {
            end
        };
        if self.next_poll(lane).min(end) <= now + 1 || !(busy || fuses) {
            self.with_lane(lane, |core| core.finish_step());
            return;
        }
        let mut cursor = now;
        if busy {
            cursor += self.resume_tenure(lane, cursor, end);
            if !self.fast_ok[lane] || cursor >= end || self.buses[lane].is_busy() {
                self.finish_batch(lane, cursor - now);
                return;
            }
            self.poll_span(lane, cursor, cursor + 1);
        }
        let cursor = self.fuse_tenures(lane, cursor, end);
        self.finish_batch(lane, cursor - now);
    }

    /// Closes a batch move of `cycles` cycles on lane `lane`: cycle and
    /// failover accounting, the metrics registry, the move count and the
    /// clock. The parts of the move credit their own kind of cycles.
    ///
    /// The move ends at or before the lane's next window boundary
    /// ([`Fleet::advance_lane`] clips it), so a window closes at most
    /// once, on the move's last cycle, over the statistics and ports a
    /// step would leave there (see [`BusMetrics::skip_cycles`]).
    #[inline]
    fn finish_batch(&mut self, lane: usize, cycles: u64) {
        let now = self.now[lane];
        self.stats[lane].record_cycles(cycles);
        self.stats[lane].failovers = self.arbiters[lane].failovers() - self.failover_baseline[lane];
        if let Some(metrics) = self.metrics[lane].as_mut() {
            let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
            metrics.skip_cycles(now, cycles, &self.stats[lane], &self.ports[lo..hi]);
        }
        self.now[lane] = now + cycles;
        self.moves[lane].moves += 1;
    }

    /// Replays lane `lane`'s tenure in flight from `cursor`, clipped at
    /// `end`, with the polls that come due inside it. Returns the cycles
    /// consumed.
    ///
    /// Exact because a tenure never re-arbitrates, and its owner's
    /// backlog changes only at its last word, whose poll comes before the
    /// transfer (see [`Fleet::poll_span`]). The poll phase of `cursor`
    /// must have run, and on a fault lane `end` must lie at or before
    /// the tenure's fault horizon ([`Bus::tenure_fault_horizon`]): the
    /// fault prepass of the replayed cycles then only arms watchdogs.
    fn resume_tenure(&mut self, lane: usize, cursor: Cycle, end: Cycle) -> u64 {
        let (_, stall, words) = self.buses[lane].tenure().expect("a tenure is in flight");
        let span = (u64::from(stall) + u64::from(words)).min(end - cursor);
        self.poll_span(lane, cursor + 1, cursor + span);
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        self.buses[lane].replay_tenure_prepass(&mut self.ports[lo..hi], cursor, cursor + span);
        let consumed = self.batch_tenure(lane, cursor, span);
        self.moves[lane].tenure_batched += consumed;
        consumed
    }

    /// Replays up to `max_cycles` of lane `lane`'s tenure in flight
    /// arithmetically, leaving its bus, ports, statistics and trace
    /// exactly where per-cycle stepping would.
    fn batch_tenure(&mut self, lane: usize, now: Cycle, max_cycles: u64) -> u64 {
        let Some((master, stall_left, mut words_left)) = self.buses[lane].tenure() else {
            return 0;
        };
        let pay = u64::from(stall_left).min(max_cycles) as u32;
        if pay > 0 {
            self.stats[lane].record_stall(pay);
        }
        let stall_left = stall_left - pay;
        let mut consumed = u64::from(pay);
        if stall_left == 0 && words_left > 0 {
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
                let port = &mut self.ports[self.offsets[lane] + master.index()];
                if let Some(done) = port.transfer(burst, last) {
                    record_completion(
                        &mut self.stats[lane],
                        &mut self.metrics[lane],
                        master,
                        &done,
                    );
                }
                consumed += u64::from(burst);
                words_left -= burst;
            }
        }
        self.buses[lane].set_tenure(master, stall_left, words_left);
        consumed
    }

    /// Serves lane `lane`'s tenures back to back from the idle boundary
    /// `cursor`, whose poll phase has run, until `end`, an idle decision
    /// or a tenure clipped at `end`. Returns the cycle it stopped at.
    ///
    /// Each boundary is one arbitration over a request map rebuilt from
    /// the ports, exactly as [`Bus::step`] builds it; the tenure it grants
    /// is replayed like [`Fleet::resume_tenure`], and the next boundary's
    /// poll phase runs before the next arbitration, as a step orders it.
    /// Only lanes without tracing or a fault layer take this path
    /// (`fast_ok`): it records no per-cycle trace detail.
    ///
    /// On a lowered zero-stall lane whose kernel walks a slot wheel
    /// (TDMA), a boundary with a non-empty pending set instead walks
    /// single-word grants with that set held fixed
    /// ([`Fleet::walk_lane`]): up to the first head completion, the
    /// next poll of a port that is not requesting (which could join the
    /// set), or `end`.
    fn fuse_tenures(&mut self, lane: usize, mut cursor: Cycle, end: Cycle) -> Cycle {
        let start = cursor;
        let (lo, hi) = (self.offsets[lane], self.offsets[lane + 1]);
        let max_burst = self.buses[lane].config().max_burst;
        let mut wheel = 0;
        loop {
            self.scratch.reset_for(hi - lo);
            for port in &self.ports[lo..hi] {
                if port.is_requesting() {
                    self.scratch.set_pending(port.id(), port.pending_words());
                }
            }
            let walked = match self.lowered[lane] {
                Some((kernel, slot)) if self.slot_walk[lane] && !self.scratch.is_empty() => {
                    let idle_poll = self.ports[lo..hi]
                        .iter()
                        .zip(&self.poll_horizon[lo..hi])
                        .filter(|(port, _)| !port.is_requesting())
                        .map(|(_, &poll)| poll)
                        .min()
                        .unwrap_or(Cycle::NEVER);
                    debug_assert!(idle_poll > cursor, "a due poll has not run");
                    let max_cycles = end.min(idle_poll) - cursor;
                    self.kernels[kernel as usize].walk_slots(
                        slot as usize,
                        &self.scratch,
                        max_cycles,
                        &mut self.shares,
                    )
                }
                _ => None,
            };
            if let Some(span) = walked {
                self.walk_lane(lane, cursor, span);
                wheel += span;
                cursor += span;
            } else {
                if self.scratch.pending_count() >= 2 {
                    self.stats[lane].record_contended_arbitration();
                }
                let decision =
                    lane_arbiter(&mut self.kernels, &mut self.arbiters, self.lowered[lane], lane)
                        .arbitrate(&self.scratch, cursor);
                let Some(grant) = decision else {
                    // An idle decision consumes exactly one cycle (tracing
                    // is off on this path). Hand the idle lane back to the
                    // horizon machinery.
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
                let words = grant.max_words.min(max_burst).min(port.pending_words());
                self.stats[lane].record_grant(winner);
                port.note_grant(cursor);
                // A zero-stall lane (no arbitration overhead, every slave
                // at zero wait states) makes the slave lookup dead:
                // grant_stall is zero for any wait-state value it could
                // resolve.
                let stall = if self.zero_stall[lane] {
                    0
                } else {
                    let slave = port.head_slave().expect("pending master has head");
                    let (slo, shi) = (self.slave_offsets[lane], self.slave_offsets[lane + 1]);
                    self.buses[lane].grant_stall(&self.slaves[slo..shi], slave)
                };
                // The tenure covers the grant cycle's own work: paying
                // `stall` from the armed stall records the same stall
                // cycles as the stepped 1 + (stall - 1) split, and a
                // zero-stall grant's first word is the first word of the
                // burst.
                let span = (u64::from(stall) + u64::from(words)).min(end - cursor);
                self.poll_span(lane, cursor + 1, cursor + span);
                if stall == 0 && u64::from(words) == span {
                    // A stall-free burst that fits: `batch_tenure` with
                    // the stall arm and the bus round-trip folded away,
                    // and the trace call elided (tracing is off).
                    self.stats[lane].record_words(winner, words);
                    let last = cursor + (span - 1);
                    if let Some(done) = self.ports[lo + winner.index()].transfer(words, last) {
                        record_completion(
                            &mut self.stats[lane],
                            &mut self.metrics[lane],
                            winner,
                            &done,
                        );
                    }
                } else {
                    self.buses[lane].set_tenure(winner, stall, words);
                    self.batch_tenure(lane, cursor, span);
                }
                cursor += span;
            }
            if cursor >= end || self.buses[lane].is_busy() {
                break;
            }
            self.poll_span(lane, cursor, cursor + 1);
        }
        let moves = &mut self.moves[lane];
        moves.wheel_batched += wheel;
        moves.fused += cursor - start - wheel;
        cursor
    }

    /// Replays a slot walk of `span` cycles from `now` on lane `lane`,
    /// whose kernel has walked it into `shares` over the pending set in
    /// `scratch`, as per-cycle stepping would: each master's grants and
    /// words, its first grant noted on its head, and its words
    /// transferred up to its last grant. Only the walk's last cycle can
    /// complete a head.
    ///
    /// The pending set holds for the whole walk: no head pops before its
    /// last cycle, and no port that is not requesting comes due inside it,
    /// so the polls that do come due run inline ([`Fleet::poll_span`]).
    /// Every cycle arbitrates over the same set, so all of them are
    /// contended when it holds two masters or more.
    fn walk_lane(&mut self, lane: usize, now: Cycle, span: u64) {
        self.poll_span(lane, now + 1, now + span);
        let lo = self.offsets[lane];
        for (m, share) in self.shares[..self.masters(lane)].iter().enumerate() {
            if share.grants == 0 {
                continue;
            }
            let id = MasterId::new(m);
            // A master's grants never exceed its head's remaining words
            // (the walk ends at the first completion), so they fit u32.
            self.stats[lane].record_grants(id, share.grants);
            self.stats[lane].record_words(id, share.grants as u32);
            let port = &mut self.ports[lo + m];
            port.note_grant(now + share.first);
            if let Some(done) = port.transfer(share.grants as u32, now + share.last) {
                record_completion(&mut self.stats[lane], &mut self.metrics[lane], id, &done);
            }
        }
        if self.scratch.pending_count() >= 2 {
            self.stats[lane].record_contended_arbitrations(span);
        }
    }
}

/// Accounts a completion inside a batch move: the lane's statistics,
/// and its latency in the current metrics window, as a step's
/// accounting phase notes it.
#[inline]
fn record_completion(
    stats: &mut BusStats,
    metrics: &mut Option<BusMetrics>,
    master: MasterId,
    done: &Completion,
) {
    stats.record_completion(master, done);
    if let Some(metrics) = metrics.as_mut() {
        metrics.note_completion(done.latency());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FixedOrderArbiter;
    use crate::config::BusConfig;
    use crate::fault::{FaultConfig, RetryPolicy};
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

    /// The solo scalar system of a lane description, on the cycle kernel.
    fn solo(
        lane: LaneBuilder<FixedOrderArbiter, TestSource>,
    ) -> System<FixedOrderArbiter, TestSource> {
        SystemBuilder::from(lane).build().expect("valid system")
    }

    fn scalar_for(shape: &LaneShape) -> System<FixedOrderArbiter, TestSource> {
        solo(lane_for(shape))
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

    /// `shape`'s lane with tracing off — the configuration under which
    /// `fuse_tenures` is legal (`fast_ok`) — and its metrics window, if
    /// any.
    fn untraced_lane_for(shape: &LaneShape) -> LaneBuilder<FixedOrderArbiter, TestSource> {
        let mut lane = LaneBuilder::new(BusConfig::default()).slave(Slave::with_wait_states(
            SlaveId::new(0),
            "s0",
            shape.wait_states,
        ));
        for m in 0..shape.masters {
            lane = lane.master(format!("m{m}"), source_for(shape, m));
        }
        if let Some(w) = shape.metrics {
            lane = lane.metrics_window(w);
        }
        lane.arbiter(FixedOrderArbiter::new(shape.masters))
    }

    #[test]
    fn untraced_saturated_lane_takes_the_fused_path_and_stays_exact() {
        // wait_states=0 additionally exercises the zero-stall grant
        // shortcut and the fused loop's in-loop winner poll;
        // wait_states=1 routes fused decisions through the stall arm.
        // Metrics windows shorter than a tenure, and windows that are
        // not multiples of it, clip moves mid-tenure and mid-stall;
        // each clipped move must close its window where a step would.
        for wait_states in [0u32, 1] {
            for metrics in [None, Some(1), Some(2), Some(3), Some(7), Some(100)] {
                let shape = LaneShape {
                    masters: 4,
                    words: 8,
                    threshold: 0,
                    saturated: true,
                    wait_states,
                    metrics,
                };
                let mut fleet = Fleet::build(vec![untraced_lane_for(&shape)]).expect("valid fleet");
                assert!(fleet.fast_ok[0], "untraced lane must qualify for fusing");
                assert_eq!(fleet.zero_stall[0], wait_states == 0);
                let mut scalar = solo(untraced_lane_for(&shape));
                // Odd slice lengths land window limits mid-tenure and
                // mid-stall; exactness must survive every resume.
                for slice in [1u64, 5, 63, 2, 640, 9, 3000, 17, 1000] {
                    fleet.run(slice);
                    scalar.run(slice);
                    assert_lane_matches_scalar(&fleet, 0, &scalar);
                }
                fleet.flush_metrics();
                scalar.flush_metrics();
                assert_lane_matches_scalar(&fleet, 0, &scalar);
                // A one-cycle metrics window makes every move a step.
                let moves = fleet.moves(0);
                let batched = moves.tenure_batched + moves.fused + moves.wheel_batched;
                assert_eq!(batched == 0, metrics == Some(1), "{metrics:?}: {moves:?}");
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
        let mut scalars: Vec<_> = shapes.iter().map(|s| solo(untraced_lane_for(s))).collect();
        for slice in [7u64, 1, 500, 64, 3, 2000, 11] {
            fleet.run(slice);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                scalar.run(slice);
                assert_lane_matches_scalar(&fleet, lane, scalar);
            }
        }
    }

    #[test]
    fn fault_lanes_batch_tenures_and_match_scalar() {
        // Every shape with a fault plan, a retry policy and a watchdog.
        // The lanes arbitrate through the shared bus and lane core, and
        // batch their tenures up to the next stall draw or watchdog
        // deadline; they must match a scalar system built from the same
        // lane description, fault log included. They never fuse.
        let faulted = |shape: &LaneShape| {
            untraced_lane_for(shape)
                .faults(FaultConfig {
                    seed: 9,
                    slave_error_rate: 0.05,
                    grant_drop_rate: 0.02,
                    grant_corrupt_rate: 0.02,
                    master_stall_rate: 0.01,
                    ..FaultConfig::default()
                })
                .retry_policy(RetryPolicy::exponential(2, 2))
                .timeout(300)
        };
        let shapes = shapes();
        let mut fleet = Fleet::build(shapes.iter().map(faulted).collect()).expect("valid fleet");
        assert!(fleet.fast_ok.iter().all(|&ok| !ok));
        let mut scalars: Vec<_> = shapes.iter().map(|s| solo(faulted(s))).collect();
        for slice in [3u64, 1, 700, 5, 2000, 64, 1227] {
            fleet.run(slice);
            for (lane, scalar) in scalars.iter_mut().enumerate() {
                scalar.run(slice);
                assert_lane_matches_scalar(&fleet, lane, scalar);
                assert_eq!(fleet.fault_events(lane), scalar.fault_events(), "lane {lane} faults");
            }
        }
        for (lane, shape) in shapes.iter().enumerate() {
            assert!(!fleet.fault_events(lane).is_empty(), "lane {lane} drew no fault");
            let moves = fleet.moves(lane);
            // Hash sources keep the every-cycle horizon, so their lanes
            // step like fault-free ones do.
            assert_eq!(moves.tenure_batched > 0, shape.saturated, "lane {lane}: {moves:?}");
            assert_eq!(moves.fused + moves.wheel_batched, 0, "lane {lane}: {moves:?}");
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
