//! Executes one scenario and renders its verdict.
//!
//! The runner assembles a fully concrete
//! `System<ArbiterKind, PhasedSource>` (no virtual dispatch in the
//! hot loop) from the scenario's lane description, runs the phase
//! schedule with a statistics snapshot at every phase boundary, and
//! feeds the snapshots plus the windowed metrics into the SLA
//! evaluator. On top of the declared SLAs every run gets a built-in
//! conservation check: each master's issued transactions must equal
//! completed + aborted + still-queued.
//!
//! Verdicts serialize to deterministic JSON via
//! [`experiments::json::Json`] and deliberately contain no wall-clock
//! or kernel information — the same scenario run under the
//! cycle-accurate and fast-forward kernels must produce
//! byte-identical verdicts, and CI diffs exactly that.

use crate::model::{ArbiterSel, Expectation, FailoverDecl, Scenario, WedgeWindow};
use crate::phased::{mix, PhasedSource};
use crate::sla::{evaluate, EvalInput, Violation};
use crate::wedge::WedgingArbiter;
use arbiters::kind::ArbiterKind;
use arbiters::{
    FailoverArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter, TokenRingArbiter,
    WheelLayout,
};
use experiments::json::Json;
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter, TicketAssignment};
use socsim::{
    Arbiter, BusConfig, BusStats, FaultConfig, Kernel, LaneBuilder, MasterId, Slave, SlaveId,
    System, SystemBuilder,
};

/// Per-phase slice of the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// First cycle of the phase.
    pub start: u64,
    /// Cycles the phase ran.
    pub cycles: u64,
    /// Busy fraction of the phase.
    pub utilization: f64,
    /// Per-master bandwidth share of the phase (words / cycles).
    pub shares: Vec<f64>,
    /// Transactions lost in the phase.
    pub aborted: u64,
    /// Failovers fired in the phase.
    pub failovers: u64,
    /// Primary re-promotions in the phase.
    pub recoveries: u64,
}

/// The verdict of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Scenario name.
    pub name: String,
    /// The verdict the scenario said it expects.
    pub expected: Expectation,
    /// Whether every assertion (SLAs and conservation) held.
    pub passed: bool,
    /// Cycles simulated (sum of phase durations).
    pub total_cycles: u64,
    /// Transactions issued by all sources.
    pub issued: u64,
    /// Transactions completed.
    pub completed: u64,
    /// Transactions lost to retry exhaustion or watchdog timeout.
    pub aborted: u64,
    /// Transactions still queued when the schedule ended.
    pub backlog: u64,
    /// Times the failover fallback took over.
    pub failovers: u64,
    /// Times the primary was re-promoted.
    pub recoveries: u64,
    /// Every violated assertion, in declaration order.
    pub violations: Vec<Violation>,
    /// Per-phase breakdown.
    pub phases: Vec<PhaseReport>,
}

impl Outcome {
    /// Whether the verdict matches the scenario's `expect` line.
    pub fn as_expected(&self) -> bool {
        match self.expected {
            Expectation::Pass => self.passed,
            Expectation::Fail => !self.passed,
        }
    }

    /// Serializes the verdict as deterministic JSON. Contains no
    /// wall-clock or kernel identification: both kernels must render
    /// byte-identical verdicts for the same scenario.
    pub fn to_json(&self) -> Json {
        let verdict = |pass: bool| if pass { "pass" } else { "fail" };
        Json::obj()
            .field("name", self.name.as_str())
            .field("verdict", verdict(self.passed))
            .field("expected", verdict(self.expected == Expectation::Pass))
            .field("as_expected", self.as_expected())
            .field("total_cycles", self.total_cycles)
            .field(
                "transactions",
                Json::obj()
                    .field("issued", self.issued)
                    .field("completed", self.completed)
                    .field("aborted", self.aborted)
                    .field("backlog", self.backlog),
            )
            .field("failovers", self.failovers)
            .field("recoveries", self.recoveries)
            .field("violations", Json::Arr(self.violations.iter().map(violation_json).collect()))
            .field("phases", Json::Arr(self.phases.iter().map(phase_json).collect()))
    }
}

fn violation_json(v: &Violation) -> Json {
    Json::obj()
        .field("sla", v.sla.as_str())
        .field("phase", v.phase.as_deref().map_or(Json::Null, Json::from))
        .field("master", v.master.as_deref().map_or(Json::Null, Json::from))
        .field("observed", v.observed)
        .field("bound", v.bound)
        .field("message", v.message.as_str())
}

fn phase_json(p: &PhaseReport) -> Json {
    Json::obj()
        .field("name", p.name.as_str())
        .field("start", p.start)
        .field("cycles", p.cycles)
        .field("utilization", p.utilization)
        .field("shares", Json::Arr(p.shares.iter().map(|&s| Json::from(s)).collect()))
        .field("aborted", p.aborted)
        .field("failovers", p.failovers)
        .field("recoveries", p.recoveries)
}

/// Builds the scenario's arbiter chain:
/// `primary → [wedge wrapper] → [failover protection]`.
pub fn build_arbiter(sc: &Scenario) -> Result<ArbiterKind, String> {
    let weights = sc.masters.iter().map(|m| m.weight).collect();
    arbiter_chain(sc.arbiter, weights, sc.seed, sc.tdma_block, &sc.wedges, sc.failover)
}

/// Builds an arbiter chain from its parts: the `sel` protocol over
/// per-master `weights` (tickets, priorities or TDMA slot weights, one
/// per master), wrapped in a [`WedgingArbiter`] when `wedges` is
/// non-empty and in a [`FailoverArbiter`] when `failover` is set. The
/// lottery LFSRs are seeded from the low 32 bits of `seed`, TDMA gives
/// each weight unit `tdma_block` slots.
pub fn arbiter_chain(
    sel: ArbiterSel,
    weights: Vec<u32>,
    seed: u64,
    tdma_block: u32,
    wedges: &[WedgeWindow],
    failover: Option<FailoverDecl>,
) -> Result<ArbiterKind, String> {
    let n = weights.len();
    let seed = seed as u32 | 1;
    let primary: ArbiterKind = match sel {
        ArbiterSel::Lottery => {
            let tickets = TicketAssignment::new(weights).map_err(|e| e.to_string())?;
            StaticLotteryArbiter::with_seed(tickets, seed).map_err(|e| e.to_string())?.into()
        }
        ArbiterSel::LotteryDynamic => {
            let tickets = TicketAssignment::new(weights).map_err(|e| e.to_string())?;
            DynamicLotteryArbiter::with_seed(tickets, seed).map_err(|e| e.to_string())?.into()
        }
        ArbiterSel::Priority => {
            StaticPriorityArbiter::new(weights).map_err(|e| e.to_string())?.into()
        }
        ArbiterSel::Tdma => {
            let slots: Vec<u32> = weights.iter().map(|w| w * tdma_block).collect();
            TdmaArbiter::new(&slots, WheelLayout::Contiguous).map_err(|e| e.to_string())?.into()
        }
        ArbiterSel::RoundRobin => RoundRobinArbiter::new(n).map_err(|e| e.to_string())?.into(),
        ArbiterSel::TokenRing => TokenRingArbiter::new(n).map_err(|e| e.to_string())?.into(),
    };
    let wrapped: ArbiterKind = if wedges.is_empty() {
        primary
    } else {
        let windows = wedges.iter().map(|w| (w.from, w.until)).collect();
        ArbiterKind::Custom(Box::new(WedgingArbiter::new(windows, primary)))
    };
    match failover {
        None => Ok(wrapped),
        Some(f) => {
            let arb = match f.recovery {
                None => FailoverArbiter::with_patience(Box::new(wrapped), n, f.patience),
                Some(r) => FailoverArbiter::with_recovery(Box::new(wrapped), n, f.patience, r),
            }
            .map_err(|e| e.to_string())?;
            Ok(arb.into())
        }
    }
}

/// Cumulative (failovers, recoveries) of the arbiter chain.
pub(crate) fn probe(arb: &ArbiterKind) -> (u64, u64) {
    match arb {
        ArbiterKind::Failover(f) => (f.failovers(), f.recoveries()),
        other => (other.failovers(), 0),
    }
}

/// Assembles a scenario's bus system as one lane description: bus,
/// slaves, phased sources, fault plan, retry policy, watchdog, metrics
/// window and arbiter chain. [`run_scenario`] builds it into a scalar
/// system and the fleet runner packs it as a lane, so both run the same
/// system.
pub(crate) fn lane_builder(
    sc: &Scenario,
) -> Result<LaneBuilder<ArbiterKind, PhasedSource>, String> {
    let config = BusConfig { max_burst: sc.burst, ..BusConfig::new() };
    let mut lane: LaneBuilder<ArbiterKind, PhasedSource> = LaneBuilder::new(config);
    for (i, s) in sc.slaves.iter().enumerate() {
        lane = lane.slave(Slave::with_wait_states(SlaveId::new(i), s.name.clone(), s.wait));
    }
    for (i, m) in sc.masters.iter().enumerate() {
        lane = lane.master(m.name.clone(), PhasedSource::build(i, m, &sc.phases, sc.seed));
    }
    if sc.fault.is_active() {
        lane = lane.faults(FaultConfig { seed: mix(sc.seed), ..sc.fault });
    }
    if let Some(retry) = sc.retry {
        lane = lane.retry_policy(retry);
    }
    if let Some(timeout) = sc.timeout {
        lane = lane.timeout(timeout);
    }
    Ok(lane.metrics_window(sc.metrics_window).arbiter(build_arbiter(sc)?))
}

/// Runs one scenario under the chosen kernel and evaluates its SLAs.
/// Verdicts are byte-identical under every kernel.
pub fn run_scenario(sc: &Scenario, kernel: Kernel) -> Result<Outcome, String> {
    sc.validate()?;
    let mut system: System<ArbiterKind, PhasedSource> = SystemBuilder::from(lane_builder(sc)?)
        .kernel(kernel)
        .build()
        .map_err(|e| format!("scenario `{}`: {e}", sc.name))?;

    let mut snaps: Vec<BusStats> = Vec::with_capacity(sc.phases.len());
    let mut probes: Vec<(u64, u64)> = Vec::with_capacity(sc.phases.len());
    for phase in &sc.phases {
        system.run(phase.duration);
        snaps.push(system.stats().clone());
        probes.push(probe(system.arbiter_mut()));
    }
    system.flush_metrics();
    let samples = system.metrics().map(|m| m.samples().to_vec()).unwrap_or_default();
    let counts: Vec<(u64, u64)> = (0..sc.masters.len())
        .map(|i| {
            let port = system.master(MasterId::new(i));
            (port.issued_transactions(), port.backlog_transactions() as u64)
        })
        .collect();
    Ok(assemble_outcome(sc, &snaps, &probes, &samples, &counts))
}

/// Evaluates the SLAs and the conservation check and assembles the
/// verdict from a finished run's observations: per-phase statistics
/// snapshots, arbiter probes, windowed metrics samples and per-master
/// `(issued, backlog)` transaction counts. Shared by the scalar runner
/// and the fleet runner ([`crate::fleet`]) so both assemble verdicts
/// through the identical code path.
pub(crate) fn assemble_outcome(
    sc: &Scenario,
    snaps: &[BusStats],
    probes: &[(u64, u64)],
    samples: &[socsim::WindowSample],
    counts: &[(u64, u64)],
) -> Outcome {
    let mut violations = evaluate(&EvalInput { sc, snaps, probes, samples });
    let last = snaps.last().expect("at least one phase");
    conservation_check(sc, last, counts, &mut violations);
    let issued: u64 = counts.iter().map(|&(issued, _)| issued).sum();
    let backlog: u64 = counts.iter().map(|&(_, backlog)| backlog).sum();
    let completed: u64 = last.masters().iter().map(|m| m.transactions).sum();
    let (failovers, recoveries) = *probes.last().expect("at least one phase");
    let phases = phase_reports(sc, snaps, probes);
    let passed = violations.is_empty();
    Outcome {
        name: sc.name.clone(),
        expected: sc.expect,
        passed,
        total_cycles: sc.total_cycles(),
        issued,
        completed,
        aborted: last.aborted_transactions,
        backlog,
        failovers,
        recoveries,
        violations,
        phases,
    }
}

/// Issued must equal completed + aborted + backlog, per master. A
/// mismatch means the simulator lost or double-counted a transaction
/// and the verdict can't be trusted.
fn conservation_check(
    sc: &Scenario,
    last: &BusStats,
    counts: &[(u64, u64)],
    out: &mut Vec<Violation>,
) {
    for (i, m) in sc.masters.iter().enumerate() {
        let stats = last.master(MasterId::new(i));
        let (issued, backlog) = counts[i];
        let accounted = stats.transactions + stats.aborted + backlog;
        if issued != accounted {
            out.push(Violation {
                sla: "conservation".to_owned(),
                phase: None,
                master: Some(m.name.clone()),
                observed: accounted as f64,
                bound: issued as f64,
                message: format!(
                    "{}: issued {issued} transactions but completed + aborted + backlog \
                     accounts for {accounted}",
                    m.name
                ),
            });
        }
    }
}

fn phase_reports(sc: &Scenario, snaps: &[BusStats], probes: &[(u64, u64)]) -> Vec<PhaseReport> {
    let mut reports = Vec::with_capacity(sc.phases.len());
    let mut start = 0u64;
    for (k, phase) in sc.phases.iter().enumerate() {
        let delta = |f: &dyn Fn(&BusStats) -> u64| -> u64 {
            f(&snaps[k]) - if k == 0 { 0 } else { f(&snaps[k - 1]) }
        };
        let cycles = delta(&|s| s.cycles);
        let busy = delta(&|s| s.busy_cycles);
        let shares = (0..sc.masters.len())
            .map(|i| {
                let words = delta(&|s| s.master(MasterId::new(i)).words);
                if cycles == 0 {
                    0.0
                } else {
                    words as f64 / cycles as f64
                }
            })
            .collect();
        let (fo_end, rec_end) = probes[k];
        let (fo_start, rec_start) = if k == 0 { (0, 0) } else { probes[k - 1] };
        reports.push(PhaseReport {
            name: phase.name.clone(),
            start,
            cycles,
            utilization: if cycles == 0 { 0.0 } else { busy as f64 / cycles as f64 },
            shares,
            aborted: delta(&|s| s.aborted_transactions),
            failovers: fo_end - fo_start,
            recoveries: rec_end - rec_start,
        });
        start += phase.duration;
    }
    reports
}
