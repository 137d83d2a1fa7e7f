//! Executes one scenario and renders its verdict.
//!
//! The runner builds the scenario's lane description over concrete
//! `ArbiterKind` and `PhasedSource` types (no virtual dispatch in the
//! hot loop), runs the phase schedule with a statistics snapshot at
//! every phase boundary, and feeds the snapshots plus the windowed
//! metrics into the SLA evaluator. Under [`Kernel::Cycle`] the lane runs
//! as a one-lane [`socsim::Fleet`] ([`crate::run_scenarios_fleet`]),
//! which batches tenures exactly; under [`Kernel::Fast`] it runs as a
//! scalar [`System`] that idle-skips. On top of the declared SLAs every
//! run gets a built-in conservation check: each master's issued
//! transactions must equal completed + aborted + still-queued.
//!
//! Verdicts serialize to deterministic JSON via
//! [`experiments::json::Json`] and deliberately contain no wall-clock
//! or kernel information — the same scenario run on the one-lane fleet,
//! the scalar fast-forward kernel and the scalar per-cycle kernel must
//! produce byte-identical verdicts, and CI diffs exactly that.

use crate::model::{ArbiterSel, Expectation, FailoverDecl, Scenario, WedgeWindow};
use crate::phased::{mix, PhasedSource};
use crate::sla::{evaluate, EvalInput, Violation};
use crate::wedge::WedgingArbiter;
use arbiters::kind::ArbiterKind;
use arbiters::tdma::MAX_WHEEL_SLOTS;
use arbiters::{
    ArbiterConfigError, FailoverArbiter, RoundRobinArbiter, StaticPriorityArbiter, TdmaArbiter,
    TokenRingArbiter, WheelLayout,
};
use experiments::json::Json;
use lotterybus::{DynamicLotteryArbiter, StaticLotteryArbiter, TicketAssignment};
use socsim::{
    Arbiter, BusConfig, BusStats, FaultConfig, Kernel, LaneBuilder, MasterId, Slave, SlaveId,
    System, SystemBuilder, WindowSample,
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
/// each weight unit `tdma_block` slots (at most
/// [`MAX_WHEEL_SLOTS`] in all).
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
            let slots: Option<Vec<u32>> =
                weights.iter().map(|w| w.checked_mul(tdma_block)).collect();
            let Some(slots) = slots else {
                // Some master alone needs more than `u32::MAX` slots.
                let slots = weights
                    .iter()
                    .fold(0u64, |sum, &w| sum.saturating_add(u64::from(w) * u64::from(tdma_block)));
                return Err(
                    ArbiterConfigError::WheelTooLarge { slots, max: MAX_WHEEL_SLOTS }.to_string()
                );
            };
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
/// window and arbiter chain. The scalar runner builds it into a
/// [`System`] and the fleet runner packs it as a lane, so both run the
/// same system.
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

/// What one scenario run observed, everything its verdict is assembled
/// from ([`assemble_outcome`]). The scalar runner and the fleet runner
/// ([`crate::fleet`]) both fill it, so both assemble verdicts through the
/// identical code path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Observations {
    /// Statistics snapshot at every phase boundary.
    pub snaps: Vec<BusStats>,
    /// Cumulative (failovers, recoveries) at every phase boundary.
    pub probes: Vec<(u64, u64)>,
    /// Windowed metrics samples, the partial tail window flushed.
    pub samples: Vec<WindowSample>,
    /// Per-master `(issued, backlog)` transaction counts at the end.
    pub counts: Vec<(u64, u64)>,
}

/// Runs one scenario under the chosen kernel and evaluates its SLAs.
/// Verdicts are byte-identical under every kernel.
///
/// [`Kernel::Cycle`] runs the scenario as a one-lane fleet
/// ([`crate::run_scenarios_fleet`]), the cycle kernel's lane-exact
/// batched form; a scenario with a fault plan, retry policy or
/// watchdog steps each arbitration there and batches its tenures up
/// to the next master-stall draw or watchdog deadline.
/// [`Kernel::Fast`] (and its alias [`Kernel::Tlm`]) runs a scalar
/// [`System`] that idle-skips.
pub fn run_scenario(sc: &Scenario, kernel: Kernel) -> Result<Outcome, String> {
    let observed = if kernel == Kernel::Cycle {
        crate::fleet::observe_fleet(&[sc])?.pop().expect("one scenario, one lane")
    } else {
        observe_system(sc, kernel)?
    };
    Ok(assemble_outcome(sc, &observed))
}

/// Runs one scenario as a scalar [`System`] under `kernel`. Under
/// [`Kernel::Cycle`] that is the per-cycle reference oracle: it steps
/// every cycle.
pub(crate) fn observe_system(sc: &Scenario, kernel: Kernel) -> Result<Observations, String> {
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
    let counts = (0..sc.masters.len())
        .map(|i| {
            let port = system.master(MasterId::new(i));
            (port.issued_transactions(), port.backlog_transactions() as u64)
        })
        .collect();
    Ok(Observations { snaps, probes, samples, counts })
}

/// Evaluates the SLAs and the conservation check and assembles the
/// verdict from a finished run's observations.
pub(crate) fn assemble_outcome(sc: &Scenario, observed: &Observations) -> Outcome {
    let Observations { snaps, probes, samples, counts } = observed;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::observe_fleet;
    use socsim::Fleet;
    use std::path::{Path, PathBuf};

    /// Every `.scenario` file of the repository's library, regression
    /// corpus included, parsed, in path order.
    fn library() -> Vec<(PathBuf, Scenario)> {
        fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).expect("readable scenario dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    collect(&path, out);
                } else if path.extension().is_some_and(|e| e == "scenario") {
                    out.push(path);
                }
            }
        }
        let mut paths = Vec::new();
        collect(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios"), &mut paths);
        paths.sort();
        assert!(paths.len() >= 25, "the library ships 25 scenarios, found {}", paths.len());
        paths
            .into_iter()
            .map(|path| {
                let text = std::fs::read_to_string(&path).expect("readable scenario");
                let sc =
                    Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                (path, sc)
            })
            .collect()
    }

    /// Whether the scenario's bus carries a fault layer (fault plan,
    /// retry policy or watchdog), whose fleet lane steps.
    fn has_fault_layer(sc: &Scenario) -> bool {
        sc.fault.is_active() || sc.retry.is_some() || sc.timeout.is_some()
    }

    #[test]
    fn default_path_matches_the_per_cycle_oracle_on_every_library_scenario() {
        for (path, sc) in library() {
            let oracle = observe_system(&sc, Kernel::Cycle).expect("scalar runs");
            let default = observe_fleet(&[&sc]).expect("fleet runs").pop().expect("one lane");
            assert!(!oracle.samples.is_empty(), "{}: no windowed samples", path.display());
            assert_eq!(default, oracle, "{}: observations diverge", path.display());
            assert_eq!(
                run_scenario(&sc, Kernel::Cycle).expect("runs").to_json().render(),
                assemble_outcome(&sc, &oracle).to_json().render(),
                "{}: verdict diverges",
                path.display()
            );
        }
    }

    /// The stepped-share bound of each library lane with a fault layer.
    /// Every arbitration draws grant and slave faults, so it steps; a
    /// stall draw or a watchdog deadline inside a tenure ends its batch.
    /// The bounds sit just above the measured shares. The regression
    /// reproducer fails every grant, so it never holds a tenure.
    const FAULT_LANE_STEPPED_SHARE: [(&str, f64); 7] = [
        ("cascading-outage-multichannel", 0.075),
        ("fuzz-0000-min", 0.10),
        ("grant-glitches", 0.03),
        ("retry-storm", 0.025),
        ("slave-outage-retry", 0.025),
        ("stall-resilience", 0.045),
        ("timeout-watchdog", 0.025),
    ];

    #[test]
    fn library_lanes_batch_their_tenures_and_step_under_their_bounds() {
        let mut fault_lanes = 0;
        for (path, sc) in library() {
            let lane = || lane_builder(&sc).expect("valid lane");
            let mut fleet = Fleet::build(vec![lane()]).expect("valid fleet");
            fleet.run(sc.total_cycles());
            let moves = fleet.moves(0);
            assert_eq!(moves.cycles(), sc.total_cycles(), "{}", path.display());
            let bound = FAULT_LANE_STEPPED_SHARE.iter().find(|(name, _)| *name == sc.name);
            assert_eq!(bound.is_some(), has_fault_layer(&sc), "{}", path.display());
            let bound = match bound {
                Some(&(_, bound)) => {
                    // A fault lane batches and still equals the scalar
                    // per-cycle run, fault log included.
                    let mut oracle = SystemBuilder::from(lane()).build().expect("valid system");
                    oracle.run(sc.total_cycles());
                    assert_eq!(fleet.stats(0), oracle.stats(), "{}", path.display());
                    assert_eq!(fleet.fault_events(0), oracle.fault_events(), "{}", path.display());
                    assert_eq!(
                        moves.tenure_batched > 0,
                        oracle.stats().busy_cycles > 0,
                        "{}: {moves:?}",
                        path.display()
                    );
                    fault_lanes += 1;
                    bound
                }
                None => 0.02,
            };
            assert!(moves.stepped_share() < bound, "{}: {moves:?}", path.display());
        }
        assert_eq!(fault_lanes, FAULT_LANE_STEPPED_SHARE.len());
    }
}
